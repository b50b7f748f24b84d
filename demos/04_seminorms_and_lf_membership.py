"""Seminorms and LF-neighbourhood membership with witnesses.

The seminorm of (box K, order m) takes the sup of all derivatives up to
order m over a lattice inside K; lattices of nested boxes are nested, so
the monotonicity in K and m holds exactly as computed.  Membership in an
LF neighbourhood is checked shell by shell and rejections carry an exact
witness (shell, point, multi-index, value).
"""

from transdist import (LFProfile, BoundedFamily, Seminorm, TrivialBundle,
                       dirac_section, lfB_membership, lf_membership, pB_eval,
                       seminorm_eval)
from transdist.bundle import section_from_strings
from transdist.distribution import BaseFunction, dirac_at
from transdist.expr import Box, parse

print("seminorms p_{K, m} on expressions:")
bump = parse("bump(x0)", 1)
for m in (0, 1, 2):
    p = Seminorm(Box.of([(-1, 1)]), m)
    print(f"  p_([-1,1], {m})(bump) = {seminorm_eval(p, bump):.12f}")
print("  the order-0 value is bump(0) = e^-1, attained at the lattice origin")

print()
print("family seminorm p_B on a point distribution:")
b = TrivialBundle(1, 1)
fam = BoundedFamily(1, (b.parse_fibre("y0^2"), b.parse_fibre("y0 + 1")))
v = dirac_at((0.0,), 1)
print(f"  p_B(delta_0) over {{y^2, y + 1}} = {pB_eval(fam, v)}")

print()
print("LF membership of base functions, shell by shell:")
profile = LFProfile(1, orders=(0, 1), epsilons=(0.5, 0.25))
f = BaseFunction(b, symbolic=b.parse_base("bump(x0)"))
print(f"  bump against (0.5, 0.25): accepted = {lf_membership(profile, f).accepted}")

big = BaseFunction(b, symbolic=b.parse_base("1000000*bump(x0)"))
res = lf_membership(LFProfile(1, orders=(0,), epsilons=(1e-6,)), big)
print(f"  scaled bump against 1e-6: accepted = {res.accepted}")
print(f"  witness: {res.witness}")

print()
print("distribution membership goes through family derivatives:")
T = dirac_section(section_from_strings(b, ["x0"]), b.parse_base("bump(x0)"))
fams = (fam, fam)
loose = LFProfile(1, orders=(0, 0), epsilons=(10.0, 5.0))
tight = LFProfile(1, orders=(1, 1), epsilons=(0.4, 0.2))
print(f"  generous epsilons: accepted = {lfB_membership(loose, fams, T).accepted}")
res = lfB_membership(tight, fams, T)
print(f"  tight epsilons:    accepted = {res.accepted}")
print(f"  witness: {res.witness}")
