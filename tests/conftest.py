import collections

import numpy as np
import pytest

from transdist import expr as ex
from transdist.bundle import TrivialBundle
from transdist.expr import Box


def each_engine():
    """Yield once with ``evaluate_many`` on its scalar engine for every
    batch of points, and once on its array engine for every batch."""
    for threshold in (10**9, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ex, "_ARRAY_MIN_ROWS", threshold)
            yield threshold


@pytest.fixture
def line_bundle():
    return TrivialBundle(1, 1)


@pytest.fixture
def plane_bundle():
    return TrivialBundle(2, 1)


def grid_points(box: Box, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box.intervals]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def fd_derivative(f, x, slot: int, h: float = 1e-4) -> float:
    """Richardson-extrapolated central difference, independent of symbolics."""
    def central(step):
        xp = list(x)
        xm = list(x)
        xp[slot] += step
        xm[slot] -= step
        return (f(tuple(xp)) - f(tuple(xm))) / (2 * step)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def random_polynomial(rng: np.random.Generator, dim: int, max_degree: int = 2,
                      names=None) -> ex.Expr:
    """Small random polynomial with integer coefficients in [-3, 3]."""
    terms = [ex.const(int(rng.integers(-3, 4)), dim)]
    for _ in range(int(rng.integers(1, 4))):
        factors = [ex.const(int(rng.integers(-3, 4)), dim)]
        for slot in range(dim):
            n = int(rng.integers(0, max_degree + 1))
            if n:
                name = names[slot] if names else f"x{slot}"
                factors.append(ex.int_pow(ex.var(slot, dim, name), n))
        terms.append(ex.mul(*factors))
    return ex.add(*terms)


def rewrite_chain(monkeypatch, start: ex.Expr, run) -> int:
    """How many leaf rewrites ``run()`` applies in a row to ``start``: a walk
    over ``start``, then one over its result, and so on."""
    walks = []
    walk = ex.Expr._map_leaves

    def spy(self, leaf_fn):
        out = walk(self, leaf_fn)
        walks.append((self, out))
        return out

    monkeypatch.setattr(ex.Expr, "_map_leaves", spy)
    run()
    chain, current = 0, start
    for receiver, out in walks:
        if receiver is current:
            chain, current = chain + 1, out
    return chain


def array_runs(monkeypatch) -> collections.Counter:
    """Counts each node's ``_eval_arr`` runs from here on, keyed by node
    (so the counter keeps every node it has seen alive)."""
    runs = collections.Counter()
    for cls in [c for c in vars(ex).values() if isinstance(c, type) and "_eval_arr" in vars(c)]:
        def counting(self, cols, vals, args, _run=vars(cls)["_eval_arr"]):
            runs[self] += 1
            return _run(self, cols, vals, args)

        monkeypatch.setattr(cls, "_eval_arr", counting)
    return runs


def nodes_by_reads(root: ex.Expr, base_slots) -> dict:
    """The interior nodes of root's DAG by what they read: "base" (base
    slots only, or nothing), "fibre" (fibre slots only) or "both"."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node._children())
    out = {"base": set(), "fibre": set(), "both": set()}
    for node in seen:
        if node._children():
            base = node.free_slots & base_slots
            out["base" if node.free_slots <= base else "both" if base else "fibre"].add(node)
    return out


def fibre_frontier(root: ex.Expr, base_slots) -> set:
    """The fibre-only interior nodes that a node reading a base slot reads,
    and root itself if it is one: what a one-row grid pass keeps."""
    kinds = nodes_by_reads(root, base_slots)
    out = {k for node in kinds["both"] for k in node._children() if k in kinds["fibre"]}
    return out | ({root} & kinds["fibre"])
