"""Print one sha256 per output of a transdist checkout.

    python3 tools/fingerprint.py ROOT

ROOT is a checkout (the directory holding ``src/transdist``).  The
outputs fingerprinted are:

* ``check --suite all``, as JSON and as a table, on every shipped scene;
* ``support``, ``restrict``, ``derive``, ``action --base`` and
  ``action --total`` for every distribution of every scene;
* ``eval`` for every distribution and function of a scene;
* ``seminorm`` of order 2 over [-1, 1] on every axis, at grid density 9,
  for every function of a scene;
* ``apply`` for every operator and ``compose`` for every ordered pair of
  operators of a scene;
* ``member`` for every profile, with a base function and with every
  distribution of the scene;
* ``lf_membership`` of T(1 + x0*y0) and ``lfB_membership`` of T, run in
  process for every distribution T of every scene under two profiles: one
  that every value passes, so the verdict covers the whole lattice, and
  one whose epsilons stop at the first nonzero value, whose float the
  witness carries;
* the stdout of every demo;
* when ``ROOT/perfbench/workloads.py`` exists, the payloads of its
  workloads for seeds 1 and 7, operations 0-2 (imported, never edited).

Each line is ``sha256  label``; the hash covers the exit code and the
output with durations and scene paths removed.  To show that a change
moves no output, run the tool on a clean copy of the parent commit and
on the change, and ``diff`` the two listings.  The tool exits 1 when a
CLI command exits 4 (internal error) or a demo exits nonzero, after
printing every line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)
OPERATIONS = range(3)
BASE_FUNCTION = "2 + x0"  # the --base of action, and member's --function
TOTAL_FUNCTION = "1 + x0*y0"  # the --total of action, and T(F) of the lf scans
# The scans' profile: shells [-1, 1]^l and [-2, 2]^l of orders 1 and 2, with
# epsilons every value passes or every nonzero value fails.
SCAN_ORDERS = (1, 2)
SCAN_EPSILONS = {"pass": (1e300, 1e299), "witness": (1e-300, 1e-301)}
SCAN_FAMILY = ("1", "y0")  # each shell's bounded family in the lfB scans
DURATION = re.compile(r'"duration_seconds": [^,\n]*|\(\d+\.\d+s\)')


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def scene_paths(root: Path):
    return sorted((root / "src" / "transdist" / "scenes").glob("*.json"))


def cli_outputs(root: Path):
    """(label, hash, failed) of every CLI output over the shipped scenes;
    failed when the command exits 4, an internal error."""
    from transdist import cli

    def run(label, path, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([argv[0], str(path), *argv[1:]])
        text = DURATION.sub("", out.getvalue()).replace(str(path), path.name)
        return f"{' '.join(argv)} {label}", digest(code, text), code == 4

    for path in scene_paths(root):
        doc = json.loads(path.read_text(encoding="utf-8"))
        base_dim = doc["bundle"]["base_dim"]
        at = ",".join(["0.3"] * base_dim)
        box = ";".join(["-1:1"] * (base_dim + doc["bundle"]["fibre_dim"]))
        alpha = ",".join(["1"] + ["0"] * (base_dim - 1))
        dists = sorted(doc.get("distributions", {}))
        label = path.name
        yield run(label, path, "check", "--suite", "all")
        yield run(label, path, "check", "--suite", "all", "--format", "table")
        for T in dists:
            yield run(label, path, "support", T)
            yield run(label, path, "restrict", T, "--at", at)
            yield run(label, path, "derive", T, "--alpha", alpha)
            yield run(label, path, "action", T, "--base", BASE_FUNCTION)
            yield run(label, path, "action", T, "--total", TOTAL_FUNCTION)
            for F in sorted(doc.get("functions", {})):
                yield run(label, path, "eval", T, F)
        for F in sorted(doc.get("functions", {})):
            yield run(label, path, "seminorm", F, f"--box={box}", "--order", "2",
                      "--grid-density", "9")
        operators = sorted(doc.get("operators", {}))
        for K in operators:
            yield run(label, path, "apply", K, "--g", "1 + y0")
            for K2 in operators:
                yield run(label, path, "compose", K, K2)
        for P in sorted(doc.get("profiles", {})):
            yield run(label, path, "member", P, "--function", BASE_FUNCTION)
            for T in dists:
                yield run(label, path, "member", P, "--distribution", T)


def scan_outputs(root: Path):
    """(label, hash, False) of the LF membership scans of every distribution
    of every scene, through the library; a scan that raises ExprError hashes
    its message with code 1."""
    import transdist
    from transdist import cli, topology
    from transdist import distribution as dist

    for path in scene_paths(root):
        scene = cli.load_scene(path)
        b = scene.bundle
        F = b.parse_total(TOTAL_FUNCTION)
        family = topology.BoundedFamily(b.fibre_dim, tuple(map(b.parse_fibre, SCAN_FAMILY)))
        for name in sorted(scene.distributions):
            T = scene.distribution(name)
            for kind, epsilons in sorted(SCAN_EPSILONS.items()):
                profile = topology.LFProfile(b.base_dim, SCAN_ORDERS, epsilons)
                for what in ("lf", "lfB"):
                    try:
                        if what == "lf":
                            res = topology.lf_membership(profile, dist.evaluate(T, F))
                        else:
                            res = topology.lfB_membership(profile, (family, family), T)
                        code, text = 0, json.dumps([res.accepted, res.witness])
                    except transdist.ExprError as e:
                        code, text = 1, str(e)
                    yield (f"{what}_membership {kind} {name} {path.name}",
                           digest(code, text), False)


def demo_outputs(root: Path):
    """(label, hash, failed) of every demo's stdout; failed on a nonzero exit."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for demo in sorted((root / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              env=env, cwd=root, check=False)
        yield f"demo {demo.name}", digest(done.returncode, done.stdout), done.returncode != 0


def workload_outputs(root: Path):
    bench = root / "perfbench"
    if not (bench / "workloads.py").is_file():
        return
    sys.path.insert(0, str(bench))
    import transdist
    import transdist.cli  # noqa: F401  (the workloads use it as td.cli)
    import workloads
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in sorted(workloads.WORKLOADS.items()):
            for seed in SEEDS:
                for index in OPERATIONS:
                    case = wl.generate(seed, index)
                    path = Path(tmp) / f"{name}-{seed}-{index}.json"
                    path.write_text(case.scene_text(), encoding="utf-8")
                    payload, _ = wl.run(transdist, path, case)
                    # plain data: JSON prints each float's shortest round-trip repr
                    yield (f"workload {name} seed {seed} op {index}",
                           digest(0, json.dumps(payload, sort_keys=True)), False)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path.insert(0, str(root / "src"))
    import transdist
    if Path(transdist.__file__).resolve().parent != root / "src" / "transdist":
        print(f"imported transdist from {transdist.__file__}, not {root}/src", file=sys.stderr)
        return 2
    failed = False
    for outputs in (cli_outputs(root), scan_outputs(root), demo_outputs(root),
                    workload_outputs(root)):
        for label, h, bad in outputs:
            print(f"{h}  {label}")
            failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
