"""Print one sha256 per output of a transdist checkout.

    python3 tools/fingerprint.py ROOT

ROOT is a checkout (the directory holding ``src/transdist``).  The
outputs fingerprinted are:

* ``check --suite all``, as JSON and as a table, on every shipped scene;
* ``support``, ``restrict``, ``derive``, ``action --base`` and
  ``action --total`` for every distribution of every scene;
* ``eval`` for every distribution and function of a scene;
* ``apply`` for every operator and ``compose`` for every ordered pair of
  operators of a scene;
* ``member`` for every profile, with a base function and with every
  distribution of the scene;
* the stdout of every demo;
* when ``ROOT/perfbench/workloads.py`` exists, the payloads of its
  workloads for seeds 1 and 7, operations 0-2 (imported, never edited).

Each line is ``sha256  label``; the hash covers the exit code and the
output with durations and scene paths removed.  To show that a change
moves no output, run the tool on a clean copy of the parent commit and
on the change, and ``diff`` the two listings.
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
DURATION = re.compile(r'"duration_seconds": [^,\n]*|\(\d+\.\d+s\)')


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def cli_outputs(root: Path):
    """(label, hash) of every CLI output over the shipped scenes."""
    from transdist import cli

    def run(label, path, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([argv[0], str(path), *argv[1:]])
        text = DURATION.sub("", out.getvalue()).replace(str(path), path.name)
        return f"{' '.join(argv)} {label}", digest(code, text)

    for path in sorted((root / "src" / "transdist" / "scenes").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        base_dim = doc["bundle"]["base_dim"]
        at = ",".join(["0.3"] * base_dim)
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
            yield run(label, path, "action", T, "--total", "1 + x0*y0")
            for F in sorted(doc.get("functions", {})):
                yield run(label, path, "eval", T, F)
        operators = sorted(doc.get("operators", {}))
        for K in operators:
            yield run(label, path, "apply", K, "--g", "1 + y0")
            for K2 in operators:
                yield run(label, path, "compose", K, K2)
        for P in sorted(doc.get("profiles", {})):
            yield run(label, path, "member", P, "--function", BASE_FUNCTION)
            for T in dists:
                yield run(label, path, "member", P, "--distribution", T)


def demo_outputs(root: Path):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for demo in sorted((root / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              env=env, cwd=root, check=False)
        yield f"demo {demo.name}", digest(done.returncode, done.stdout)


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
                           digest(0, json.dumps(payload, sort_keys=True)))


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
    for outputs in (cli_outputs(root), demo_outputs(root), workload_outputs(root)):
        for label, h in outputs:
            print(f"{h}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
