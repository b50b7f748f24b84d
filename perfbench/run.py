"""Benchmark of the transdist calculus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``.  One process, one thread, closed loop: a single caller starts
the next operation only after the previous one returned and its outputs
were checked.  The workloads are defined in ``workloads.py``.

Set-up, outside the timed window:
  * generate the seed's first scene and run ``python -m transdist.cli check
    SCENE --suite all`` on it in a subprocess; it must exit 0 with the same
    case verdicts as ``run_checks`` in this process;
  * run and check one warm-up operation;
  * with ``--trace 0``, time ``import transdist`` plus loading that scene in
    fresh interpreters (``setup_s``, median of several).

Then operations run on freshly generated inputs until ``--seconds`` of
wall time have passed.  Each operation is timed on its own; generating its
scene and checking its outputs are not.  Every timing is bracketed by two
host-speed probes and reported in normalized seconds (see ``hostspeed.py``);
the raw wall-clock median is printed beside the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
window untraced and half traced by ``tracer.py`` and reports the per-layer
metrics plus ``trace.overhead_frac``; its spans go to
``perfbench/out/spans-<workload>.tsv.gz``.  Every metric is printed by name
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# one BLAS/OpenMP thread here and in every child process
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import hostspeed  # noqa: E402  (numpy must see the thread settings above)

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import transdist, transdist.cli
transdist.cli.load_scene(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import transdist from this checkout's src/ and nowhere else."""
    if not (SRC / "transdist" / "__init__.py").is_file():
        raise BenchError(f"no transdist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import transdist
    import transdist.cli  # noqa: F401  (the workloads use it as td.cli)
    if Path(transdist.__file__).resolve().parent != SRC / "transdist":
        raise BenchError(f"imported transdist from {transdist.__file__}, not {SRC}")
    return transdist


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_scene(case) -> Path:
    path = OUT / "scenes" / case.workload / f"{case.seed}-{case.index}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(case.scene_text(), encoding="utf-8")
    return path


def timed(fn, *args):
    """(result, wall seconds, normalized seconds) of one call."""
    before = hostspeed.probe()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = hostspeed.probe()
    return result, wall, wall * hostspeed.REFERENCE_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Set-up


def cli_cross_check(td, path: Path) -> list:
    """The CLI must pass ``check --suite all`` with this process's verdicts."""
    reports = td.cli.run_checks(td.cli.load_scene(path), td.cli.SUITES)
    want = [[r.suite, c.case_id, bool(c.passed), bool(c.skipped)]
            for r in reports for c in r.cases]
    proc = subprocess.run(
        [sys.executable, "-m", "transdist.cli", "check", str(path), "--suite", "all"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"cli check exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"]
    got = [[s["suite"], c["id"], c["passed"], c["skipped"]]
           for s in json.loads(proc.stdout)["suites"] for c in s["cases"]]
    if got != want:
        return [f"cli verdicts differ from run_checks: {got} != {want}"]
    return []


def _setup_child(path: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(path)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(path: Path) -> list:
    """Normalized seconds to import transdist and load the scene, each in a
    fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        child_s, wall, normalized = timed(_setup_child, path)
        times.append(child_s * normalized / wall)
    return times


# ---------------------------------------------------------------------------
# Operations


def run_one(td, wl, seed: int, index: int, tracer=None):
    """Generate, run and check one operation.

    Returns ((wall, normalized) seconds, or None if it raised; problems).
    """
    case = wl.generate(seed, index)
    path = write_scene(case)
    gc.collect()
    try:
        if tracer is None:
            (payload, ctx), wall, normalized = timed(wl.run, td, path, case)
        else:
            (payload, ctx), wall, normalized = timed(tracer.run_op, index, wl.run,
                                                     td, path, case)
            tracer.per_op[-1]["scale"] = normalized / wall
    except Exception:  # noqa: BLE001  (an operation that raises is a failure)
        return None, [f"operation {index} raised:\n{traceback.format_exc()}"]
    try:
        problems = wl.check(td, case, payload, ctx)
    except Exception:  # noqa: BLE001
        problems = [f"checking operation {index} raised:\n{traceback.format_exc()}"]
    return (wall, normalized), [f"operation {index}: {p}" for p in problems]


def run_window(td, wl, seed: int, seconds: float, tracer=None):
    """Closed loop over fresh operations for a wall-clock window.

    Returns ([(wall, normalized) seconds of each passing operation],
    attempted, failed, problems).
    """
    samples, problems, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    index = 1  # index 0 is the set-up scene
    while attempted == 0 or time.perf_counter() < deadline:
        took, errs = run_one(td, wl, seed, index, tracer)
        attempted += 1
        if errs:
            failed += 1
            problems += errs
        else:
            samples.append(took)
        index += 1
    return samples, attempted, failed, problems


def tail(samples):
    """(p, value): the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples this falls back to the median.
    """
    n = len(samples)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    return p, sorted(samples)[max(1, math.ceil(p * n / 100)) - 1]


def end_to_end(samples, failed: int, attempted: int, setup_times):
    """(metrics, notes beside them, informational lines)."""
    wall = [w for w, _ in samples]
    times = [t for _, t in samples]
    n = len(times)
    p, tail_s = tail(times) if times else (None, None)
    busy = math.fsum(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times) if times else None, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (n / busy if times else None, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{p}, n={n}",
        "ops_per_s": f"{n} ops in {busy:.3f} normalized s of operations",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    info = [f"fail_frac = {failed / attempted!r} ({failed} of {attempted} operations)"]
    if wall:
        info.append(f"wall-clock op p50 = {statistics.median(wall)!r} s "
                    f"(normalized over wall: {metrics['op_p50_s'][0] / statistics.median(wall):.3f})")
    return metrics, notes, info


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        td = import_library()
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    first_path = write_scene(wl.generate(args.seed, 0))
    problems = cli_cross_check(td, first_path)
    _, errs = run_one(td, wl, args.seed, 0)  # warm-up
    problems += errs
    gc.collect()
    gc.freeze()

    lines = [f"workload {wl.name}: {wl.why}", f"seed {args.seed}"]
    if args.trace == 0:
        setup_times = measure_setup(first_path)
        samples, attempted, failed, errs = run_window(td, wl, args.seed, args.seconds)
        problems += errs
        values, notes, info = end_to_end(samples, failed, attempted, setup_times)
        lines += info
    else:
        import tracer as tracing
        base, attempted, failed, errs = run_window(td, wl, args.seed, args.seconds / 2)
        problems += errs
        tr = tracing.Tracer()
        tr.install()
        traced, t_attempted, t_failed, errs = run_window(td, wl, args.seed,
                                                         args.seconds / 2, tr)
        tr.uninstall()
        problems += errs
        attempted, failed = attempted + t_attempted, failed + t_failed
        values, notes = {}, {}
        for name, (value, unit, reason) in tr.metrics().items():
            values[name] = (value, unit)
            if reason:
                notes[name] = f"absent: {reason}"
        overhead = None
        if base and traced:
            overhead = (statistics.median(t for _, t in traced)
                        / statistics.median(t for _, t in base) - 1)
        values["trace.overhead_frac"] = (overhead, "ratio")
        notes["trace.overhead_frac"] = (f"traced op_p50_s over untraced op_p50_s - 1, "
                                        f"n={len(traced)} and n={len(base)}")
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{wl.name}.tsv.gz"
        tr.write(spans)
        lines.append(f"{tr.span_count()} spans written to {spans.relative_to(ROOT)}")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value!r} {unit}{note}")
    print("\n".join(lines))
    metrics = {}
    for name, (value, unit) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        if notes.get(name, "").startswith("absent: "):
            metrics[name]["absent"] = notes[name][len("absent: "):]
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
