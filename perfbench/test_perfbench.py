"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math

import pytest

import run

td = run.import_library()

import refmath  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS.values())


def _run_op(wl, tmp_path, seed, index, tr=None):
    case = wl.generate(seed, index)
    path = tmp_path / f"{wl.name}-{seed}-{index}.json"
    path.write_text(case.scene_text(), encoding="utf-8")
    if tr is None:
        payload, ctx = wl.run(td, path, case)
    else:
        payload, ctx = tr.run_op(index, wl.run, td, path, case)
    assert wl.check(td, case, payload, ctx) == []
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def installed():
    tr = tracer.Tracer()
    tr.install()
    yield tr
    tr.uninstall()


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_scene_bytes(wl):
    a, b = wl.generate(7, 3), wl.generate(7, 3)
    assert a.scene_text() == b.scene_text()
    assert (json.dumps([a.inputs, a.refs], sort_keys=True)
            == json.dumps([b.inputs, b.refs], sort_keys=True))
    others = {wl.generate(seed, 3).scene_text() for seed in range(8)}
    assert len(others) > 1


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_tracing_changes_no_output(wl, tmp_path):
    plain = _run_op(wl, tmp_path, 5, 1)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = _run_op(wl, tmp_path, 5, 1, tr)
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.span_count() > 0
    assert not tr.absent


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_traced_counts_repeat(wl, tmp_path):
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            _run_op(wl, tmp_path, 11, 2, tr)
        finally:
            tr.uninstall()
        op = tr.per_op[0]
        counts.append((op["count"], op["distinct"]))
    assert counts[0] == counts[1]
    assert counts[0][0]["cli.load_scene"] == 1


def test_order6_derivative_matches_baseline(installed):
    # the library's tree sizes when this benchmark was defined; a change that
    # shares subtrees (hash-consing) is meant to lower both counts
    e = td.expr.parse("bump(x0)*exp(sin(x0))*cos(x0^2)", 1)
    d = installed.run_op(0, e.diff, (6,))
    op = installed.per_op[0]
    assert op["count"]["expr.diff"] == 1  # diff1 inside diff is not a new call
    assert op["count"]["expr.diff:nodes"] == 17_611

    def tree_size(node):
        return 1 + sum(tree_size(c) for c in tracer._children(node, td.expr.Expr))

    assert tree_size(d) == 87_715


def test_imported_names_and_defaults_are_rebound(installed):
    # operators imports evaluate by name; verify captured restrict as a default
    assert td.operators.evaluate is td.distribution.evaluate
    assert td.operators.evaluate.__wrapped__ is not None
    check = td.verify.check_restriction_compat.__wrapped__
    inner = next(c.cell_contents for c in check.__closure__
                 if callable(c.cell_contents))
    assert td.distribution.restrict in inner.__defaults__
    installed.uninstall()
    assert not hasattr(td.operators.evaluate, "__wrapped__")


def test_missing_hook_is_reported_absent(monkeypatch, tmp_path):
    # a later commit may remove a hooked name; kernel-compose never calls it
    monkeypatch.delattr(td.topology, "pB_eval")
    tr = tracer.Tracer()
    tr.install()
    try:
        _run_op(workloads.WORKLOADS["kernel-compose"], tmp_path, 3, 1, tr)
        metrics = tr.metrics()
    finally:
        tr.uninstall()
    value, _, reason = metrics["topology.pB_eval_calls"]
    assert value is None and "pB_eval" in reason
    assert metrics["operators.compose_s"][0] > 0


def test_reference_quadrature():
    nodes, weights = refmath.gauss_legendre(refmath.REF_ORDER)
    assert math.fsum(weights) == pytest.approx(2.0, rel=1e-14)
    assert nodes == tuple(sorted(nodes, reverse=True))
    # odd polynomials vanish, x^2 integrates to 2/3
    assert refmath.integrate(lambda y: y ** 3) == pytest.approx(0.0, abs=1e-15)
    assert refmath.integrate(lambda y: y * y) == pytest.approx(2 / 3, rel=1e-14)
    assert refmath.integrate(refmath.bump) == pytest.approx(0.4439938161680794, rel=1e-9)


def test_timed_scales_by_the_bracketing_probes(monkeypatch):
    probes = iter([0.02, 0.04])
    monkeypatch.setattr(run.hostspeed, "probe", lambda: next(probes))
    result, wall, normalized = run.timed(lambda x: x + 1, 1)
    assert result == 2
    assert normalized == pytest.approx(wall * run.hostspeed.REFERENCE_S / 0.03)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    p, value = run.tail(samples)
    assert p == 90 and value == 90.0
    assert sum(1 for s in samples if s > value) >= 10
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)


def test_cli_cross_check_passes(tmp_path):
    wl = workloads.WORKLOADS["kernel-compose"]
    case = wl.generate(1, 0)
    path = tmp_path / "scene.json"
    path.write_text(case.scene_text(), encoding="utf-8")
    assert run.cli_cross_check(td, path) == []
