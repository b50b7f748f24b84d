import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from transdist import cli, quadrature, topology
from transdist import distribution as dist


SRC = str(Path(cli.__file__).resolve().parent.parent)


def scene_path(name: str) -> str:
    return str(resources.files("transdist") / "scenes" / name)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def dirac_scene():
    return scene_path("dirac_demo.json")


@pytest.fixture
def profile_scene(tmp_path):
    """The density demo plus a profile whose verdict depends on both settings."""
    doc = json.loads(open(scene_path("density_demo.json"), encoding="utf-8").read())
    doc["profiles"] = {"p": {"orders": [0], "epsilons": [0.1], "families": [["1"]]}}
    path = tmp_path / "density_profile.json"
    path.write_text(json.dumps(doc))
    return str(path)


DIRAC_TERM = {"type": "dirac_section", "section": "s", "weight": "bump(x0)"}
PROFILE = {"orders": [0], "epsilons": [1], "families": [["1"]]}
SMALL_SCENE = {
    "bundle": {"base_dim": 1, "fibre_dim": 1},
    "functions": {"F": "bump(x0)*y0"},
    "sections": {"s": ["x0/2"]},
    "distributions": {"T": [DIRAC_TERM]},
    "profiles": {"P": PROFILE},
}


def masked(reports):
    """Check reports as JSON dicts without their wall-clock durations."""
    return [{k: v for k, v in r.to_json_dict().items() if k != "duration_seconds"}
            for r in reports]


class TestLoadScene:
    def test_minimal_scene(self, tmp_path):
        p = tmp_path / "minimal.json"
        p.write_text('{"bundle": {"base_dim": 1, "fibre_dim": 1}}')
        scene = cli.load_scene(p)
        assert scene.functions == {} and scene.distributions == {}

    def test_undefined_section_reference(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "distributions": {"T": [{"type": "dirac_section",
                                     "section": "nosuch",
                                     "weight": "bump(x0)"}]},
        }))
        with pytest.raises(cli.UnresolvedReferenceError):
            cli.load_scene(p)

    def test_shipped_scene_loads(self, dirac_scene):
        scene = cli.load_scene(dirac_scene)
        assert set(scene.distributions) == {"T", "Td", "Tloc"}
        assert scene.bundle.base_dim == 1

    def test_invalid_json_reports_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"bundle": }')
        with pytest.raises(cli.SceneParseError, match="line 1"):
            cli.load_scene(p)

    def test_bad_expression_reports_where(self, tmp_path):
        p = tmp_path / "badexpr.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "functions": {"F": "x0 +"},
        }))
        with pytest.raises(cli.SceneParseError, match="functions.F"):
            cli.load_scene(p)

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "baddim.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 2},
            "sections": {"s": ["x0"]},
        }))
        with pytest.raises(cli.SceneDimensionError):
            cli.load_scene(p)


class TestExitCodes:
    def test_unknown_command(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "frobnicate", dirac_scene)
        assert code == cli.EXIT_USAGE

    def test_unresolved_reference_is_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "distributions": {"T": [{"type": "dirac_section",
                                     "section": "nosuch",
                                     "weight": "bump(x0)"}]},
        }))
        code, out = run_cli(capsys, "support", str(p), "T")
        assert code == 3

    def test_parse_error_is_exit_5(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"bundle": {"base_dim": 1')
        code, _ = run_cli(capsys, "support", str(p), "T")
        assert code == 5

    def test_dimension_error_is_exit_6(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 2},
            "sections": {"s": ["x0"]},
        }))
        code, _ = run_cli(capsys, "support", str(p), "T")
        assert code == 6

    @pytest.mark.parametrize("edit, argv, field", [
        ({"sections": {"s": {"components": ["x0/2"], "domain": [["a", 1]]}}},
         ["support", "T"], "sections.s.domain"),
        ({"distributions": {"T": [{**DIRAC_TERM, "beta": ["a"]}]}},
         ["support", "T"], "distributions.T[0].beta"),
        ({"checks": {"alpha_max": "two"}}, ["check"], "checks.alpha_max"),
        ({"checks": {"grid": [["x"]]}}, ["check"], "checks.grid"),
        ({"checks": {"grid": [["x"]]}}, ["eval", "T", "F"], "checks.grid"),
        ({"profiles": {"P": {**PROFILE, "families": [[]]}}},
         ["support", "T"], "profiles.P.families[0]"),
        ({"profiles": {"P": {"orders": [0, 1], "epsilons": [1, 0.5], "families": [["1"]]}}},
         ["member", "P", "--distribution", "T"], "profiles.P.families"),
        ({"profiles": {"P": {**PROFILE, "families": ["12"]}}},
         ["member", "P", "--distribution", "T"], "profiles.P.families[0]"),
    ])
    def test_malformed_scene_field_is_exit_5(self, capsys, tmp_path, edit, argv, field):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(SMALL_SCENE))
        assert run_cli(capsys, argv[0], str(path), *argv[1:])[0] == 0
        path.write_text(json.dumps({**SMALL_SCENE, **edit}))
        code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 5
        assert f": {field}: " in json.loads(out)["error"]

    def test_unknown_name_in_command_is_exit_3(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "eval", dirac_scene, "NOPE", "F", "--at", "0")
        assert code == 3

    def test_check_passes_with_exit_0(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "check", dirac_scene, "--suite", "restriction")
        assert code == 0

    def test_internal_error_is_exit_4(self, capsys, monkeypatch, dirac_scene):
        def broken(*args):
            raise RuntimeError("broken library call")

        monkeypatch.setattr(topology, "seminorm_eval", broken)
        code, out = run_cli(capsys, "seminorm", dirac_scene, "G",
                            "--box=-1:1;-1:1", "--order", "2")
        assert code == 4
        assert "internal error" in json.loads(out)["error"]

    def test_check_failure_is_exit_1(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "check", dirac_scene,
                            "--suite", "leibniz",
                            "--tolerance-scale", "0")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_unsupported_operation_is_exit_2(self, capsys, tmp_path):
        p = tmp_path / "beta.json"
        p.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "operators": {
                "Kd": [{"type": "dirac_section", "section": ["x0"],
                        "weight": "bump(x0)", "beta": [1]}],
                "Ka": [{"type": "dirac_section", "section": ["x0 + 1/2"],
                        "weight": "bump(x0)"}]},
        }))
        code, out = run_cli(capsys, "compose", str(p), "Kd", "Ka")
        assert code == cli.EXIT_USAGE
        assert "not supported" in json.loads(out)["error"]

    def test_lattice_over_budget_is_exit_2(self, capsys, dirac_scene):
        for box in ("--box=0:1e308;0:1", "--box=0:1e4;0:1e4"):
            code, out = run_cli(capsys, "seminorm", dirac_scene, "G", box,
                                "--order", "1")
            assert code == cli.EXIT_USAGE
            assert "exceeds 5000000 points" in json.loads(out)["error"]

    def test_quadrature_over_budget_is_exit_2(self, capsys):
        scene = scene_path("density_demo.json")
        for order in ("100000", str(quadrature.MAX_ORDER + 1)):
            code, out = run_cli(capsys, "eval", scene, "Tphi", "F", "--at", "0",
                                "--quad-order", order)
            assert code == cli.EXIT_USAGE
            assert "over the budget" in json.loads(out)["error"]

    def test_bad_multi_index_length_stays_exit_6(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "derive", dirac_scene, "T", "--alpha", "1,1")
        assert code == cli.EXIT_DIMENSION


OVERFLOW_NAN = "1 + exp(exp(exp({v}))) - exp(exp(exp({v})))"  # NaN once exp overflows


@pytest.fixture
def nan_scene(tmp_path):
    """A 1+1 scene whose values are NaN where exp(exp(exp(t))) overflows, t > 1.88."""
    g = OVERFLOW_NAN.format(v="y0")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "bundle": {"base_dim": 1, "fibre_dim": 1},
        "functions": {"W": f"(x0+4)*bump(y0)*({OVERFLOW_NAN.format(v='x0')})",
                      "G": f"bump(x0/2)*{OVERFLOW_NAN.format(v='10*y0')}"},
        "sections": {"diag": ["x0"]},
        "distributions": {"T": [{"type": "dirac_section", "section": "diag",
                                 "weight": "bump(x0/4)"}]},
        "profiles": {"P": {"orders": [0, 0, 0], "epsilons": [100, 50, 25],
                           "families": [[g]] * 3}},
    }))
    return str(path)


@pytest.fixture
def overflow_scene(tmp_path):
    """A 1+1 scene whose fibre integrand holds opposite infinities, and a
    Dirac weight that is NaN at x0 = 3."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "bundle": {"base_dim": 1, "fibre_dim": 1},
        "functions": {"V": "y0*exp(exp(exp(y0^2)))"},
        "sections": {"diag": ["x0"]},
        "distributions": {
            "D": [{"type": "density", "phi": "bump(x0)*bump(y0/3)"}],
            "T": [{"type": "dirac_section", "section": "diag",
                   "weight": f"bump(x0/4)*({OVERFLOW_NAN.format(v='x0')})"}]},
    }))
    return str(path)


class TestNonFiniteValues:
    """A NaN at a lattice point is a usage error; an annihilated one is not."""

    def test_fibre_integral_over_opposite_infinities_is_exit_2(self, capsys, overflow_scene):
        # weights * values hold +inf and -inf: the fibre sum is NaN, not an error
        code, out = run_cli(capsys, "eval", overflow_scene, "D", "V", "--at", "0")
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == "value nan at base point (0.0,) is not finite"

    def test_restrict_refuses_a_nan_coefficient(self, capsys, overflow_scene):
        code, out = run_cli(capsys, "restrict", overflow_scene, "T", "--at", "3")
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == (
            "atom at (3.0,) with coefficient nan at base point (3.0,) is not finite")
        code, out = run_cli(capsys, "restrict", overflow_scene, "T", "--at", "1")
        assert code == cli.EXIT_OK
        assert math.isfinite(json.loads(out)["restriction"]["atoms"][0]["coefficient"])

    def test_seminorm_over_a_nan_is_exit_2(self, capsys, nan_scene):
        code, out = run_cli(capsys, "seminorm", nan_scene, "W", "--box=-4:4;-1:1",
                            "--order", "0")
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == (
            "seminorm: NaN at lattice point (1.9375, -0.9375) for multi-index (0, 0)")

    def test_zero_factor_annihilates_an_overflowed_sum(self, capsys, nan_scene):
        # bump(y0) = 0 on the section point y0 = 3, beside inf - inf
        code, out = run_cli(capsys, "eval", nan_scene, "T", "W", "--at", "3")
        assert code == cli.EXIT_OK
        assert json.loads(out)["value"] == 0

    @pytest.mark.parametrize("argv", [["--at", "3"], []])
    def test_a_nan_value_is_exit_2(self, capsys, nan_scene, argv):
        code, out = run_cli(capsys, "eval", nan_scene, "T", "G", *argv)
        assert code == cli.EXIT_USAGE
        where = "(3.0,)" if argv else "(0.3,)"  # the default grid's first NaN
        assert json.loads(out)["error"] == f"value nan at base point {where} is not finite"

    @pytest.mark.parametrize("which, what", [
        (["--distribution", "T"], "lfB_membership"),
        (["--function", f"bump(x0/3)*({OVERFLOW_NAN.format(v='x0')})"], "lf_membership"),
    ])
    def test_member_over_a_nan_is_exit_2(self, capsys, nan_scene, which, what):
        code, out = run_cli(capsys, "member", nan_scene, "P", *which)
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == (
            f"{what}: NaN at lattice point (1.9375,) for multi-index (0,)")


class TestInputValidation:
    @pytest.mark.parametrize("flag", ["--quad-order", "--grid-density"])
    @pytest.mark.parametrize("value", ["0", "1", "-4"])
    def test_too_small_flag_is_usage_error(self, capsys, dirac_scene, flag, value):
        code = cli.main(["eval", dirac_scene, "T", "F", "--at", "0.5", flag, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert f"{flag}: must be at least" in captured.err

    def test_grid_density_two_is_usage_error(self, capsys, dirac_scene):
        code = cli.main(["eval", dirac_scene, "T", "F", "--at", "0.5",
                         "--grid-density", "2"])
        assert code == cli.EXIT_USAGE
        assert "--grid-density: must be at least 3" in capsys.readouterr().err

    def test_smallest_valid_flags_are_used(self, capsys, dirac_scene):
        density_scene = scene_path("density_demo.json")
        scene = cli.load_scene(density_scene)
        bf = dist.evaluate(scene.distribution("Tphi"), scene.function("F"), order=2)
        code, out = run_cli(capsys, "eval", density_scene, "Tphi", "F", "--at", "0.5",
                            "--quad-order", "2", "--grid-density", "3")
        assert code == 0
        assert json.loads(out)["value"] == bf.value((0.5,))
        assert bf.value((0.5,)) != dist.evaluate(scene.distribution("Tphi"),
                                                 scene.function("F")).value((0.5,))
        p = topology.Seminorm(cli._parse_box("-0.9:0.9;-0.9:0.9"), 0)
        F = cli.load_scene(dirac_scene).function("F")
        code, out = run_cli(capsys, "seminorm", dirac_scene, "F",
                            "--box=-0.9:0.9;-0.9:0.9", "--order", "0",
                            "--quad-order", "2", "--grid-density", "3")
        assert code == 0
        assert json.loads(out)["value"] == topology.seminorm_eval(p, F, 3) == 2.0
        assert topology.seminorm_eval(p, F) == 2.765625

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_tolerance_scale_is_usage_error(self, capsys, dirac_scene, value):
        code = cli.main(["check", dirac_scene, "--suite", "support",
                         f"--tolerance-scale={value}"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "--tolerance-scale: must be" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["seminorm", "G", "--box=0:1;0:1", "--order=-1"],
         "--order: must be at least 0, got -1"),
        (["seminorm", "G", "--box=0:1;0:1", "--order=x"], "--order: invalid int value"),
        (["derive", "T", "--alpha=a"], "--alpha: invalid multi-index value: 'a'"),
        (["derive", "T", "--alpha=-1"], "--alpha: must be at least 0, got -1"),
        (["derive", "T", "--alpha=1,"], "--alpha: invalid multi-index value"),
    ])
    def test_bad_order_or_alpha_is_usage_error(self, capsys, dirac_scene, argv, message):
        code = cli.main([argv[0], dirac_scene] + argv[1:])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("box", ["0:nan;0:1", "0:1;-inf:1", "0:1e400;0:1",
                                     "1:0;0:1", "0:1;0:x"])
    def test_bad_box_is_parse_error(self, capsys, dirac_scene, box):
        code, out = run_cli(capsys, "seminorm", dirac_scene, "G", f"--box={box}",
                            "--order", "1")
        assert code == cli.EXIT_PARSE
        assert json.loads(out)["error"].startswith(f"bad box {box!r}")

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_point_is_parse_error(self, capsys, dirac_scene, point):
        code, out = run_cli(capsys, "eval", dirac_scene, "T", "F", f"--at={point}")
        assert code == cli.EXIT_PARSE
        assert "must be finite" in json.loads(out)["error"]


class TestCommands:
    def test_eval_matches_module_oracle(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "eval", dirac_scene, "T", "F",
                            "--at", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.exp(-4.0 / 3.0) * 2.25,
                                                 rel=1e-15)

    def test_restrict_serializes_atoms(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "restrict", dirac_scene, "T", "--at", "0.0")
        payload = json.loads(out)
        atom = payload["restriction"]["atoms"][0]
        assert atom["point"] == [0.0]
        assert atom["coefficient"] == pytest.approx(math.exp(-1), abs=0)

    def test_derive_emits_terms(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "derive", dirac_scene, "T", "--alpha", "1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["result"]["terms"]) >= 2

    def test_support_boxes(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "support", dirac_scene, "T")
        payload = json.loads(out)
        assert payload["base"]["intervals"] == [[-1.0, 1.0]]

    def test_action_scales_weight(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "action", dirac_scene, "T", "--base", "x0")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["terms"][0]["type"] == "dirac_section"

    def test_apply_and_compose(self, capsys):
        operator_scene = scene_path("operator_demo.json")
        code, out = run_cli(capsys, "apply", operator_scene, "Ka",
                            "--g", "y0^2", "--at", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(0.25, rel=1e-12)
        code, out = run_cli(capsys, "compose", operator_scene, "Ka", "Kb")
        payload = json.loads(out)
        assert code == 0
        assert payload["kinds"] == ["dirac"]

    @pytest.mark.parametrize("argv", [
        ["eval", "dirac_demo.json", "Td", "H"], ["eval", "density_demo.json", "Tmixed", "G"],
        ["apply", "operator_demo.json", "Kphi", "--g", "y0^2"],
        ["compose", "operator_demo.json", "Kphi", "Kphi"],
        ["compose", "operator_demo.json", "Ka", "Kphi"]])
    def test_grids_print_the_pointwise_values(self, capsys, monkeypatch, argv):
        """A grid is one BaseFunction.values pass, printed byte for byte as the
        pointwise values would be."""
        argv = [argv[0], scene_path(argv[1])] + argv[2:]
        code, batched = run_cli(capsys, *argv)
        monkeypatch.setattr(dist.BaseFunction, "values", lambda bf, X: np.array([
            bf.value(tuple(x)) for x in X]))
        assert (code, batched) == run_cli(capsys, *argv)
        assert code == 0 and '"values"' in batched

    def test_seminorm(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "seminorm", dirac_scene, "G",
                            "--box=-1:1;-1:1", "--order", "0")
        payload = json.loads(out)
        assert payload["value"] == 2.0  # sup of y0^2 + 1 on the box

    def test_member_function(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "member", dirac_scene, "coarse",
                            "--function", "bump(x0)")
        payload = json.loads(out)
        assert code == 0
        assert payload["accepted"] is True

    def test_member_distribution(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "member", dirac_scene, "coarse",
                            "--distribution", "Tloc")
        payload = json.loads(out)
        assert code == 0
        assert isinstance(payload["accepted"], bool)


class TestSerialization:
    def test_floats_use_17_significant_digits(self):
        text = cli.dumps({"value": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_output_json_round_trips(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "eval", dirac_scene, "T", "F", "--at", "0.5")
        payload = json.loads(out)
        again = json.loads(cli.dumps(payload))
        assert again == payload

    def test_outputs_are_deterministic(self, capsys, dirac_scene):
        _, out1 = run_cli(capsys, "eval", dirac_scene, "T", "H", "--at", "0.3")
        _, out2 = run_cli(capsys, "eval", dirac_scene, "T", "H", "--at", "0.3")
        assert out1 == out2

    def test_table_format(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "--format", "table", "eval", dirac_scene,
                            "T", "F", "--at", "0.5")
        assert code == 0
        assert "value:" in out


class TestCheckCommand:
    def test_all_suites_on_all_shipped_scenes(self, capsys):
        names = sorted(p.name for p in (resources.files("transdist") / "scenes").iterdir()
                       if p.name.endswith(".json"))
        assert len(names) == 5
        for name in names:
            code, out = run_cli(capsys, "check", scene_path(name),
                                "--suite", "all")
            assert code == 0, f"{name} failed:\n{out[-2000:]}"
            payload = json.loads(out)
            assert payload["passed"] is True

    def test_non_finite_errors_exit_1(self, capsys, tmp_path):
        # T(F) is +inf on the grid, so each identity compares inf with inf
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "functions": {"F": "exp(800*y0)"},
            "sections": {"s": ["x0 + 1"]},
            "distributions": {"T": [dict(DIRAC_TERM, beta=[0])]},
            "checks": {"grid": [[0], [0.2]]}}))
        code, out = run_cli(capsys, "check", str(path), "--suite", "restriction,leibniz")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        cases = [c for r in payload["suites"] for c in r["cases"]]
        assert cases and all(not c["passed"] and c["max_error"] is None for c in cases)
        assert all(c["witness"]["x"] == [0] for c in cases)

    def test_cancelling_infinities_print_nothing_on_stderr(self, tmp_path):
        # the density is inf - inf = NaN for x0 > -0.11: the case fails, quietly
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps({
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "functions": {"F": "1 + y0"},
            "distributions": {"T": [{"type": "density", "phi":
                "bump(x0)*bump(y0)*(exp(800*(x0 + 1)) - exp(800*(x0 + 1)))"}]},
            "checks": {"grid": [[0], [0.2]]}}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "transdist.cli", "check", str(path),
                               "--suite", "restriction"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (1, "")
        assert json.loads(done.stdout)["passed"] is False

    def test_unknown_suite_rejected(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "check", dirac_scene, "--suite", "bogus")
        assert code == 5

    def test_table_output(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "--format", "table", "check", dirac_scene,
                            "--suite", "support")
        assert code == 0
        assert "overall: PASS" in out


class TestExplicitSettings:
    """The flags reach every library call that takes an order or a density.

    Each run with a flag must equal a run without it under a moved default,
    so a call site that drops the value falls back to the unmoved default
    and fails the comparison.
    """

    @pytest.mark.parametrize("name", ["density_demo.json", "operator_demo.json"])
    def test_check_order_reaches_every_call(self, monkeypatch, name):
        scene = cli.load_scene(scene_path(name))
        default = masked(cli.run_checks(scene, cli.SUITES))
        explicit = masked(cli.run_checks(scene, cli.SUITES, order=16))
        monkeypatch.setattr(quadrature, "DEFAULT_ORDER", 16)
        assert masked(cli.run_checks(scene, cli.SUITES)) == explicit != default

    @pytest.mark.parametrize("module, constant, flag, argv", [
        (quadrature, "DEFAULT_ORDER", "--quad-order", ["eval", "density", "Tphi", "F"]),
        (quadrature, "DEFAULT_ORDER", "--quad-order",
         ["apply", "operator", "Kphi", "--g", "y0^2"]),
        (quadrature, "DEFAULT_ORDER", "--quad-order", ["compose", "operator", "Kphi", "Kphi"]),
        (quadrature, "DEFAULT_ORDER", "--quad-order", ["compose", "operator", "Ka", "Kphi"]),
        (quadrature, "DEFAULT_ORDER", "--quad-order",
         ["member", "profile", "p", "--distribution", "Tphi"]),
        (topology, "DEFAULT_GRID_DENSITY", "--grid-density",
         ["member", "profile", "p", "--distribution", "Tphi"]),
        (topology, "DEFAULT_GRID_DENSITY", "--grid-density",
         ["member", "dirac", "coarse", "--function", "5*x0*bump(x0)"]),
        (topology, "DEFAULT_GRID_DENSITY", "--grid-density",
         ["seminorm", "dirac", "F", "--box=-0.9:0.9;-0.9:0.9", "--order", "1"]),
    ], ids=["eval", "apply", "compose-numeric", "compose-graph", "member-lfB-order",
            "member-lfB-density", "member-lf", "seminorm"])
    def test_flag_reaches_every_call(self, capsys, monkeypatch, profile_scene,
                                     module, constant, flag, argv):
        scenes = {"profile": profile_scene}
        scene = scenes.get(argv[1]) or scene_path(f"{argv[1]}_demo.json")
        argv = [argv[0], scene] + argv[2:]

        def output(*extra):
            code, out = run_cli(capsys, *argv, *extra)
            assert code == 0, out
            return out

        default = output()
        explicit = output(flag, "5")
        monkeypatch.setattr(module, constant, 5)
        assert output() == explicit != default

    def test_flags_before_and_after_the_command_agree(self, capsys):
        argv = ["eval", scene_path("density_demo.json"), "Tphi", "F", "--at", "0.5"]
        flags = ["--quad-order", "5", "--format", "table"]
        before = run_cli(capsys, *flags, *argv)
        assert before == run_cli(capsys, *argv, *flags) != run_cli(capsys, *argv)
        assert before[1].startswith("command: eval")

    def test_concurrent_checks_at_different_orders(self):
        scene = cli.load_scene(scene_path("density_demo.json"))
        orders = (8, 16, 64)

        def run(order):
            return masked(cli.run_checks(scene, cli.SUITES, 1.0, order))

        expected = [run(q) for q in orders]
        assert expected[0] != expected[1] != expected[2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                got = list(pool.map(run, orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
