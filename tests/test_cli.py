import json
import math
from importlib import resources

import pytest

from transdist import cli, quadrature, topology


def scene_path(name: str) -> str:
    return str(resources.files("transdist") / "scenes" / name)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def dirac_scene():
    return scene_path("dirac_demo.json")


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

    def test_unknown_name_in_command_is_exit_3(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "eval", dirac_scene, "NOPE", "F", "--at", "0")
        assert code == 3

    def test_check_passes_with_exit_0(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "check", dirac_scene, "--suite", "restriction")
        assert code == 0

    def test_internal_error_is_exit_4(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "seminorm", dirac_scene, "G",
                            "--box=-1:1;-1:1", "--order", "-2")
        assert code == 4
        assert "internal error" in json.loads(out)["error"]

    def test_check_failure_is_exit_1(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "check", dirac_scene,
                            "--suite", "leibniz",
                            "--tolerance-scale", "0")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestInputValidation:
    @pytest.mark.parametrize("flag", ["--quad-order", "--grid-density"])
    @pytest.mark.parametrize("value", ["0", "1", "-4"])
    def test_too_small_flag_is_usage_error(self, capsys, dirac_scene, flag, value):
        before = (quadrature.default_order(), topology.default_grid_density())
        code = cli.main(["eval", dirac_scene, "T", "F", "--at", "0.5", flag, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert f"{flag}: must be at least" in captured.err
        assert (quadrature.default_order(), topology.default_grid_density()) == before

    def test_grid_density_two_is_usage_error(self, capsys, dirac_scene):
        code = cli.main(["eval", dirac_scene, "T", "F", "--at", "0.5",
                         "--grid-density", "2"])
        assert code == cli.EXIT_USAGE
        assert "--grid-density: must be at least 3" in capsys.readouterr().err

    def test_smallest_valid_flags_are_used(self, capsys, dirac_scene):
        before = (quadrature.default_order(), topology.default_grid_density())
        try:
            code, out = run_cli(capsys, "eval", dirac_scene, "T", "F", "--at", "0.5",
                                "--quad-order", "2", "--grid-density", "3")
            assert code == 0
            assert (quadrature.default_order(), topology.default_grid_density()) == (2, 3)
        finally:
            quadrature.set_default_order(before[0])
            topology.set_default_grid_density(before[1])

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
        for name in ("dirac_demo.json", "density_demo.json",
                     "operator_demo.json"):
            code, out = run_cli(capsys, "check", scene_path(name),
                                "--suite", "all")
            assert code == 0, f"{name} failed:\n{out[-2000:]}"
            payload = json.loads(out)
            assert payload["passed"] is True

    def test_unknown_suite_rejected(self, capsys, dirac_scene):
        code, _ = run_cli(capsys, "check", dirac_scene, "--suite", "bogus")
        assert code == 5

    def test_table_output(self, capsys, dirac_scene):
        code, out = run_cli(capsys, "--format", "table", "check", dirac_scene,
                            "--suite", "support")
        assert code == 0
        assert "overall: PASS" in out
