import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sectlab import cli, verifier
from sectlab.bodies import body_from_spec
from sectlab.cli import main
from sectlab.functionals import log_volume_estimate
from sectlab.sampler import StreamHandle


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "sectlab", "constants", "--n", "3", "--k", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["config"]["command"] == "constants"


class TestConstantsCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(["constants", "--n", "4", "--k", "2",
                                "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_nk"] == pytest.approx(1 / math.sqrt(2), rel=1e-10)
        assert payload["p_log"] == pytest.approx(math.log(8 * math.pi ** 2), rel=1e-10)
        assert payload["gamma_bounds_ok"] is True
        assert payload["config"]["command"] == "constants"

    def test_takes_no_seed(self):
        # nothing random is computed, so a seed would be recorded and never read
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--n", "3", "--k", "1", "--seed", "1"])
        assert exc.value.code == 2

    def test_bad_input_is_structured_error(self, capsys):
        code, _, err = run_cli(["constants", "--n", "2", "--k", "5"], capsys)
        assert code == 2
        assert "error" in json.loads(err)

    def test_non_finite_value_is_error(self, capsys, monkeypatch):
        # output is strict JSON: no bare Infinity or NaN
        monkeypatch.setattr(cli, "growth_ratio", lambda n, k: math.inf)
        code, out, err = run_cli(["constants", "--n", "3", "--k", "1"], capsys)
        assert code == 2 and out == ""
        assert "JSON compliant" in json.loads(err)["error"]


class TestEstimateCommand:
    def test_volume_of_ball_is_exact(self, capsys):
        code, out, _ = run_cli(["estimate", "--functional", "volume",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--deterministic"], capsys)
        assert code == 0
        est = json.loads(out)["estimate"]
        assert est["value"] == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert est["se"] < 1e-12

    def test_volume_of_cube(self, capsys):
        # the cube knows its volume, so no direction is drawn; |K| is carried in
        # log, so the value is exp(log 8), 8 up to its last bit
        code, out, _ = run_cli(["estimate", "--functional", "volume",
                                "--body", '{"kind":"cube","dim":3}', "--deterministic"], capsys)
        assert code == 0
        est = json.loads(out)["estimate"]
        assert est["value"] == pytest.approx(8.0, rel=1e-15)
        assert (est["se"], est["n_samples"]) == (0.0, 1)

    def test_volume_is_the_one_volume_rule(self, capsys):
        # a box given by its facets does not know its volume: the value is the
        # checks' |K|, drawn on the run's own stream
        spec = {"kind": "h_polytope", "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                                  [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                "offsets": [1.6] * 6}
        code, out, _ = run_cli(["estimate", "--functional", "volume", "--body",
                                json.dumps(spec), "--seed", "5", "--deterministic"], capsys)
        assert code == 0
        est = json.loads(out)["estimate"]
        expected = log_volume_estimate(body_from_spec(spec), StreamHandle(5)).as_dict()
        assert est == expected
        assert abs(est["value"] - 3.2 ** 3) <= 3 * est["se"]

    def test_phi_with_measure_flag_unused(self, capsys):
        code, out, _ = run_cli(["estimate", "--functional", "phi",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--k", "1", "--frames", "40", "--samples", "300",
                                "--deterministic"], capsys)
        assert code == 0
        assert json.loads(out)["estimate"]["value"] == pytest.approx(1.20899, rel=1e-4)

    @pytest.mark.parametrize("flag, value", [
        ("--frames", "7"), ("--k", "2"), ("--samples", "300"),
    ])
    def test_flag_unused_by_functional_is_error(self, capsys, flag, value):
        code, out, err = run_cli(["estimate", "--functional", "volume",
                                  "--body", '{"kind":"cube","dim":3}', flag, value], capsys)
        assert code == 2 and out == ""
        assert f"volume takes no {flag}" in json.loads(err)["error"]

    def test_defaults_recorded_only_where_read(self, capsys):
        code, out, _ = run_cli(["estimate", "--functional", "phi",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--samples", "300", "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out)
        config = payload["config"]
        assert (config["k"], config["frames"], config["samples"]) == (1, 500, 300)
        # the exact volume of the ball does not hide the frames that ran
        assert payload["estimate"]["n_samples"] == 500
        code, out, _ = run_cli(["estimate", "--functional", "volume",
                                "--body", '{"kind":"cube","dim":2}', "--deterministic"], capsys)
        assert code == 0
        assert not {"k", "frames", "samples"} & set(json.loads(out)["config"])

    def test_measure_unused_by_functional_is_error(self):
        # no functional reads a density, so estimate has no --measure
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--functional", "phi",
                  "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                  "--measure", '{"kind":"gaussian"}'])
        assert exc.value.code == 2

    def test_sylvester_is_not_a_functional(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--functional", "sylvester", "--body", '{"kind":"cube","dim":2}'])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_pass_gives_exit_zero(self, capsys, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out, _ = run_cli(["verify", "--check", "dpp_bound",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--measure", '{"kind":"gaussian"}',
                                "--k", "1", "--frames", "40", "--samples", "300",
                                "--seed", "3", "--deterministic",
                                "--csv", str(csv_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"][0]
        assert report["pass"] is True
        assert set(report["lhs"]) >= {"value", "log", "se"}
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "schema"
        assert rows[1][0] == "sectlab.report.v2"

    def test_failing_check_gives_exit_one(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "negative_control",
                                "--body", '{"kind":"cube","dim":3}',
                                "--k", "1", "--frames", "60", "--samples", "300",
                                "--deterministic"], capsys)
        assert code == 1

    def test_unknown_check_is_error(self, capsys):
        code, _, err = run_cli(["verify", "--check", "nonsense",
                                "--body", '{"kind":"cube","dim":2}'], capsys)
        assert code == 2
        assert "unknown check" in json.loads(err)["error"]

    def test_measure_defaults_to_lebesgue(self, capsys):
        args = ["verify", "--check", "slicing_chain", "--body", '{"kind":"cube","dim":2}',
                "--frames", "10", "--samples", "100", "--deterministic"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert (code, out) == run_cli(args + ["--measure", '{"kind":"lebesgue"}'], capsys)[:2]

    def test_measure_unused_by_check_is_error(self, capsys):
        code, _, err = run_cli(["verify", "--check", "grinberg",
                                "--body", '{"kind":"cube","dim":3}',
                                "--measure", '{"kind":"gaussian"}'], capsys)
        assert code == 2
        assert "takes no --measure" in json.loads(err)["error"]

    @pytest.mark.parametrize("flag, value", [
        ("--points", "7"),
        ("--transforms", "9"),
        ("--body2", '{"kind":"cube","dim":3}'),
    ])
    def test_flag_unused_by_check_is_error(self, capsys, flag, value):
        code, _, err = run_cli(["verify", "--check", "dpp_bound",
                                "--body", '{"kind":"cube","dim":3}',
                                "--measure", '{"kind":"gaussian"}', flag, value], capsys)
        assert code == 2
        assert f"takes no {flag}" in json.loads(err)["error"]

    @pytest.mark.parametrize("check, extra", [
        ("bp_identity", []),
        ("logconcave_identity", ["--measure", '{"kind":"gaussian"}']),
    ])
    def test_identity_checks_take_no_samples(self, capsys, check, extra):
        # they draw points_per_frame * (n - k) directions per frame, no sphere samples
        code, out, err = run_cli(["verify", "--check", check,
                                  "--body", '{"kind":"cube","dim":3}', *extra,
                                  "--frames", "10", "--samples", "200"], capsys)
        assert code == 2 and out == ""
        assert f"{check} takes no --samples" in json.loads(err)["error"]

    def test_samples_default_recorded_only_where_read(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "dpp_bound",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--measure", '{"kind":"gaussian"}', "--frames", "10",
                                "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["samples"] == 2000
        assert payload["reports"][0]["inputs"]["sphere_samples"] == 2000
        code, out, _ = run_cli(["verify", "--check", "bp_identity",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--frames", "20", "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "samples" not in payload["config"]
        assert "sphere_samples" not in payload["reports"][0]["inputs"]

    def test_points_default_recorded_only_where_read(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "bp_identity",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--frames", "20", "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["points"] == 500
        assert "transforms" not in payload["config"]
        assert payload["reports"][0]["inputs"]["points_per_frame"] == 500

    def test_identity_runs_on_a_non_symmetric_body(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "bp_identity",
                                "--body", '{"kind":"simplex","dim":3}',
                                "--measure", '{"kind":"gaussian"}',
                                "--frames", "40", "--points", "100",
                                "--deterministic"], capsys)
        assert code in (0, 1)
        assert json.loads(out)["reports"][0]["check_name"] == "bp_identity"

    def test_section_bounds_gives_both_reports(self, capsys):
        args = ["verify", "--check", "section_bounds", "--body", '{"kind":"cube","dim":3}',
                "--measure", '{"kind":"gaussian"}', "--frames", "20", "--samples", "200",
                "--deterministic"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["check_name"] for r in reports] == ["slicing_chain", "dpp_bound"]
        assert all(r["pass"] for r in reports)
        code, out, err = run_cli(args + ["--points", "50"], capsys)
        assert code == 2 and out == ""
        assert "section_bounds takes no --points" in json.loads(err)["error"]

    def test_busemann_petty_with_body2(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "busemann_petty_volume",
                                "--body", '{"kind":"cube","dim":3}',
                                "--body2", '{"kind":"lp_ball","dim":3,"p":2.0,'
                                           '"radius":1.7320508075688772}',
                                "--frames", "20", "--samples", "200",
                                "--deterministic"], capsys)
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["check_name"] == "busemann_petty_volume"
        assert report["inputs"]["dominance_violations"] == 0

    def test_busemann_petty_without_body2_is_error(self, capsys):
        code, out, err = run_cli(["verify", "--check", "busemann_petty_volume",
                                  "--body", '{"kind":"cube","dim":3}',
                                  "--frames", "20", "--samples", "200"], capsys)
        assert code == 2 and out == ""
        assert "needs --body2" in json.loads(err)["error"]

    def test_grinberg_emits_two_reports(self, capsys):
        code, out, _ = run_cli(["verify", "--check", "grinberg",
                                "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                "--k", "1", "--frames", "50", "--samples", "300",
                                "--transforms", "1", "--deterministic"], capsys)
        reports = json.loads(out)["reports"]
        assert [r["check_name"] for r in reports] == ["grinberg_invariance",
                                                      "grinberg_maximality"]
        assert code == (0 if all(r["pass"] for r in reports) else 1)

    def test_grinberg_without_transforms_is_error(self, capsys):
        # invariance with no image would compare the functional with itself
        code, out, err = run_cli(["verify", "--check", "grinberg",
                                  "--body", '{"kind":"lp_ball","dim":3,"p":2.0}',
                                  "--frames", "20", "--samples", "200",
                                  "--transforms", "0"], capsys)
        assert code == 2 and out == ""
        assert "at least one transform" in json.loads(err)["error"]

    def test_zero_points_is_error(self, capsys):
        # the zero per-frame budget is refused up front, not reported as a NaN margin
        code, out, err = run_cli(["verify", "--check", "bp_identity",
                                  "--body", '{"kind":"cube","dim":3}', "--k", "1",
                                  "--frames", "10", "--points", "0", "--deterministic"],
                                 capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            "ValueError: need at least one sphere direction per frame, got 0")


class TestScanCommand:
    def test_csv_schema_and_band(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, _, _ = run_cli(["scan", "--n-max", "20", "--csv", str(path)], capsys)
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[0] == "schema" and "growth_ratio" in header
        assert len(data) == sum(n - 1 for n in range(2, 21))
        col = header.index("growth_ratio")
        for row in data:
            assert row[0] == "sectlab.scan.v1"
            assert 0.3 <= float(row[col]) <= 5.0

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(["scan", "--n-max", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("schema,")

    def test_stdout_and_file_get_the_same_rows(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        assert run_cli(["scan", "--n-max", "4", "--csv", str(path)], capsys)[0] == 0
        _, out, _ = run_cli(["scan", "--n-max", "4"], capsys)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == list(csv.reader(out.splitlines()))


class TestSuiteCommand:
    def test_default_suite_is_strict_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        code, out, _ = run_cli(["suite", "--seed", "0", "--deterministic"], capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        assert payload["status"] == "pass" and payload["n_checks"] == 64

    def test_dead_worker_is_structured_error(self, capsys, monkeypatch):
        # both entries run in forked workers, which die with status 3
        parent = os.getpid()

        def die(rng):
            assert os.getpid() != parent, "the stub entry must not run in this process"
            os._exit(3)

        monkeypatch.setitem(verifier.CHECKS, "die", die)
        monkeypatch.setattr(verifier, "_default_grid", lambda: [("die", {}, "a"),
                                                                ("die", {}, "b")])
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        code, out, err = run_cli(["suite", "--seed", "0", "--deterministic"], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        message = json.loads(line)["error"]
        assert message.startswith("RuntimeError: worker process ")
        assert message.endswith(" died with status 3")

    @pytest.mark.parametrize("flag", ["--frames", "--samples", "--points"])
    def test_takes_no_budget_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["suite", flag, "10"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys, tmp_path):
        args = ["verify", "--check", "bp_identity",
                "--body", '{"kind":"cube","dim":2}', "--k", "1",
                "--frames", "50", "--points", "100",
                "--seed", "11", "--deterministic"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_hint_does_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        args = ["suite", "--seed", "0", "--deterministic"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        monkeypatch.setenv("SECTLAB_WORKERS", "1")
        assert main(args + ["--json", str(a)]) == 0
        monkeypatch.setenv("SECTLAB_WORKERS", "2")
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
