"""Tests for the command-line interface."""

import csv
import io
import json
import subprocess
import sys

import pytest

from partarget import cli, grid as grid_mod, oracle


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValue:
    def test_linear_degenerate_predictor(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--gamma-s", "0", "--alpha", "0.3")
        assert code == 0
        assert out.strip() == "0.3"

    def test_probit_value(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--model", "probit", "--base-rate",
                               "0.1", "--gamma-s", "0", "--alpha", "0.5", "--machine")
        assert code == 0
        assert float(out) == pytest.approx(0.05, abs=1e-15)

    def test_machine_precision_digits(self, capsys):
        _, out, _ = run_cli(capsys, "value", "--model", "linear", "--mu", "1",
                            "--beta-norm", "10", "--gamma-s", "0.3", "--alpha",
                            "0.05", "--machine")
        from partarget.linear import LinearParams, value_linear
        assert float(out) == value_linear(LinearParams(1, 10, 0.3), 0.05)


class TestPar:
    def test_exact_par(self, capsys):
        code, out, _ = run_cli(capsys, "par", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--gamma-s", "0.3",
                               "--alpha", "0.02", "--delta-alpha", "0.01",
                               "--delta-r2", "0.01", "--machine")
        from partarget.linear import LeverDelta, LinearParams, par_linear_exact
        assert code == 0
        assert float(out) == par_linear_exact(
            LinearParams(1, 10, 0.3), 0.02, LeverDelta(0.01, 0.01))


class TestBounds:
    def test_linear_containment_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--gamma-s", "0.3",
                               "--alpha", "0.02", "--delta-alpha", "0.01",
                               "--delta-r2", "0.01")
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert set(lines) == {"lower", "upper", "exact", "contained"}
        assert lines["contained"] == "yes"

    def test_eps_rejected_for_linear(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--gamma-s", "0.3",
                               "--alpha", "0.02", "--delta-alpha", "0.01",
                               "--delta-r2", "0.01", "--eps", "0.05")
        assert code == 2
        assert "--eps" in err


class TestGrid:
    def test_csv_to_file_and_determinism(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["grid", "--model", "linear", "--mu", "1", "--beta-norm", "10",
                "--alpha-lo", "0.005", "--alpha-hi", "0.03", "--alpha-count", "3",
                "--gamma-lo", "0.1", "--gamma-hi", "0.8", "--gamma-count", "3",
                "--delta-alpha", "0.01", "--delta-r2", "0.01",
                "--cost-access", "1", "--cost-prediction", "0.25"]
        assert cli.run(argv + ["--out", str(out_a)]) == 0
        assert cli.run(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0].startswith("alpha,gamma_s,")
        assert len(lines) == 10

    def test_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "model": "probit", "alpha_lo": 0.001, "alpha_hi": 0.005,
            "alpha_count": 2, "gamma_lo": 0.2, "gamma_hi": 0.8, "gamma_count": 2,
            "delta_alpha": 0.001, "delta_r2": 0.001,
            "cost_access": 1.0, "cost_prediction": 0.25, "base_rate": 0.1,
        }))
        code, out, _ = run_cli(capsys, "grid", "--spec", str(spec_path),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["model"] == "probit"
        assert len(doc["cells"]) == 4

    def test_missing_flags_named(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--model", "linear")
        assert code == 2
        assert "--alpha-lo" in err

    GOOD_SPEC = {
        "model": "linear", "mu": 1.0, "beta_norm": 10.0,
        "alpha_lo": 0.01, "alpha_hi": 0.04, "alpha_count": 3,
        "gamma_lo": 0.1, "gamma_hi": 0.9, "gamma_count": 3,
        "delta_alpha": 0.001, "delta_r2": 0.01,
        "cost_access": 1.0, "cost_prediction": 1.0,
    }

    @pytest.mark.parametrize("text, named", [
        ("[1, 2, 3]", "JSON object"),
        (json.dumps({**GOOD_SPEC, "alpha_lo": "low"}), "'alpha_lo' must be a number"),
        (json.dumps({**GOOD_SPEC, "cost_access": True}), "'cost_access' must be a number"),
        (json.dumps({**GOOD_SPEC, "base_rate": [0.1]}), "'base_rate' must be a number"),
        (json.dumps({**GOOD_SPEC, "delta_r2": 10 ** 400}), "'delta_r2' is out of range"),
        (json.dumps(GOOD_SPEC)[:-20], "not valid JSON"),
        (json.dumps({**GOOD_SPEC, "alpha_count": 2.9}), "'alpha_count' must be an integer"),
        (json.dumps({**GOOD_SPEC, "alpha_count": 3.0}), "'alpha_count' must be an integer"),
        (json.dumps({**GOOD_SPEC, "gamma_count": "3"}), "'gamma_count' must be an integer"),
        (json.dumps({**GOOD_SPEC, "gamma_count": True}), "'gamma_count' must be an integer"),
    ])
    def test_malformed_spec_is_usage_error(self, capsys, tmp_path, text, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        code, out, err = run_cli(capsys, "grid", "--spec", str(spec_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    def test_unreadable_spec_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, err = run_cli(capsys, "grid", "--spec", str(missing))
        assert code == 2
        assert err.startswith("error: cannot read grid spec")
        code, _, err = run_cli(capsys, "grid", "--spec", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot read grid spec")
        bad_bytes = tmp_path / "latin1.json"
        bad_bytes.write_bytes(b'{"model": "caf\xe9"}')
        code, _, err = run_cli(capsys, "grid", "--spec", str(bad_bytes))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("model_flags, named", [
        (["--model", "probit", "--base-rate", "1.5"], "base_rate"),
        (["--model", "linear", "--mu", "1", "--beta-norm", "-3"], "beta_norm"),
    ])
    def test_bad_model_parameter_is_usage_error(self, capsys, model_flags, named):
        code, out, err = run_cli(capsys, "grid", *model_flags,
                                 "--alpha-lo", "0.01", "--alpha-hi", "0.04",
                                 "--gamma-lo", "0.1", "--gamma-hi", "0.9",
                                 "--delta-alpha", "0.001", "--delta-r2", "0.01",
                                 "--cost-access", "1", "--cost-prediction", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("model_flags", [
        ["--model", "probit", "--base-rate", "0.1"],
        ["--model", "linear", "--mu", "1", "--beta-norm", "10"],
    ], ids=["probit", "linear"])
    @pytest.mark.parametrize("delta_flags, named", [
        (["--delta-alpha", "0.001", "--delta-r2", "0"], "delta_r2"),
        (["--delta-alpha", "0", "--delta-r2", "0.01"], "delta_alpha"),
    ], ids=["zero-r2", "zero-alpha"])
    def test_zero_lever_step_is_usage_error(self, capsys, model_flags, delta_flags, named):
        code, out, err = run_cli(capsys, "grid", *model_flags,
                                 "--alpha-lo", "0.01", "--alpha-hi", "0.04",
                                 "--gamma-lo", "0.1", "--gamma-hi", "0.9", *delta_flags,
                                 "--cost-access", "1", "--cost-prediction", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("costs", [("1e-300", "1e300"), ("1e300", "1e-300")],
                             ids=["overflow", "underflow"])
    def test_unpriceable_cost_ratio_is_usage_error(self, capsys, fmt, costs):
        code, out, err = run_cli(capsys, "grid", "--model", "linear", "--mu", "1",
                                 "--beta-norm", "10", "--alpha-lo", "0.01",
                                 "--alpha-hi", "0.04", "--gamma-lo", "0.1", "--gamma-hi", "0.9",
                                 "--delta-alpha", "0.001", "--delta-r2", "0.01",
                                 "--cost-access", costs[0], "--cost-prediction", costs[1],
                                 "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cost ratio" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_cells_are_skipped(self, capsys, fmt):
        # PARs run from ~0.26 to ~77, so a cost ratio of 1e308 prices only some
        code, out, err = run_cli(capsys, "grid", "--model", "linear", "--mu", "1",
                                 "--beta-norm", "10", "--alpha-lo", "0.01",
                                 "--alpha-hi", "0.4", "--alpha-count", "3",
                                 "--gamma-lo", "0", "--gamma-hi", "0.9", "--gamma-count", "3",
                                 "--delta-alpha", "0.01", "--delta-r2", "0.01",
                                 "--cost-access", "1", "--cost-prediction", "1e308",
                                 "--format", fmt)
        assert code == 0
        assert err == ""
        cells = (json.loads(out)["cells"] if fmt == "json"
                 else list(csv.DictReader(io.StringIO(out))))
        statuses = [c["status"] for c in cells]
        assert statuses.count("ok") == 4 and statuses.count("skipped-regime") == 5
        assert "inf" not in out.lower()
        for c in cells:
            if c["status"] == "ok":
                assert float(c["cost_benefit"]) == float(c["par"]) * 1e308
            else:
                assert c["cost_benefit"] in (None, "nan")

    @pytest.mark.parametrize("counts", [(grid_mod.MAX_CELLS // 2 + 1, 2), (2, 10**12),
                                        (10**9, 10**9)], ids=["just-over", "long", "huge"])
    def test_cell_count_ceiling(self, capsys, monkeypatch, tmp_path, counts):
        # rejection only: the axes must never be built
        monkeypatch.setattr(grid_mod.GridSpec, "alphas",
                            lambda self: pytest.fail("axis built"))
        alpha_count, gamma_count = counts
        code, out, err = run_cli(capsys, "grid", "--model", "linear", "--mu", "1",
                                 "--beta-norm", "10", "--alpha-lo", "0.01",
                                 "--alpha-hi", "0.04", "--alpha-count", str(alpha_count),
                                 "--gamma-lo", "0.1", "--gamma-hi", "0.9",
                                 "--gamma-count", str(gamma_count),
                                 "--delta-alpha", "0.001", "--delta-r2", "0.01",
                                 "--cost-access", "1", "--cost-prediction", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"at most {grid_mod.MAX_CELLS}" in err
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**self.GOOD_SPEC, "alpha_count": alpha_count,
                                         "gamma_count": gamma_count}))
        code, out, err = run_cli(capsys, "grid", "--spec", str(spec_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"at most {grid_mod.MAX_CELLS}" in err


class TestVerify:
    ARGV = ["verify", "--model", "linear", "--mu", "1", "--beta-norm", "10",
            "--gamma-s", "0.3", "--alpha", "0.05", "--samples", "200000",
            "--seed", "7"]

    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert "result pass" in out
        for key in ("closed_form", "mc_mean", "mc_std_error", "z_score"):
            assert key in out

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGV)
        _, out2, _ = run_cli(capsys, *self.ARGV)
        assert out1 == out2

    def test_probit_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--model", "probit", "--base-rate",
                               "0.1", "--gamma-s", "0.3", "--alpha", "0.02",
                               "--samples", "500000", "--seed", "11")
        assert code == 0
        assert "result pass" in out

    @pytest.mark.parametrize("samples", ["100000000000000", str(10**9 + 1), "9999"])
    def test_sample_count_out_of_range_is_usage_error(self, capsys, monkeypatch,
                                                      samples):
        # rejection only: the kernel must never be reached
        monkeypatch.setattr(oracle, "linear_sums",
                            lambda *args: pytest.fail("simulation ran"))
        argv = list(self.ARGV)
        argv[argv.index("--samples") + 1] = samples
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: samples must lie in")


class TestAllocate:
    def write_dist(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("label,mass,cond_mean\n"
                        "a,0.25,2.0\nb,0.25,1.0\nc,0.5,-0.5\n")
        return path

    def test_greedy_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "allocate", "--dist",
                               str(self.write_dist(tmp_path)), "--alpha", "0.5")
        assert code == 0
        assert "treated a,b" in out
        assert "welfare 0.75" in out

    def test_brute_force_flag(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "allocate", "--dist",
                               str(self.write_dist(tmp_path)), "--alpha", "0.3",
                               "--brute-force")
        assert code == 0
        assert "brute_force_welfare 0.5" in out

    def test_bad_header_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,weight,mean\na,1.0,1.0\n")
        code, _, err = run_cli(capsys, "allocate", "--dist", str(path),
                               "--alpha", "0.5")
        assert code == 2
        assert "header" in err


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "value", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--gamma-s", "0", "--alpha", "0.7")
        assert code == 2
        assert "alpha" in err

    def test_cross_model_flags_rejected(self, capsys):
        code, _, err = run_cli(capsys, "value", "--model", "linear", "--mu", "1",
                               "--beta-norm", "10", "--base-rate", "0.1",
                               "--gamma-s", "0", "--alpha", "0.3")
        assert code == 2
        assert "--base-rate" in err

    def test_unknown_flag_is_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["value", "--bogus", "1"])
        assert exc.value.code == 2

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "partarget.cli", "value", "--model", "linear",
             "--mu", "1", "--beta-norm", "10", "--gamma-s", "0", "--alpha", "0.3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.3"
