"""Tests for the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partarget import cli, grid as grid_mod, inputs, oracle


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stream_env(unbuffered: bool = False) -> dict:
    """The caller's environment with buffered stdout and stderr, the default a
    user gets, or with the unbuffered ones of PYTHONUNBUFFERED=1."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so that tracebacks and warnings
    reach stderr as a user would see them."""
    return subprocess.run([sys.executable, "-m", "partarget.cli", *argv],
                          capture_output=True, text=True, env=stream_env())


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

    @pytest.mark.parametrize("alpha", ["1e-310", "5e-324"])
    def test_linear_vanishing_alpha_is_degenerate(self, alpha):
        # the prediction gain is about 1e-310 or smaller, and the ratio overflows
        proc = run_process("par", "--model", "linear", "--mu", "1", "--beta-norm", "10",
                           "--gamma-s", "0.3", "--alpha", alpha, "--delta-alpha", "0.01",
                           "--delta-r2", "0.01")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: prediction gain V(gamma_s + delta_r2) - V(gamma_s) is not "
                   "positive, or too small to divide by\n")


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
        assert err == "error: --eps is only valid with --model probit\n"

    def test_eps_reaches_the_probit_bounds(self, capsys, monkeypatch):
        calls = []
        model = grid_mod.MODELS["probit"]

        def bounds(*args):
            calls.append(args[3:])
            return model.bounds(*args)

        monkeypatch.setitem(grid_mod.MODELS, "probit", model._replace(bounds=bounds))
        argv = ("bounds", "--model", "probit", "--base-rate", "0.05", "--gamma-s", "0.3",
                "--alpha", "0.002", "--delta-alpha", "0.0001", "--delta-r2", "0.001")
        code, out, err = run_cli(capsys, *argv, "--eps", "0.05", "--machine")
        assert (code, err, calls) == (0, "", [(0.05,)])
        p = grid_mod.model_params("probit", 0.3, None, None, 0.05)
        pair = model.bounds(p, 0.002, inputs.LeverDelta(0.0001, 0.001), 0.05)
        assert out.startswith("lower %.17g\nupper %.17g\n" % (pair.lower, pair.upper))
        assert run_cli(capsys, *argv)[0] == 0 and calls[1] == ()

    def test_probit_overflow_is_numerical_failure(self):
        # 1/(sqrt(2 pi) alpha T) ~ 129 raised to a power ~ 1/gamma_t^2 = 500
        proc = run_process("bounds", "--model", "probit", "--base-rate", "0.05",
                           "--gamma-s", "0.999", "--alpha", "0.001",
                           "--delta-alpha", "0.0001", "--delta-r2", "0.001")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: the bounds overflow")
        assert "Traceback" not in proc.stderr

    def test_probit_vanishing_alpha_is_numerical_failure(self, capsys):
        # 1/(sqrt(2 pi) alpha T) is inf, and a zero access step times inf is NaN
        code, out, err = run_cli(capsys, "bounds", "--model", "probit", "--base-rate", "0.05",
                                 "--gamma-s", "0.3", "--alpha", "5e-324",
                                 "--delta-alpha", "0", "--delta-r2", "0.001")
        assert (code, out) == (1, "")
        assert err.startswith("numerical failure: the bounds overflow: "
                              "1/(sqrt(2 pi) alpha T) = inf")


def _flags(fields: dict) -> list[str]:
    """grid flags that give the spec fields, one --flag=value per key (the =
    keeps a negative value such as -1e-5 from reading as a flag)."""
    return [f"--{key.replace('_', '-')}={val}" for key, val in fields.items()]


@st.composite
def grid_fields(draw):
    """Spec fields of a small grid, valid or not, as a spec file holds them."""
    model = draw(st.sampled_from(["linear", "probit"]))
    f = {"model": model}
    if model == "linear":
        f["mu"] = draw(st.floats(-1.0, 5.0))
        f["beta_norm"] = draw(st.floats(0.5, 20.0))
    else:
        f["base_rate"] = draw(st.floats(-0.1, 1.1))
    a_lo, a_hi = sorted(draw(st.lists(st.floats(1e-3, 0.45), min_size=2, max_size=2)))
    g_lo, g_hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    f.update(alpha_lo=a_lo, alpha_hi=a_hi, alpha_count=draw(st.integers(2, 5)),
             gamma_lo=draw(st.sampled_from([0.0, g_lo])), gamma_hi=draw(st.sampled_from([1.0, g_hi])),
             gamma_count=draw(st.integers(2, 5)),
             delta_alpha=draw(st.sampled_from([0.0, 0.001, 0.002, 0.005, 0.01, 0.02])),
             delta_r2=draw(st.sampled_from([0.0, 1e-6, 0.001, 0.002, 0.005, 0.01, 0.02])),
             cost_access=draw(st.floats(0.1, 4.0)),
             cost_prediction=draw(st.sampled_from([1e308, 0.05, 0.25, 0.5, 1.0, 2.0, 4.0])))
    for key, values in (("clip_lo", st.floats(0.1, 1.5)), ("clip_hi", st.floats(0.5, 4.0)),
                        ("alpha_spacing", st.sampled_from(["log", "linear"]))):
        if draw(st.booleans()):
            f[key] = draw(values)
    return f


class TestGrid:
    @settings(max_examples=40, deadline=None)
    @given(fields=grid_fields(), fmt=st.sampled_from(["csv", "json"]))
    def test_flags_and_spec_build_the_same_grid(self, fields, fmt):
        def run(*argv):
            out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["grid", *argv, "--format", fmt])
            out.flush()
            return code, out.buffer.getvalue(), err.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(json.dumps(fields))
            from_spec = run("--spec", str(spec_path))
        assert run(*_flags(fields)) == from_spec

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
        # a byte-order mark, as spreadsheets and some editors write one, is skipped
        spec_path.write_bytes(b"\xef\xbb\xbf" + spec_path.read_bytes())
        assert run_cli(capsys, "grid", "--spec", str(spec_path), "--format", "json") == \
            (0, out, "")

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
        (json.dumps({**GOOD_SPEC, "alpha_hi": 1.0}), "alpha range [0.01, 1.0] must lie in (0, 1)"),
        (json.dumps({**GOOD_SPEC, "gamma_hi": 1.5}), "gamma range [0.1, 1.5] must lie in [0, 1]"),
        (json.dumps({**GOOD_SPEC, "alpha_hi": 0.01}), "alpha range is degenerate"),
        (json.dumps({**GOOD_SPEC, "gamma_lo": 0.9}), "gamma range is degenerate"),
        (json.dumps({**GOOD_SPEC, "alpha_lo": 1e-310}), "alpha_hi / alpha_lo overflows"),
        (json.dumps({**GOOD_SPEC, "clip_hi": math.inf}), "must be finite"),
        (json.dumps({**GOOD_SPEC, "clip_lo": -math.inf}), "must be finite"),
        (json.dumps({**GOOD_SPEC, "clip_lo": math.nan}), "clip_lo must be strictly below"),
    ])
    def test_malformed_spec_is_usage_error(self, capsys, tmp_path, text, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        code, out, err = run_cli(capsys, "grid", "--spec", str(spec_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags, error", [
        (["--alpha-lo", "1e-310"], "error: alpha range [1e-310, 0.04] is too wide for log "
                                   "spacing: alpha_hi / alpha_lo overflows\n"),
        (["--clip-hi", "inf"], "error: clip bounds [0.5, inf] must be finite\n"),
    ], ids=["log-overflow", "infinite-clip"])
    def test_unsweepable_flags_are_usage_errors(self, capsys, fmt, flags, error):
        code, out, err = run_cli(capsys, "grid", *_flags(self.GOOD_SPEC), *flags,
                                 "--format", fmt)
        assert (code, out, err) == (2, "", error)

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

    OVERFLOW_FLAGS = ["--model", "linear", "--mu", "1", "--beta-norm", "10",
                      "--alpha-lo", "0.005", "--alpha-hi", "0.03",
                      "--gamma-lo", "0.1", "--gamma-hi", "0.8",
                      "--delta-alpha", "0.01", "--delta-r2", "0.01",
                      "--cost-access", "1", "--cost-prediction", "1e308"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_all_overflowing_grid_names_cost_ratio(self, capsys, fmt):
        # every PAR lies above ~4, so no cell can be priced at a ratio of 1e308
        code, out, err = run_cli(capsys, "grid", *self.OVERFLOW_FLAGS, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cost ratio cost_prediction / cost_access = 1e+308")

    def test_all_regime_grid_is_numerical_failure(self, capsys):
        # alpha + delta_alpha >= 0.5 in every row
        code, out, err = run_cli(capsys, "grid", "--model", "linear", "--mu", "1",
                                 "--beta-norm", "10", "--alpha-lo", "0.492",
                                 "--alpha-hi", "0.499", "--gamma-lo", "0.1",
                                 "--gamma-hi", "0.8", "--delta-alpha", "0.01",
                                 "--delta-r2", "0.01", "--cost-access", "1",
                                 "--cost-prediction", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: every cell of the grid is infeasible")

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        flags = [*self.OVERFLOW_FLAGS[:-1], "1"]
        code, out, err = run_cli(capsys, "grid", *flags, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("i/o error:")

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

    def test_same_verdict_at_every_scale(self, capsys):
        # (mu, beta_norm) = (1, 10) * 2**k: the z-score does not depend on the
        # scale, and the sums, taken in a power-of-two unit, neither underflow
        # (2**-900 read mc_std_error 0 and failed) nor overflow (2**900 was refused).
        verdicts = []
        for k in (-900, 0, 900):
            code, out, err = run_cli(capsys, "verify", "--model", "linear",
                                     "--mu", repr(math.ldexp(1.0, k)),
                                     "--beta-norm", repr(math.ldexp(10.0, k)),
                                     "--gamma-s", "0.3", "--alpha", "0.05",
                                     "--samples", "100000", "--seed", "1", "--machine")
            assert (code, err) == (0, "")
            verdicts.append(out.splitlines()[3:])
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert verdicts[1] == ["z_score 1.4094136708042575", "result pass (4 standard errors)"]

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


class TestVerifyWithoutSpread:
    """A run whose sample has no spread (no hit at all) is judged against the
    spread the closed form implies; every other run is judged as before."""

    NO_HIT = {
        # n V is 7.6e-4 (probit) and 2.7e-4 (linear): a hit is as good as
        # impossible, whatever the stream
        "probit": ["--model", "probit", "--base-rate", "0.25", "--gamma-s", "0.25",
                   "--alpha", "1e-7", "--samples", "10000", "--seed", "1"],
        "linear": ["--model", "linear", "--mu", "1", "--beta-norm", "1", "--gamma-s", "0.3",
                   "--alpha", "1e-8", "--samples", "10000", "--seed", "1"],
    }

    @pytest.mark.parametrize("model", ["probit", "linear"])
    def test_no_hit_passes(self, capsys, model):
        code, out, _ = run_cli(capsys, "verify", *self.NO_HIT[model], "--machine")
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert code == 0
        assert fields["mc_mean"] == "0" and fields["mc_std_error"] == "0"
        assert fields["result"] == "pass (4 standard errors)"
        v = float(fields["closed_form"])
        if model == "probit":
            se = math.sqrt(v * (1.0 - v) / 10_000)
            assert float(fields["z_score"]) == pytest.approx(-v / se, rel=1e-12)
        assert -4.0 < float(fields["z_score"]) < 0.0

    @pytest.mark.parametrize("model, argv", [
        ("probit", ["--base-rate", "0.1", "--gamma-s", "0.3", "--alpha", "0.02"]),
        ("linear", ["--mu", "1", "--beta-norm", "10", "--gamma-s", "0.3", "--alpha", "0.05"]),
    ])
    def test_no_hit_where_many_are_expected_fails(self, capsys, monkeypatch, model, argv):
        # n V is 56 (probit) and 3594 (linear): a kernel that finds no hit is wrong.
        monkeypatch.setattr(oracle, f"{model}_sums", lambda *args: (0.0, 0.0))
        code, out, _ = run_cli(capsys, "verify", "--model", model, *argv,
                               "--samples", "10000", "--seed", "1")
        assert code == 1
        assert "mc_std_error 0\n" in out
        assert "result fail (4 standard errors)" in out

    def test_no_hit_gives_the_same_verdict_at_every_scale(self, capsys):
        # (mu, beta_norm) = (1, 1) * 2**k: the no-hit spread is taken in the
        # welfare unit, where its mean square neither underflows (2**-900 read
        # a spread of 0 and failed) nor overflows (2**664 and up were refused).
        verdicts = []
        for k in (-900, 0, 664, 900):
            x = repr(math.ldexp(1.0, k))
            code, out, err = run_cli(capsys, "verify", "--model", "linear", "--mu", x,
                                     "--beta-norm", x, "--gamma-s", "0.3", "--alpha", "1e-8",
                                     "--samples", "10000", "--seed", "1", "--machine")
            assert (code, err) == (0, "")
            verdicts.append(out.splitlines()[3:])
        assert verdicts[0] == verdicts[1] == verdicts[2] == verdicts[3]
        assert verdicts[1][1] == "result pass (4 standard errors)"

    @pytest.mark.parametrize("argv, stdout", [
        (["--model", "linear", "--mu", "1", "--beta-norm", "10", "--gamma-s", "0.3",
          "--alpha", "0.05", "--samples", "200000", "--seed", "7"],
         "closed_form 0.359407\nmc_mean 0.351068\nmc_std_error 0.00589854\n"
         "z_score -1.41364\nresult pass (4 standard errors)\n"),
        (["--model", "probit", "--base-rate", "0.1", "--gamma-s", "0.3", "--alpha", "0.02",
          "--samples", "500000", "--seed", "11", "--machine"],
         # closed_form: the 40-digit value is 0.005624985789780389672
         "closed_form 0.0056249857897803929\nmc_mean 0.0056020000000000002\n"
         "mc_std_error 0.00010555215523386981\nz_score -0.21776712876647103\n"
         "result pass (4 standard errors)\n"),
        (["--model", "probit", "--base-rate", "0.25", "--gamma-s", "0.25", "--alpha", "0.001",
          "--samples", "10000", "--seed", "5"],
         "closed_form 0.000568399\nmc_mean 0.0004\nmc_std_error 0.00019997\n"
         "z_score -0.842121\nresult pass (4 standard errors)\n"),
    ], ids=["linear", "probit-machine", "probit-four-hits"])
    def test_runs_with_spread_are_unchanged(self, capsys, argv, stdout):
        assert run_cli(capsys, "verify", *argv) == (0, stdout, "")
        z = float(dict(line.split(" ", 1) for line in stdout.splitlines())["z_score"])
        assert -4.0 <= z <= 4.0

    def test_pinned_probit_closed_form_is_the_40_digit_value(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--model", "probit", "--base-rate", "0.1",
                               "--gamma-s", "0.3", "--alpha", "0.02", "--machine")
        assert code == 0
        assert float(out) == pytest.approx(0.005624985789780389672, rel=1e-14, abs=0.0)


# The three ways to pass a parameter of the other model.
CROSS_MODEL = [
    ({"model": "linear", "mu": 1.0, "beta_norm": 10.0, "base_rate": 0.1},
     "error: base_rate is only valid with the probit model\n"),
    ({"model": "probit", "base_rate": 0.1, "mu": 1.0},
     "error: mu/beta_norm are only valid with the linear model\n"),
    ({"model": "probit", "base_rate": 0.1, "beta_norm": 10.0},
     "error: mu/beta_norm are only valid with the linear model\n"),
]
GRID_FIELDS = {"alpha_lo": 0.01, "alpha_hi": 0.04, "alpha_count": 3, "gamma_lo": 0.1,
               "gamma_hi": 0.9, "gamma_count": 3, "delta_alpha": 0.001, "delta_r2": 0.01,
               "cost_access": 1.0, "cost_prediction": 1.0}


class TestSingleParameterRule:
    """Every subcommand that takes a model refuses the other model's
    parameters with the same line, from the one parameter builder."""

    @pytest.mark.parametrize("command", ["value", "par", "bounds", "verify", "grid",
                                         "grid-spec"])
    @pytest.mark.parametrize("fields, error", CROSS_MODEL,
                             ids=["linear-base-rate", "probit-mu", "probit-beta-norm"])
    def test_other_models_parameter(self, capsys, tmp_path, command, fields, error):
        scalar = {"gamma_s": 0.3, "alpha": 0.02}
        extra = {"par": {"delta_alpha": 0.001, "delta_r2": 0.01},
                 "bounds": {"delta_alpha": 0.001, "delta_r2": 0.01},
                 "verify": {"samples": 10_000, "seed": 1}}
        if command == "grid-spec":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({**fields, **GRID_FIELDS}))
            argv = ["grid", "--spec", str(spec_path)]
        elif command == "grid":
            argv = ["grid", *_flags({**fields, **GRID_FIELDS})]
        else:
            argv = [command, *_flags({**fields, **scalar, **extra.get(command, {})})]
        assert run_cli(capsys, *argv) == (2, "", error)


class TestNegativeValues:
    """Every value float() reads reaches the domain check, also a negative
    one in exponent notation or an infinity, which argparse alone would
    take for an unknown flag."""

    VALUE = ["value", "--model", "linear", "--beta-norm", "1", "--gamma-s", "0.3",
             "--alpha", "0.1"]

    @pytest.mark.parametrize("mu", [["--mu", "-1e-5"], ["--mu=-1e-5"], ["--mu", "-1E-5"],
                                    ["--mu", "-inf"], ["--mu=-inf"], ["--mu", "-Infinity"],
                                    ["--mu", "-1"]])
    def test_negative_mu_is_refused_by_name(self, capsys, mu):
        value = float(mu[-1].split("=")[-1])
        assert run_cli(capsys, *self.VALUE, *mu) == (
            2, "", f"error: mu must be finite and positive, got {value!r}\n")

    @pytest.mark.parametrize("base_rate", [["--base-rate", "-2e-313"],
                                           ["--base-rate=-2e-313"]])
    def test_grid_negative_base_rate(self, capsys, base_rate):
        argv = ["grid", "--model", "probit", *base_rate, *_flags(GRID_FIELDS)]
        assert run_cli(capsys, *argv) == (
            2, "", "error: base_rate must lie in (0, 1), got -2e-313\n")

    def test_negative_alpha_reaches_the_regime_check(self, capsys):
        code, out, err = run_cli(capsys, "value", "--model", "linear", "--mu", "1",
                                 "--beta-norm", "1", "--gamma-s", "0.3", "--alpha", "-1e-5")
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha must lie in (0, 0.5), got -1e-05")

    def test_stray_number_is_still_refused(self, capsys):
        assert cli.run([*self.VALUE, "--mu", "1", "-1e-5"]) == 2
        assert "unrecognized arguments: -1e-5" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name, content, message", [
        ("absent.csv", None, "cannot read distribution file"),
        ("", None, "cannot read distribution file"),  # the directory itself
        ("utf16.csv", b"\xff\xfe", "is not valid UTF-8"),
        ("d.csv", b"label,mass,cond_mean\na,heavy,2.0\nb,1.0,1.0\n",
         "malformed distribution row {'label': 'a', 'mass': 'heavy', 'cond_mean': '2.0'}"),
        ("d.csv", b"label,mass,cond_mean\na,0.25,2.0,junk\nb,0.75,1.0\n",
         "malformed distribution row {'label': 'a', 'mass': '0.25', 'cond_mean': '2.0', "
         "None: ['junk']}"),
        ("d.csv", b"label,mass,cond_mean\na,0,2.0\nb,1.0,1.0\n",
         "atom 'a' has nonpositive mass 0.0"),
        ("d.csv", b"label,mass,cond_mean\na,1.0,2.0\nb,nan,1.0\n",
         "atom 'b' has nonpositive mass nan"),
        ("d.csv", b"label,mass,cond_mean\na,0.5,-inf\nb,0.5,1.0\n",
         "atom 'a' has non-finite mean"),
    ], ids=["missing", "directory", "not-utf8", "non-numeric-mass", "extra-field", "zero-mass",
            "nan-mass", "infinite-mean"])
    def test_unreadable_dist_is_usage_error(self, capsys, tmp_path, name, content, message):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, "allocate", "--dist", str(path), "--alpha", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_output_is_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("label,mass,cond_mean\ncafé,0.25,2.0\nb,0.75,-1.0\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "partarget.cli", "allocate", "--dist", str(path),
             "--alpha", "0.5"],
            capture_output=True, env={**os.environ, "PYTHONIOENCODING": "ascii"})
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith("treated café\n".encode("utf-8"))

    def test_header_with_spaces_reads_as_plain(self, tmp_path):
        # the header's names are compared stripped, and the rows read by them
        rows = "a,0.25,2.0\nb,0.25,1.0\nc,0.5,-0.5\n"
        runs = []
        for name, header in (("plain.csv", "label,mass,cond_mean"),
                             ("spaced.csv", "label, mass , cond_mean "),
                             ("bom.csv", "\ufefflabel,mass,cond_mean")):  # as Excel writes it
            path = tmp_path / name
            path.write_text(f"{header}\n{rows}", encoding="utf-8")
            runs.append(run_process("allocate", "--dist", str(path), "--alpha", "0.5",
                                    "--brute-force"))
        plain, spaced, bom = ((run.returncode, run.stdout, run.stderr) for run in runs)
        assert plain == spaced == bom == (0, plain[1], "")
        assert "treated a,b" in plain[1]

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
        assert err == "error: base_rate is only valid with the probit model\n"

    def test_unknown_flag_is_two(self, capsys):
        code, out, err = run_cli(capsys, "value", "--bogus", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: partarget value [-h]")
        assert err.endswith("partarget value: error: the following arguments are "
                            "required: --model, --gamma-s, --alpha\n")

    def test_help_is_zero(self, capsys):
        assert run_cli(capsys, "--help") == (0, cli._build_parser().format_help(), "")

    def test_grid_has_no_machine_flag(self, capsys):
        # a grid always writes every digit
        fields = {"model": "linear", "mu": 1.0, "beta_norm": 10.0, **GRID_FIELDS}
        assert run_cli(capsys, "grid", *_flags(fields), "--machine") == (
            2, "", "usage: partarget [-h] {value,par,bounds,grid,verify,allocate} ...\n"
                   "partarget: error: unrecognized arguments: --machine\n")

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "partarget.cli", "value", "--model", "linear",
             "--mu", "1", "--beta-norm", "10", "--gamma-s", "0", "--alpha", "0.3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.3"


VALUE_ARGV = ("value", "--model", "linear", "--mu", "1", "--beta-norm", "10",
              "--gamma-s", "0.3", "--alpha", "0.05")
ALPHA_ARGV = VALUE_ARGV[:-1] + ("0.7",)
ALPHA_ERROR = ("error: alpha must lie in (0, 0.5), got 0.7 (above 0.5 the positivity"
               " constraint binds and the closed form does not apply)\n")
BIG_GRID_FIELDS = {"model": "linear", "mu": 1.0, "beta_norm": 10.0, "alpha_lo": 0.001,
               "alpha_hi": 0.4, "alpha_count": 200, "gamma_lo": 0.0, "gamma_hi": 0.99,
               "gamma_count": 200, "delta_alpha": 0.001, "delta_r2": 0.001,
               "cost_access": 1.0, "cost_prediction": 0.25}
BIG_GRID_ARGV = ("grid", *_flags(BIG_GRID_FIELDS))


@pytest.fixture(scope="module")
def grid_csv() -> bytes:
    """The 200x200 grid of BIG_GRID_ARGV as CSV, serialized in process."""
    spec = grid_mod.GridSpec.from_dict(BIG_GRID_FIELDS)
    return grid_mod.serialize_grid(grid_mod.sweep_grid(spec), "csv")


def run_redirected(redirect, *argv, unbuffered=False):
    """Run ``python -m partarget.cli`` with a shell redirection of its streams."""
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh",
                           sys.executable, "-m", "partarget.cli", *argv],
                          capture_output=True, text=True, env=stream_env(unbuffered))


# Each row: redirection, argv, exit code, stdout, stderr.
STREAM_CASES = {
    "stdout-closed": (">&-", VALUE_ARGV, 1, "", "i/o error: stdout is closed\n"),
    "grid-stdout-closed": (">&-", BIG_GRID_ARGV, 1, "", "i/o error: stdout is closed\n"),
    "grid-out-stdout-closed": (">&-", (*BIG_GRID_ARGV, "--out", "{tmp}/grid.csv"), 0, "", ""),
    "help-stdout-closed": (">&-", ("--help",), 1, "", "i/o error: stdout is closed\n"),
    "stderr-closed": ("2>&-", VALUE_ARGV, 0, "0.359407\n", ""),
    "stderr-closed-error": ("2>&-", ALPHA_ARGV, 2, "", ""),
    "stderr-unwritable-error": ("2</dev/null", ALPHA_ARGV, 2, "", ""),
    "stderr-unwritable-usage-error": ("2</dev/null", VALUE_ARGV + ("--bogus",), 2, "", ""),
    "stdout-full": (">/dev/full", VALUE_ARGV, 1, "",
                    "i/o error: [Errno 28] No space left on device\n"),
    "grid-stdout-full": (">/dev/full", BIG_GRID_ARGV, 1, "",
                         "i/o error: [Errno 28] No space left on device\n"),
    "help-stdout-full": (">/dev/full", ("--help",), 1, "",
                         "i/o error: [Errno 28] No space left on device\n"),
}
# The rows whose write fails, which fail differently on unbuffered streams:
# these run both ways, the others buffered only.
FAILED_WRITES = ("stderr-unwritable-error", "stderr-unwritable-usage-error", "stdout-full",
                 "grid-stdout-full", "help-stdout-full")


class TestProcessExit:
    """`main` flushes and ends the process with `os._exit`; each exit path
    keeps its code and bytes.  `test_console_script_entry_point` and
    `TestBounds::test_probit_overflow_is_numerical_failure` cover exit 0
    and exit 1 through `main`."""

    @pytest.mark.parametrize("argv, code, out, err", [
        (ALPHA_ARGV, 2, "", ALPHA_ERROR),
        (VALUE_ARGV + ("--bogus",), 2, "",
         "usage: partarget [-h] {value,par,bounds,grid,verify,allocate} ...\n"
         "partarget: error: unrecognized arguments: --bogus\n"),
    ], ids=["domain-error", "usage-error"])
    def test_exit_code_and_streams(self, argv, code, out, err):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal width
        proc = run_process("--help")
        assert proc.returncode == 0
        assert proc.stdout == cli._build_parser().format_help()
        assert proc.stderr == ""

    def test_grid_to_stdout_is_complete(self, grid_csv):
        proc = subprocess.run([sys.executable, "-m", "partarget.cli", *BIG_GRID_ARGV],
                              capture_output=True, env=stream_env())
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert len(proc.stdout) > 3_000_000
        assert proc.stdout == grid_csv

    def test_grid_to_out_is_complete(self, grid_csv, tmp_path):
        out = tmp_path / "grid.csv"
        proc = run_process(*BIG_GRID_ARGV, "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert out.read_bytes() == grid_csv

    def test_uncaught_exception_keeps_its_traceback(self):
        script = ("import sys\n"
                  "from partarget import cli\n"
                  "def fail(args):\n"
                  "    raise RuntimeError('handler failed')\n"
                  "cli._cmd_value = fail\n"
                  f"sys.argv = ['partarget', *{VALUE_ARGV!r}]\n"
                  "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=stream_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.endswith("\nRuntimeError: handler failed\n")

    def test_teardown_is_skipped(self):
        # The ordinary exit would run the wrapper's atexit handler.
        script = ("import atexit, sys\n"
                  "from partarget import cli\n"
                  "atexit.register(print, 'atexit ran')\n"
                  f"sys.argv = ['partarget', *{VALUE_ARGV!r}]\n"
                  "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=stream_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0.359407\n", "")

    @pytest.mark.parametrize("unbuffered, redirect, argv, code, out, err", [
        *(pytest.param(False, *row, id=name) for name, row in STREAM_CASES.items()),
        *(pytest.param(True, *STREAM_CASES[name], id=name + "-unbuffered")
          for name in FAILED_WRITES)])
    def test_closed_or_full_stream(self, unbuffered, redirect, argv, code, out, err,
                                   tmp_path, grid_csv):
        if "/dev/full" in redirect and not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        proc = run_redirected(redirect, *(arg.format(tmp=tmp_path) for arg in argv),
                              unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        if "--out" in argv:
            assert (tmp_path / "grid.csv").read_bytes() == grid_csv

    @pytest.mark.parametrize("read, unbuffered", [
        pytest.param(0, False, id="at-once"), pytest.param(100_000, False, id="part-way"),
        pytest.param(0, True, id="at-once-unbuffered"),
        pytest.param(100_000, True, id="part-way-unbuffered")])
    def test_grid_to_a_pipe_the_reader_closed(self, read, unbuffered):
        proc = subprocess.Popen([sys.executable, "-m", "partarget.cli", *BIG_GRID_ARGV],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=stream_env(unbuffered))
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b"i/o error: [Errno 32] Broken pipe\n"


LINEAR = ["--model", "linear", "--mu", "1", "--beta-norm", "10", "--gamma-s", "0.3",
          "--alpha", "0.02"]
PROBIT = ["--model", "probit", "--base-rate", "0.05", "--gamma-s", "0.3", "--alpha", "0.002"]
LEVERS = ["--delta-alpha", "0.001", "--delta-r2", "0.01"]
# Every subcommand, on both models where it takes one.
COMMANDS = {
    **{f"{command}-{model}": [command, *argv, *extra]
       for command, extra in (("value", []), ("par", LEVERS), ("bounds", LEVERS),
                              ("verify", ["--samples", "300000", "--seed", "3"]))
       for model, argv in (("linear", LINEAR), ("probit", PROBIT))},
    "grid-linear": ["grid", *_flags({"model": "linear", "mu": 1.0, "beta_norm": 10.0,
                                     **GRID_FIELDS})],
    "grid-probit": ["grid", "--format", "csv", *_flags({"model": "probit", "base_rate": 0.05,
                                                        **GRID_FIELDS})],
    "allocate": ["allocate", "--dist", "{dist}", "--alpha", "0.3", "--brute-force"],
}


class TestWithoutScipy:
    """No module of the package imports scipy: every subcommand runs, with
    the output it has in process, in an interpreter where importing scipy
    fails."""

    @pytest.mark.parametrize("name", COMMANDS)
    def test_same_output(self, capsys, tmp_path, name):
        dist = tmp_path / "dist.csv"
        dist.write_text("label,mass,cond_mean\na,0.25,2.0\nb,0.25,1.0\nc,0.5,-0.5\n")
        argv = [arg.format(dist=dist) for arg in COMMANDS[name]]
        script = ("import sys\n"
                  "sys.modules['scipy'] = None  # any import of scipy now raises\n"
                  "from partarget import cli\n"
                  f"sys.argv = ['partarget', *{argv!r}]\n"
                  "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=stream_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
        assert proc.returncode == 0 and proc.stdout


def blas_env(threads: str | None) -> dict:
    """stream_env() with OPENBLAS_NUM_THREADS set to threads, or unset."""
    env = {k: v for k, v in stream_env().items() if k != "OPENBLAS_NUM_THREADS"}
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


class TestOpenblasThreads:
    """`main` sets OPENBLAS_NUM_THREADS to 1 for its own process unless the
    caller set it or NumPy is already loaded; no output depends on it."""

    @pytest.mark.parametrize("name", ["value-probit", "par-linear", "grid-probit",
                                      "verify-linear"])
    def test_same_output_with_a_callers_setting(self, name):
        argv = [sys.executable, "-m", "partarget.cli", *COMMANDS[name]]
        runs = [subprocess.run(argv, capture_output=True, env=blas_env(threads))
                for threads in (None, "2")]
        assert runs[0].returncode == 0 and runs[0].stdout
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == \
            [(runs[0].returncode, runs[0].stdout, runs[0].stderr)]

    @pytest.mark.parametrize("threads, preload, seen", [
        (None, "", "1"), ("2", "", "2"), (None, "import numpy\n", "unset")],
        ids=["unset", "callers-value-kept", "numpy-already-loaded"])
    def test_setting_seen_by_the_command(self, threads, preload, seen):
        script = (f"import os, sys\n{preload}"
                  "from partarget import cli\n"
                  "cli._cmd_value = lambda args: "
                  "(0, os.environ.get('OPENBLAS_NUM_THREADS', 'unset').encode())\n"
                  f"sys.argv = ['partarget', *{VALUE_ARGV!r}]\n"
                  "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=blas_env(threads))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, seen, "")


SPEC_FIELDS = {"model": "linear", "mu": 1.0, "beta_norm": 10.0, **GRID_FIELDS}
# Spec files of the four kinds that grid refuses as it reads them.
BAD_SPECS = {"list": "[1, 2, 3]\n",
             "non-numeric": json.dumps({**SPEC_FIELDS, "alpha_lo": "low"}),
             "invalid-json": json.dumps(SPEC_FIELDS)[:-20],
             "fractional-count": json.dumps({**SPEC_FIELDS, "alpha_count": 2.9})}


# One refusal of each input record, each found before NumPy loads, with its line.
REFUSALS = {
    "linear-parameters": (["value", "--model", "linear", "--mu", "-1", "--beta-norm", "10",
                           "--gamma-s", "0.3", "--alpha", "0.02"],
                          "error: mu must be finite and positive, got -1.0\n"),
    "probit-parameters": (["par", "--model", "probit", "--base-rate", "1.5", "--gamma-s", "0.3",
                           "--alpha", "0.002", *LEVERS],
                          "error: base_rate must lie in (0, 1), got 1.5\n"),
    "other-models-flag": (["bounds", *LINEAR, "--base-rate", "0.1", *LEVERS],
                          "error: base_rate is only valid with the probit model\n"),
    "lever-step": (["par", *LINEAR, "--delta-alpha", "-1", "--delta-r2", "0.01"],
                   "error: delta_alpha must be finite and >= 0, got -1.0\n"),
    "sample-count": (["verify", *PROBIT, "--samples", "5", "--seed", "1"],
                     "error: samples must lie in [10000, 1000000000], got 5\n"),
    "eps-with-linear": (["bounds", *LINEAR, *LEVERS, "--eps", "0.05"],
                        "error: --eps is only valid with --model probit\n"),
    "probit-eps": (["bounds", *PROBIT, *LEVERS, "--eps", "0.5"],
                   "error: eps must lie in (0, 0.1), got 0.5\n"),
    "spec-parameters": (["grid", *_flags({"model": "probit", "base_rate": 0.0, **GRID_FIELDS})],
                        "error: base_rate must lie in (0, 1), got 0.0\n"),
    "spec-axis": (["grid", *_flags({**SPEC_FIELDS, "alpha_hi": 0.01})],
                  "error: alpha range is degenerate with count >= 2\n"),
    "distribution": (["allocate", "--dist", "{tmp}/bad-dist.csv", "--alpha", "0.5"],
                     "error: atom 'a' has nonpositive mass -0.5\n"),
}


class TestWithoutNumpy:
    """Importing the CLI loads no NumPy, and the commands that compute
    nothing with it run, with the output they have in process, in an
    interpreter where importing numpy fails.  Each refused input record
    exits 2 with its line there, so none of them loads NumPy."""

    @pytest.mark.parametrize("argv, refusal", [
        pytest.param(COMMANDS["allocate"], None, id="allocate"),
        *(pytest.param(["grid", "--spec", f"{{tmp}}/{name}.json"], None, id=f"spec-{name}")
          for name in BAD_SPECS),
        pytest.param(["grid", "--spec", "{tmp}/missing.json"], None, id="spec-missing"),
        pytest.param(["--help"], None, id="help"),
        pytest.param(["grid", "--help"], None, id="grid-help"),
        pytest.param(["frobnicate"], None, id="unknown-subcommand"),
        *(pytest.param(argv, line, id=name) for name, (argv, line) in REFUSALS.items()),
    ])
    def test_same_output(self, capsys, monkeypatch, tmp_path, argv, refusal):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
        dist = tmp_path / "dist.csv"
        dist.write_text("label,mass,cond_mean\na,0.25,2.0\nb,0.25,1.0\nc,0.5,-0.5\n")
        (tmp_path / "bad-dist.csv").write_text("label,mass,cond_mean\na,-0.5,2.0\nb,1.5,1.0\n")
        for name, text in BAD_SPECS.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = [arg.format(dist=dist, tmp=tmp_path) for arg in argv]
        script = ("import sys\n"
                  "sys.modules['numpy'] = None  # any import of numpy now raises\n"
                  "from partarget import cli\n"
                  f"sys.argv = ['partarget', *{argv!r}]\n"
                  "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=stream_env())
        result = (proc.returncode, proc.stdout, proc.stderr)
        assert result == run_cli(capsys, *argv)
        if refusal is not None:
            assert result == (2, "", refusal)

    def test_importing_the_cli_loads_no_numpy(self):
        script = "import sys, partarget.cli; assert 'numpy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
