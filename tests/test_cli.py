"""Command-line interface: argument handling, output formats, exit codes."""
from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import pytest

import mzl
from mzl.cli import main
from mzl.config import RunConfig, load_config
from mzl.errors import InvalidSpecError
from mzl.poly import BivariatePolynomial, polynomial_to_json


def write_poly(path, P: BivariatePolynomial) -> str:
    path.write_text(json.dumps(polynomial_to_json(P)))
    return str(path)


@pytest.fixture
def lin_poly(tmp_path):
    # Y - (250 + 170i): one zero in the classical domain
    return write_poly(tmp_path / "lin.json",
                      BivariatePolynomial([[-(250.0 + 170.0j), 1.0]]))


@pytest.fixture
def wp_poly(tmp_path):
    # Y - (2.5 + 1.5i): order-two target in the period cell
    return write_poly(tmp_path / "wp.json",
                      BivariatePolynomial([[-(2.5 + 1.5j), 1.0]]))


# ---------------------------------------------------------------------------
# bound


def test_bound_closed_forms(capsys):
    for argv, expect in [
        (["bound", "t1", "--d", "1"], str(2**68)),
        (["bound", "t2", "--d", "2"], "65"),
        (["bound", "t2proof", "--d", "2"], "67"),
        (["bound", "prop", "--d", "3"], "55"),
        (["bound", "bezout", "--d", "2"], "14"),
        (["bound", "khov", "--r", "9", "--alpha", "2", "--beta", "1"],
         "1352605460594688"),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == expect


def test_bound_khov_requires_all_parameters(capsys):
    assert main(["bound", "khov", "--r", "9"]) == 2
    assert "khov needs" in capsys.readouterr().err


def test_bound_degree_required(capsys):
    assert main(["bound", "t2"]) == 2
    assert "--d" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_jinv_exact_at_critical_level(capsys):
    assert main(["eval", "jinv", "1728"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "input,re,im,error_bound"
    assert out[1] == "1728,1.0,0.0,"


def test_eval_j_at_i(capsys):
    assert main(["eval", "j", "1i"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert abs(float(row[1]) - 1728.0) < 1e-6
    assert abs(float(row[2])) < 1e-9
    assert float(row[3]) > 0.0  # relative error bound column


def test_eval_wp_half_period(capsys):
    assert main(["eval", "wp", "0.5", "--tau", "1.0"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert abs(float(row[1]) - 6.875185818020373) < 1e-9
    assert abs(float(row[2])) < 1e-12
    # the bound on the error of wp: a few dozen units of rounding on |wp|
    # and the lattice's bracket scale, far below the 1e-9 checked above
    assert 1e-15 < float(row[3]) < 1e-12
    # no bound is derived for wp'
    assert main(["eval", "wpprime", "0.3", "--tau", "1.0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",")


def test_eval_2f1_reports_tail_bound(capsys):
    assert main(["eval", "2f1", "0.5"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[1]) > 1.0
    assert 0.0 < float(row[3]) < 1e-10


def test_eval_2f1_outside_the_disk_exits_2(capsys):
    assert main(["eval", "2f1", "1.5", "--a", "0.3", "--b", "1.2",
                 "--c", "0.8"]) == 2
    assert "exceeds 1-delta" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    (["--a", "nan", "--b", "0.5", "--c", "1"], "a=nan is not finite"),
    (["--a", "0.5", "--b=-inf", "--c", "1"], "b=-inf is not finite"),
    (["--a", "0.5", "--b", "0.5", "--c", "inf"], "c=inf is not finite"),
    # finite parameters whose terms overflow
    (["--a", "1e300", "--b", "0.5", "--c", "1"], "not finite by term")])
def test_eval_2f1_non_finite_parameters_exit_2(params, message, capsys):
    assert main(["eval", "2f1", "0.3"] + params) == 2
    out = capsys.readouterr()
    assert message in out.err and out.out == ""


def test_eval_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1i\n2i\n")
    assert main(["eval", "j", "--points", str(pts)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert abs(float(lines[1].split(",")[1]) - 1728.0) < 1e-6
    assert abs(float(lines[2].split(",")[1]) - 287496.0) < 1e-3


def test_eval_reads_stdin_when_no_inputs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1i\n"))
    assert main(["eval", "j"]) == 0
    assert abs(float(capsys.readouterr().out.splitlines()[1].split(",")[1])
               - 1728.0) < 1e-6


def test_eval_rejects_malformed_complex(capsys):
    assert main(["eval", "j", "not-a-number"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_eval_jinv_rejects_malformed_real(capsys):
    assert main(["eval", "jinv", "abc"]) == 2
    assert "error: cannot parse" in capsys.readouterr().err


def test_eval_jinv_nan_exits_2(capsys):
    assert main(["eval", "jinv", "nan"]) == 2
    assert capsys.readouterr().err == (
        "error: j_inverse requires x >= 1728, got nan\n")


@pytest.mark.parametrize("function", ["j", "wp", "wpprime", "2f1"])
def test_eval_non_finite_input_exits_2(function, capsys):
    # rejected where it is parsed, with a message naming the input, not a
    # NaN row or a message about Im tau or 1 - delta
    for value in ("nan", "inf"):
        assert main(["eval", function, value]) == 2
        out = capsys.readouterr()
        assert out.err == (f"error: input {value!r} is not a finite "
                           "complex number\n")
        assert out.out == ""


def test_eval_jinv_above_j_of_100i_exits_2(capsys):
    assert main(["eval", "jinv", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: j_inverse requires x <= 7.5036")
    assert err.endswith("= j(100i), got 1e+300\n")


# ---------------------------------------------------------------------------
# verify-chain


def test_verify_chain_hyp(capsys):
    assert main(["verify-chain", "--chain", "hyp"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == "mzl/1"
    assert rep["order"] == 6
    assert rep["alpha"] == 4
    assert rep["pass"] is True
    assert float(rep["max_residual"]) < 1e-7


def test_verify_chain_hyp_at_c_0_exits_2(capsys):
    # a domain error, not a traceback: exit 1 means a residual failed
    assert main(["verify-chain", "--chain", "hyp", "--c", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: c=0.0 is a non-positive integer\n")


def test_verify_chain_ratio_report_file(tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert main(["verify-chain", "--chain", "ratio",
                 "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["order"] == 9
    assert rep["alpha"] == 2
    assert rep["pass"] is True


# ---------------------------------------------------------------------------
# count-zeros


def test_count_zeros_j_text_output(lin_poly, capsys):
    assert main(["count-zeros", "j", "--poly", lin_poly]) == 0
    out = capsys.readouterr().out
    assert out.startswith("count=1 winding=1 degree=1")
    assert "bound_holds=True" in out
    assert out.count("zero re=") == 1


def test_count_zeros_j_json_schema(lin_poly, capsys):
    assert main(["count-zeros", "j", "--poly", lin_poly, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "mzl/1"
    rep = payload["report"]
    assert rep["count"] == 1 and rep["winding"] == 1
    assert rep["bound_holds"] is True
    assert len(rep["zeros"]) == 1


def test_count_zeros_report_deterministic(lin_poly, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["count-zeros", "j", "--poly", lin_poly,
                 "--report", str(a)]) == 0
    assert main(["count-zeros", "j", "--poly", lin_poly,
                 "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["count-zeros", "trace"])
def test_inset_is_no_option(lin_poly, command):
    # the j domain is the half-open one, and no option widens it
    with pytest.raises(SystemExit) as exc:
        main([command, "j", "--poly", lin_poly, "--inset", "0.01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("c, count", [(1000.0, 1), (0.0, 3), (1728.0, 2)])
def test_count_zeros_j_boundary_values(tmp_path, capsys, c, count):
    # one preimage of j = 1000 on each half of the arc, of which the left
    # counts; the triple zero of j at rho and the double zero of j - 1728
    # at i count with their multiplicities
    path = write_poly(tmp_path / "p.json", BivariatePolynomial([[-c, 1.0]]))
    assert main(["count-zeros", "j", "--poly", path, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert (rep["count"], rep["retries"]) == (count, 0)
    assert rep["domain"] == {"Y": "2.5", "eta": "1e-06"}


def test_count_zeros_wp_text_output(wp_poly, capsys):
    assert main(["count-zeros", "wp", "--poly", wp_poly]) == 0
    out = capsys.readouterr().out
    assert out.startswith("count=2 winding=2")
    assert out.count("zero re=") == 2


def test_count_zeros_missing_poly_file(capsys):
    assert main(["count-zeros", "j", "--poly", "/nonexistent/p.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count-zeros", "trace"])
@pytest.mark.parametrize("text", [
    '{"coeffs": [[[1.0, 0.0], ',                                 # truncated
    '{"deg_x": 0, "deg_y": 1}',                                  # no coeffs
    '{"coeffs": [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]}',      # ragged
    '{"deg_x": 0, "deg_y": 2, "coeffs": [[[1.0, 0.0], [1.0, 0.0]]]}',
    '{"coeffs": [[[NaN, 0.0], [1.0, 0.0]]]}',                    # NaN
], ids=["truncated", "no-coeffs", "ragged", "degree-mismatch", "nan"])
def test_bad_poly_file_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, "wp", "--poly", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# verify / selftest


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuchsuite"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_single_suite_json(capsys):
    assert main(["verify", "bounds", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == "mzl/1"
    assert rep["pass"] is True
    assert [s["name"] for s in rep["suites"]] == ["bounds"]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    # python -m mzl runs main and passes its exit code on
    root = os.path.dirname(os.path.dirname(os.path.abspath(mzl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    run = lambda *argv: subprocess.run(
        [sys.executable, "-m", "mzl", *argv], capture_output=True,
        text=True, env=env, timeout=60)
    ok = run("bound", "t2", "--d", "2")
    assert (ok.returncode, ok.stdout) == (0, "65\n")
    assert run("bound", "t2").returncode == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# trace


def test_trace_csv_shape(lin_poly, capsys):
    assert main(["trace", "j", "--poly", lin_poly,
                 "--per-segment", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,z_re,z_im,f_re,f_im,arg_unwrapped"
    assert all(len(ln.split(",")) == 6 for ln in lines[1:])
    ts = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert ts == sorted(ts)


def test_trace_to_file(wp_poly, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["trace", "wp", "--poly", wp_poly,
                 "--per-segment", "4", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,z_re,z_im,f_re,f_im,arg_unwrapped")


@pytest.mark.parametrize("beta", ["0", "0.37"])
@pytest.mark.parametrize("tau", ["0.3", "1", "8"])
def test_trace_wp_dumps_the_wound_composite(wp_poly, capsys, tau, beta):
    # the trace is of F P(z, wp(z)), which the count winds: its argument
    # turns by 2 pi per zero of P(z, wp(z)) in the cell, and the pole the
    # factor cancels takes nothing away
    assert main(["trace", "wp", "--poly", wp_poly, "--tau", tau,
                 f"--beta={beta}"]) == 0
    arg = [float(ln.split(",")[-1])
           for ln in capsys.readouterr().out.splitlines()[1:]]
    assert arg[-1] - arg[0] == pytest.approx(2 * 2 * math.pi, abs=1e-3)


def test_trace_wp_has_no_delta_option(wp_poly):
    # the wp contour is the plain rectangle: there is no notch radius
    with pytest.raises(SystemExit) as exc:
        main(["trace", "wp", "--poly", wp_poly, "--delta", "4e-6",
              "--per-segment", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["count-zeros", "trace"])
@pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "1e300"])
def test_wp_beta_not_finite_or_too_large_exits_2(wp_poly, capsys, command,
                                                 beta):
    # beyond |beta| = 1e6 the contour's offsets by eta are lost
    assert main([command, "wp", "--poly", wp_poly, f"--beta={beta}"]) == 2
    assert "beta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_trace_per_segment_below_one_exits_2(lin_poly, capsys, n):
    assert main(["trace", "j", "--poly", lin_poly, "--per-segment", n]) == 2
    assert "samples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 2\nseed = 9  # comment\n")
    loaded = RunConfig().apply_file(str(cfg))
    assert loaded.trials == 2 and loaded.seed == 9
    assert main(["--config", str(cfg), "verify", "bounds"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 3\n")
    with pytest.raises(InvalidSpecError):
        RunConfig().apply_file(str(cfg))


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials = soon\n")
    with pytest.raises(InvalidSpecError):
        RunConfig().apply_file(str(cfg))


def test_config_rejects_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials\n")
    with pytest.raises(InvalidSpecError):
        RunConfig().apply_file(str(cfg))


def test_config_env_override(monkeypatch):
    monkeypatch.setenv("MZL_TRIALS", "7")
    monkeypatch.setenv("MZL_TAU", "1.5")
    cfg = load_config()
    assert cfg.trials == 7
    assert cfg.tau == 1.5


def test_config_env_beats_file(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("trials = 2\n")
    monkeypatch.setenv("MZL_TRIALS", "11")
    assert load_config(str(cfgfile)).trials == 11


def test_cli_flag_beats_config(tmp_path, capsys):
    # flags land after file and env in main(); exercised via verify --json
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 1\nseed = 3\n")
    assert main(["--config", str(cfg), "verify", "bounds", "--trials", "2",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["trials"] == 2
    assert rep["seed"] == 3


@pytest.mark.parametrize("key", ["trials"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_config_rejects_counts_below_one(tmp_path, monkeypatch, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(InvalidSpecError, match=key):
        RunConfig().apply_file(str(cfg))
    monkeypatch.setenv("MZL_" + key.upper(), value)
    with pytest.raises(InvalidSpecError, match=key):
        load_config()


def test_trials_flag_below_one_exits_2(capsys):
    assert main(["verify", "bounds", "--trials", "-2"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_chain_empty_grid_exits_2(capsys):
    assert main(["verify-chain", "--chain", "hyp", "--samples", "0"]) == 2
    assert "samples" in capsys.readouterr().err
