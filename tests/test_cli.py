import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import cli, minimizer, nls
from gcwaves.cli import main, parse_config, ConfigParseError
from gcwaves.dispersion import Params, find_critical, refine_degenerate
from gcwaves.errors import NumericalError, RegimeError
from gcwaves.fieldops import PeriodicGrid, ProfilePair

from conftest import BENCH, DEGENERATE_SEED, fft_lengths
from spectral_helpers import read_profile_csv


def write_config(path, params, extra=""):
    path.write_text(
        "[params]\n"
        f"rho = {params.rho:.17g}\n"
        f"beta_under = {params.beta_under:.17g}\n"
        f"beta_over = {params.beta_over:.17g}\n"
        + extra
    )
    return str(path)


@pytest.fixture()
def bench_cfg(tmp_path):
    # the descent's ladder (512: 34, 768: 4, 1024: 2, 1536: 0) ends on an
    # idle grid, which confirms the wave is resolved
    return write_config(
        tmp_path / "bench.cfg", BENCH,
        "[scan]\nsamples = 1024\n"
        "[grid]\nn = 4096\n"
        "[minimize]\nmu = 6e-3\nmax_iters = 400\n",
    )


@pytest.mark.parametrize("text, line, key", [
    ("[params]\nrho = 0.5\nbeta_under = 1.0\nwhat = 3\n", 4, "what"),
    # the descent has no exact-L refinement any more
    ("[params]\nrho = 0.5\nbeta_under = 1.0\nbeta_over = 1.0\n"
     "[minimize]\nmu = 1e-3\nuse_exact_refinement = true\n", 7,
     "use_exact_refinement"),
    # the period and the oracle strip's depth are derived from k0 and mu
    ("[params]\nrho = 0.5\nbeta_under = 1.0\nbeta_over = 1.0\n"
     "[grid]\nk0_multiples = 3\n", 6, "'k0_multiples' in [grid]"),
    ("[params]\nrho = 0.5\nbeta_under = 1.0\nbeta_over = 1.0\n"
     "[grid]\nn = 256\ndepth_under = 5\n", 7, "'depth_under' in [grid]"),
    ("[params]\nrho = 0.5\n[foo]\n", 3, "[foo]"),
    ("[params]\nrho 0.5\n", 2, "'rho 0.5'"),
], ids=["params", "minimize", "k0_multiples", "depth_under", "section",
        "no_equals"])
def test_parse_error_reports_line(tmp_path, capsys, text, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main(["coeffs", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bad.cfg:{line}" in err and key in err


def test_parse_error_outside_section(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho = 0.5\n")
    with pytest.raises(ConfigParseError, match="bad.cfg:1"):
        parse_config(str(cfg))


def test_unreadable_config_refused(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["coeffs", "--config", str(missing)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"{missing}: cannot read config:")


def test_params_out_of_range_refused(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[params]\nrho = 1.5\nbeta_under = 0.17\n"
                   "beta_over = 0.17\n")
    assert main(["coeffs", "--config", str(cfg)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"{cfg}: invalid [params]: rho must lie in (0, 1), got 1.5"


def test_config_defaults_are_their_owners(tmp_path):
    # the descent's defaults are MinimizeConfig's, and the scan's are
    # find_critical's, parsed as the types their owners hold
    cfg = parse_config(write_config(tmp_path / "min.cfg", BENCH))
    owner = minimizer.MinimizeConfig(mu=1e-3, grid=None)
    assert (cfg["minimize"]["max_iters"], cfg["minimize"]["grad_tol"],
            cfg["minimize"]["M"]) == (owner.max_iters, owner.grad_tol,
                                      owner.admissibility_M)
    scan = {k: v.default for k, v in
            inspect.signature(find_critical).parameters.items() if k != "p"}
    assert cfg["scan"] == scan
    assert [type(v) for v in cfg["scan"].values()] == \
        [type(v) for v in scan.values()]


def test_parse_missing_params(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[params]\nrho = 0.5\n")
    with pytest.raises(ConfigParseError, match="beta_under"):
        parse_config(str(cfg))


def test_dispersion_csv_and_summary(tmp_path, bench_cfg):
    out = tmp_path / "disp.csv"
    rc = main(["dispersion", "--config", bench_cfg, "--out", str(out),
               "--require-valid"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,lambda_minus,lambda_plus,D"
    assert len(lines) == 1025
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.all(data[:, 1] < data[:, 2])
    assert np.all(data[:, 3] > 0)
    summary = json.loads((tmp_path / "disp.csv.json").read_text())
    assert summary["verdict"] == "Valid"
    # the fixed-v0 curvature has its own key; "A2" is the NLS coefficient
    # that `coeffs` writes
    assert "A2" not in summary and summary["A2_fixed_v0"] > 0.0
    assert summary["assumption1_global"] and summary["assumption1_nondeg"]


def test_dispersion_gate_exit(tmp_path):
    q = refine_degenerate(Params(*DEGENERATE_SEED))
    cfg = write_config(tmp_path / "deg.cfg", q, "[scan]\nsamples = 1024\n")
    out = tmp_path / "deg.csv"
    rc = main(["dispersion", "--config", cfg, "--out", str(out),
               "--require-valid"])
    assert rc == 2
    assert json.loads((tmp_path / "deg.csv.json").read_text())["verdict"] \
        == "Degenerate"


def test_scan_window_refused(tmp_path, capsys):
    cfg = write_config(tmp_path / "scan.cfg", BENCH, "[scan]\nk_min = 0\n")
    out = tmp_path / "disp.csv"
    rc = main(["dispersion", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "k_min" in err and "Traceback" not in err
    assert set(os.listdir(tmp_path)) == {"scan.cfg"}


@pytest.mark.parametrize("window", ["k_min = nan", "k_max = inf"])
def test_coeffs_refuses_non_finite_scan_window(tmp_path, capsys, window):
    # k_max = inf overflowed the scan: three numpy warnings, then a failure
    # naming the k it overflowed at
    cfg = write_config(tmp_path / "scan.cfg", BENCH, f"[scan]\n{window}\n")
    rc = main(["coeffs", "--config", cfg, "--out", str(tmp_path / "c.json")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "0 < k_min < k_max < inf" in err
    assert set(os.listdir(tmp_path)) == {"scan.cfg"}


@pytest.mark.parametrize("command", ["dispersion", "coeffs"])
def test_scan_overflow_prints_one_line(tmp_path, capsys, command):
    # the window is finite, but lambda overflows above k ~ 6e77: one
    # stderr line that names the first k, and no RuntimeWarning
    cfg = write_config(tmp_path / "scan.cfg", BENCH,
                       "[scan]\nk_max = 1e200\nsamples = 1024\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    k = re.fullmatch(r"numerical failure: eigenvalue evaluation overflowed "
                     r"at k=(\S+)\n", err).group(1)
    assert 1e77 < float(k) < 1e200
    assert set(os.listdir(tmp_path)) == {"scan.cfg"}


def test_dispersion_double_minimum_verdict(tmp_path):
    # at the branch-crossing tension the two slow-branch minima tie
    p = Params(0.5, 1.0, 0.055108152548)
    cfg = write_config(tmp_path / "dm.cfg", p, "[scan]\nsamples = 2048\n")
    out = tmp_path / "dm.csv"
    assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "dm.csv.json").read_text())
    assert summary["verdict"] == "DoubleMinimum"
    assert len(summary["competing_minima"]) >= 1


def test_coeffs_deterministic_bytes(tmp_path, bench_cfg):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["coeffs", "--config", bench_cfg, "--out", str(out1)]) == 0
    assert main(["coeffs", "--config", bench_cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["focusing"] is True
    for key in ("k0", "nu0", "a", "A2", "A3", "A4", "alpha",
                "nu_nls", "i_nls"):
        assert key in payload


def test_coeffs_write_no_soliton_where_the_nls_defocuses(tmp_path):
    # a Valid, defocusing configuration: the cubic coefficient's sign
    # leaves no sech soliton, so its speed and energy are null
    p = Params(0.5, 0.05, 0.259)
    report = find_critical(p)
    assert report.verdict == "Valid"
    with pytest.raises(RegimeError):
        nls.soliton_shape(nls.compute_coefficients(p, report.crit))
    out = tmp_path / "c.json"
    cfg = write_config(tmp_path / "defocusing.cfg", p)
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["focusing"] is False
    assert payload["i_nls"] is None and payload["nu_nls"] is None
    assert all(math.isfinite(payload[key]) for key in ("A2", "A3", "alpha"))


#: where each command writes its gate payload: the --out file, or stdout
GATE_TO_OUT = {"coeffs": True, "validate": True,
               "soliton": False, "ansatz": False, "minimize": False}


@pytest.mark.parametrize("command", list(GATE_TO_OUT))
def test_gate_on_degenerate(tmp_path, capsys, command):
    q = refine_degenerate(Params(*DEGENERATE_SEED))
    cfg = write_config(tmp_path / "deg.cfg", q, "[scan]\nsamples = 1024\n")
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    stdout = capsys.readouterr().out
    if GATE_TO_OUT[command]:
        assert stdout == ""
        payload = json.loads(out.read_text())
    else:
        payload = json.loads(stdout)
    assert payload["error"] == "assumption gate failed"
    assert payload["report"]["verdict"] == "Degenerate"
    assert "A3" not in payload
    # no profile, CSV or summary beside the payload
    written = {"deg.cfg", "out"} if GATE_TO_OUT[command] else {"deg.cfg"}
    assert set(os.listdir(tmp_path)) == written


@pytest.mark.parametrize("command", ["coeffs", "soliton", "ansatz",
                                     "minimize"])
def test_defocusing_gate(tmp_path, capsys, bench_cfg, monkeypatch, command):
    real = nls.compute_coefficients
    monkeypatch.setattr(nls, "compute_coefficients", lambda p, crit:
                        dataclasses.replace(real(p, crit), a3=1.0, a4=1.0))
    out = tmp_path / "out"
    rc = main([command, "--config", bench_cfg, "--out", str(out)])
    if command == "coeffs":
        assert rc == 0
        assert json.loads(out.read_text())["focusing"] is False
        return
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "defocusing regime"
    # every command reports the coefficients it refused
    assert payload["focusing"] is False and "A3" in payload
    assert set(os.listdir(tmp_path)) == {"bench.cfg"}


def test_soliton_outputs(tmp_path, bench_cfg):
    out = tmp_path / "soliton.csv"
    assert main(["soliton", "--config", bench_cfg, "--out", str(out)]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    meta = json.loads((tmp_path / "soliton.csv.json").read_text())
    # the even-n sample grid straddles the peak
    assert data[:, 1].max() <= meta["amplitude"]
    assert data[:, 1].max() == pytest.approx(meta["amplitude"], rel=1e-3)
    assert meta["mass"] == pytest.approx(2.0 * meta["alpha"], rel=1e-9)


def test_ansatz_outputs(tmp_path, bench_cfg):
    out = tmp_path / "star.csv"
    assert main(["ansatz", "--config", bench_cfg, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "star.csv.summary.json").read_text())
    assert summary["j_mu"] < summary["two_nu0_mu"]
    gap = summary["j_mu"] - summary["two_nu0_mu"]
    assert gap == pytest.approx(summary["i_nls_mu3"], rel=0.2)
    sidecar = json.loads((tmp_path / "star.csv.json").read_text())
    assert sidecar["n"] == 4096


def test_ansatz_takes_j_from_the_carrier_grid(tmp_path, monkeypatch,
                                              fft_record):
    # eta* is band-limited to the carrier grid (1536 points here), so its
    # J is read there, from transforms of at most 2 * 1536 points; the
    # profile is still written on the requested grid
    from gcwaves import fieldops
    mu, n = 2e-3, 8192
    cfg = write_config(tmp_path / "star.cfg", BENCH,
                       f"[grid]\nn = {n}\n[minimize]\nmu = {mu}\n")
    lengths = []
    eval_J = fieldops.eval_J

    def recorded(eta, p, mu):
        fft_record.clear()
        bd = eval_J(eta, p, mu)
        lengths.append(sorted(fft_lengths(fft_record)))
        return bd
    monkeypatch.setattr(fieldops, "eval_J", recorded)
    out = tmp_path / "star.csv"
    assert main(["ansatz", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert lengths == [[1536, 2 * 1536, 2 * 1536]]
    summary = json.loads((tmp_path / "star.csv.summary.json").read_text())
    eta = read_profile_csv(str(out))
    assert eta.grid.n == n
    crit = find_critical(BENCH).crit
    c = nls.compute_coefficients(BENCH, crit)
    star = fieldops.build_eta_star(c, crit, summary["eps"], eta.grid,
                                   BENCH)
    np.testing.assert_array_equal(eta.eta_under, star.eta_under)
    np.testing.assert_array_equal(eta.eta_over, star.eta_over)
    fine = fieldops.eval_J(ProfilePair(eta.grid, star.eta_under,
                                       star.eta_over), BENCH, mu)
    for key in ("j_mu", "k_total", "l_trunc"):
        assert abs(summary[key] / getattr(fine, key) - 1.0) <= 1e-15


def test_minimize_dry_run_passthrough(tmp_path):
    cfg = write_config(
        tmp_path / "dry.cfg", BENCH,
        "[scan]\nsamples = 1024\n"
        "[grid]\nn = 512\n"
        "[minimize]\nmu = 6e-3\nmax_iters = 0\n",
    )
    outdir = tmp_path / "dry"
    assert main(["minimize", "--config", cfg, "--out", str(outdir)]) == 0
    tag = "mu_0p006"
    result = json.loads((outdir / f"{tag}.result.json").read_text())
    assert result["iterations"] == 0
    (level,) = result["levels"]
    assert level["value_evals"] == level["gradient_evals"] == 1
    # the emitted profile is the test function itself
    star = tmp_path / "star.csv"
    assert main(["ansatz", "--config", cfg, "--out", str(star)]) == 0
    prof = np.loadtxt(str(outdir / f"{tag}.profile.csv"), delimiter=",",
                      skiprows=1)
    ref = np.loadtxt(str(star), delimiter=",", skiprows=1)
    # the descent holds its even part, the real rfft spectrum, whose
    # inverse transform perturbs the last few ulps
    assert prof == pytest.approx(ref, abs=1e-14)


def test_minimize_run_and_outputs(tmp_path, bench_cfg):
    outdir = tmp_path / "run"
    assert main(["minimize", "--config", bench_cfg, "--out",
                 str(outdir)]) == 0
    tag = "mu_0p006"
    result = json.loads((outdir / f"{tag}.result.json").read_text())
    assert set(result) == {
        "breakdown", "speed", "nu0", "iterations", "final_grad_norm",
        "boundary_hit", "max_trial_h2_sq", "converged", "reason", "levels",
        "j_mu_line", "l_trunc_line", "speed_line"}
    assert set(result["breakdown"]) == {
        "k_total", "k2", "k4", "l2", "l3", "l4", "l_trunc", "j_mu", "mu",
        "l2_upper"}
    assert result["converged"] is True and result["reason"] is None
    assert result["breakdown"]["j_mu"] < 2.0 * result["nu0"] * 0.006
    iters = (outdir / f"{tag}.iterations.csv").read_text().splitlines()
    assert iters[0] == "iteration,j_mu,grad_norm,step,trials,n,approx_wolfe"
    # one row per iteration and one start row per grid of the ladder
    levels = result["levels"]
    assert len(iters) == result["iterations"] + len(levels) + 1
    assert [int(row.split(",")[5]) for row in iters[1:]][-1] == 1536
    assert sum(lv["iterations"] for lv in levels) == result["iterations"]
    assert all(set(lv) == {"n", "iterations", "value_evals",
                           "gradient_evals", "spectral_tail"}
               for lv in levels)
    # each level's tail is read off its final spectrum: a grid that
    # iterated holds a top band, and the idle grid only zero padding
    assert all(lv["spectral_tail"] > 0.0 for lv in levels[:-1])
    assert levels[-1]["iterations"] == 0 and levels[-1]["spectral_tail"] == 0
    # each row counts the values evaluated since the one before
    trials = [int(row.split(",")[4]) for row in iters[1:]]
    assert sum(trials) == sum(lv["value_evals"] for lv in levels)
    # one gradient per accepted step and at each grid's start; the line
    # search evaluates at least as many values
    assert all(lv["iterations"] + 1 <= lv["gradient_evals"]
               <= lv["value_evals"] for lv in levels)


def test_minimize_sweep_writes_speed_fit(tmp_path):
    cfg = write_config(
        tmp_path / "sweep.cfg", BENCH,
        "[scan]\nsamples = 1024\n"
        "[grid]\nn = 4096\n"
        "[minimize]\nmax_iters = 600\n",
    )
    outdir = tmp_path / "sweep"
    rc = main(["minimize", "--config", cfg, "--out", str(outdir),
               "--sweep", "8e-3,6e-3,4e-3"])
    assert rc == 0
    fit = json.loads((outdir / "speed_fit.json").read_text())
    assert len(fit["mus"]) == 3 and len(fit["values"]) == 3
    assert fit["predicted"] < 0.0
    # every converged speed sits below nu0 (the per-mu ratios are negative);
    # the quantitative fit against the prediction is exercised at
    # asymptotic mu in the acceptance suite
    assert all(v < 0.0 for v in fit["values"])
    for mu_tag in ("mu_0p008", "mu_0p006", "mu_0p004"):
        assert (outdir / f"{mu_tag}.result.json").exists()
        result = json.loads((outdir / f"{mu_tag}.result.json").read_text())
        assert result["converged"] is True
        assert sum(lv["iterations"]
                   for lv in result["levels"]) == result["iterations"]
    # at mu = 8e-3 the descent starts on the coarser grid n = 384, and
    # the idle grid 1536 ends it
    result = json.loads((outdir / "mu_0p008.result.json").read_text())
    assert [lv["n"] for lv in result["levels"]] == [384, 512, 768, 1024,
                                                    1536]


#: the benchmark's sweep levels: mu, [grid] n, the ladder, the SHA-256 of
#: the profile.csv and the reported J
SWEEP_LEVELS = [
    (4e-3, 4096, [(768, 15), (1024, 2), (1536, 1), (2048, 0)],
     "a2f110a591de8ea981847c7d73bb3f99cd294bec27bf7cee0a88c2a4c661f981",
     0.004788963384652503),
    (2e-3, 8192, [(1536, 12), (2048, 1), (3072, 0)],
     "e338ef0952b7b105eac068952bfa9ba07e6dad2eb24bc03613c7386a98b4ee17",
     0.0023951554801740897),
    (1e-3, 16384, [(3072, 11), (4096, 0)],
     "95af44941bfd1e3b8915b893d4431976f0fdcd6ecece22c9daeacd8d4dc1c8d9",
     0.001197652661005444),
]


@pytest.mark.parametrize("mu, n, ladder, digest, j_mu", SWEEP_LEVELS,
                         ids=[f"{mu!r}-{n}" for mu, n, *_ in SWEEP_LEVELS])
def test_sweep_levels_end_on_their_idle_grid(tmp_path, mu, n, ladder,
                                             digest, j_mu):
    # the benchmark's sweep levels.  The ladder ends on the first grid
    # above the carrier grid that takes no step, and the profile is that
    # grid's iterate, on that grid; J, read on the idle grid, stays within
    # a few ulps of the full ladder's
    cfg = write_config(tmp_path / "sweep.cfg", BENCH,
                       f"[grid]\nn = {n}\n[minimize]\nmu = {mu!r}\n")
    outdir = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(outdir)]) == 0
    tag = cli._mu_tag(mu)
    result = json.loads((outdir / f"{tag}.result.json").read_text())
    assert [(lv["n"], lv["iterations"]) for lv in result["levels"]] == ladder
    assert result["converged"] is True and result["reason"] is None
    profile = (outdir / f"{tag}.profile.csv").read_bytes()
    assert hashlib.sha256(profile).hexdigest() == digest
    assert abs(result["breakdown"]["j_mu"] - j_mu) <= 4 * np.spacing(j_mu)


def test_grid_n_caps_the_ladder(tmp_path):
    # under one cap of n = 16384 the benchmark's three sweep levels climb
    # the ladders they climb under their own n, up to their idle grids
    # (2048, 3072 and 4096), and write the same profiles; each profile
    # and its sidecar are on the grid that ended its ladder.  Every
    # level's spectral tail reads back as a float, an idle grid's 0.0
    # too
    cfg = write_config(tmp_path / "sweep.cfg", BENCH, "[grid]\nn = 16384\n")
    outdir = tmp_path / "out"
    mus = [mu for mu, *_ in SWEEP_LEVELS]
    assert main(["minimize", "--config", cfg, "--out", str(outdir),
                 "--sweep", ",".join(map(repr, mus))]) == 0
    for mu, _, ladder, digest, _ in SWEEP_LEVELS:
        tag = cli._mu_tag(mu)
        result = json.loads((outdir / f"{tag}.result.json").read_text())
        assert [(lv["n"], lv["iterations"])
                for lv in result["levels"]] == ladder
        assert all(type(lv["spectral_tail"]) is float
                   for lv in result["levels"])
        n = result["levels"][-1]["n"]
        path = outdir / f"{tag}.profile.csv"
        assert len(path.read_bytes().splitlines()) == 1 + n
        assert json.loads(Path(cli.sidecar_path(path)).read_text())["n"] == n
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: (J_line - 2 nu0 mu) / mu^3 of the expansion sweep's levels, from the
#: line-corrected J (``minimizer.line_corrected``)
EXPANSION_LEVELS = {
    2e-3: -25.1268213570, 1e-3: -24.4287450175, 5e-4: -24.1533604861,
    2.5e-4: -24.0310260857, 1.25e-4: -23.9734166269,
}


def test_expansion_sweep_converges_at_a_tight_tolerance(tmp_path):
    # the levels that measure inf J_mu = 2 nu0 mu + I_NLS mu^3 + o(mu^3),
    # as one command: 1e-9 mu under one cap of n = 131072.  Every level
    # converges on an idle grid below the cap, and its energy lies within
    # 1e-8 of the pinned value, which stopping noise alone may move
    cfg = write_config(tmp_path / "sweep.cfg", BENCH,
                       "[grid]\nn = 131072\n[minimize]\ngrad_tol = 1e-9\n")
    outdir = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(outdir),
                 "--sweep", ",".join(map(repr, EXPANSION_LEVELS))]) == 0
    for mu, cubic in EXPANSION_LEVELS.items():
        tag = cli._mu_tag(mu)
        result = json.loads((outdir / f"{tag}.result.json").read_text())
        assert result["converged"] is True
        j_line = result["j_mu_line"]
        assert ((j_line - 2.0 * result["nu0"] * mu) / mu**3
                == pytest.approx(cubic, rel=1e-8))


@pytest.mark.parametrize("n, ladder", [
    (1024, [(768, 15), (1024, 2)]),  # the top grid still takes a step
    (768, [(768, 15)]),              # the carrier grid alone
])
def test_minimize_reports_an_unconfirmed_grid(tmp_path, n, ladder):
    # both runs meet the tolerance outside the barrier's shell, but no
    # idle grid above the carrier grid confirms that n resolves the wave
    mu = 4e-3
    cfg = write_config(tmp_path / "run.cfg", BENCH,
                       f"[grid]\nn = {n}\n[minimize]\nmu = {mu!r}\n")
    outdir = tmp_path / "out"
    assert main(["minimize", "--config", cfg, "--out", str(outdir)]) == 0
    result = json.loads((outdir / "mu_0p004.result.json").read_text())
    assert [(lv["n"], lv["iterations"]) for lv in result["levels"]] == ladder
    assert result["final_grad_norm"] <= 1e-5 * mu
    assert result["boundary_hit"] is False
    assert result["converged"] is False
    assert result["reason"] == "under_resolved"


def test_sweep_with_unconverged_runs_reports_no_fit(tmp_path, capsys):
    # on n = 1024 no run has an idle grid above its carrier grid, so all
    # three are under_resolved; their fit read +16.1 against -35.9
    cfg = write_config(tmp_path / "sweep.cfg", BENCH, "[grid]\nn = 1024\n")
    outdir = tmp_path / "sweep"
    rc = main(["minimize", "--config", cfg, "--out", str(outdir),
               "--sweep", "8e-3,6e-3,4e-3"])
    assert rc == cli.EXIT_NUMERICAL
    assert not (outdir / "speed_fit.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    for mu, tag in ((8e-3, "mu_0p008"), (6e-3, "mu_0p006"),
                    (4e-3, "mu_0p004")):
        result = json.loads((outdir / f"{tag}.result.json").read_text())
        assert (outdir / f"{tag}.profile.csv").exists()
        assert result["converged"] is False
        assert result["reason"] == "under_resolved"
        assert f"mu={mu:g} (under_resolved)" in err[0]


def test_minimize_sweep_parse_error(tmp_path, capsys, bench_cfg):
    outdir = tmp_path / "sweep"
    rc = main(["minimize", "--config", bench_cfg, "--out", str(outdir),
               "--sweep", "4e-3,abc"])
    assert rc == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--sweep" in captured.err and "'abc'" in captured.err
    assert set(os.listdir(tmp_path)) == {"bench.cfg"}


@pytest.mark.parametrize("sweep", ["4e-3,nan", "4e-3,-1e-3", "4e-3,inf"])
def test_minimize_sweep_refuses_bad_mu(tmp_path, capsys, bench_cfg, sweep):
    # the list is checked before any entry runs, so the valid first entry
    # leaves no files behind
    rc = main(["minimize", "--config", bench_cfg, "--out",
               str(tmp_path / "sweep"), "--sweep", sweep])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite and positive" in err
    assert set(os.listdir(tmp_path)) == {"bench.cfg"}


@pytest.mark.parametrize("command", ["ansatz", "minimize"])
@pytest.mark.parametrize("mu", ["nan", "0", "-2e-3", "inf"])
def test_config_mu_refused(tmp_path, capsys, command, mu):
    cfg = write_config(tmp_path / "mu.cfg", BENCH,
                       f"[scan]\nsamples = 1024\n[minimize]\nmu = {mu}\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    # the error names the line of the key
    assert err.count("\n") == 1
    assert "mu.cfg:8: mu must be finite and positive" in err
    assert set(os.listdir(tmp_path)) == {"mu.cfg"}


@pytest.mark.parametrize("extra", [
    "rho = 0.9\n",  # the repeat follows in the same block
    "[scan]\nsamples = 1024\n[params]\nrho = 0.9\n",  # or in a later one
])
def test_config_repeated_key_refused(tmp_path, capsys, extra):
    # a repeat is refused rather than read as an override of the first
    cfg = write_config(tmp_path / "rep.cfg", BENCH, extra)
    rc = main(["ansatz", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    lineno = 4 + extra.count("\n")
    assert err.count("\n") == 1
    assert (f"rep.cfg:{lineno}: key 'rho' repeats in [params], "
            "first set on line 2") in err
    assert set(os.listdir(tmp_path)) == {"rep.cfg"}


@pytest.mark.parametrize("key", ["beta_under", "beta_over"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_tension_refused(tmp_path, capsys, key, value):
    # NaN passes a plain "<= 0" test
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[params]\nrho = 0.5\nbeta_under = 0.17\n"
                   "beta_over = 0.17\n".replace(f"{key} = 0.17",
                                                f"{key} = {value}"))
    assert main(["coeffs", "--config", str(cfg)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid [params]" in captured.err and "finite" in captured.err


@pytest.mark.parametrize("sweep, names", [
    ("4e-3,4e-3,4e-3", "'4e-3', '4e-3', '4e-3'"),
    # both entries print as mu_0p001 at six significant digits
    ("1e-3,2e-3,0.0010000001", "'1e-3', '0.0010000001'"),
], ids=["repeated", "same-name"])
def test_minimize_sweep_refuses_repeats(tmp_path, capsys, bench_cfg, sweep,
                                        names):
    rc = main(["minimize", "--config", bench_cfg, "--out",
               str(tmp_path / "sweep"), "--sweep", sweep])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{names} share the output name mu_0p00" in err
    assert set(os.listdir(tmp_path)) == {"bench.cfg"}


def test_soliton_refuses_one_sample(tmp_path, capsys):
    cfg = write_config(tmp_path / "n1.cfg", BENCH,
                       "[scan]\nsamples = 1024\n[grid]\nn = 1\n")
    rc = main(["soliton", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n >= 2" in err
    assert set(os.listdir(tmp_path)) == {"n1.cfg"}


def test_soliton_one_sample_is_a_config_error(tmp_path, capsys):
    # a bad config value was reported as a numerical failure
    cfg = write_config(tmp_path / "n1.cfg", BENCH,
                       "[scan]\nsamples = 1024\n[grid]\nn = 1\n")
    main(["soliton", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert capsys.readouterr().err == (
        "invalid configuration: the soliton needs n >= 2 samples, got 1\n")


def test_numerical_failure_keeps_its_label(capsys, bench_cfg, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("eigenvalue evaluation overflowed")

    monkeypatch.setattr(cli.disp, "find_critical", fail)
    assert main(["coeffs", "--config", bench_cfg]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: eigenvalue evaluation overflowed\n")


@pytest.mark.parametrize("command, out", [
    ("dispersion", "missing/x.csv"),
    ("coeffs", "missing/c.json"),
    ("minimize", "bench.cfg"),  # an existing file, not a directory
], ids=["dispersion", "coeffs", "minimize"])
def test_unwritable_output_names_the_path(tmp_path, capsys, bench_cfg,
                                          command, out):
    # each printed a traceback naming a temp file, or failing in makedirs
    path = str(tmp_path / out)
    rc = main([command, "--config", bench_cfg, "--out", path])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: cannot write: ")
    assert err.count("\n") == 1 and ".tmp" not in err
    assert set(os.listdir(tmp_path)) == {"bench.cfg"}


def test_minimize_failure_record(tmp_path, bench_cfg, monkeypatch):
    grid = PeriodicGrid(n=16, period=10.0, k0_multiple=1)
    last = ProfilePair(grid, 1e-3 * np.cos(grid.x), -4e-4 * np.cos(grid.x))

    def fail(*args):
        raise NumericalError("line search failed at iteration 7",
                             last_iterate=last,
                             diagnostics={"J": 0.25, "grad_norm": 3e-4})

    monkeypatch.setattr(cli, "_run_minimize", fail)
    outdir = tmp_path / "fail"
    rc = main(["minimize", "--config", bench_cfg, "--out", str(outdir)])
    assert rc == cli.EXIT_NUMERICAL
    tag = "mu_0p006"
    record = json.loads((outdir / f"{tag}.error.json").read_text())
    assert record == {"mu": 0.006,
                      "error": "line search failed at iteration 7",
                      "diagnostics": {"J": 0.25, "grad_norm": 3e-4}}
    prof = read_profile_csv(str(outdir / f"{tag}.error.profile.csv"))
    assert prof.grid == grid
    assert np.array_equal(prof.eta_under, last.eta_under)
    assert np.array_equal(prof.eta_over, last.eta_over)
    assert not (outdir / f"{tag}.profile.csv").exists()


def test_minimize_refuses_zero_ball(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "m0.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 1024\n"
        "[minimize]\nmu = 6e-3\nM = 0\n",
    )
    outdir = tmp_path / "m0"
    assert main(["minimize", "--config", cfg, "--out", str(outdir)]) \
        == cli.EXIT_NUMERICAL
    record = json.loads((outdir / "mu_0p006.error.json").read_text())
    assert record == {"mu": 0.006,
                      "error": "admissibility_M must be positive"}
    assert "Traceback" not in capsys.readouterr().err


def test_minimize_sweep_failure_names_its_mu(tmp_path, capsys):
    # the first run raises, so the sweep stops there: its error record is
    # the only file, and one stderr line names it and the mu left unrun
    cfg = write_config(
        tmp_path / "m0.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 1024\n[minimize]\nM = 0\n",
    )
    outdir = tmp_path / "m0"
    rc = main(["minimize", "--config", cfg, "--out", str(outdir),
               "--sweep", "6e-3,5e-3,4e-3"])
    assert rc == cli.EXIT_NUMERICAL
    assert os.listdir(outdir) == ["mu_0p006.error.json"]
    assert capsys.readouterr().err == (
        "mu=0.006 failed: admissibility_M must be positive; "
        "not run: mu=0.005, mu=0.004\n")


@pytest.mark.parametrize("line, key", [
    ("grad_tol = nan", "grad_tol"),  # never met: ran every iteration
    ("grad_tol = inf", "grad_tol"),  # met at once: "converged" unrelaxed
    ("grad_tol = 0", "grad_tol"),  # once the default, never met
    ("max_iters = -1", "max_iters"),  # ran 0 iterations, as max_iters = 0
], ids=["grad_tol_nan", "grad_tol_inf", "grad_tol_zero",
        "max_iters_negative"])
def test_minimize_refuses_bad_stopping_rule(tmp_path, capsys, line, key):
    # a key may be set once per section, so the iteration cap that keeps
    # the grad_tol cases short is written only beside another key
    cap = "" if key == "max_iters" else "max_iters = 30\n"
    cfg = write_config(
        tmp_path / "m.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 1024\n"
        f"[minimize]\nmu = 6e-3\n{cap}{line}\n",
    )
    outdir = tmp_path / "m"
    assert main(["minimize", "--config", cfg, "--out", str(outdir)]) \
        == cli.EXIT_NUMERICAL
    record = json.loads((outdir / "mu_0p006.error.json").read_text())
    assert record["mu"] == 0.006 and key in record["error"]
    assert os.listdir(outdir) == ["mu_0p006.error.json"]
    assert "Traceback" not in capsys.readouterr().err


def test_carrier_above_nyquist_refused(tmp_path, capsys):
    # at n = 256 the suggested multiple for mu = 2e-3 is 235, above the
    # Nyquist index 128, so eta* would alias its carrier
    cfg = write_config(
        tmp_path / "a.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 256\n[minimize]\nmu = 2e-3\n",
    )
    out = tmp_path / "a.csv"
    assert main(["ansatz", "--config", cfg, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Nyquist index 128" in err
    assert not out.exists()


def _per_value_csv(header, rows):
    """The CSV text of the formatter that printed one value at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_write_csv_bytes_match_per_value_formatting(tmp_path):
    specials = [-0.0, 5e-324, float("nan"), float("inf"), -float("inf"),
                0.1, 1.0 / 3.0, -2.5e300, 1e16, 12.0]
    rng = np.random.default_rng(7)
    cols = [np.array(specials), rng.standard_normal(len(specials)) * 1e-9,
            np.arange(len(specials))]
    path = tmp_path / "a.csv"
    cli.write_csv(path, ["a", "b", "c"], cols)
    assert path.read_text() == _per_value_csv(["a", "b", "c"], zip(*cols))
    # the integer columns (iteration, trials, n) of an iterations.csv
    header = ["iteration", "j_mu", "grad_norm", "step", "trials", "n"]
    history = [(0, 0.0024, 3.1e-3, 0.0, 1, 1024),
               (1, 0.0023999999999999998, 1.2e-4, 0.25, 3, 1024),
               (1, 0.0023999999999999998, 2.5e-5, 0.0, 1, 65536)]
    cli.write_csv(path, header, list(zip(*history)))
    assert path.read_text() == _per_value_csv(header, history)


def test_write_csv_formats_the_table_as_row_by_row(tmp_path):
    # a profile-sized table, formatted at once, has the bytes of one
    # "%.17g" row format applied row by row
    rng = np.random.default_rng(3)
    cols = [rng.standard_normal(16384) * 10.0 ** rng.integers(-300, 300,
                                                              16384)
            for _ in range(3)]
    cols[0][:4] = [-0.0, 5e-324, 1e300, 0.1]
    cols[1][:4] = [1e300, -0.0, 5e-324, -1.0 / 3.0]
    cols[2][-3:] = [5e-324, 1e300, -0.0]
    path = tmp_path / "p.csv"
    cli.write_csv(path, ["x", "eta_under", "eta_over"], cols)
    row = "%.17g,%.17g,%.17g\n"
    expected = "x,eta_under,eta_over\n" + "".join(
        row % values for values in zip(*(c.tolist() for c in cols)))
    assert path.read_bytes() == expected.encode()
    cli.write_csv(path, ["x", "eta_under", "eta_over"], [[], [], []])
    assert path.read_text() == "x,eta_under,eta_over\n"


#: any double: hypothesis' floats (nan, inf and subnormals among them)
#: and raw 64-bit patterns
_DOUBLES = st.floats(width=64) | st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))


@given(values=st.lists(_DOUBLES, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_write_csv_bytes_match_per_value_formatting_for_any_double(values):
    values = values + [0.0] * (-len(values) % 3)
    rows = np.reshape(values, (-1, 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        cli.write_csv(path, ["a", "b", "c"], list(rows.T))
        assert path.read_text() == _per_value_csv(["a", "b", "c"], rows)


def test_write_csv_ties_and_decade_edges_across_a_block(tmp_path):
    # the exact ties, which "%.17g" rounds to even, and the doubles at
    # the edges of a decade (1e-78 and 1e-243 lie below their powers of
    # ten and round up to them), in a table one row taller than a block
    ties = [1000000000000000.25, 1000000000000000.75, 1000000000000001.25]
    assert [f"{v:.17g}" for v in ties] == [
        "1000000000000000.2", "1000000000000000.8", "1000000000000001.2"]
    edges = ties + [np.nextafter(1e16, 0), 1e16, 1e17,
                    9.9999999999999991e-05, 1e-4, np.nextafter(1e-4, 1),
                    1e-78, 1e-243]
    rows = cli._CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(11)
    col = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    col[:len(edges)] = edges
    cols = [col, -col[::-1], np.roll(col, rows - 1)]
    path = tmp_path / "e.csv"
    cli.write_csv(path, ["a", "b", "c"], cols)
    assert path.read_text() == _per_value_csv(["a", "b", "c"], zip(*cols))


def test_write_csv_holds_no_table_sized_text(tmp_path):
    # a profile-sized table is formatted a block at a time: the writer's
    # peak allocation stays within a few times the file it writes
    rng = np.random.default_rng(5)
    n = 16384
    cols = [np.arange(n) * (2 * np.pi * 931 / n),
            rng.standard_normal(n) * 1e-4, rng.standard_normal(n) * 1e-5]
    path = tmp_path / "p.csv"
    tracemalloc.start()
    try:
        cli.write_csv(path, ["x", "eta_under", "eta_over"], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size


def test_atomic_write_leaves_the_target_when_a_chunk_raises(tmp_path):
    # write_csv formats inside its chunk generator, so a block that
    # raises must leave the old file whole and no temp file behind
    path = tmp_path / "p.csv"
    path.write_bytes(b"x\n1\n")

    def chunks():
        yield b"x\n"
        raise ValueError("block failed")

    with pytest.raises(ValueError, match="block failed"):
        cli._atomic_write(path, chunks())
    assert path.read_bytes() == b"x\n1\n"
    assert os.listdir(tmp_path) == ["p.csv"]


def test_json_keeps_non_finite_floats_floats():
    text = cli.dump_json({"a": math.nan, "b": math.inf, "c": -math.inf})
    assert text == '{"a": NaN, "b": Infinity, "c": -Infinity}\n'
    loaded = json.loads(text)
    assert all(isinstance(v, float) for v in loaded.values())
    assert math.isnan(loaded["a"]) and loaded["b"] == -loaded["c"] == math.inf
    assert cli.dump_json(loaded) == text


def test_validate_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "val.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 256\nstrip_ny = 128\n",
    )
    out = tmp_path / "val.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())
    assert checks["pass"] is True
    assert checks["flat_symbol_max_abs_err"] <= 1e-8
    assert min(checks["truncation_slopes"]) >= 4.5
    assert checks["gradient_max_rel_err"] <= 1e-6


#: SHA-256 of validate's JSON at [grid] n = 128, strip_ny = 48; its
#: checks fail on that strip, so it exits 3
VALIDATE_N128_SHA256 = \
    "fbd78ceecd71273eb218c82ebac3e437fc71749141b578133373c6e02ae84577"


def test_validate_checks_the_gradient_at_n16(tmp_path):
    # at n = 16 the random fields' band nx // 12 was empty, so each field
    # was 0/0 and the gradient check read NaN as 0.0
    cfg = write_config(tmp_path / "val.cfg", BENCH,
                       "[scan]\nsamples = 1024\n[grid]\nn = 16\n"
                       "strip_ny = 48\n")
    out = tmp_path / "val.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    checks = json.loads(out.read_text())
    assert checks["pass"] is False
    assert 0.0 < checks["gradient_max_rel_err"] <= 1e-6


def test_validate_fails_a_nan_gradient(tmp_path, monkeypatch):
    grad_J = cli.fieldops.grad_J

    def nan_grad_J(*args, **kwargs):
        g = grad_J(*args, **kwargs)
        return (g[0] * math.nan, *g[1:])

    monkeypatch.setattr(cli.fieldops, "grad_J", nan_grad_J)
    cfg = write_config(
        tmp_path / "val.cfg", BENCH,
        "[scan]\nsamples = 1024\n[grid]\nn = 256\nstrip_ny = 128\n",
    )
    out = tmp_path / "val.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) \
        == cli.EXIT_NUMERICAL
    checks = json.loads(out.read_text())
    assert checks["pass"] is False
    assert math.isnan(checks["gradient_max_rel_err"])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_validate_bytes_pinned(tmp_path, threads):
    # the bytes hold at 1 and 2 OpenBLAS threads.  OpenBLAS reads its
    # thread count at load, hence a subprocess
    cfg = write_config(tmp_path / "val.cfg", BENCH,
                       "[scan]\nsamples = 1024\n[grid]\nn = 128\n"
                       "strip_ny = 48\n")
    out = tmp_path / "val.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "gcwaves.cli", "validate",
                           "--config", cfg, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        VALIDATE_N128_SHA256


def test_seventeen_digit_roundtrip(tmp_path, bench_cfg):
    out = tmp_path / "c.json"
    main(["coeffs", "--config", bench_cfg, "--out", str(out)])
    text = out.read_text()
    payload = json.loads(text)
    # re-serializing the parsed floats reproduces the same bytes
    from gcwaves.cli import dump_json
    assert dump_json(payload) == text


def test_readme_config_example_covers_the_schema(tmp_path):
    # the README's ini example parses and names every key the parser knows
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "waves.cfg"
    cfg.write_text(blocks[0])
    parse_config(str(cfg))
    keys, section = set(), None
    for raw in blocks[0].splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            keys.add((section, line.split("=", 1)[0].strip()))
    assert keys == {(s, k) for s, ks in cli._SCHEMA.items() for k in ks}


def test_readme_sweep_example_converges(tmp_path):
    # the README's speed-law sweep, on its ini example, writes the fit
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    [sweep] = set(re.findall(r'--sweep "([^"]+)"', readme))
    cfg = tmp_path / "waves.cfg"
    cfg.write_text(block)
    outdir = tmp_path / "rundir"
    rc = main(["minimize", "--config", str(cfg), "--out", str(outdir),
               "--sweep", sweep])
    assert rc == 0
    fit = json.loads((outdir / "speed_fit.json").read_text())
    assert len(fit["mus"]) == len(sweep.split(","))
