"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers (run with ``pytest -s tests/test_acceptance.py`` to see them).
Criteria 1-2 run at the reference configurations for the three
classification regimes (valid / double-minimum / degenerate); the
quantitative small-mu laws (3-9) run at the bench parameters, whose
carrier is far enough from the long-wave resonance that mu <= 1e-2 is
inside the validity range of the expansions.
"""

import time

import numpy as np
import pytest

from gcwaves import (Params, ProfilePair, StripGrid, compute_coefficients,
                     eval_lambda, find_critical)
from gcwaves.cli import oracle_suite
from gcwaves.dispersion import (eval_PF, eval_g, locate_branch_crossing,
                                refine_degenerate)
from gcwaves.fieldops import (build_eta_star, eps_of_mu, eval_J,
                              eval_L_trunc, grad_J, make_grid,
                              suggest_carrier_multiple)
from gcwaves.minimizer import (MinimizeConfig, _spectral_tail, minimize,
                               speed_expansion_check)
from gcwaves.nls import (build_soliton, soliton_energy, soliton_mass,
                         soliton_shape)

from conftest import (BENCH, DEGENERATE_SEED, NEAR_RESONANT,
                      random_band_profile, soliton_ode_residual)
from spectral_helpers import eval_K, grad_K, grad_L_trunc


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_dispersion_structure(resonant_report):
    t0 = time.time()
    ks = np.geomspace(1e-3, 1e3, 10_000)
    gap_ok = True
    for k in ks:
        lm, lp, _ = eval_lambda(float(k), NEAR_RESONANT)
        gap_ok &= lm < lp
    rep = resonant_report
    unique_interior = (rep.verdict == "Valid"
                       and not rep.competing_minima
                       and 1e-3 < rep.crit.k0 < 1e3)
    elapsed = time.time() - t0
    ok = (gap_ok and unique_interior and rep.crit.assumption1_global
          and rep.crit.assumption1_nondeg and elapsed < 1.0)
    _report("criterion 1 (dispersion structure)", ok,
            f"branches ordered on 1e4 grid, verdict={rep.verdict}, "
            f"k0={rep.crit.k0:.6f}, runtime={elapsed:.2f}s")


def test_criterion_2_failure_modes():
    t0 = time.time()
    lo, hi, rep_mid = locate_branch_crossing(0.5, 1.0, 0.04, 0.07)
    bracket_ok = (hi - lo) <= 1e-3 and rep_mid.verdict == "DoubleMinimum"

    q = refine_degenerate(Params(*DEGENERATE_SEED))
    rounds = (round(float(q.rho), 3), round(float(q.beta_under), 3),
              round(float(q.beta_over), 3))
    rep_deg = find_critical(q)
    degenerate_ok = (rep_deg.verdict == "Degenerate"
                     and abs(rep_deg.crit.k0 - 1.0) <= 0.02
                     and rounds == DEGENERATE_SEED)
    elapsed = time.time() - t0
    ok = bracket_ok and degenerate_ok and elapsed < 30.0
    _report("criterion 2 (failure-mode detection)", ok,
            f"double-minimum transition at beta_over={0.5*(lo+hi):.9f} "
            f"(bracket width {hi-lo:.2e}), degenerate verdict at "
            f"params rounding to {rounds} with k0={rep_deg.crit.k0:.5f}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_3_eigen_structure(resonant_crit, bench_crit):
    details = []
    ok = True
    for label, p, crit in (("near-resonant", NEAR_RESONANT, resonant_crit),
                           ("bench", BENCH, bench_crit)):
        g = eval_g(crit.k0, p, crit.nu0)
        resid = np.linalg.norm(g @ crit.v0) / np.linalg.norm(g)
        null_ok = resid <= 1e-9

        def a_of_k(k, p=p):
            P, F = eval_PF(k, p)
            gk = P - eval_lambda(k, p)[0] * F
            return gk[0, 0] / gk[0, 1]

        h = 1e-5 * crit.k0
        ap = (a_of_k(crit.k0 + h) - a_of_k(crit.k0 - h)) / (2 * h)
        vprime = np.array([0.0, -ap])
        _, F = eval_PF(crit.k0, p)
        ident = crit.lambda2 * float(F @ crit.v0 @ crit.v0) \
            + 2.0 * float(g @ vprime @ vprime)
        ident_rel = abs(ident - crit.a2) / abs(crit.a2)
        ok &= null_ok and crit.a2 > 0 and ident_rel <= 1e-6
        details.append(f"{label}: |g v0|/|g|={resid:.1e}, "
                       f"A2_fixed_v0={crit.a2:.5f}, "
                       f"identity rel err={ident_rel:.1e}")
    _report("criterion 3 (eigen-structure exactness)", ok, "; ".join(details))


def test_criterion_4_soliton_identities(bench_coeffs):
    t0 = time.time()
    c = bench_coeffs
    prof = build_soliton(c, n=8192)
    res = soliton_ode_residual(prof, c)
    scale = abs(c.nu_nls) * prof.amplitude + abs(c.cubic) * prof.amplitude**3
    ode_rel = float(np.max(np.abs(res))) / scale
    mass_rel = abs(soliton_mass(prof) - 2.0 * c.alpha) / (2.0 * c.alpha)
    energy_rel = abs(soliton_energy(prof, c) - c.i_nls) / abs(c.i_nls)
    elapsed = time.time() - t0
    ok = (ode_rel <= 1e-10 and mass_rel <= 1e-8 and energy_rel <= 1e-8
          and elapsed < 0.1)
    _report("criterion 4 (soliton identities)", ok,
            f"scaled ODE residual={ode_rel:.1e}, mass rel err={mass_rel:.1e}, "
            f"energy rel err={energy_rel:.1e}, runtime={elapsed:.3f}s")


def test_criterion_5_gradient_correctness(bench_crit):
    t0 = time.time()
    grid = make_grid(1024, bench_crit.k0, 16)
    rng = np.random.default_rng(2025)
    mu = 1e-3
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        eta = ProfilePair(grid, random_band_profile(rng, grid.n, 0.04),
                          random_band_profile(rng, grid.n, 0.04))
        du = random_band_profile(rng, grid.n, 0.04)
        dv = random_band_profile(rng, grid.n, 0.04)

        for val, grad in (
            (lambda e: sum(eval_L_trunc(e, BENCH)),
             lambda e: grad_L_trunc(e, BENCH)),
            (lambda e: eval_K(e, BENCH)[0],
             lambda e: grad_K(e, BENCH)),
            (lambda e: eval_J(e, BENCH, mu).j_mu,
             lambda e: np.fft.irfft(grad_J(e, BENCH, mu)[0], grid.n)),
        ):
            gu, gv = grad(eta)
            ep = ProfilePair(grid, eta.eta_under + h * du,
                             eta.eta_over + h * dv)
            em = ProfilePair(grid, eta.eta_under - h * du,
                             eta.eta_over - h * dv)
            fd = (val(ep) - val(em)) / (2 * h)
            an = grid.dx * float(np.sum(gu * du + gv * dv))
            worst = max(worst, abs(fd - an) / abs(fd))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report("criterion 5 (gradient correctness)", ok,
            f"worst rel err={worst:.2e} over 10 profiles at n=1024, "
            f"runtime={elapsed:.1f}s")


def test_criterion_6_truncation_vs_oracle(bench_crit):
    t0 = time.time()
    k0 = bench_crit.k0
    strip = StripGrid(nx=256, ny=128, depth_under=14.0 / k0, cg_tol=1e-12)
    checks = oracle_suite(BENCH, k0, make_grid(256, k0, 4), strip)
    sym_err = checks["flat_symbol_max_abs_err"]
    slopes = checks["truncation_slopes"]
    elapsed = time.time() - t0
    ok = sym_err <= 1e-8 and min(slopes) >= 4.5 and elapsed < 120.0
    _report("criterion 6 (truncation order vs oracle)", ok,
            f"flat symbol max err={sym_err:.2e}, log-log slopes="
            f"{slopes[0]:.2f},{slopes[1]:.2f}, runtime={elapsed:.1f}s")


def test_criterion_7_cubic_law(bench_crit, bench_coeffs):
    t0 = time.time()
    crit, c = bench_crit, bench_coeffs
    devs = []
    for mu in (4e-3, 2e-3, 1e-3):
        m = suggest_carrier_multiple(c, crit, mu)
        grid = make_grid(4096, crit.k0, m)
        eps = eps_of_mu(BENCH, c, crit, grid, mu)
        eta = build_eta_star(c, crit, eps, grid, BENCH)
        bd = eval_J(eta, BENCH, mu)
        devs.append((bd.j_mu - 2.0 * crit.nu0 * mu) / mu**3)
    rels = [abs(d - c.i_nls) / abs(c.i_nls) for d in devs]
    elapsed = time.time() - t0
    ok = rels[0] > rels[1] > rels[2] and rels[2] <= 0.10 and elapsed < 60.0
    _report("criterion 7 (cubic law of the test function)", ok,
            f"(J-2 nu0 mu)/mu^3 deviations from I_NLS: "
            f"{rels[0]:.3f} > {rels[1]:.3f} > {rels[2]:.4f} (monotone), "
            f"final <= 10%, runtime={elapsed:.1f}s")


def test_criterion_8_minimization(bench_crit, bench_coeffs):
    t0 = time.time()
    crit, c = bench_crit, bench_coeffs
    runs = []
    details = []
    ok = True
    # resolved grids, about 30 points per carrier wavelength
    for mu, n in ((4e-3, 4096), (2e-3, 8192), (1e-3, 16384)):
        m = suggest_carrier_multiple(c, crit, mu)
        grid = make_grid(n, crit.k0, m)
        cfg = MinimizeConfig(mu=mu, grid=grid, max_iters=1500)
        r = minimize(BENCH, c, crit, cfg)
        runs.append(r)
        tail = _spectral_tail(np.fft.rfft([r.eta.eta_under, r.eta.eta_over]))
        run_ok = (r.converged and r.final_grad_norm <= cfg.tol
                  and not r.boundary_hit
                  and r.breakdown.j_mu < 2.0 * crit.nu0 * mu
                  and r.speed < crit.nu0
                  and tail <= 1e-7)
        ok &= run_ok
        details.append(f"mu={mu} n={n}: iters={r.iterations}, "
                       f"tail={tail:.1e}, "
                       f"J-2nu0mu={r.breakdown.j_mu - 2 * crit.nu0 * mu:.2e}, "
                       f"nu-nu0={r.speed - crit.nu0:.2e}")
    fit = speed_expansion_check(runs, crit, c)
    fit_rel = abs(fit.fitted - fit.predicted) / abs(fit.predicted)
    elapsed = time.time() - t0
    ok &= fit_rel <= 0.10 and elapsed < 600.0
    _report("criterion 8 (minimization and speed law)", ok,
            "; ".join(details) + f"; speed fit={fit.fitted:.3f} vs "
            f"predicted={fit.predicted:.3f} (rel {fit_rel:.3f}), "
            f"runtime={elapsed:.0f}s")


def test_criterion_9_universal_lower_bound(bench_crit, bench_coeffs):
    crit, c = bench_crit, bench_coeffs
    mu = 2e-3
    bound = 2.0 * mu * crit.nu0
    grid = make_grid(512, crit.k0, 8)
    rng = np.random.default_rng(99)
    gaps = []
    ok = True
    for _ in range(1000):
        eta = ProfilePair(grid, random_band_profile(rng, grid.n, 0.05),
                          random_band_profile(rng, grid.n, 0.05))
        _, k2, _ = eval_K(eta, BENCH)
        l2 = eval_L_trunc(eta, BENCH)[0]
        value = k2 + mu**2 / l2
        ok &= value >= bound * (1.0 - 1e-12)
        gaps.append(value - bound)
    # equality is approached only near modulated-carrier profiles
    m = suggest_carrier_multiple(c, crit, mu)
    star_grid = make_grid(4096, crit.k0, m)
    eps = eps_of_mu(BENCH, c, crit, star_grid, mu)
    star = build_eta_star(c, crit, eps, star_grid, BENCH)
    _, k2s, _ = eval_K(star, BENCH)
    l2s = eval_L_trunc(star, BENCH)[0]
    star_gap = k2s + mu**2 / l2s - bound
    typical = float(np.median(gaps))
    ok &= star_gap <= 0.05 * typical
    _report("criterion 9 (universal lower bound)", ok,
            f"min gap over 1000 random profiles={min(gaps):.3e} (>= 0), "
            f"median gap={typical:.3e}, modulated-carrier gap="
            f"{star_gap:.3e}")
