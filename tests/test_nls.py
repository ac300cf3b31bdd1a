import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import (ProfilePair, Params, build_soliton, check_focusing,
                     compute_a3, compute_a4, compute_coefficients, eval_PF,
                     eval_alpha, eval_fbar, find_critical, make_grid)
from gcwaves.dispersion import eval_g
from gcwaves.errors import RegimeError
from gcwaves.nls import (_a3_vec1, _a3_vec2, soliton_energy, soliton_mass,
                         soliton_ode_residual, soliton_shape,
                         upper_quartic_kinetic)
import gcwaves.fieldops as fo

from conftest import BENCH, NEAR_RESONANT
from spectral_helpers import m_lower, m_upper, quartic_box_correction


def test_fbar_limit_and_symmetry():
    assert eval_fbar(0.0) == pytest.approx(
        np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-15)
    F = eval_fbar(1e-9)
    assert F == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-8)
    F = eval_fbar(1.7)
    assert F[0, 1] == F[1, 0] and F[0, 0] == F[1, 1]


def test_fbar_relates_to_dispersion_F():
    for k in (0.7, 1.3, 5.0):
        _, F = eval_PF(k, NEAR_RESONANT)
        resid = F - NEAR_RESONANT.rho * eval_fbar(k)
        assert resid == pytest.approx(np.array([[k, 0.0], [0.0, 0.0]]),
                                      abs=1e-13)


def test_fbar_high_precision_value():
    # frozen arbitrary-precision evaluation of (2 coth 2 - 2 / sinh 2)
    out = eval_fbar(2.0) @ np.array([1.0, 1.0])
    assert out[0] == pytest.approx(1.5231883119115297762, rel=1e-15)
    assert out[1] == pytest.approx(out[0], rel=1e-15)


def test_a3_blocks_hand_evaluated():
    # synthetic inputs chosen so every block is hand-checkable
    fb2 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    fb0 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    v1 = _a3_vec1(k0=1.0, a=1.0, rho=1.0, nu0_sq=1.0, fb2=fb2, c1=3.0, c2=4.0)
    assert v1 == pytest.approx(np.array([-4.0, 1.5]), abs=1e-14)
    v2 = _a3_vec2(k0=1.0, a=1.0, rho=1.0, nu0_sq=1.0, fb0=fb0, c1=3.0, c2=4.0)
    assert v2 == pytest.approx(np.array([-3.0, 6.5]), abs=1e-14)


def test_a3_resonance_guard(bench_crit):
    # a speed tuned so the second harmonic is resonant makes g(2 k0)
    # singular, which the assembly must refuse
    from gcwaves.errors import ResonanceError
    from gcwaves.dispersion import CriticalPoint, eval_lambda
    k0 = bench_crit.k0
    lam_2k0 = eval_lambda(2.0 * k0, BENCH)[0]
    fake = CriticalPoint(k0=k0, nu0=np.sqrt(lam_2k0), a=bench_crit.a,
                         lambda2=bench_crit.lambda2, a2=bench_crit.a2,
                         assumption1_global=True, assumption1_nondeg=True)
    with pytest.raises(ResonanceError):
        compute_a3(BENCH, fake)


def test_a3_nonpositive(resonant_crit, bench_crit):
    a3, _, _ = compute_a3(NEAR_RESONANT, resonant_crit)
    assert a3 <= 0.0
    a3b, _, _ = compute_a3(BENCH, bench_crit)
    assert a3b <= 0.0


def test_a4_display_identity(bench_crit, resonant_crit):
    # the perturbation-theory assembly agrees with the closed-form
    # second-harmonic/mean-flow combination of the Fbar entries
    for crit in (bench_crit, resonant_crit):
        k0, a = crit.k0, crit.a
        fbk, fb0, fb2 = eval_fbar(k0), eval_fbar(0.0), eval_fbar(2 * k0)
        c1 = fbk[0, 0] - a * fbk[0, 1]
        c2 = fbk[1, 0] - a * fbk[1, 1]
        closed = (-0.5 * (c1 - a**3 * c2) * k0**2
                  + (c1**2 / 6.0) * (2 * fb0[0, 0] + fb2[0, 0])
                  + (a**2 * c2**2 / 6.0) * (2 * fb0[1, 1] + fb2[1, 1])
                  + (a * c1 * c2 / 3.0) * (2 * fb0[1, 0] + fb2[1, 0]))
        assert upper_quartic_kinetic(k0, a) == pytest.approx(closed, rel=1e-13)


def test_a4_sign_of_surface_part(bench_crit):
    _, a4_1, _ = compute_a4(BENCH, bench_crit)
    assert a4_1 < 0.0


def test_coefficients_regression(bench_crit, bench_coeffs):
    # frozen pipeline fixture for the bench parameters, recorded when k0
    # was located by value comparisons in a quadratically flat basin
    # (reproducible to ~1e-6 relative); the minimum data themselves are
    # pinned at 1e-12 in test_dispersion
    assert bench_crit.k0 == pytest.approx(1.26793708, rel=2e-6)
    assert bench_crit.nu0 == pytest.approx(0.59883835251645, rel=1e-11)
    assert bench_crit.a == pytest.approx(0.375364081, rel=1e-5)
    c = bench_coeffs
    assert c.a2 == pytest.approx(0.300248678, rel=1e-4)
    assert c.a3 == pytest.approx(-2.996508999, rel=1e-5)
    assert c.a4 == pytest.approx(-0.260290452, rel=1e-5)
    assert c.alpha == pytest.approx(1.387796499, rel=1e-5)
    assert c.nu_nls == pytest.approx(-22.31669827, rel=1e-4)
    assert c.i_nls == pytest.approx(-20.64735716, rel=1e-4)
    assert c.focusing


def test_coefficients_regression_near_resonant(resonant_crit, resonant_coeffs):
    # frozen pipeline fixture for the near-resonant reference values;
    # this configuration sits close to the long-wave resonance, which is
    # what makes the cubic coefficients so large
    assert resonant_crit.k0 == pytest.approx(0.2337775485, rel=2e-6)
    assert resonant_crit.nu0 == pytest.approx(0.68621795132622, rel=1e-11)
    assert resonant_crit.a == pytest.approx(0.87797481835, rel=1e-5)
    c = resonant_coeffs
    assert c.a2 == pytest.approx(2.01482046, rel=1e-4)
    assert c.a3 == pytest.approx(-104.8799688, rel=1e-5)
    assert c.a4 == pytest.approx(-1.465895019, rel=1e-5)
    assert c.i_nls == pytest.approx(-3320.967623, rel=1e-4)
    assert c.focusing


def test_focusing_trivials():
    assert check_focusing(-1.0, 0.0) is True
    assert check_focusing(0.0, 1.0) is False


def test_a4_parts(bench_crit, bench_coeffs):
    a4, a4_1, a4_2 = compute_a4(BENCH, bench_crit)
    assert a4 == pytest.approx(a4_1 - bench_crit.nu0**2 * a4_2, rel=1e-14)
    assert a4 == pytest.approx(bench_coeffs.a4, rel=1e-14)


def test_alpha_identity_and_positivity(bench_crit):
    alpha = eval_alpha(BENCH, bench_crit)
    assert alpha > 0.0
    _, F = eval_PF(bench_crit.k0, BENCH)
    v0 = bench_crit.v0
    assert alpha == pytest.approx(
        2.0 / (bench_crit.nu0 * float(F @ v0 @ v0)), rel=1e-13)


def _eta1(crit, coeffs, eps, grid):
    amp, dec = soliton_shape(coeffs)
    x, L = grid.x, grid.period
    phi = sum(amp / np.cosh(np.clip(dec * eps * (x + j * L), -700, 700))
              for j in (-1, 0, 1))
    car = np.cos(grid.carrier * x)
    return ProfilePair(grid, eps * phi * car, -crit.a * eps * phi * car)


def test_a3_extraction_oracle(bench_crit, bench_coeffs):
    # spectral quadrature of the inverse-symbol form on a single carrier
    crit, c = bench_crit, bench_coeffs
    k0 = crit.k0
    rels = []
    for eps, n, m in ((4e-3, 4096, 140), (2e-3, 8192, 280)):
        grid = make_grid(n, k0, m)
        e1 = _eta1(crit, c, eps, grid)
        f_u = m_lower(e1.eta_under, e1.eta_under, grid) \
            + BENCH.rho * m_upper(e1, e1)[0]
        f_v = BENCH.rho * m_upper(e1, e1)[1]
        cu = np.fft.fft(f_u) / grid.n
        cv = np.fft.fft(f_v) / grid.n
        ks = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        mask = np.abs(np.abs(ks) - k0) >= k0 / 3.0
        quad = 0.0
        for kk, au, av in zip(ks[mask], cu[mask], cv[mask]):
            g = eval_g(float(kk), BENCH, crit.nu0)
            vec = np.array([au, av])
            quad += float(np.real(np.linalg.solve(g, vec) @ np.conj(vec)))
        quad *= grid.period
        quartic = float(np.mean(e1.eta_under**4)) * grid.period
        a3_est = -crit.nu0**2 * (crit.nu0**2 * quad) / quartic
        rels.append(abs(a3_est - c.a3) / abs(c.a3))
    assert rels[1] < rels[0]
    assert rels[1] <= 0.05


def test_a4_extraction_oracle(bench_crit, bench_coeffs):
    # quartic-coefficient extraction from K4 - nu0^2 L4 on a single
    # carrier; the finite period suppresses the zero mode of the
    # mean-flow response, which the box correction accounts for
    crit, c = bench_crit, bench_coeffs
    amp, dec = soliton_shape(c)
    k0 = crit.k0
    rels = []
    for eps, n, m in ((4e-3, 4096, 140), (2e-3, 8192, 280)):
        grid = make_grid(n, k0, m)
        e1 = _eta1(crit, c, eps, grid)
        _, _, k4 = fo.eval_K(e1, BENCH)
        _, _, l4 = fo.eval_L_trunc(e1, BENCH)
        quartic = float(np.mean(e1.eta_under**4)) * grid.period
        est = (k4 - crit.nu0**2 * l4) / quartic
        box = quartic_box_correction(k0, crit.a, eps, grid.period, amp, dec)
        pred = c.a4 + crit.nu0**2 * BENCH.rho * box
        rels.append(abs(est - pred) / abs(pred))
    assert rels[1] < rels[0]
    assert rels[1] <= 0.04


def test_a3_lipschitz_in_params(bench_crit):
    def a3_of(beta_over):
        p = Params(BENCH.rho, BENCH.beta_under, beta_over)
        rep = find_critical(p)
        return compute_a3(p, rep.crit)[0]

    base = BENCH.beta_over
    slope = (a3_of(base + 1e-4) - a3_of(base - 1e-4)) / 2e-4
    d_small = a3_of(base + 1e-8) - a3_of(base)
    assert abs(d_small) <= 10.0 * abs(slope) * 1e-8 + 1e-12


@given(a2=st.floats(0.01, 10.0), alpha=st.floats(0.01, 10.0),
       s=st.floats(-10.0, -0.01))
@settings(max_examples=50, deadline=None)
def test_soliton_scalars_negative_when_focusing(a2, alpha, s):
    nu_nls = -9.0 * alpha**2 * s**2 / (8.0 * a2)
    i_nls = -3.0 * alpha**3 * s**2 / (4.0 * a2)
    assert nu_nls < 0.0 and i_nls < 0.0


def test_soliton_identities(bench_coeffs):
    c = bench_coeffs
    prof = build_soliton(c, n=8192)
    amp, dec = soliton_shape(c)
    assert prof.amplitude == amp and prof.decay_rate == dec
    assert dec > 0.0

    res = soliton_ode_residual(prof, c)
    scale = abs(c.nu_nls) * amp + abs(c.cubic) * amp**3
    assert np.max(np.abs(res)) <= 1e-10 * scale

    assert soliton_mass(prof) == pytest.approx(2.0 * c.alpha, rel=1e-10)
    assert soliton_energy(prof, c) == pytest.approx(c.i_nls, rel=1e-8)
    assert c.nu_nls < 0.0 and c.i_nls < 0.0


def test_soliton_energy_translation_insensitive(bench_coeffs):
    c = bench_coeffs
    prof = build_soliton(c, n=8192)
    shifted = build_soliton(c, half_width=25.0 / prof.decay_rate, n=8192)
    # sampling the same window reproduces the same quadratures exactly
    assert soliton_energy(shifted, c) == soliton_energy(prof, c)


def test_defocusing_rejected(bench_coeffs):
    from dataclasses import replace
    bad = replace(bench_coeffs, a3=1.0, a4=1.0, focusing=False)
    with pytest.raises(RegimeError):
        build_soliton(bad)
