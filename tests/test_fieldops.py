import functools
import gc
import hashlib
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import Params, ProfilePair
from gcwaves.cli import write_profile_csv
from gcwaves.dispersion import eval_fbar, fbar_entries, find_critical
from gcwaves.errors import (ConfigError, GeometryError, OutOfConeError,
                            RangeError)
from gcwaves.fieldops import (PeriodicGrid, _fbar_inverse_entries,
                              _is_grid_size, _staged,
                              build_eta_star, eps_of_mu, eval_J,
                              eval_L_trunc, grad_J, make_grid, mu_of_eps,
                              suggest_carrier_multiple, wrap_floor)
from gcwaves.nls import compute_coefficients, soliton_shape

from conftest import BENCH, fft_lengths, fft_rows_calls, random_band_profile
from spectral_helpers import (apply_multiplier, eval_K, eval_L_lower,
                              eval_L_upper, grad_K, grad_L_trunc, m_lower,
                              m_upper, read_profile_csv, roll, zero_profile)


@pytest.fixture(scope="module")
def grid(bench_crit):
    return make_grid(256, bench_crit.k0, 4)


@pytest.fixture(scope="module")
def kc(grid):
    return grid.carrier


def pair(grid, u, v):
    return ProfilePair(grid, u, v)


# ---------------------------------------------------------------------------
# multiplier basics


def test_multiplier_eigenfunction(grid, kc):
    u = np.cos(kc * grid.x)
    out = apply_multiplier(abs, u, grid)
    assert out == pytest.approx(kc * u, abs=1e-13 * kc)


def test_multiplier_constant(grid):
    out = apply_multiplier(abs, np.full(grid.n, 2.5), grid)
    assert out == pytest.approx(np.zeros(grid.n), abs=1e-14)


def test_matrix_multiplier_single_mode(grid, kc):
    u = np.cos(kc * grid.x)
    fb = eval_fbar(kc)
    ou, ov = apply_multiplier(eval_fbar, (u, np.zeros_like(u)), grid)
    assert ou == pytest.approx(fb[0, 0] * u, abs=1e-12)
    assert ov == pytest.approx(fb[1, 0] * u, abs=1e-12)


# ---------------------------------------------------------------------------
# functional values


def test_eval_K_zero(grid):
    assert eval_K(zero_profile(grid), BENCH) == (0.0, 0.0, 0.0)


def test_k2_single_mode(grid, kc):
    A = 1e-2
    eta = pair(grid, A * np.cos(kc * grid.x), np.zeros(grid.n))
    _, k2, _ = eval_K(eta, BENCH)
    expected = (A**2 * grid.period / 4.0) * (1.0 - BENCH.rho
                                             + BENCH.beta_under * kc**2)
    assert k2 == pytest.approx(expected, rel=1e-12)


def test_K_truncation_order(grid, kc):
    x = grid.x
    u = np.cos(kc * x) + 0.3 * np.cos(2 * kc * x)
    diffs = []
    # down to A = 0.2 / 256, where the sixth-order remainder is ~1e-16 of
    # K: sqrt(1 + eta_x^2) - 1 formed by subtraction drowns it in rounding
    for A in 0.2 * 0.5 ** np.arange(9):
        eta = pair(grid, A * u, 0.5 * A * u)
        kt, k2, k4 = eval_K(eta, BENCH)
        diffs.append(abs(kt - k2 - k4))
    slopes = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert slopes.min() >= 5.5, slopes  # sixth-order remainder


def test_l2_l3_single_mode(grid, kc):
    A = 1e-3
    u = A * np.cos(kc * grid.x)
    l2, l3, _ = eval_L_lower(u, grid)
    assert l2 == pytest.approx(A**2 * grid.period * kc / 4.0, rel=1e-12)
    assert abs(l3) <= 1e-16 * A**2


def test_l2_upper_single_mode(grid, kc, bench_crit):
    A = 1e-3
    a = bench_crit.a
    u = A * np.cos(kc * grid.x)
    eta = pair(grid, u, -a * u)
    l2, _, _ = eval_L_upper(eta)
    v0 = np.array([1.0, -a])
    expected = (A**2 * grid.period / 4.0) * float(eval_fbar(kc) @ v0 @ v0)
    assert l2 == pytest.approx(expected, rel=1e-12)


def test_l4_zero_profile(grid):
    assert eval_L_upper(zero_profile(grid)) == (0.0, 0.0, 0.0)


def _brute_lower_parts(u, grid, refine=4):
    """Independent fine-grid quadrature of the lower-layer integrals.

    Plain real-space evaluation on a refine-times-finer grid, written
    without reusing any fieldops machinery.
    """
    n2 = refine * grid.n
    U = np.fft.rfft(u)
    Up = np.zeros(n2 // 2 + 1, dtype=complex)
    Up[: grid.n // 2 + 1] = U
    Up[grid.n // 2] = 0.0
    uf = np.fft.irfft(Up, n2) * refine
    k2 = 2.0 * np.pi / grid.period * np.arange(n2 // 2 + 1)
    spec = np.fft.rfft(uf)
    ux = np.fft.irfft(1j * k2 * spec, n2)
    uxx = np.fft.irfft(-(k2**2) * spec, n2)
    Ku = np.fft.irfft(np.abs(k2) * spec, n2)
    KuKu = np.fft.irfft(np.abs(k2) * np.fft.rfft(uf * Ku), n2)
    w = grid.period / n2
    l2 = 0.5 * w * float(np.sum(uf * Ku))
    l3 = 0.5 * w * float(np.sum((ux**2 - Ku**2) * uf))
    l4 = 0.5 * w * float(np.sum(uf**2 * uxx * Ku + uf * Ku * KuKu))
    return l2, l3, l4


def test_lower_parts_against_fine_grid(grid, kc):
    A = 0.05
    u = A * (np.cos(kc * grid.x) + np.cos(2 * kc * grid.x))
    mine = eval_L_lower(u, grid)
    brute = _brute_lower_parts(u, grid)
    for a, b in zip(mine, brute):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-18)


def test_upper_l3_against_fine_grid(grid, kc, bench_crit):
    # cross-check the bracket assembly of the cubic upper integrand on a
    # 4x-resolution grid built independently
    A = 0.05
    x = grid.x
    u = A * (np.cos(kc * x) + 0.6 * np.sin(2 * kc * x))
    v = A * (0.5 * np.cos(kc * x) - 0.4 * np.cos(2 * kc * x))
    _, l3, _ = eval_L_upper(pair(grid, u, v))

    refine = 4
    n2 = refine * grid.n
    k2 = 2.0 * np.pi / grid.period * np.arange(n2 // 2 + 1)

    def up(f):
        F = np.fft.rfft(f)
        Fp = np.zeros(n2 // 2 + 1, dtype=complex)
        Fp[: grid.n // 2 + 1] = F
        Fp[grid.n // 2] = 0.0
        return np.fft.irfft(Fp, n2) * refine

    uf, vf = up(u), up(v)
    Uh, Vh = np.fft.rfft(uf), np.fft.rfft(vf)
    ak = np.abs(k2)
    with np.errstate(invalid="ignore"):
        diag = np.where(ak > 0, ak / np.tanh(np.where(ak > 0, ak, 1.0)), 1.0)
        off = np.where(ak > 0, -ak / np.sinh(np.where(ak > 0, ak, 1.0)), -1.0)
    B1 = np.fft.irfft(diag * Uh + off * Vh, n2)
    B2 = np.fft.irfft(off * Uh + diag * Vh, n2)
    ux = np.fft.irfft(1j * k2 * Uh, n2)
    vx = np.fft.irfft(1j * k2 * Vh, n2)
    w = grid.period / n2
    brute = 0.5 * w * float(np.sum(-(ux**2 - B1**2) * uf
                                   + (vx**2 - B2**2) * vf))
    assert l3 == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry and invariance properties


def test_m_forms_symmetric(grid):
    rng = np.random.default_rng(11)
    u1 = random_band_profile(rng, grid.n, 0.05)
    u2 = random_band_profile(rng, grid.n, 0.05)
    v1 = random_band_profile(rng, grid.n, 0.05)
    v2 = random_band_profile(rng, grid.n, 0.05)
    assert np.array_equal(m_lower(u1, u2, grid), m_lower(u2, u1, grid))
    a = m_upper(pair(grid, u1, v1), pair(grid, u2, v2))
    b = m_upper(pair(grid, u2, v2), pair(grid, u1, v1))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@given(shift=st.integers(-200, 200))
@settings(max_examples=20, deadline=None)
def test_translation_invariance(bench_crit, shift):
    grid = make_grid(256, bench_crit.k0, 4)
    rng = np.random.default_rng(5)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.05),
               random_band_profile(rng, grid.n, 0.05))
    rolled = roll(eta, shift)
    for f in (lambda e: eval_K(e, BENCH), lambda e: eval_L_trunc(e, BENCH)):
        a, b = f(eta), f(rolled)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-13, abs=1e-18)


def test_reflection_invariance(grid):
    rng = np.random.default_rng(6)
    u = random_band_profile(rng, grid.n, 0.05)
    v = random_band_profile(rng, grid.n, 0.05)
    ur = np.roll(u[::-1], 1)
    vr = np.roll(v[::-1], 1)
    a = eval_L_trunc(pair(grid, u, v), BENCH)
    b = eval_L_trunc(pair(grid, ur, vr), BENCH)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-18)
    ka = eval_K(pair(grid, u, v), BENCH)
    kb = eval_K(pair(grid, ur, vr), BENCH)
    for x, y in zip(ka, kb):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-18)


def test_parseval_consistency(grid):
    rng = np.random.default_rng(8)
    u = random_band_profile(rng, grid.n, 0.05)
    v = random_band_profile(rng, grid.n, 0.05)
    eta = pair(grid, u, v)
    l2, _, _ = eval_L_upper(eta)
    # real-space quadrature of eta . (multiplier eta)
    ou, ov = apply_multiplier(eval_fbar, (u, v), grid)
    direct = 0.5 * grid.dx * float(np.sum(u * ou + v * ov))
    assert l2 == pytest.approx(direct, rel=1e-13)


# ---------------------------------------------------------------------------
# gradients


def _directional_check(grid, eta, du, dv, fn_val, fn_grad, h=1e-5):
    gu, gv = fn_grad(eta)
    ep = pair(grid, eta.eta_under + h * du, eta.eta_over + h * dv)
    em = pair(grid, eta.eta_under - h * du, eta.eta_over - h * dv)
    fd = (fn_val(ep) - fn_val(em)) / (2.0 * h)
    an = grid.dx * float(np.sum(gu * du + gv * dv))
    return abs(fd - an) / max(abs(fd), 1e-300)


def test_gradients_match_finite_differences(grid):
    rng = np.random.default_rng(9)
    for trial in range(4):
        eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
                   random_band_profile(rng, grid.n, 0.04))
        du = random_band_profile(rng, grid.n, 0.04)
        dv = random_band_profile(rng, grid.n, 0.04)
        rel_L = _directional_check(
            grid, eta, du, dv,
            lambda e: sum(eval_L_trunc(e, BENCH)),
            lambda e: grad_L_trunc(e, BENCH))
        rel_K = _directional_check(
            grid, eta, du, dv,
            lambda e: eval_K(e, BENCH)[0],
            lambda e: grad_K(e, BENCH))
        rel_J = _directional_check(
            grid, eta, du, dv,
            lambda e: eval_J(e, BENCH, 1e-3).j_mu,
            lambda e: np.fft.irfft(grad_J(e, BENCH, 1e-3)[0], grid.n))
        assert rel_L <= 1e-6 and rel_K <= 1e-6 and rel_J <= 1e-6


def test_grad_L3_is_m_form(grid):
    rng = np.random.default_rng(10)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.05),
               random_band_profile(rng, grid.n, 0.05))
    du = random_band_profile(rng, grid.n, 0.05)
    dv = random_band_profile(rng, grid.n, 0.05)

    def l3(e):
        lo = eval_L_lower(e.eta_under, grid)[1]
        up = eval_L_upper(e)[1]
        return lo + BENCH.rho * up

    ml = m_lower(eta.eta_under, eta.eta_under, grid)
    mu_up = m_upper(eta, eta)
    gu = ml + BENCH.rho * mu_up[0]
    gv = BENCH.rho * mu_up[1]
    h = 1e-6
    fd = (l3(pair(grid, eta.eta_under + h * du, eta.eta_over + h * dv))
          - l3(pair(grid, eta.eta_under - h * du, eta.eta_over - h * dv))) \
        / (2.0 * h)
    an = grid.dx * float(np.sum(gu * du + gv * dv))
    assert an == pytest.approx(fd, rel=1e-8)


def test_grad_at_zero_is_zero(grid):
    gu, gv = grad_L_trunc(zero_profile(grid), BENCH)
    assert np.max(np.abs(gu)) == 0.0 and np.max(np.abs(gv)) == 0.0


# ---------------------------------------------------------------------------
# parity with the reference implementation and the transform budget

# Values and gradients recorded from the earlier implementation, which
# built the padded fields separately in eval_K, eval_L_trunc, grad_K and
# grad_L_trunc and applied every multiplier by a transform pair.  Inputs:
# random_band_profile pairs at scales 0.02, 0.04, 0.06 drawn in turn from
# default_rng(20261017), on make_grid(256, k0, 4) at BENCH and mu = 1e-3.
REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "fieldops_reference.npz")


def test_parity_with_reference_implementation():
    ref = np.load(REFERENCE)
    grid = PeriodicGrid(n=int(ref["n"]), period=float(ref["period"]),
                        k0_multiple=4)
    p = Params(*ref["params"].tolist())
    mu = float(ref["mu"])
    for i, (u, v) in enumerate(ref["eta"]):
        eta = pair(grid, u, v)
        G, bd = grad_J(eta, p, mu)
        gu, gv = np.fft.irfft(G, grid.n)
        j_mu, l_trunc, k_total, _, k4, l2, l3, l4 = ref["breakdown"][i]
        assert bd.j_mu == pytest.approx(j_mu, rel=1e-13, abs=0.0)
        assert bd.l_trunc == pytest.approx(l_trunc, rel=1e-13, abs=0.0)
        assert bd.k_total == pytest.approx(k_total, rel=1e-13, abs=0.0)
        for got, want in ((bd.l3, l3), (bd.l4, l4), (bd.k4, k4)):
            assert abs(got - want) <= 1e-13 * abs(l2)
        for got, want in (((gu, gv), ref["grad_J"][i]),
                          (grad_K(eta, p), ref["grad_K"][i]),
                          (grad_L_trunc(eta, p), ref["grad_L_trunc"][i])):
            err = np.linalg.norm(np.asarray(got) - want)
            assert err <= 1e-13 * np.linalg.norm(want)


def test_fbar_inverse_entries_invert_fbar(grid):
    # the padded band of this grid runs from k0/4 past the hyperbolic
    # cutoff; below it the product loses digits like cond(Fbar) ~ 4/k^2
    k = 2.0 * np.pi / grid.period * np.arange(grid.n + 1)
    d, o = fbar_entries(k)
    nd, no = _fbar_inverse_entries(k, d, o)
    assert (nd[0], no[0]) == (0.25, -0.25)
    assert k[-1] > 30.0
    assert np.max(np.abs(d[1:] * nd[1:] + o[1:] * no[1:] - 1.0)) <= 1e-14
    assert np.max(np.abs(d[1:] * no[1:] + o[1:] * nd[1:])) <= 1e-14


def test_transform_counts(grid, fft_record):
    # the value stage makes 3 calls: the pair, the eight stacked padded
    # fields and the seven stacked products; the gradient stage adds 9,
    # and grad_J returns the gradient's spectrum with no inverse transform
    rng = np.random.default_rng(15)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
               random_band_profile(rng, grid.n, 0.04))
    rows, calls = {}, {}
    for name, fn in (("grad_J", lambda: grad_J(eta, BENCH, 1e-3)),
                     ("eval_J", lambda: eval_J(eta, BENCH, 1e-3)),
                     ("eval_L_trunc", lambda: eval_L_trunc(eta, BENCH))):
        fft_record.clear()
        fn()
        rows[name], calls[name] = fft_rows_calls(fft_record)
    assert rows == {"grad_J": 33, "eval_J": 17, "eval_L_trunc": 17}
    assert calls == {"grad_J": 12, "eval_J": 3, "eval_L_trunc": 3}


def test_staged_profile_reuses_its_value_stage(grid, fft_record):
    # eval_J then grad_J on a staged profile: the value stage once, the
    # gradient stage on the same transforms, the same numbers as unstaged
    rng = np.random.default_rng(16)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
               random_band_profile(rng, grid.n, 0.04))
    fft_record.clear()
    staged = _staged(eta)
    assert fft_rows_calls(fft_record) == (10, 2)
    bd = eval_J(staged, BENCH, 1e-3)
    assert fft_rows_calls(fft_record) == (17, 3)
    G, bd_grad = grad_J(staged, BENCH, 1e-3)
    assert fft_rows_calls(fft_record) == (33, 12)
    h2_sq = staged.h2_sq()
    assert fft_rows_calls(fft_record) == (33, 12)
    assert h2_sq == _staged(eta).h2_sq()
    ref_G, ref_bd = grad_J(eta, BENCH, 1e-3)
    assert bd is bd_grad and bd == ref_bd
    assert np.array_equal(G, ref_G)
    # another mu gets its own breakdown from the same transforms
    fft_record.clear()
    assert eval_J(staged, BENCH, 2e-3) == eval_J(eta, BENCH, 2e-3)
    assert fft_rows_calls(fft_record)[0] == 17


def test_batched_value_stage_equals_row_by_row_transforms(grid):
    # one call per stacked block must give each row the bits that its own
    # transform gives it
    rng = np.random.default_rng(18)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
               random_band_profile(rng, grid.n, 0.04))
    f = _staged(eta)
    s, npad = f.sym, 2 * grid.n
    U, V = f.UV
    fields = {"u": U, "v": V, "ux": s.ik * U, "vx": s.ik * V,
              "uxx": s.mk2 * U, "Ku": s.absk * U,
              "B1": s.fb_diag * U + s.fb_off * V,
              "B2": s.fb_off * U + s.fb_diag * V}
    for name, X in fields.items():
        assert np.array_equal(getattr(f, name), np.fft.irfft(2 * X, npad)), \
            name
    q = f.products
    assert np.array_equal(q.P, np.fft.rfft(f.u * f.Ku))
    assert np.array_equal(q.S[0], np.fft.rfft(f.u * f.B1))
    assert np.array_equal(q.S[1], np.fft.rfft(f.v * f.B2))


def test_h2_sq_matches_per_component_sum(grid):
    rng = np.random.default_rng(17)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
               random_band_profile(rng, grid.n, 0.04))
    mult = np.full(grid.n // 2 + 1, 2.0)
    mult[0] = 1.0
    w = 1.0 + grid.k**2 + grid.k**4
    ref = sum(float(np.sum(mult * w * np.abs(np.fft.rfft(c) / grid.n) ** 2))
              for c in (eta.eta_under, eta.eta_over)) * grid.period
    assert _staged(eta).h2_sq() == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# J and the universal lower bound


def test_J_requires_positive_L(grid, kc):
    eta = pair(grid, -1e-3 * np.cos(kc * grid.x), np.zeros(grid.n))
    bd = eval_J(eta, BENCH, 1e-3)
    assert bd.j_mu == pytest.approx(bd.k_total + 1e-6 / bd.l_trunc)
    with pytest.raises(OutOfConeError):
        eval_J(zero_profile(grid), BENCH, 1e-3)


def test_K_coercive_in_H1(grid):
    # K(eta) >= c ||eta||_1^2 with a positive fitted constant
    rng = np.random.default_rng(14)
    ratios = []
    for _ in range(50):
        eta = pair(grid, random_band_profile(rng, grid.n, 0.1),
                   random_band_profile(rng, grid.n, 0.1))
        kt, _, _ = eval_K(eta, BENCH)
        h1 = 0.0
        for comp in (eta.eta_under, eta.eta_over):
            U = np.fft.rfft(comp) / grid.n
            mult = np.full(grid.n // 2 + 1, 2.0)
            mult[0] = 1.0
            h1 += float(np.sum(mult * (1.0 + grid.k**2) * np.abs(U)**2)) \
                * grid.period
        ratios.append(kt / h1)
    assert min(ratios) > 0.0


def test_universal_lower_bound(grid, bench_crit):
    rng = np.random.default_rng(12)
    mu = 1e-3
    bound = 2.0 * mu * bench_crit.nu0
    for _ in range(200):
        eta = pair(grid, random_band_profile(rng, grid.n, 0.05),
                   random_band_profile(rng, grid.n, 0.05))
        _, k2, _ = eval_K(eta, BENCH)
        l2 = eval_L_trunc(eta, BENCH)[0]
        assert k2 + mu**2 / l2 >= bound * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# test profile and the momentum map


def test_eta_star_zero_eps(grid, bench_coeffs, bench_crit):
    # eps_of_mu returns a positive eps for every mu > 0: no other amplitude
    # has a test profile
    for eps in (0.0, -1e-3, float("nan")):
        with pytest.raises(RangeError, match="eps must be positive"):
            build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)


def test_eta_star_spectrum_concentrates(bench_coeffs, bench_crit):
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(4096, bench_crit.k0, m)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    U = np.abs(np.fft.rfft(eta.eta_under))**2
    k = grid.k
    kc = grid.carrier
    _, dec = soliton_shape(bench_coeffs)
    half_band = 12.0 * eps * dec
    carrier_band = np.abs(k - kc) <= half_band
    second = np.abs(k - 2 * kc) <= 2.0 * half_band
    low = k <= 2.0 * half_band
    rest = ~(carrier_band | second | low)
    assert np.sum(U[rest]) <= 1e-12 * np.sum(U)
    assert np.sum(U[carrier_band]) >= 0.99 * np.sum(U)


def test_eta_star_surface_turns_with_the_local_wavenumber(bench_coeffs,
                                                          bench_crit):
    # on the carrier band the surface spectrum is -(a + a' (k - k0)) times
    # the interface spectrum, the eigenvector v0 = (1, -a(k)) to first
    # order in k - k0; with the surface at -a times the interface alone
    # this residual read 5.6e-3 of the peak coefficient
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(4096, bench_crit.k0, m)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    rows = np.stack([eta.eta_under, eta.eta_over])
    assert np.abs(rows[:, 1:] - rows[:, :0:-1]).max() <= 1e-15
    U, V = np.fft.rfft(rows)
    k, kc = grid.k, grid.carrier
    band = np.abs(k - kc) <= 12.0 * eps * soliton_shape(bench_coeffs)[1]
    turned = V + (bench_crit.a + bench_crit.a_prime * (k - kc)) * U
    assert np.abs(turned[band]).max() <= 1e-6 * np.abs(U).max()


def test_eta_star_domain_too_small(bench_coeffs, bench_crit):
    grid = make_grid(256, bench_crit.k0, 4)
    with pytest.raises(GeometryError):
        build_eta_star(bench_coeffs, bench_crit, 1e-3, grid, BENCH)


def test_eta_star_refuses_a_grid_off_the_carrier(bench_coeffs, bench_crit):
    # a period 1.001 times m carrier wavelengths puts the grid's carrier
    # 0.1% below k0, off the profile's wavenumber
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, 2e-3)
    grid = PeriodicGrid(n=1024, period=1.001 * 2.0 * np.pi * m / bench_crit.k0,
                        k0_multiple=m)
    with pytest.raises(ConfigError) as ex:
        build_eta_star(bench_coeffs, bench_crit, 2e-3, grid, BENCH)
    assert str(ex.value) == (f"grid carrier {grid.carrier} does not "
                             f"represent k0={bench_crit.k0}")


def test_mu_eps_roundtrip(bench_coeffs, bench_crit):
    for eps in (1e-2, 1e-3):
        m = suggest_carrier_multiple(bench_coeffs, bench_crit, eps)
        grid = make_grid(4096, bench_crit.k0, m)
        mu = mu_of_eps(BENCH, bench_coeffs, bench_crit, grid, eps)
        back = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
        assert back == pytest.approx(eps, rel=1e-10)


@pytest.mark.parametrize("mu, n, n_c", [
    (4e-3, 4096, 768), (1e-3, 16384, 3072), (5e-4, 32768, 6144),
])
def test_eps_of_mu_evaluates_on_the_carrier_grid(monkeypatch, bench_coeffs,
                                                 bench_crit, mu, n, n_c):
    from gcwaves import fieldops
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(n, bench_crit.k0, m)
    sizes = []
    monkeypatch.setattr(fieldops, "eval_L_trunc", lambda eta, p: (
        sizes.append(eta.grid.n) or eval_L_trunc(eta, p)))
    eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    assert sizes and set(sizes) == {n_c}
    assert grid.carrier_grid.n == n_c


def test_carrier_waves_built_once_per_fine_grid(monkeypatch, bench_coeffs,
                                               bench_crit):
    # a fine grid holds its carrier grid, so eps_of_mu and the build_eta_star
    # that follows on one fine grid share one set of carrier waves
    built = []
    waves = PeriodicGrid.carrier_waves.func

    def counted(grid):
        built.append(grid.n)
        return waves(grid)

    prop = functools.cached_property(counted)
    prop.__set_name__(PeriodicGrid, "carrier_waves")
    monkeypatch.setattr(PeriodicGrid, "carrier_waves", prop)
    mu, n = 1e-3, 16384
    grid = make_grid(n, bench_crit.k0,
                     suggest_carrier_multiple(bench_coeffs, bench_crit, mu))
    assert grid.carrier_grid is grid.carrier_grid
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    assert built == [3072]


def test_value_pass_builds_symbols_once(bench_coeffs, bench_crit,
                                        symbol_builds):
    # eps_of_mu and build_eta_star read the carrier grid's symbols, and
    # eval_J of the result reads its carrier-grid copy, which is on the
    # same carrier grid object
    mu, n = 1e-3, 16384
    eps, eta = _star_on(mu, n, bench_coeffs, bench_crit)
    eval_J(eta, BENCH, mu)
    assert symbol_builds == [3072]


def test_symbols_are_freed_with_their_grid(bench_crit):
    gc.disable()
    try:
        grid = make_grid(1024, bench_crit.k0, 16)
        ref = weakref.ref(grid.symbols)
        assert grid.symbols is ref()
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_grids_are_freed_without_the_garbage_collector(bench_coeffs,
                                                      bench_crit):
    # a finer grid holds its carrier grid; a grid that held itself would
    # keep its cached arrays until a collection (9 MB more peak memory on
    # the benchmark's value-only pass)
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, 1e-3)
    gc.disable()
    try:
        for n in (16384, 3072):  # a fine grid, and its own carrier grid
            grid = make_grid(n, bench_crit.k0, m)
            coarse = grid.carrier_grid
            assert coarse.n == 3072 and len(coarse.carrier_waves) == 3
            refs = [weakref.ref(grid), weakref.ref(coarse)]
            del grid, coarse
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


_FINE_GRIDS = [(4e-3, 8192), (1e-3, 16384), (5e-4, 32768)]


def _star_on(mu, n, c, crit):
    grid = make_grid(n, crit.k0, suggest_carrier_multiple(c, crit, mu))
    eps = eps_of_mu(BENCH, c, crit, grid, mu)
    return eps, build_eta_star(c, crit, eps, grid, BENCH)


@pytest.mark.parametrize("mu, n", _FINE_GRIDS)
def test_eta_star_carries_mu_on_the_requested_grid(bench_coeffs, bench_crit,
                                                   mu, n):
    # eps is matched on the carrier grid; the profile it gives on the
    # requested grid carries the same mu to rounding
    _, eta = _star_on(mu, n, bench_coeffs, bench_crit)
    l_trunc = sum(eval_L_trunc(eta, BENCH))
    assert abs(bench_crit.nu0 * l_trunc / mu - 1.0) <= 1e-15


@pytest.mark.parametrize("mu, n", _FINE_GRIDS)
def test_eta_star_interpolates_the_carrier_grid_profile(bench_coeffs,
                                                        bench_crit, mu, n):
    eps, eta = _star_on(mu, n, bench_coeffs, bench_crit)
    coarse = eta.grid.carrier_grid
    star = build_eta_star(bench_coeffs, bench_crit, eps, coarse, BENCH)
    rows = np.stack([eta.eta_under, eta.eta_over])
    coarse_rows = np.stack([star.eta_under, star.eta_over])
    # above the carrier grid's band only the transforms' rounding is
    # left; sampled on the requested grid, the profile held 1e-14 to
    # 1e-13 of its peak coefficient there
    U = np.fft.rfft(rows)
    assert np.abs(U[:, coarse.n // 2:]).max() <= 1e-15 * np.abs(U).max()
    # below it, the spectrum is the carrier grid's, scaled by n_c / n
    band = slice(0, coarse.n // 2)
    coarse_U = np.fft.rfft(coarse_rows)[:, band]
    assert (np.abs(U[:, band] * (coarse.n / n) - coarse_U).max()
            <= 1e-15 * np.abs(coarse_U).max())


@pytest.mark.parametrize("n", [16, 24, 32, 48, 96, 768, 1024, 1536, 3072,
                               4096, 6144, 3 * 2**14, 2**17])
def test_grid_takes_powers_of_two_and_three_times_them(n):
    assert _is_grid_size(n)
    assert PeriodicGrid(n=n, period=10.0, k0_multiple=1).n == n


@pytest.mark.parametrize("n", [-16, 0, 1, 2, 8, 12, 15, 17, 20, 40, 80, 100,
                               320, 1000, 1025, 5 * 1024, 9 * 1024])
def test_grid_refuses_other_sizes(n):
    # 5 2^k and 9 2^k, odd sizes, and 2^k or 3 2^k below 16
    assert not _is_grid_size(n)
    with pytest.raises(ConfigError, match=r"2\^k or 3\*2\^k and >= 16"):
        PeriodicGrid(n=n, period=10.0, k0_multiple=1)


#: the benchmark's 24 ansatz levels, each on the next power of two
#: >= 30 m(mu)
_ANSATZ_MUS = np.geomspace(5e-4, 4e-3, 24).tolist()


def _ansatz_grid(mu, c, crit):
    m = suggest_carrier_multiple(c, crit, mu)
    return make_grid(1 << (30 * m - 1).bit_length(), crit.k0, m)


def test_carrier_grid_is_the_smallest_size_above_the_third_harmonic(
        bench_coeffs, bench_crit):
    grids = [make_grid(n, bench_crit.k0,
                       suggest_carrier_multiple(bench_coeffs, bench_crit, mu))
             for mu, n in _SWEEP_PINS]
    grids += [_ansatz_grid(mu, bench_coeffs, bench_crit)
              for mu in _ANSATZ_MUS]
    for grid in grids:
        n_c, m = grid.carrier_grid.n, grid.k0_multiple
        assert n_c == min(k for k in range(16, grid.n)
                          if _is_grid_size(k) and k // 2 > 3 * m)
    # the sweep's carrier grids are three times powers of two, 3/4 of the
    # power of two above, and so are 14 of the 24 ansatz levels'
    assert [g.carrier_grid.n for g in grids[:3]] == [768, 1536, 3072]
    assert sum(g.carrier_grid.n % 3 == 0 for g in grids[3:]) == 14


def test_eps_of_mu_matches_the_power_of_two_carrier_grid(
        monkeypatch, bench_coeffs, bench_crit):
    # the root of mu(eps) = mu does not depend on which grid above the third
    # harmonic holds the test profile: the 24 ansatz levels' roots on the
    # carrier grid match those on the power of two above 6 m
    for mu in _ANSATZ_MUS:
        grid = _ansatz_grid(mu, bench_coeffs, bench_crit)
        eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
        n_c = grid.carrier_grid.n
        pow2 = make_grid(n_c if n_c % 3 else 4 * n_c // 3, bench_crit.k0,
                         grid.k0_multiple)
        with monkeypatch.context() as patch:
            patch.setattr(PeriodicGrid, "carrier_grid", property(lambda g: g))
            eps_pow2 = eps_of_mu(BENCH, bench_coeffs, bench_crit, pow2, mu)
        assert abs(eps / eps_pow2 - 1.0) <= 1e-13


def _counted_inversion(monkeypatch, p, c, crit, mu, n):
    """eps_of_mu on the suggested grid, with its mu(eps) values counted,
    and the roundtrip error |mu(eps)/mu - 1|."""
    from gcwaves import fieldops
    grid = make_grid(n, crit.k0, suggest_carrier_multiple(c, crit, mu))
    calls = []
    monkeypatch.setattr(fieldops, "mu_of_eps",
                        lambda *args: calls.append(args) or mu_of_eps(*args))
    eps = eps_of_mu(p, c, crit, grid, mu)
    monkeypatch.undo()
    return len(calls), abs(mu_of_eps(p, c, crit, grid, eps) / mu - 1.0)


@pytest.mark.parametrize("mu, budget", [(1e-3, 3), (2e-3, 3), (4e-3, 4)])
def test_eps_of_mu_cost_and_accuracy(monkeypatch, bench_coeffs, bench_crit,
                                     mu, budget):
    # the cubic model brackets the root after one value; bracketing
    # blindly took 5, 5 and 6 values
    calls, roundtrip = _counted_inversion(monkeypatch, BENCH, bench_coeffs,
                                          bench_crit, mu, 4096)
    assert calls <= budget
    assert roundtrip <= 1e-12


@pytest.mark.parametrize("mu, n, values", [
    # the cubic model puts the secant point of the first two values
    # within half an ulp of the root, so a third would only re-read rounding
    (5e-4, 8192, 2), (8e-4, 4096, 2),
    # the extremes of the oracle's jittered level near 1e-3 read 0.65 ulp
    # and above, so they keep the third value
    (0.98e-3, 4096, 3), (1.02e-3, 4096, 3),
])
def test_eps_of_mu_stops_within_half_an_ulp(monkeypatch, bench_coeffs,
                                            bench_crit, mu, n, values):
    calls, roundtrip = _counted_inversion(monkeypatch, BENCH, bench_coeffs,
                                          bench_crit, mu, n)
    assert calls == values
    assert roundtrip <= 1e-15


def test_eps_of_mu_cost_near_resonance(monkeypatch, resonant_coeffs,
                                       resonant_crit):
    # kappa mu^2 is 4% here, so the model step misses the root by more;
    # bracketing blindly took 9 values
    from conftest import NEAR_RESONANT
    calls, roundtrip = _counted_inversion(monkeypatch, NEAR_RESONANT,
                                          resonant_coeffs, resonant_crit,
                                          4e-4, 4096)
    assert calls < 9
    assert roundtrip <= 1e-12


def test_eps_of_mu_widens_the_bracket(monkeypatch):
    # at this Valid, focusing configuration both model probes overshoot
    # mu = 5e-3 at the suggested carrier multiple 211, so only a rung of
    # _LADDER brackets the root; without the rungs the search raises
    # RangeError
    from gcwaves import fieldops
    p, mu = Params(0.2, 0.05, 0.05), 5e-3
    rep = find_critical(p)
    crit, c = rep.crit, compute_coefficients(p, rep.crit)
    assert rep.verdict == "Valid" and c.focusing
    assert suggest_carrier_multiple(c, crit, mu) == 211
    grid = make_grid(2048, crit.k0, 211)
    values = []
    monkeypatch.setattr(fieldops, "mu_of_eps", lambda *args: (
        values.append(mu_of_eps(*args)) or values[-1]))
    eps = eps_of_mu(p, c, crit, grid, mu)
    monkeypatch.undo()
    assert len(values) > 2 and min(values[:2]) > mu
    assert abs(mu_of_eps(p, c, crit, grid, eps) / mu - 1.0) <= 1e-12


def test_eps_of_mu_widens_the_bracket_above(monkeypatch, bench_coeffs,
                                           bench_crit):
    # a synthetic increasing law mu(eps) = eps + k1 eps^3 + k2 eps^5, with
    # k1 mu^2 = -0.02 and k2 mu^4 = -0.01, lies below mu at eps0 = mu and at
    # the cubic model's root, so only the rung at 1.06 mu brackets the root
    from gcwaves import fieldops
    mu = 2e-3
    k1, k2 = -0.02 / mu**2, -0.01 / mu**4
    grid = make_grid(4096, bench_crit.k0,
                     suggest_carrier_multiple(bench_coeffs, bench_crit, mu))

    probes = []

    def law(eps):
        return eps + k1 * eps**3 + k2 * eps**5

    def probe(p, c, crit, grid, eps):
        probes.append(eps)
        return law(eps)
    monkeypatch.setattr(fieldops, "mu_of_eps", probe)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    assert all(law(e) < mu for e in probes[:2])
    assert 1.06 * mu in probes
    assert abs(law(eps) / mu - 1.0) <= 1e-12
    assert min(probes) >= wrap_floor(bench_coeffs, grid)


@pytest.mark.parametrize("regime, mu, n", [
    ("resonant", 2e-4, 4096),
    ("resonant", 2e-4, 8192),
    ("bench", 0.015, 4096),
    # the last correction, 4e-19, rounds onto the bracket end, where a
    # bisection fallback returned the bracket's midpoint (1.4e-3)
    ("bench", 0.0030925396224699784, 8192),
])
def test_eps_of_mu_returns_the_plain_secant_point(monkeypatch, request,
                                                  regime, mu, n):
    # an Illinois step halves one end value; returned as the root, that
    # step doubled the last correction and read 2.5e-14 in the first three
    from conftest import NEAR_RESONANT
    p = {"resonant": NEAR_RESONANT, "bench": BENCH}[regime]
    crit = request.getfixturevalue(f"{regime}_crit")
    c = request.getfixturevalue(f"{regime}_coeffs")
    _, roundtrip = _counted_inversion(monkeypatch, p, c, crit, mu, n)
    assert roundtrip <= 1e-15


# eps, J_mu and L_trunc of eta* at the benchmark's sweep levels, bit for
# bit: the descent's iteration counts react to a rounding change in
# eta*, so a change to the value path that reorders no arithmetic (how
# transforms are batched, which tables are reused) must keep them.
_SWEEP_PINS = {
    (4e-3, 4096): (0.003978691002095242, 0.004789088922404098,
                   0.006679598898753045),
    (2e-3, 8192): (0.0019973240493673695, 0.0023951581419858793,
                   0.0033397994493765226),
    (1e-3, 16384): (0.0009996654682541937, 0.0011976527351596766,
                    0.0016698997246882613),
}


@pytest.mark.parametrize("mu, n", list(_SWEEP_PINS))
def test_value_path_is_bit_identical(bench_coeffs, bench_crit, mu, n):
    # the full-grid samples of eta*, without the carrier-grid copy that
    # value-only calls would read instead
    grid = make_grid(n, bench_crit.k0,
                     suggest_carrier_multiple(bench_coeffs, bench_crit, mu))
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    bd = eval_J(ProfilePair(grid, eta.eta_under, eta.eta_over), BENCH, mu)
    assert (eps, bd.j_mu, bd.l_trunc) == _SWEEP_PINS[mu, n]


def test_gradient_is_bit_identical(bench_coeffs, bench_crit):
    # grad_J of eta* at mu = 4e-3 on its carrier grid (n = 768), taken
    # like _SWEEP_PINS: the SHA-256 of the two gradient rows' bytes
    mu, n = 4e-3, 4096
    eps, j_mu, _ = _SWEEP_PINS[mu, n]
    grid = make_grid(
        n, bench_crit.k0,
        suggest_carrier_multiple(bench_coeffs, bench_crit, mu)).carrier_grid
    assert grid.n == 768
    eta = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    G, bd = grad_J(eta, BENCH, mu)
    assert G.shape == (2, grid.n // 2 + 1) and not G[:, -1].any()
    gu, gv = np.fft.irfft(G, grid.n)
    digest = hashlib.sha256(np.stack([gu, gv]).tobytes()).hexdigest()
    assert digest == ("29342638d341ac7891e18873868e4ca6"
                      "092afca4464036c25a2ff3d662368fe1")
    assert bd.j_mu == j_mu


def test_eta_star_on_its_carrier_grid_takes_no_transform(
        bench_coeffs, bench_crit, fft_record):
    # the samples are returned as computed; only a finer grid transforms
    mu, n = 4e-3, 4096
    grid = make_grid(
        n, bench_crit.k0,
        suggest_carrier_multiple(bench_coeffs, bench_crit, mu)).carrier_grid
    fft_record.clear()
    eta = build_eta_star(bench_coeffs, bench_crit, _SWEEP_PINS[mu, n][0],
                         grid, BENCH)
    assert fft_record == []
    assert eta.carrier_copy is None


def test_mu_of_eps_takes_one_value_stage(bench_coeffs, bench_crit,
                                         fft_record):
    # building eta* on the carrier grid adds nothing to the value stage's
    # 17 rows in 3 calls
    mu, n = 4e-3, 4096
    grid = make_grid(n, bench_crit.k0,
                     suggest_carrier_multiple(bench_coeffs, bench_crit, mu))
    fft_record.clear()
    mu_of_eps(BENCH, bench_coeffs, bench_crit, grid, _SWEEP_PINS[mu, n][0])
    assert fft_rows_calls(fft_record) == (17, 3)


def _full_grid_eta_star(coeffs, crit, mu, n):
    grid = make_grid(n, crit.k0, suggest_carrier_multiple(coeffs, crit, mu))
    eps = eps_of_mu(BENCH, coeffs, crit, grid, mu)
    return build_eta_star(coeffs, crit, eps, grid, BENCH), eps


def test_eval_J_of_eta_star_transforms_carrier_grid_rows(
        bench_coeffs, bench_crit, fft_record):
    # n = 16384 at mu = 1e-3 has a carrier grid of 3072 points: the value
    # stage transforms the pair there and its padded fields at 2 * 3072
    eta, _ = _full_grid_eta_star(bench_coeffs, bench_crit, 1e-3, 16384)
    assert eta.carrier_copy.grid.n == 3072
    fft_record.clear()
    eval_J(eta, BENCH, 1e-3)
    assert sorted(fft_lengths(fft_record)) == [3072, 2 * 3072, 2 * 3072]
    fft_record.clear()
    eval_L_trunc(eta, BENCH)
    assert max(fft_lengths(fft_record)) == 2 * 3072


@pytest.mark.parametrize("mu, n", [*_SWEEP_PINS, (5e-4, 32768)])
def test_value_calls_read_the_carrier_grid_copy(bench_coeffs, bench_crit,
                                                mu, n):
    eta, eps = _full_grid_eta_star(bench_coeffs, bench_crit, mu, n)
    coarse = eta.grid.carrier_grid
    assert coarse.n < n
    on_coarse = build_eta_star(bench_coeffs, bench_crit, eps, coarse, BENCH)
    assert on_coarse.carrier_copy is None
    np.testing.assert_array_equal(eta.carrier_copy.eta_under,
                                  on_coarse.eta_under)
    np.testing.assert_array_equal(eta.carrier_copy.eta_over,
                                  on_coarse.eta_over)
    bd = eval_J(eta, BENCH, mu)
    assert bd == eval_J(on_coarse, BENCH, mu)
    assert eval_L_trunc(eta, BENCH) == eval_L_trunc(on_coarse, BENCH)
    fine = eval_J(ProfilePair(eta.grid, eta.eta_under, eta.eta_over),
                  BENCH, mu)
    for key in ("j_mu", "k_total", "l_trunc"):
        assert abs(getattr(bd, key) / getattr(fine, key) - 1.0) <= 1e-15


def test_eta_star_with_a_copy_is_read_only(bench_coeffs, bench_crit):
    eta, _ = _full_grid_eta_star(bench_coeffs, bench_crit, 4e-3, 4096)
    for a in (eta.eta_under, eta.eta_over, eta.carrier_copy.eta_under,
              eta.carrier_copy.eta_over):
        with pytest.raises(ValueError):
            a[0] = 1.0
        with pytest.raises(ValueError):
            a *= 2.0
    # a pair built from the same arrays has no copy, and none can be passed
    assert ProfilePair(eta.grid, eta.eta_under, eta.eta_over).carrier_copy \
        is None
    with pytest.raises(TypeError):
        ProfilePair(eta.grid, eta.eta_under, eta.eta_over,
                    carrier_copy=eta.carrier_copy)


def test_gradient_of_full_grid_eta_star_ignores_the_copy(bench_coeffs,
                                                         bench_crit):
    # grad_J of eta* at mu = 4e-3 on the full n = 4096 grid, pinned like
    # test_gradient_is_bit_identical; its breakdown is the full-grid one
    mu, n = 4e-3, 4096
    eta, _ = _full_grid_eta_star(bench_coeffs, bench_crit, mu, n)
    G, bd = grad_J(eta, BENCH, mu)
    assert G.shape == (2, n // 2 + 1)
    gu, gv = np.fft.irfft(G, n)
    digest = hashlib.sha256(np.stack([gu, gv]).tobytes()).hexdigest()
    assert digest == ("77f48bbfd7ea4140b6e94c17c999a0d6"
                      "951b452e9d7b676d605c2ccdb27e0f54")
    assert bd == eval_J(ProfilePair(eta.grid, eta.eta_under, eta.eta_over),
                        BENCH, mu)
    assert bd.j_mu == _SWEEP_PINS[mu, n][1]


def test_wrap_floor_is_the_eta_star_test(bench_coeffs, bench_crit):
    grid = make_grid(1024, bench_crit.k0, 400)
    eps_min = wrap_floor(bench_coeffs, grid)
    build_eta_star(bench_coeffs, bench_crit, eps_min, grid, BENCH)
    with pytest.raises(GeometryError):
        build_eta_star(bench_coeffs, bench_crit, eps_min * (1.0 - 1e-12),
                       grid, BENCH)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.0, -1.0])
def test_mu_outside_the_positive_reals_refused(bench_coeffs, bench_crit, mu):
    # suggest_carrier_multiple failed on nan with a bare ValueError,
    # returned m = 1 at inf and overflowed at 0; eps_of_mu called a nan
    # "eps", and blamed the bracket at inf
    with pytest.raises(RangeError, match=f"positive and finite, got {mu}"):
        suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(1024, bench_crit.k0, 8)
    with pytest.raises(RangeError, match=f"positive and finite, got {mu}"):
        eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)


def test_eps_of_mu_past_the_small_amplitude_range(bench_coeffs, bench_crit):
    # mu(eps) at the suggested grid's wrap floor already exceeds mu = 0.02;
    # a trial below the floor would raise GeometryError instead
    mu = 0.02
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(4096, bench_crit.k0, m)
    ratio = wrap_floor(bench_coeffs, grid) / mu
    with pytest.raises(RangeError, match="wrap floor") as err:
        eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    assert f"mu={mu:g}" in str(err.value)
    assert f"{ratio:.4f} mu" in str(err.value)
    assert f"carrier multiple {m}" in str(err.value)


def test_cubic_law_near_resonant_regime(resonant_crit, resonant_coeffs):
    # close to the long-wave resonance the coefficients are large and the
    # cubic law of the test profile sets in only near mu ~ 1e-4; the
    # deviation from I_NLS still halves as mu halves
    from conftest import NEAR_RESONANT
    crit, c = resonant_crit, resonant_coeffs
    rels = []
    for mu, n in ((4e-4, 4096), (2e-4, 8192)):
        m = suggest_carrier_multiple(c, crit, mu)
        g = make_grid(n, crit.k0, m)
        eps = eps_of_mu(NEAR_RESONANT, c, crit, g, mu)
        star = build_eta_star(c, crit, eps, g, NEAR_RESONANT)
        bd = eval_J(star, NEAR_RESONANT, mu)
        dev = (bd.j_mu - 2.0 * crit.nu0 * mu) / mu**3
        rels.append(abs(dev - c.i_nls) / abs(c.i_nls))
    assert rels[1] == pytest.approx(0.5 * rels[0], rel=0.25)
    assert rels[1] < 0.2


def test_mu_over_eps_limit(bench_coeffs, bench_crit):
    # mu(eps)/eps -> 1, with quadratic-in-eps convergence
    ratios = []
    for eps in (4e-3, 2e-3, 1e-3):
        m = suggest_carrier_multiple(bench_coeffs, bench_crit, eps)
        grid = make_grid(4096, bench_crit.k0, m)
        ratios.append(mu_of_eps(BENCH, bench_coeffs, bench_crit, grid, eps) / eps)
    errs = [abs(r - 1.0) for r in ratios]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-3


# ---------------------------------------------------------------------------
# serialization


def test_profile_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(13)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.03),
               random_band_profile(rng, grid.n, 0.03))
    path = tmp_path / "profile.csv"
    write_profile_csv(path, eta)
    back = read_profile_csv(path)
    assert back.grid.n == grid.n
    assert back.grid.period == pytest.approx(grid.period, rel=1e-16)
    assert np.array_equal(back.eta_under, eta.eta_under)
    assert np.array_equal(back.eta_over, eta.eta_over)
    header = path.read_text().splitlines()[0]
    assert header == "x,eta_under,eta_over"


def test_grid_validation():
    with pytest.raises(ConfigError):
        PeriodicGrid(n=100, period=10.0, k0_multiple=1)
    with pytest.raises(ConfigError):
        PeriodicGrid(n=8, period=10.0, k0_multiple=1)
    # nan made dx nan, and inf made every wavenumber 0
    for period in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError,
                           match=f"positive and finite, got {period}"):
            PeriodicGrid(n=64, period=period, k0_multiple=1)
    for m in (0, -3):
        with pytest.raises(ConfigError, match="carrier wavelength"):
            PeriodicGrid(n=64, period=10.0, k0_multiple=m)
    # a carrier at or above the Nyquist index aliases
    for m in (32, 273):
        with pytest.raises(ConfigError, match="Nyquist index 32"):
            PeriodicGrid(n=64, period=10.0, k0_multiple=m)
    assert PeriodicGrid(n=64, period=10.0, k0_multiple=31).k0_multiple == 31
