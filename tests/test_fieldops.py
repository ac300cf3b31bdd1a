import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import (Params, PeriodicGrid, ProfilePair, build_eta_star,
                     eps_of_mu, eval_J, eval_K, eval_L_trunc, eval_fbar,
                     grad_J, grad_K, grad_L_trunc, make_grid, mu_of_eps,
                     read_profile_csv, suggest_carrier_multiple,
                     write_profile_csv)
from gcwaves.dispersion import fbar_entries
from gcwaves.errors import ConfigError, GeometryError, OutOfConeError
from gcwaves.fieldops import _fbar_inverse_entries, zero_profile
from gcwaves.nls import soliton_shape

from conftest import BENCH, random_band_profile
from spectral_helpers import (apply_multiplier, eval_L_lower, eval_L_upper,
                              m_lower, m_upper)


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
    for A in (0.2, 0.1, 0.05):
        eta = pair(grid, A * u, 0.5 * A * u)
        kt, k2, k4 = eval_K(eta, BENCH)
        diffs.append(abs(kt - k2 - k4))
    s1 = math.log(diffs[0] / diffs[1]) / math.log(2.0)
    s2 = math.log(diffs[1] / diffs[2]) / math.log(2.0)
    assert s1 >= 5.5 and s2 >= 5.5  # sixth-order remainder


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
    rolled = eta.roll(shift)
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
            lambda e: grad_J(e, BENCH, 1e-3)[0])
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
    grid = PeriodicGrid(n=int(ref["n"]), period=float(ref["period"]))
    p = Params(*ref["params"].tolist())
    mu = float(ref["mu"])
    for i, (u, v) in enumerate(ref["eta"]):
        eta = pair(grid, u, v)
        (gu, gv), bd = grad_J(eta, p, mu)
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
    k = grid.k_pad
    d, o = fbar_entries(k)
    nd, no = _fbar_inverse_entries(k)
    assert (nd[0], no[0]) == (0.25, -0.25)
    assert k[-1] > 30.0
    assert np.max(np.abs(d[1:] * nd[1:] + o[1:] * no[1:] - 1.0)) <= 1e-14
    assert np.max(np.abs(d[1:] * no[1:] + o[1:] * nd[1:])) <= 1e-14


@pytest.fixture
def fft_rows(monkeypatch):
    """Count one-dimensional transforms; a batched (m, n) call counts m."""
    count = {"rows": 0}
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
        def counted(a, *args, _original=getattr(np.fft, name), **kwargs):
            a = np.asarray(a)
            count["rows"] += a.size // a.shape[-1]
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return count


def test_transform_counts(grid, fft_rows):
    rng = np.random.default_rng(15)
    eta = pair(grid, random_band_profile(rng, grid.n, 0.04),
               random_band_profile(rng, grid.n, 0.04))
    counts = {}
    for name, fn in (("grad_J", lambda: grad_J(eta, BENCH, 1e-3)),
                     ("eval_J", lambda: eval_J(eta, BENCH, 1e-3)),
                     ("eval_L_trunc", lambda: eval_L_trunc(eta, BENCH))):
        fft_rows["rows"] = 0
        fn()
        counts[name] = fft_rows["rows"]
    assert counts == {"grad_J": 35, "eval_J": 17, "eval_L_trunc": 17}


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
    eta = build_eta_star(bench_coeffs, bench_crit, 0.0, grid, BENCH)
    assert np.max(np.abs(eta.eta_under)) == 0.0


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


def test_eta_star_domain_too_small(bench_coeffs, bench_crit):
    grid = make_grid(256, bench_crit.k0, 4)
    with pytest.raises(GeometryError):
        build_eta_star(bench_coeffs, bench_crit, 1e-3, grid, BENCH)


def test_mu_eps_roundtrip(bench_coeffs, bench_crit):
    for eps in (1e-2, 1e-3):
        m = suggest_carrier_multiple(bench_coeffs, bench_crit, eps)
        grid = make_grid(4096, bench_crit.k0, m)
        mu = mu_of_eps(BENCH, bench_coeffs, bench_crit, grid, eps)
        back = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
        assert back == pytest.approx(eps, rel=1e-10)


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
        PeriodicGrid(n=100, period=10.0)
    with pytest.raises(ConfigError):
        PeriodicGrid(n=8, period=10.0)
    with pytest.raises(ConfigError):
        PeriodicGrid(n=64, period=-1.0)
