import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gcwaves import ProfilePair, StripGrid, dno
from gcwaves.cli import oracle_suite
from gcwaves.dispersion import eval_fbar, eval_PF
from gcwaves.dno import LowerSolver, UpperSolver, eval_L_exact
from gcwaves.errors import (ConfigError, GeometryError, RangeError,
                            SolvabilityError)
from gcwaves.fieldops import (PeriodicGrid, _is_grid_size, eval_L_trunc,
                              make_grid, suggest_carrier_multiple)
from gcwaves.minimizer import MinimizeConfig, minimize

from conftest import BENCH, fft_lengths, random_band_profile


K0 = 1.2679365323136993  # bench carrier scale, fixes all test geometry
PERIOD = 2.0 * np.pi * 4 / K0
NX = 256


@pytest.fixture(scope="module")
def strip():
    return StripGrid(nx=NX, ny=128, depth_under=14.0 / K0, cg_tol=1e-12)


@pytest.fixture(scope="module")
def lower(strip):
    return LowerSolver(strip, PERIOD)


@pytest.fixture(scope="module")
def upper(strip):
    return UpperSolver(strip, PERIOD)


@pytest.fixture(scope="module")
def x():
    return PERIOD / NX * np.arange(NX)


def test_strip_validation():
    # nx takes the sizes a PeriodicGrid takes, 2^k and 3 2^k >= 16
    for nx in (100, 320):
        with pytest.raises(ConfigError, match=f"nx must .*got {nx}"):
            StripGrid(nx=nx, ny=64, depth_under=5.0)
    with pytest.raises(ConfigError):
        StripGrid(nx=128, ny=8, depth_under=5.0)
    for depth in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="depth_under must be positive"):
            StripGrid(nx=128, ny=64, depth_under=depth)


@pytest.mark.parametrize("period", [float("nan"), 0.0, -1.0, float("inf")])
def test_strip_refuses_period_outside_the_positive_reals(period):
    # flat_K_matrix failed each a different way: nan ran 3999 NaN CG
    # iterations, 0 divided by zero, -1 read a mean flux and inf warned
    strip = StripGrid(nx=128, ny=48, depth_under=5.0)
    kept = strip.solvers(PERIOD)
    match = f"period must be positive and finite, got {period}"
    with pytest.raises(ConfigError, match=match):
        strip.solvers(period)
    with pytest.raises(ConfigError, match=match):
        dno.flat_K_matrix(K0, BENCH, strip, period)
    # the refused period leaves the kept pair
    assert strip.solvers(PERIOD) is kept


@pytest.mark.parametrize("cg_tol", [0.0, -1.0, float("nan"), 1.0, 2.0])
def test_strip_refuses_cg_tol_outside_unit_interval(cg_tol):
    # 2.0 stopped CG at once with L 0.7% off, and 0 ran every iteration
    # before it raised that CG stalled
    with pytest.raises(ConfigError, match=f"cg_tol .*{cg_tol}"):
        StripGrid(nx=128, ny=64, depth_under=5.0, cg_tol=cg_tol)


@pytest.mark.parametrize("n", [NX // 2, 2 * NX])
def test_profile_off_the_strip_grid_refused(strip, n):
    g = PeriodicGrid(n=n, period=PERIOD, k0_multiple=4)
    eta = ProfilePair(g, 1e-2 * np.cos(K0 * g.x), np.zeros(n))
    with pytest.raises(ConfigError, match=f"n={n}"):
        eval_L_exact(eta, BENCH, strip)


@pytest.mark.parametrize("row", ["eta_under", "eta_over"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_non_finite_profile_refused_before_any_transform(strip, row, value,
                                                         fft_record):
    # NaN compares false, so a NaN sample passed every refusal: dx warned
    # twice and CG stopped on "curvature nan, not positive"
    g = PeriodicGrid(n=NX, period=PERIOD, k0_multiple=4)
    rows = {"eta_under": 1e-2 * np.cos(K0 * g.x), "eta_over": np.zeros(NX)}
    rows[row][[17, 40]] = value
    eta = ProfilePair(g, rows["eta_under"], rows["eta_over"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=f"row {row} holds a non-finite "
                           f"sample {value} at index 17$"):
            eval_L_exact(eta, BENCH, strip)
    assert fft_record == []


def test_flat_lower_inverts_modulus_multiplier(lower, x):
    for k in (K0, 2 * K0):
        trace = lower.solve_neumann(np.zeros(NX), np.cos(k * x))
        assert trace == pytest.approx(np.cos(k * x) / k, abs=1e-9 / k)


def test_lower_nonzero_mean_rejected(lower, x):
    with pytest.raises(SolvabilityError):
        lower.solve_neumann(np.zeros(NX), np.cos(K0 * x) + 0.1)


def test_lower_self_adjoint_and_positive(lower, x):
    rng = np.random.default_rng(21)
    slope = lower.dx(random_band_profile(rng, NX, 0.15)[None, :])[0]
    hx = PERIOD / NX
    for _ in range(10):
        psi1 = random_band_profile(rng, NX, 1.0)
        psi2 = random_band_profile(rng, NX, 1.0)
        psi1 -= psi1.mean()
        psi2 -= psi2.mean()
        n1 = lower.solve_neumann(slope, psi1)
        n2 = lower.solve_neumann(slope, psi2)
        ip12 = hx * float(np.sum(n1 * psi2))
        ip21 = hx * float(np.sum(n2 * psi1))
        assert ip12 == pytest.approx(ip21, rel=1e-8)
        self_e = hx * float(np.sum(n1 * psi1))
        assert self_e >= 0.0


def test_flat_upper_inverts_fbar(upper, x):
    flat = np.zeros((2, NX))
    for k in (K0, 2 * K0):
        data = np.cos(k * x)
        phi_i, phi_s = upper.solve_neumann(flat, flat, data, flat[0])
        pred = np.linalg.inv(eval_fbar(k)) @ np.array([1.0, 0.0])
        assert phi_i == pytest.approx(pred[0] * data, abs=1e-9)
        assert phi_s == pytest.approx(pred[1] * data, abs=1e-9)


def test_upper_compatibility_rejected(upper, x):
    flat = np.zeros((2, NX))
    with pytest.raises(SolvabilityError):
        upper.solve_neumann(flat, flat, np.cos(K0 * x) + 0.2, -np.cos(K0 * x))


def test_upper_pinch_off(upper, x):
    with pytest.raises(GeometryError):
        upper.solve_neumann(np.stack([0.5 * np.ones(NX), -0.5 * np.ones(NX)]),
                            np.zeros((2, NX)), np.cos(K0 * x), -np.cos(K0 * x))


def test_upper_self_adjoint_on_curved_geometry(upper, x):
    rng = np.random.default_rng(22)
    eta = np.stack([random_band_profile(rng, NX, 0.1),
                    random_band_profile(rng, NX, 0.1)])
    slopes = upper.dx(eta)
    hx = PERIOD / NX
    for _ in range(3):
        a_i = random_band_profile(rng, NX, 1.0)
        a_s = random_band_profile(rng, NX, 1.0)
        b_i = random_band_profile(rng, NX, 1.0)
        b_s = random_band_profile(rng, NX, 1.0)
        shift = (a_i.sum() + a_s.sum()) / (2 * NX)
        a_i, a_s = a_i - shift, a_s - shift
        shift = (b_i.sum() + b_s.sum()) / (2 * NX)
        b_i, b_s = b_i - shift, b_s - shift
        sa = upper.solve_neumann(eta, slopes, a_i, a_s)
        sb = upper.solve_neumann(eta, slopes, b_i, b_s)
        ip_ab = hx * float(np.sum(sa[0] * b_i + sa[1] * b_s))
        ip_ba = hx * float(np.sum(sb[0] * a_i + sb[1] * a_s))
        assert ip_ab == pytest.approx(ip_ba, rel=1e-8)


@pytest.fixture(scope="module")
def suite(strip):
    grid = PeriodicGrid(n=NX, period=PERIOD, k0_multiple=4)
    return oracle_suite(BENCH, K0, grid, strip)


def test_flat_symbols_match_dispersion_matrix(suite):
    assert suite["flat_symbol_max_abs_err"] <= 1e-8


def test_flat_symbols_match_on_three_times_a_power_of_two():
    nx = 3 * NX // 2
    strip = StripGrid(nx=nx, ny=128, depth_under=14.0 / K0, cg_tol=1e-12)
    for k in (K0, 2 * K0, 3 * K0):
        K = dno.flat_K_matrix(k, BENCH, strip, PERIOD)
        assert np.max(np.abs(K - eval_PF(k, BENCH)[1])) <= 1e-8


def test_oracle_checks_a_profile_on_three_times_a_power_of_two(
        bench_crit, bench_coeffs, fft_record):
    # at mu = 2e-3 the descent writes its profile on 3072 points, where
    # the oracle evaluates it; neither transforms at any other size than
    # 2^k or 3 2^k
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(8192, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged and r.eta.grid.n == 3072
    strip = StripGrid(nx=3072, ny=48, depth_under=12.0 / bench_crit.k0)
    l_exact = eval_L_exact(r.eta, BENCH, strip)
    lengths = set(fft_lengths(fft_record))
    assert {1536, 3072, 6144} <= lengths
    assert all(_is_grid_size(n) for n in lengths)
    l_trunc = sum(eval_L_trunc(r.eta, BENCH))
    assert abs(l_exact / l_trunc - 1.0) <= 5e-4


def test_vertical_resolution_spectral_convergence(x):
    # trace self-convergence under ny refinement on a curved geometry;
    # Chebyshev collocation should gain much more than second order
    eta = 0.15 * np.cos(K0 * x)
    psi = np.cos(K0 * x)
    def trace(ny):
        strip = StripGrid(nx=NX, ny=ny, depth_under=12.0 / K0, cg_tol=1e-13)
        op = LowerSolver(strip, PERIOD)
        return op.solve_neumann(op.dx(eta[None, :])[0], psi)

    ref = trace(160)
    errs = []
    for ny in (40, 56, 80):
        tr = trace(ny)
        errs.append(float(np.max(np.abs(tr - ref))))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    order = math.log(errs[0] / errs[2]) / math.log(80.0 / 40.0)
    assert order > 2.0


def test_depth_truncation_insensitivity(x):
    eta = ProfilePair(PeriodicGrid(n=NX, period=PERIOD, k0_multiple=4),
                      0.1 * np.cos(K0 * x), -0.05 * np.cos(K0 * x))
    depth = 6.0 / K0
    la = eval_L_exact(eta, BENCH, StripGrid(nx=NX, ny=128, depth_under=depth,
                                            cg_tol=1e-13))
    lb = eval_L_exact(eta, BENCH, StripGrid(nx=NX, ny=128,
                                            depth_under=2 * depth,
                                            cg_tol=1e-13))
    # evanescent bound with an O(1) constant, plus the solver floor
    assert abs(la - lb) <= 3.0 * math.exp(-2.0 * K0 * depth) * abs(lb) \
        + 1e-9 * abs(lb)


def test_L_exact_zero_and_positive(strip, x):
    g = PeriodicGrid(n=NX, period=PERIOD, k0_multiple=4)
    zero = ProfilePair(g, np.zeros(NX), np.zeros(NX))
    assert eval_L_exact(zero, BENCH, strip) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(23)
    for _ in range(3):
        eta = ProfilePair(g, random_band_profile(rng, NX, 0.08),
                          random_band_profile(rng, NX, 0.08))
        assert eval_L_exact(eta, BENCH, strip) > 0.0


def test_L_exact_approaches_l2_for_single_mode(strip, x):
    g = PeriodicGrid(n=NX, period=PERIOD, k0_multiple=4)
    a = 0.37536450188153053
    rels = []
    for A in (1e-2, 1e-3):
        eta = ProfilePair(g, A * np.cos(K0 * x), -a * A * np.cos(K0 * x))
        lex = eval_L_exact(eta, BENCH, strip)
        l2 = eval_L_trunc(eta, BENCH)[0]
        rels.append(abs(lex - l2) / l2)
        assert abs(lex - l2) / l2 <= 10.0 * A
    assert rels[1] < rels[0]


def test_truncation_order(suite):
    assert min(suite["truncation_slopes"]) >= 4.5


def test_solution_potential_shape(strip, lower, x):
    # the flux datum on the top row, as solve_neumann poses it
    q = lower.set_geometry(np.zeros(NX))
    b = np.zeros((strip.ny + 1, NX))
    b[0] = PERIOD / NX * np.cos(K0 * x)
    spectrum, _, rel = lower.solve(np.fft.rfft(b, axis=1), q, slice(None))
    assert spectrum.shape == (strip.ny + 1, NX // 2 + 1)
    assert rel <= strip.cg_tol
    potential = np.fft.irfft(spectrum, NX, axis=1)
    # the harmonic extension decays with depth
    top = float(np.max(np.abs(potential[0])))
    bottom = float(np.max(np.abs(potential[-1])))
    assert bottom < 1e-4 * top


def test_oracle_shares_no_code_with_the_truncation():
    # the oracle is the independent check of the truncated functionals: it
    # may take the parameter record, the grid types and the error classes,
    # but nothing that evaluates a symbol, a coefficient or a functional
    allowed = {
        "dispersion": {"Params"},
        "errors": None,
        "fieldops": {"PeriodicGrid", "ProfilePair", "_is_grid_size"},
    }
    tree = ast.parse(Path(dno.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "gcwaves" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gcwaves")):
            assert node.level == 1 and node.module in allowed, \
                ast.unparse(node)
            names = {a.name for a in node.names}
            if allowed[node.module] is not None:
                assert names <= allowed[node.module], ast.unparse(node)
