import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcwaves import Params, eval_lambda, find_critical
from gcwaves.dispersion import (eval_PF, eval_a, eval_g, fbar_entries,
                                locate_branch_crossing, refine_degenerate)
from gcwaves.errors import ConfigError, RangeError

from conftest import BENCH, DEGENERATE_SEED, NEAR_RESONANT


def test_P_exact_entries():
    P, _ = eval_PF(1.0, NEAR_RESONANT)
    assert P == pytest.approx(np.array([[1.5, 0.0], [0.0, 0.6]]), abs=1e-15)


def test_F_against_high_precision_values():
    # frozen arbitrary-precision evaluations of the same formula at k = 1
    _, F = eval_PF(1.0, NEAR_RESONANT)
    assert F[0, 0] == pytest.approx(1.6565176427496656518, rel=1e-15)
    assert F[0, 1] == pytest.approx(-0.42545906411966077257, rel=1e-15)
    assert F[1, 0] == F[0, 1]
    assert F[1, 1] == pytest.approx(0.65651764274966565182, rel=1e-15)


def test_F_small_k_limit():
    _, F = eval_PF(1e-10, NEAR_RESONANT)
    lim = NEAR_RESONANT.rho * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert F == pytest.approx(lim, abs=1e-9)


def test_k_zero_rejected():
    # the eigenvalues have no k = 0 value; P and F take their finite limit
    with pytest.raises(RangeError):
        eval_lambda(0.0, NEAR_RESONANT)
    rho = NEAR_RESONANT.rho
    P, F = eval_PF(0.0, NEAR_RESONANT)
    assert P.tolist() == [[1.0 - rho, 0.0], [0.0, rho]]
    assert F.tolist() == [[rho, -rho], [-rho, rho]]


@given(k=st.floats(min_value=1e-6, max_value=1e6,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_branches_ordered_and_D_positive(k):
    lm, lp, D = eval_lambda(k, NEAR_RESONANT)
    assert D > 0.0
    assert lm < lp
    assert math.isfinite(lm) and math.isfinite(lp)


def test_branch_gap_on_dense_grid():
    ks = np.geomspace(1e-3, 1e3, 10_000)
    for k in ks:
        lm, lp, D = eval_lambda(float(k), NEAR_RESONANT)
        assert D > 0.0 and lm < lp


def test_eigenvalues_match_direct_diagonalization():
    for k in (0.3, 1.0, 10.0, 25.0):
        P, F = eval_PF(k, NEAR_RESONANT)
        w = np.sort(np.linalg.eigvals(np.linalg.solve(F, P)))
        lm, lp, _ = eval_lambda(k, NEAR_RESONANT)
        assert lm == pytest.approx(w[0], rel=1e-12)
        assert lp == pytest.approx(w[1], rel=1e-12)


def test_small_k_constant_and_slope():
    lm, _, _ = eval_lambda(1e-6, NEAR_RESONANT)
    assert lm == pytest.approx(1.0 - NEAR_RESONANT.rho, rel=1e-5)
    l1 = eval_lambda(1e-4, NEAR_RESONANT)[0]
    l2 = eval_lambda(1e-2, NEAR_RESONANT)[0]
    secant = (l2 - l1) / (1e-2 - 1e-4)
    expected = -NEAR_RESONANT.rho * (1.0 - NEAR_RESONANT.rho)
    assert secant == pytest.approx(expected, rel=0.05)


def asymptotic_slopes(p: Params):
    """Large-k slopes of lambda_-/|k| and lambda_+/|k|."""
    s = p.beta_under + (1.0 + p.rho) * p.beta_over
    d = abs(p.beta_under - (1.0 + p.rho) * p.beta_over)
    return (s - d) / (2.0 * (1.0 + p.rho)), (s + d) / (2.0 * (1.0 + p.rho))


def test_large_k_asymptotic_slopes():
    slo, shi = asymptotic_slopes(NEAR_RESONANT)
    errs = []
    for k in (1e2, 1e3):
        lm, lp, _ = eval_lambda(k, NEAR_RESONANT)
        errs.append((abs(lm / k - slo) / slo, abs(lp / k - shi) / shi))
    assert errs[1][0] < errs[0][0]
    assert errs[1][1] < errs[0][1]
    assert errs[1][0] < 1e-2 and errs[1][1] < 1e-2


def test_find_critical_resonant_valid_and_deterministic(resonant_report):
    assert resonant_report.verdict == "Valid"
    crit = resonant_report.crit
    assert crit.assumption1_global and crit.assumption1_nondeg
    again = find_critical(NEAR_RESONANT)
    assert again.crit.k0 == crit.k0
    assert again.crit.a2 == crit.a2


def test_find_critical_against_brute_scan(resonant_crit):
    ks = np.geomspace(0.01, 10.0, 200_001)
    lams = eval_lambda(ks, NEAR_RESONANT)[0]
    k_brute = ks[np.argmin(lams)]
    assert resonant_crit.k0 == pytest.approx(k_brute, rel=1e-4)
    assert resonant_crit.nu0**2 == pytest.approx(np.min(lams), rel=1e-10)


def test_scan_window_error():
    with pytest.raises(ConfigError):
        find_critical(NEAR_RESONANT, k_min=1e-3, k_max=1e-2, samples=64)


@pytest.mark.parametrize("window", [
    {"k_min": 0.0}, {"k_min": -1.0}, {"k_min": 10.0, "k_max": 1.0},
    {"samples": 2},
    # k_max = inf passed the check, and the scan overflowed with three
    # RuntimeWarnings before it failed
    {"k_max": math.inf},
], ids=["k_min_zero", "k_min_negative", "reversed", "two_samples",
        "k_max_infinite"])
def test_scan_window_validated(window):
    with pytest.raises(ConfigError, match="0 < k_min < k_max < inf"):
        find_critical(NEAR_RESONANT, **window)


@pytest.mark.parametrize("f", [eval_lambda, eval_PF])
def test_overflow_names_its_first_k(f):
    ks = np.array([1.0, -1e200, 1e300])
    with pytest.raises(RangeError, match=r"overflowed at k=-1e\+200$"):
        f(ks, NEAR_RESONANT)


def test_null_vector_property(resonant_crit):
    g = eval_g(resonant_crit.k0, NEAR_RESONANT, resonant_crit.nu0)
    resid = np.linalg.norm(g @ resonant_crit.v0)
    assert resid <= 1e-9 * np.linalg.norm(g)
    assert resonant_crit.a > 0.0


def test_a_matches_eigenvector_ratio(resonant_crit):
    # the slow branch is an interface mode at the resonant minimum and a
    # surface mode (a >> 1) at the global minimum near k = 4.24 of the
    # double-minimum configuration and beyond it
    double = Params(0.5, 1.0, 0.055108152548)
    for p, k0 in ((NEAR_RESONANT, resonant_crit.k0), (double, 4.2427685),
                  (double, 8.0), (double, 15.0), (double, 20.0)):
        P, F = eval_PF(k0, p)
        w, V = np.linalg.eig(np.linalg.solve(F, P))
        i = int(np.argmin(w))
        vec = V[:, i] / V[0, i]
        assert -eval_a(p, k0) == pytest.approx(vec[1], rel=1e-12)
    assert eval_a(NEAR_RESONANT, resonant_crit.k0) == resonant_crit.a


@given(rho=st.floats(0.05, 0.95), bu=st.floats(0.05, 2.0),
       bo=st.floats(0.05, 2.0))
@settings(max_examples=20, deadline=None)
def test_a_positive_at_located_minimum(rho, bu, bo):
    p = Params(rho, bu, bo)
    rep = find_critical(p)
    assert eval_a(p, rep.crit.k0) > 0.0


def test_g_symmetric_and_coercive_near_k0(resonant_crit):
    k0, nu0 = resonant_crit.k0, resonant_crit.nu0
    rng = np.random.default_rng(7)
    ratios = []
    for dk in np.linspace(-0.2 * k0, 0.2 * k0, 21):
        if abs(dk) < 1e-3 * k0:
            continue
        g = eval_g(k0 + dk, NEAR_RESONANT, nu0)
        assert g == pytest.approx(g.T, abs=1e-14)
        for _ in range(5):
            w = rng.standard_normal(2)
            w /= np.linalg.norm(w)
            ratios.append(float(g @ w @ w) / dk**2)
    assert min(ratios) > 0.0  # fitted coercivity constant is positive


def test_g_invertible_at_2k0_and_0(resonant_crit):
    g2 = eval_g(2.0 * resonant_crit.k0, NEAR_RESONANT, resonant_crit.nu0)
    g0 = eval_g(0.0, NEAR_RESONANT, resonant_crit.nu0)
    assert np.linalg.cond(g2) < 1e6
    assert np.linalg.cond(g0) < 1e6
    # both are positive definite away from the carrier
    assert np.all(np.linalg.eigvalsh(g2) > 0)
    assert np.all(np.linalg.eigvalsh(g0) > 0)


def test_fbar_entries_limit_values_and_cutoff():
    k = np.array([0.0, 1e-9, 1.0, 2.0, 30.0, 30.5, 800.0, 1e5])
    with np.errstate(all="raise"):
        diag, off = fbar_entries(k)
    assert diag[:2] == pytest.approx([1.0, 1.0], abs=1e-15)
    assert off[:2] == pytest.approx([-1.0, -1.0], abs=1e-15)
    # frozen arbitrary-precision evaluations of |k| coth|k|, -|k|/sinh|k|
    assert diag[2] == pytest.approx(1.313035285499331303636, rel=1e-15)
    assert off[2] == pytest.approx(-0.8509181282393215451338, rel=1e-15)
    assert diag[3] == pytest.approx(2.074629441455096191756, rel=1e-15)
    assert off[3] == pytest.approx(-0.5514411295435664155167, rel=1e-15)
    assert diag[4] == pytest.approx(30.0, rel=1e-15)
    # above the cutoff the asymptotic values are exact
    assert np.array_equal(diag[5:], k[5:])
    assert np.array_equal(off[5:], np.zeros(3))


def test_eval_g_array_matches_scalar_calls(resonant_crit):
    nu0 = resonant_crit.nu0
    k0 = resonant_crit.k0
    ks = np.array([0.0, 1e-9, 0.5 * k0, k0, -k0, 2.0 * k0, 30.0, 30.5, 800.0])
    stacked = np.array([eval_g(float(k), NEAR_RESONANT, nu0) for k in ks])
    assert eval_g(ks, NEAR_RESONANT, nu0).shape == (len(ks), 2, 2)
    assert np.array_equal(eval_g(ks, NEAR_RESONANT, nu0), stacked)


def test_eval_g_at_zero_closed_form(resonant_crit):
    r, n2 = NEAR_RESONANT.rho, resonant_crit.nu0**2
    closed = np.array([[1.0 - r - r * n2, r * n2], [r * n2, r - r * n2]])
    assert eval_g(0.0, NEAR_RESONANT, resonant_crit.nu0) == pytest.approx(
        closed, abs=1e-15)


def test_a2_positive_and_identity(resonant_crit):
    crit = resonant_crit
    assert crit.a2 > 0.0

    # identity A2 = lambda''(k0) F v0.v0 + 2 g(k0) v'(k0).v'(k0) with the
    # eigenvector curve differentiated numerically
    def a_of_k(k):
        P, F = eval_PF(k, NEAR_RESONANT)
        lam = eval_lambda(k, NEAR_RESONANT)[0]
        gk = P - lam * F
        return gk[0, 0] / gk[0, 1]

    h = 1e-5 * crit.k0
    ap = (a_of_k(crit.k0 + h) - a_of_k(crit.k0 - h)) / (2 * h)
    vprime = np.array([0.0, -ap])
    _, F = eval_PF(crit.k0, NEAR_RESONANT)
    g = eval_g(crit.k0, NEAR_RESONANT, crit.nu0)
    ident = crit.lambda2 * float(F @ crit.v0 @ crit.v0) \
        + 2.0 * float(g @ vprime @ vprime)
    assert ident == pytest.approx(crit.a2, rel=1e-6)


def test_a2_step_scaling(resonant_crit):
    # plain central differences converge at second order in the step
    crit = resonant_crit
    v0 = crit.v0

    def quad(k):
        return float(eval_g(k, NEAR_RESONANT, crit.nu0) @ v0 @ v0)

    def d2(h):
        return (quad(crit.k0 + h) - 2 * quad(crit.k0) + quad(crit.k0 - h)) / h**2

    errs = [abs(d2(c * crit.k0) - crit.a2) for c in (0.08, 0.04, 0.02)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.3)


@pytest.mark.parametrize("regime", ["bench", "resonant"])
def test_a_prime_matches_central_differences(request, regime):
    # central differences of the closed-form a converge to a'(k0) at
    # second order in the step
    p = {"bench": BENCH, "resonant": NEAR_RESONANT}[regime]
    crit = request.getfixturevalue(f"{regime}_crit")
    steps = [c * crit.k0 for c in (0.04, 0.02, 0.01)]
    errs = [abs((eval_a(p, crit.k0 + h) - eval_a(p, crit.k0 - h)) / (2 * h)
                - crit.a_prime) for h in steps]
    slopes = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    assert slopes == pytest.approx([2.0, 2.0], abs=0.01)


def test_double_minimum_bracketing():
    lo, hi, rep_mid = locate_branch_crossing(0.5, 1.0, 0.04, 0.07)
    assert hi - lo <= 1e-3
    assert 0.05 < lo < 0.06  # the transition sits near 0.055
    assert rep_mid.verdict == "DoubleMinimum"
    assert len(rep_mid.competing_minima) >= 1
    assert not rep_mid.crit.assumption1_global


def test_side_configurations_valid():
    assert find_critical(Params(0.5, 1.0, 0.04)).verdict == "Valid"
    assert find_critical(Params(0.5, 1.0, 0.07)).verdict == "Valid"


def test_degenerate_regime():
    q = refine_degenerate(Params(*DEGENERATE_SEED))
    # the polished values round back to the 3-decimal seed
    assert round(q.rho, 3) == DEGENERATE_SEED[0]
    assert round(q.beta_under, 3) == DEGENERATE_SEED[1]
    assert round(q.beta_over, 3) == DEGENERATE_SEED[2]
    rep = find_critical(q)
    assert rep.verdict == "Degenerate"
    assert abs(rep.crit.k0 - 1.0) <= 0.02
    assert not rep.crit.assumption1_nondeg


def test_flat_minimum_refines_in_few_slope_evaluations(monkeypatch):
    # the degenerate minimum is a near-triple root of lambda_minus'; plain
    # regula falsi keeps one bracket end for 50 steps there (83 slope
    # evaluations), the Illinois rule does not
    from gcwaves import dispersion
    q = refine_degenerate(Params(*DEGENERATE_SEED))
    calls = []
    slope = dispersion._slope

    def counted(k, p):
        calls.append(k)
        return slope(k, p)
    monkeypatch.setattr(dispersion, "_slope", counted)
    for samples in (512, 4096):
        calls.clear()
        rep = find_critical(q, samples=samples)
        assert rep.verdict == "Degenerate"
        assert len(calls) <= 30


# frozen 40-digit evaluations of (k0, nu0, a, lambda''(k0), A2): k0 is the
# root of lambda_minus', and the rest follow from the same closed forms
MINIMUM_DATA = {
    "BENCH": (BENCH, (1.2679370698119237722, 0.59883835251645516759,
                      0.37536408480510382241, 0.10770219523418677675,
                      0.30024868013598957831)),
    "NEAR_RESONANT": (NEAR_RESONANT, (0.23377756591115947938,
                                      0.6862179513262238728,
                                      0.87797481656324665228,
                                      1.0019761568995520008,
                                      2.0148205416700461068)),
}


@pytest.mark.parametrize("name", sorted(MINIMUM_DATA))
def test_minimum_data_against_high_precision_values(name):
    p, expected = MINIMUM_DATA[name]
    crit = find_critical(p).crit
    got = (crit.k0, crit.nu0, crit.a, crit.lambda2, crit.a2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_eval_lambda_array_matches_scalar_calls(resonant_crit):
    ks = np.array([1e-9, 1e-6, resonant_crit.k0, 30.0, 30.5, 800.0, 1e5])
    with np.errstate(all="raise"):
        branches = eval_lambda(ks, NEAR_RESONANT)
        stacked = np.array([eval_lambda(float(k), NEAR_RESONANT) for k in ks])
    for j in range(3):
        assert branches[j].shape == ks.shape
        assert np.array_equal(branches[j], stacked[:, j])
