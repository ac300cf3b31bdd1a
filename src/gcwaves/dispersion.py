"""Linear dispersion analysis for the two-layer gravity-capillary problem.

The linearised problem couples an interface elevation and a surface
elevation through a 2x2 generalised eigenvalue problem

    (P(k) - nu^2 F(k)) v = 0,

whose smaller eigenvalue branch ``lambda_minus`` carries the slow waves.
This module owns the linear symbols: the depth-factor matrix F-bar(k),
P(k), F(k), their k-derivatives and g(k) = P(k) - nu0^2 F(k), each over
a scalar or an array of wavenumbers.  Every hyperbolic factor outside the
``dno`` oracle comes from the F-bar entries d = |k| coth|k| and
o = -|k|/sinh|k| of ``fbar_entries``.  It also evaluates the closed-form
eigenvalue branches, locates the global minimum of the slow branch as a
root of the closed-form slope lambda_minus', classifies it, and computes
the eigen-data (k0, nu0, v0 = (1, -a), lambda''(k0), A2) consumed by the
rest of the package in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RangeError, NumericalError

# Beyond this |k| the hyperbolic corrections coth|k|-1 and |k|/sinh|k|
# are below double precision (< 1e-25), while sinh itself overflows
# near 710.  Evaluate the asymptotic branch instead.
_K_HYPERBOLIC_CUTOFF = 30.0

#: a bracketed secant iteration stops once a step moves its iterate by
#: at most this fraction of it, and bisects after this many steps
_SECANT_REL_TOL = 1e-12
_SECANT_STEPS = 50

#: two local minima closer than this (in lambda_minus value) count as tied
DOUBLE_MIN_TOL = 1e-9

#: lambda''(k0) below 1e-6 * lambda_minus(k0) / k0^2 counts as degenerate
DEGENERACY_FACTOR = 1e-6


@dataclass(frozen=True)
class Params:
    """Dimensionless physical parameters of a two-layer configuration.

    Attributes
    ----------
    rho : float
        Density ratio (upper over lower), in (0, 1).
    beta_under : float
        Interfacial-tension coefficient, positive.
    beta_over : float
        Surface-tension coefficient, positive.
    """

    rho: float
    beta_under: float
    beta_over: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if self.beta_under <= 0.0 or self.beta_over <= 0.0:
            raise ConfigError(
                "surface/interfacial tension coefficients must be positive, "
                f"got beta_under={self.beta_under}, beta_over={self.beta_over}"
            )


@dataclass(frozen=True)
class CriticalPoint:
    """Slow-branch minimum data."""

    k0: float
    nu0: float
    a: float
    lambda2: float  # second derivative of lambda_minus at k0
    a2: float       # NLS dispersive coefficient
    assumption1_global: bool
    assumption1_nondeg: bool

    @property
    def v0(self) -> np.ndarray:
        return np.array([1.0, -self.a])


@dataclass(frozen=True)
class AssumptionReport:
    crit: CriticalPoint
    competing_minima: list = field(default_factory=list)
    verdict: str = "Valid"  # one of Valid, DoubleMinimum, Degenerate


def fbar_entries(k):
    """Entries (diag, off) of F-bar, the upper-layer depth-factor matrix
    [[diag, off], [off, diag]], at scalar or array k.

    diag = |k| coth|k| and off = -|k|/sinh|k|, with the analytic limit
    (1, -1) at k = 0 and the asymptotic values (|k|, 0) beyond the cutoff,
    so no entry overflows.
    """
    ak = np.abs(np.asarray(k, dtype=float))
    diag = np.ones_like(ak)
    off = np.full_like(ak, -1.0)
    hyp = (ak > 0.0) & (ak <= _K_HYPERBOLIC_CUTOFF)
    diag[hyp] = ak[hyp] / np.tanh(ak[hyp])
    off[hyp] = -ak[hyp] / np.sinh(ak[hyp])
    big = ak > _K_HYPERBOLIC_CUTOFF
    diag[big] = ak[big]
    off[big] = 0.0
    return diag, off


def _sym2(a, b, c) -> np.ndarray:
    """Stack entries into symmetric matrices [[a, b], [b, c]] of shape
    (..., 2, 2)."""
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def eval_fbar(k) -> np.ndarray:
    """F-bar(k) at scalar or array k, shape (..., 2, 2); k = 0 gives the
    analytic limit [[1, -1], [-1, 1]]."""
    diag, off = fbar_entries(k)
    return _sym2(diag, off, diag)


def _pf(k, p: Params):
    """P(k) and F(k) = diag(|k|, 0) + rho F-bar(k) at scalar or array k,
    each of shape (..., 2, 2).  F(0) is the finite (singular) limit."""
    ak = np.abs(np.asarray(k, dtype=float))
    diag, off = fbar_entries(ak)
    P = _sym2(1.0 - p.rho + p.beta_under * ak**2, np.zeros_like(ak),
              p.rho * (1.0 + p.beta_over * ak**2))
    F = _sym2(ak + p.rho * diag, p.rho * off, p.rho * diag)
    if not (np.isfinite(P).all() and np.isfinite(F).all()):
        raise RangeError(f"P/F overflowed at k={k}")
    return P, F


def _pf_derivatives(k, p: Params):
    """(P', F', P'', F'') at scalar or array k > 0, each (..., 2, 2).

    The F-bar entries (d, o) obey d' = (d - o^2)/k, o' = o (1 - d)/k,
    d'' = 2 o^2 (d - 1)/k^2 and o'' = o (d^2 + o^2 - 2 d)/k^2.
    """
    k = np.asarray(k, dtype=float)
    d, o = fbar_entries(k)
    d1, o1 = (d - o**2) / k, o * (1.0 - d) / k
    d2, o2 = 2.0 * o**2 * (d - 1.0) / k**2, o * (d**2 + o**2 - 2.0 * d) / k**2
    zero, one = np.zeros_like(k), np.ones_like(k)
    bu, bo = 2.0 * p.beta_under, 2.0 * p.rho * p.beta_over
    return (_sym2(bu * k, zero, bo * k),
            _sym2(1.0 + p.rho * d1, p.rho * o1, p.rho * d1),
            _sym2(bu * one, zero, bo * one), p.rho * _sym2(d2, o2, d2))


def eval_PF(k, p: Params):
    """Evaluate the dispersion matrices P(k) and F(k) for k != 0.

    P is diagonal with entries 1 - rho + beta_under k^2 and
    rho (1 + beta_over k^2); F carries the hyperbolic depth factors.
    Both are symmetric, of shape (..., 2, 2) for scalar or array k.
    """
    if np.any(np.asarray(k) == 0.0):
        raise RangeError("P/F are evaluated for k != 0 (F(0) is singular)")
    return _pf(k, p)


def _branches(k, p: Params):
    """lambda_minus, lambda_plus, the discriminant D and the slow
    eigenvector v (unnormalised, shape (..., 2)) at scalar or array k."""
    ak = np.abs(np.asarray(k, dtype=float))
    if np.any(ak == 0.0):
        raise RangeError("eigenvalues are evaluated for k != 0")
    d, o = fbar_entries(ak)
    t, sech = ak / d, -o / d
    p1 = 1.0 - p.rho + p.beta_under * ak**2
    q = 1.0 + p.beta_over * ak**2
    x = p1 - (t + p.rho) * q
    D = x * x + 4.0 * p.rho * sech**2 * p1 * q
    root = np.sqrt(D)
    denom = 2.0 * ak * (1.0 + p.rho * t)
    mean = (p1 + q * (t + p.rho)) / denom
    half = root / denom
    if not np.all(np.isfinite(mean + half)):
        raise RangeError(f"eigenvalue evaluation overflowed at k={k}")
    # v = (1, -a) up to scale, from whichever of the equal forms
    # a = 2 p1 sech / (sqrt(D) - x) = (sqrt(D) + x) / (2 rho q sech)
    # has no cancellation in its denominator
    v = np.where((x < 0.0)[..., None],
                 np.stack([root - x, -2.0 * p1 * sech], -1),
                 np.stack([2.0 * p.rho * q * sech, -(root + x)], -1))
    return mean - half, mean + half, D, v


def eval_lambda(k, p: Params):
    """Closed-form slow/fast eigenvalues of F(k)^{-1} P(k) at scalar or
    array k != 0.

    Returns
    -------
    (lambda_minus, lambda_plus, D)
        The two branches and the (positive) discriminant, each of the
        shape of k.
    """
    lm, lp, D, _ = _branches(k, p)
    return lm[()], lp[()], D[()]


def _slope(k, p: Params):
    """lambda_minus'(k) = v.(P' - lambda_minus F')v / v.Fv at scalar or
    array k > 0, with v the slow eigenvector."""
    lm, _, _, v = _branches(k, p)
    _, F = _pf(k, p)
    dP, dF, _, _ = _pf_derivatives(k, p)

    def quad(M):
        return np.einsum("...i,...ij,...j->...", v, M, v)
    return (quad(dP - lm[..., None, None] * dF) / quad(F))[()]


def eval_g(k, p: Params, nu0: float) -> np.ndarray:
    """g(k) = P(k) - nu0^2 F(k) at scalar or array k, shape (..., 2, 2).

    Symmetric, singular exactly at k = +-k0, and finite at k = 0, where
    F(k) -> rho [[1, -1], [-1, 1]].
    """
    P, F = _pf(k, p)
    return P - nu0**2 * F


def eval_a(p: Params, k0: float) -> float:
    """Second eigenvector component at the slow-branch minimum.

    v0 = (1, -a) spans the kernel of g(k0).  Evaluated in whichever
    rationalised form, 2 p1 sech k0 / (sqrt(D) - x) or
    (sqrt(D) + x) / (2 rho q sech k0), has no cancellation.  Always
    positive.
    """
    if k0 <= 0.0:
        raise RangeError("k0 must be positive")
    if k0 > _K_HYPERBOLIC_CUTOFF:
        raise RangeError(
            f"closed-form a is ill-conditioned for k0={k0} > {_K_HYPERBOLIC_CUTOFF}"
        )
    v = _branches(k0, p)[3]
    return float(-v[1] / v[0])


def eval_a2(p: Params, k0: float, nu0: float, a: float) -> float:
    """A2 = d^2/dk^2 [g(k) v0 . v0] at k0, that is v0 . g''(k0) v0."""
    _, _, d2P, d2F = _pf_derivatives(k0, p)
    v0 = np.array([1.0, -a])
    return float(v0 @ (d2P - nu0**2 * d2F) @ v0)


def _secant_root(f, a: float, b: float, fa: float, fb: float, x: float):
    """Root of f in the bracket (a, b), f(a) < 0 < f(b), by a
    bisection-safeguarded secant iteration started at x.

    Each step is the secant through the bracket ends, or the bisection
    where that leaves the bracket.  On a flat (near-multiple) root the
    secant steps shrink too slowly to converge, so after _SECANT_STEPS
    of them the iteration goes on by bisection alone.
    """
    for i in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        x_secant = (a * fb - b * fa) / (fb - fa)
        x_new = (x_secant if i < _SECANT_STEPS and a < x_secant < b
                 else 0.5 * (a + b))
        if abs(x_new - x) <= _SECANT_REL_TOL * x_new:
            return x_new
        x = x_new
    raise NumericalError("bracketed secant iteration did not converge")


def find_critical(
    p: Params,
    k_min: float = 1e-3,
    k_max: float = 1e3,
    samples: int = 4096,
) -> AssumptionReport:
    """Locate and classify the global minimum of the slow branch.

    Dense log-spaced scan; every local minimum of the scan is then
    refined to the root of the closed-form slope lambda_minus' between
    its two neighbours.  The global one fills a CriticalPoint, the others
    are screened for near-ties (double minima).  Deterministic for fixed
    inputs.
    """
    ks = np.geomspace(k_min, k_max, samples)
    lam = eval_lambda(ks, p)[0]

    interior = np.arange(1, samples - 1)
    is_min = (lam[interior] < lam[interior - 1]) & (lam[interior] <= lam[interior + 1])
    idxs = interior[is_min]
    if len(idxs) == 0 or lam.argmin() in (0, samples - 1):
        raise ConfigError(
            "no interior minimum of lambda_minus in the scan window "
            f"[{k_min}, {k_max}]; widen the window"
        )

    lo, hi = ks[idxs - 1], ks[idxs + 1]
    s_lo, s_hi = _slope(lo, p), _slope(hi, p)
    if np.any(s_lo >= 0.0) or np.any(s_hi <= 0.0):
        raise NumericalError(
            "the slope of lambda_minus keeps its sign across a scan minimum"
        )
    minima = []
    for i, a, b, fa, fb in zip(idxs, lo, hi, s_lo, s_hi):
        k_star = float(_secant_root(lambda k: _slope(k, p), a, b, fa, fb, ks[i]))
        minima.append((k_star, float(eval_lambda(k_star, p)[0])))
    minima.sort(key=lambda t: t[1])
    k0, lam0 = minima[0]

    # A near-degenerate basin is numerically flat, so refinement of adjacent
    # scan minima can land on near-tied points right next to k0; only count
    # competitors well separated in wavenumber (factor > e^0.35 ~ 1.42).
    competing = [
        (k, v) for k, v in minima[1:]
        if abs(v - lam0) <= DOUBLE_MIN_TOL and abs(math.log(k / k0)) > 0.35
    ]

    nu0 = math.sqrt(lam0)
    a = eval_a(p, k0)
    a2 = eval_a2(p, k0, nu0, a)
    # A2 = lambda'' F v0.v0 + 2 g v0'.v0' at k0, where lambda' = 0 and
    # v0' = (0, -a') with a = g11/g12 and g' = P' - nu0^2 F'
    (P, F), (dP, dF, _, _) = _pf(k0, p), _pf_derivatives(k0, p)
    g, dg = P - nu0**2 * F, dP - nu0**2 * dF
    da = (dg[0, 0] * g[0, 1] - g[0, 0] * dg[0, 1]) / g[0, 1] ** 2
    v0 = np.array([1.0, -a])
    lam2 = float((a2 - 2.0 * g[1, 1] * da**2) / (v0 @ F @ v0))

    nondeg = lam2 > DEGENERACY_FACTOR * lam0 / k0**2
    global_ok = not competing
    crit = CriticalPoint(
        k0=k0, nu0=nu0, a=a, lambda2=lam2, a2=a2,
        assumption1_global=global_ok, assumption1_nondeg=nondeg,
    )
    if not global_ok:
        verdict = "DoubleMinimum"
    elif not nondeg:
        verdict = "Degenerate"
    else:
        verdict = "Valid"
    return AssumptionReport(crit=crit, competing_minima=competing, verdict=verdict)


def asymptotic_slopes(p: Params):
    """Large-k slopes of lambda_-/|k| and lambda_+/|k|."""
    s = p.beta_under + (1.0 + p.rho) * p.beta_over
    d = abs(p.beta_under - (1.0 + p.rho) * p.beta_over)
    return (s - d) / (2.0 * (1.0 + p.rho)), (s + d) / (2.0 * (1.0 + p.rho))


def locate_branch_crossing(
    rho: float,
    beta_under: float,
    beta_lo: float,
    beta_hi: float,
    width: float = 1e-12,
    **scan_kwargs,
):
    """Bracket the beta_over value where the global slow-branch minimum jumps.

    Between beta_lo and beta_hi the argmin k0(beta_over) must jump between
    two separated wavenumber branches; bisection on which branch wins
    shrinks the bracket below ``width``.  Returns (lo, hi, report_at_mid).
    """
    def argmin_k(beta_over):
        rep = find_critical(Params(rho, beta_under, beta_over), **scan_kwargs)
        return rep.crit.k0, rep

    k_lo, _ = argmin_k(beta_lo)
    k_hi, _ = argmin_k(beta_hi)
    if abs(math.log(k_hi / k_lo)) < 0.5:
        raise ConfigError(
            "endpoints select the same minimum branch; no crossing "
            f"in [{beta_lo}, {beta_hi}]"
        )
    lo, hi = beta_lo, beta_hi
    rep_mid = None
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        k_mid, rep_mid = argmin_k(mid)
        if abs(math.log(k_mid / k_lo)) < abs(math.log(k_mid / k_hi)):
            lo = mid
        else:
            hi = mid
    return lo, hi, rep_mid


def refine_degenerate(p0: Params, k_guess: float = 1.0, tol: float = 3e-9):
    """Polish (rho, beta_under, beta_over) to a degenerate slow-branch minimum.

    Newton iteration on (lambda'(k*), lambda''(k*), lambda'''(k*)) = 0 at
    k* = k_guess with a finite-difference Jacobian.  Used to reproduce the
    degenerate-dispersion regime from coarsely rounded parameter values.
    The stopping tolerance sits just above the roundoff floor of the
    third-derivative stencil.
    """
    k = k_guess

    def derivs(q: Params):
        # fourth-order stencils: the minimum location is quartically flat,
        # so second-order differences are not accurate enough to pin it
        h = 3e-3 * k
        v = np.array([eval_lambda(k + j * h, q)[0] for j in range(-3, 4)])
        d1 = (-v[5] + 8 * v[4] - 8 * v[2] + v[1]) / (12 * h)
        d2 = (-v[5] + 16 * v[4] - 30 * v[3] + 16 * v[2] - v[1]) / (12 * h**2)
        d3 = (v[6] - 8 * v[5] + 13 * v[4] - 13 * v[2] + 8 * v[1] - v[0]) / (8 * h**3)
        return np.array([d1, d2, d3])

    x = np.array([p0.rho, p0.beta_under, p0.beta_over])
    best_x, best_r = x, np.inf
    stale = 0
    for _ in range(40):
        q = Params(*x)
        r = derivs(q)
        rnorm = float(np.max(np.abs(r)))
        if rnorm < best_r:
            best_x, best_r, stale = x, rnorm, 0
        else:
            stale += 1
        if best_r < tol or stale >= 3:
            break
        J = np.empty((3, 3))
        for j in range(3):
            dx = 1e-6 * max(abs(x[j]), 1e-3)
            xp = x.copy(); xp[j] += dx
            xm = x.copy(); xm[j] -= dx
            J[:, j] = (derivs(Params(*xp)) - derivs(Params(*xm))) / (2 * dx)
        step = np.linalg.solve(J, r)
        # Damp steps so the parameters stay admissible.
        lam = 1.0
        while True:
            xn = x - lam * step
            if 0 < xn[0] < 1 and xn[1] > 0 and xn[2] > 0:
                break
            lam /= 2.0
            if lam < 1e-6:
                raise NumericalError("degenerate refinement left the admissible set")
        x = xn
    if best_r > 100 * tol:
        raise NumericalError(
            f"degenerate refinement stalled at residual {best_r:.3e}"
        )
    return Params(*best_x)
