"""Constrained descent on the reduced wave-energy objective.

Minimizes J_mu = K + mu^2 / L_trunc over profile pairs on a periodic
grid, starting from the modulated-carrier test profile at the matched
amplitude eps(mu).  The method is limited-memory BFGS with Armijo
backtracking; a smooth quartic barrier keeps iterates inside the H^2
ball where the truncation is trusted, and the translation symmetry is
quotiented by recentring the interface envelope after every step
(recentring shifts the L-BFGS memory along, so the quasi-Newton model is
preserved exactly).

Each line-search trial is a value-only call: the objective evaluates J_mu
and the barrier on a ``StagedProfile`` through ``eval_J``, and only a
trial whose value did not rise, the only kind either acceptance rule can
take, goes on to ``grad_J``, which runs the gradient stage on the same
transforms.  The trial's value stage is dropped once it is accepted or
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dispersion import CriticalPoint, Params, eval_g
from .errors import ConfigError, NumericalError, OutOfConeError
from .fieldops import (FunctionalBreakdown, PeriodicGrid, ProfilePair,
                       StagedProfile, build_eta_star, eps_of_mu, eval_J,
                       grad_J, l2_norm_pair, _rfft, _symbols)
from .nls import NlsCoefficients

_MU_CEILING = 1e-2

#: curvature pairs kept by the L-BFGS two-loop recursion
_LBFGS_MEMORY = 12


@dataclass(frozen=True)
class MinimizeConfig:
    mu: float
    grid: PeriodicGrid
    max_iters: int = 2000
    #: stopping threshold on the discrete-L2 gradient norm.  The default
    #: 1e-5 * mu sits a factor ~3 above the double-precision plateau of
    #: the objective at n = 4096 (J-evaluation roundoff ~ 1e-17 absolute
    #: stalls line searches near grad norms of a few times 1e-6 * mu).
    grad_tol: float | None = None
    admissibility_M: float = 0.5
    use_exact_L_refinement: bool = False

    def __post_init__(self):
        if not 0.0 < self.mu < _MU_CEILING:
            raise ConfigError(
                f"mu must lie in (0, {_MU_CEILING}); got {self.mu}"
            )
        if self.grad_tol is not None and self.grad_tol <= 0.0:
            raise ConfigError("grad_tol must be positive")

    @property
    def tol(self) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-5 * self.mu


@dataclass
class MinimizeResult:
    eta: ProfilePair
    breakdown: FunctionalBreakdown
    speed: float
    iterations: int
    final_grad_norm: float
    boundary_hit: bool
    converged: bool
    history: list = field(default_factory=list)  # (iter, J, grad_norm, step)
    l_exact: float | None = None
    speed_exact: float | None = None
    #: objective values the descent took (line-search trials included)
    #: and the gradients among them
    value_evals: int = 0
    gradient_evals: int = 0


class _Trial(NamedTuple):
    """One evaluated point: its staged profile and the barrier's slope
    dV/ds in s = ||eta||_H2^2 (None inside the barrier-free ball)."""

    eta: StagedProfile
    dvds: float | None


class _Objective:
    """J_mu plus the H^2-ball barrier, in flat-vector form."""

    def __init__(self, p: Params, cfg: MinimizeConfig, crit: CriticalPoint,
                 c: NlsCoefficients):
        self.p = p
        self.cfg = cfg
        self.grid = cfg.grid
        self.h2_weight = _symbols(self.grid).h2_weight
        self.s0 = (0.9 * cfg.admissibility_M) ** 2
        self.s_edge = cfg.admissibility_M**2
        self.value_evals = self.gradient_evals = 0
        self._build_preconditioner(crit, c)

    def _build_preconditioner(self, crit: CriticalPoint, c: NlsCoefficients):
        """Inverse of the shifted quadratic Hessian model g(k) + sigma I.

        g(k) is the exact Hessian symbol of K2 - nu0^2 L2 and vanishes
        quadratically at the carrier, where the curvature is set by the
        nonlinear terms; the shift sigma = max(|I_NLS|, 1) mu matches their
        scale.
        """
        sigma = max(abs(c.i_nls), 1.0) * self.cfg.mu
        self._pre = np.linalg.inv(eval_g(self.grid.k, self.p, crit.nu0)
                                  + sigma * np.eye(2))

    def precondition(self, q: np.ndarray) -> np.ndarray:
        """Apply the inverse Hessian model to a flat gradient vector."""
        n = self.grid.n
        U, V = _rfft(q.reshape(2, n), n)
        P = self._pre
        out = np.fft.irfft(np.stack([P[:, 0, 0] * U + P[:, 0, 1] * V,
                                     P[:, 1, 0] * U + P[:, 1, 1] * V]), n)
        return out.ravel() / self.grid.dx

    def split(self, x: np.ndarray) -> ProfilePair:
        n = self.grid.n
        return ProfilePair(self.grid, x[:n], x[n:])

    def barrier(self, s: float):
        """Barrier value and slope dV/ds at s = ||eta||_H2^2."""
        if s <= self.s0:
            return 0.0, None
        w = (s - self.s0) / (self.s_edge - self.s0)
        return w**2, 2.0 * w / (self.s_edge - self.s0)

    def __call__(self, x: np.ndarray):
        """Value of J_mu plus the barrier at x, and the trial that holds
        its value stage for ``gradient``."""
        self.value_evals += 1
        eta = StagedProfile(self.split(x))
        bd = eval_J(eta, self.p, self.cfg.mu)
        bval, dvds = self.barrier(eta.h2_sq())
        return bd.j_mu + bval, _Trial(eta, dvds)

    def gradient(self, trial: _Trial):
        """Flat gradient at an evaluated trial, and its breakdown."""
        self.gradient_evals += 1
        (gu, gv), bd = grad_J(trial.eta, self.p, self.cfg.mu)
        if trial.dvds is not None:
            H = self.h2_weight * trial.eta.fields().UV
            h2u, h2v = np.fft.irfft(H, self.grid.n)
            gu += trial.dvds * 2.0 * h2u
            gv += trial.dvds * 2.0 * h2v
        return np.concatenate([gu, gv]) * self.grid.dx, bd


def _envelope_argmax(u: np.ndarray) -> int:
    U = np.fft.fft(u)
    n = len(u)
    U[n // 2 + 1:] = 0.0
    U[1: n // 2] *= 2.0
    return int(np.argmax(np.abs(np.fft.ifft(U))))


def _evenize(x: np.ndarray, n: int) -> np.ndarray:
    """Project a flat (u, v) vector onto profiles even about x = 0.

    Evenness quotients out both the translation zero mode and the
    carrier-phase quasi-zero mode, which otherwise stall the descent;
    an even critical point of the even-restricted functional is a
    critical point of the full one because reflection is a symmetry.
    """
    out = np.empty_like(x)
    for c0 in (0, n):
        u = x[c0:c0 + n]
        out[c0:c0 + n] = 0.5 * (u + np.roll(u[::-1], 1))
    return out


def minimize(p: Params, c: NlsCoefficients, crit: CriticalPoint,
             cfg: MinimizeConfig) -> MinimizeResult:
    """Descend J_mu from the matched test profile.

    Deterministic for fixed inputs.  Raises NumericalError (with the last
    iterate attached) if the line search fails away from the optimum;
    hitting max_iters returns converged=False rather than raising.
    """
    grid = cfg.grid
    eps = eps_of_mu(p, c, crit, grid, cfg.mu)
    eta0 = build_eta_star(c, crit, eps, grid, p)
    obj = _Objective(p, cfg, crit, c)

    n = grid.n
    x = _evenize(np.concatenate([eta0.eta_under, eta0.eta_over]), n)
    f, trial = obj(x)
    g, bd = obj.gradient(trial)
    g = _evenize(g, n)
    gnorm = l2_norm_pair(g[:n], g[n:], grid) / grid.dx
    history = [(0, f, gnorm, 0.0)]
    boundary_hit = trial.dvds is not None
    trial = None

    mem_s: list[np.ndarray] = []
    mem_y: list[np.ndarray] = []
    rho_mem: list[float] = []
    it = 0
    stalls = 0
    converged = gnorm <= cfg.tol

    while not converged and it < cfg.max_iters:
        it += 1
        # two-loop recursion with the spectral Hessian model as H0
        q = g.copy()
        alphas = []
        for s_v, y_v, r in zip(reversed(mem_s), reversed(mem_y),
                               reversed(rho_mem)):
            a = r * float(s_v @ q)
            alphas.append(a)
            q -= a * y_v
        q = obj.precondition(q)
        for s_v, y_v, r, a in zip(mem_s, mem_y, rho_mem, reversed(alphas)):
            b = r * float(y_v @ q)
            q += (a - b) * s_v
        d = -q
        slope = float(g @ d)
        if slope >= 0.0:
            d = -obj.precondition(g)
            slope = float(g @ d)

        t = 1.0
        x_new = f_new = g_new = bd_new = None
        accepted = barrier_hit = False
        for _ in range(50):
            x_try = _evenize(x + t * d, n)
            try:
                f_try, trial = obj(x_try)
            except OutOfConeError:
                t *= 0.5
                continue
            armijo = f_try <= f + 1e-4 * t * slope
            # near the optimum the Armijo decrease drowns in rounding;
            # also accept non-increasing steps that shrink the gradient.
            # A trial whose value rose passes neither test, so it is
            # rejected without a gradient.
            if armijo or f_try <= f:
                g_try, bd_try = obj.gradient(trial)
                g_try = _evenize(g_try, n)
                accepted = (armijo
                            or l2_norm_pair(g_try[:n], g_try[n:], grid)
                            / grid.dx < 0.99 * gnorm)
            barrier_hit = trial.dvds is not None
            trial = None  # drop the value stage before the next trial
            if accepted:
                x_new, f_new, g_new, bd_new = x_try, f_try, g_try, bd_try
                break
            t *= 0.5
        if not accepted:
            if mem_s:
                # stale curvature pairs can poison the direction this far
                # into the rounding regime; restart the memory
                mem_s.clear()
                mem_y.clear()
                rho_mem.clear()
                stalls += 1
                if stalls <= 8:
                    continue
            if gnorm <= 1e4 * cfg.tol:
                break  # stalled in the rounding plateau; report honestly
            raise NumericalError(
                f"line search failed at iteration {it} (grad norm {gnorm:.3e})",
                last_iterate=obj.split(x),
                diagnostics={"J": f, "grad_norm": gnorm},
            )

        s_v = x_new - x
        y_v = g_new - g
        sy = float(s_v @ y_v)
        if sy > 1e-300:
            mem_s.append(s_v)
            mem_y.append(y_v)
            rho_mem.append(1.0 / sy)
            if len(mem_s) > _LBFGS_MEMORY:
                mem_s.pop(0)
                mem_y.pop(0)
                rho_mem.pop(0)
        x, f, g, bd = x_new, f_new, g_new, bd_new
        boundary_hit = boundary_hit or barrier_hit

        # the translation group is pinned by evenness; recentre by a half
        # period (which preserves evenness) if the peak ever hops there
        if _envelope_argmax(x[:n]) not in (n // 2 - 1, n // 2, n // 2 + 1):
            shift = n // 2 - _envelope_argmax(x[:n])
            if abs(shift) == n // 2:
                roll = lambda v: np.concatenate(
                    [np.roll(v[:n], shift), np.roll(v[n:], shift)])
                x, g = roll(x), roll(g)
                mem_s = [roll(v) for v in mem_s]
                mem_y = [roll(v) for v in mem_y]

        gnorm = l2_norm_pair(g[:n], g[n:], grid) / grid.dx
        history.append((it, f, gnorm, t))
        converged = gnorm <= cfg.tol

    eta = obj.split(x)
    result = MinimizeResult(
        eta=eta, breakdown=bd, speed=cfg.mu / bd.l_trunc, iterations=it,
        final_grad_norm=gnorm, boundary_hit=boundary_hit,
        converged=converged, history=history,
        value_evals=obj.value_evals, gradient_evals=obj.gradient_evals,
    )
    if cfg.use_exact_L_refinement:
        _exact_refinement(result, p, cfg, obj, mem_s)
    return result


def _exact_refinement(result: MinimizeResult, p: Params, cfg: MinimizeConfig,
                      obj: _Objective, mem_s: list):
    """Re-evaluate the kinetic energy with the elliptic oracle and take a
    few corrected steps along the recent descent subspace.

    The correction gradient is approximated by central differences of
    J_exact along the (orthonormalised) last few descent directions.
    """
    from .dno import StripGrid, eval_L_exact

    grid = cfg.grid
    n = grid.n
    strip = StripGrid(nx=grid.n, ny=48, depth_under=12.0 / grid.carrier)

    def j_exact(eta: ProfilePair):
        bd = eval_J(eta, p, cfg.mu)
        l_ex = eval_L_exact(eta, p, strip)
        return bd.k_total + cfg.mu**2 / l_ex, l_ex

    x = np.concatenate([result.eta.eta_under, result.eta.eta_over])
    dirs = []
    for v in mem_s[-3:]:
        w = v.copy()
        for d in dirs:
            w -= float(w @ d) * d
        nw = float(np.sqrt(w @ w))
        if nw > 1e-14:
            dirs.append(w / nw)
    f0, l_ex = j_exact(obj.split(x))
    scale = math.sqrt(float(x @ x)) + 1e-30
    for _ in range(2):
        if not dirs:
            break
        h = 1e-6 * scale
        coeffs = []
        for d in dirs:
            fp, _ = j_exact(obj.split(x + h * d))
            fm, _ = j_exact(obj.split(x - h * d))
            coeffs.append((fp - fm) / (2.0 * h))
        gsub = np.zeros_like(x)
        for cval, d in zip(coeffs, dirs):
            gsub += cval * d
        gn = float(np.sqrt(gsub @ gsub))
        if gn < 1e-16:
            break
        t = h / gn * 10.0
        improved = False
        for _ in range(20):
            f_try, l_try = j_exact(obj.split(x - t * gsub))
            if f_try < f0:
                x = x - t * gsub
                f0, l_ex = f_try, l_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    eta = obj.split(x)
    result.eta = eta
    result.breakdown = eval_J(eta, p, cfg.mu)
    result.l_exact = l_ex
    result.speed_exact = cfg.mu / l_ex
    result.speed = result.speed_exact


@dataclass(frozen=True)
class SpeedFit:
    fitted: float
    predicted: float
    mus: tuple
    values: tuple       # (nu - nu0) / mu^2 per run
    residual_trend: tuple


def speed_expansion_check(runs: list[MinimizeResult], crit: CriticalPoint,
                          c: NlsCoefficients) -> SpeedFit:
    """Fit (nu_mu - nu0)/mu^2 against the quadratic speed-law constant.

    The prediction is 2 nu_NLS / (nu0 F(k0) v0 . v0) = nu_NLS alpha; the
    fit extrapolates the per-run ratios linearly in mu to remove the
    leading remainder.
    """
    if len(runs) < 3:
        raise ConfigError("need at least 3 runs at distinct mu")
    mus = np.array([r.breakdown.mu for r in runs])
    if len(set(mus.tolist())) < 3:
        raise ConfigError("runs must cover at least 3 distinct mu values")
    ys = np.array([(r.speed - crit.nu0) / r.breakdown.mu**2 for r in runs])
    A = np.vstack([np.ones_like(mus), mus]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    predicted = c.nu_nls * c.alpha  # = 2 nu_NLS / (nu0 F(k0) v0.v0)
    resid = ys - A @ coef
    return SpeedFit(fitted=float(coef[0]), predicted=float(predicted),
                    mus=tuple(mus.tolist()), values=tuple(ys.tolist()),
                    residual_trend=tuple(resid.tolist()))
