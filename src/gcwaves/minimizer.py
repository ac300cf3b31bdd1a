"""Constrained descent on the reduced wave-energy objective.

Minimizes J_mu = K + mu^2 / L_trunc over profile pairs on a periodic
grid, starting from the modulated-carrier test profile at the matched
amplitude eps(mu).  The method is limited-memory BFGS (20 curvature
pairs) with a backtracking Armijo line search, which falls back on the
approximate Wolfe conditions where J cannot resolve the decrease (Hager
& Zhang, SIAM J. Optim. 16, 2005).  A smooth quartic barrier
on the shell 0.9 M <= ||eta||_H2 penalises iterates that leave the H^2
ball of radius M where the truncation is trusted; it grows like a
polynomial and sets no wall, so a trial can pass M.  A run whose last
iterate lies inside the shell does not count as converged, since the
barrier's slope can cancel the gradient of J there.

The initial inverse Hessian of the two-loop recursion is the exact
inverse Hessian of the quadratic truncation K2 + mu^2 / L2 at the NLS
speed nu_m = nu0 + nu_NLS alpha mu^2 (``_Objective``).  The minimisers
are modulated carriers, so the true Hessian has two scales: O(mu^2)
curvature on the envelope modes near the carrier, from the symbol
P - nu_m^2 F, and O(1) curvature along the amplitude, from the rank-one
part of mu^2 / L2.  The model holds both, and the barrier's Hessian
inside its shell; the rank-one terms are inverted by Woodbury's
identity.

The descent is restricted to profiles even about x = 0, which quotients
out the translation and carrier-phase symmetries; an even critical point
of the restricted functional is a critical point of the full one because
reflection is a symmetry.  An even pair is held as its cosine spectrum,
the real rfft coefficients of its two rows, shape (2, n/2 + 1): the
iterate, the gradient (the even part of ``grad_J``'s, its real part),
the direction and the L-BFGS memory are such arrays, and dot products
carry the grid's Parseval weights (period / n^2) (1, 2, ..., 2, 1), which
makes them the L^2 products of the rows.  The Hessian model and the
prolongation are Fourier multipliers, so the descent transforms only to
stage a trial and to return a profile.

Each line-search trial is a value-only call: the objective evaluates J_mu
and the barrier on a ``StagedProfile`` through ``eval_J``, and only a
trial that passes the Armijo test goes on to ``grad_J``, which runs the
gradient stage on the same transforms and is accepted.  Near the
minimum the predicted decrease can fall below one ulp of J, so every
trial reads J to within a few ulps and the Armijo test cannot tell a
good step from a bad one.  A trial that fails it with |f_try - f| <=
4 ulp(f) therefore takes its gradient, and is accepted if its slope
along the direction meets the approximate Wolfe conditions
(2 delta - 1) phi'(0) >= phi'(t) >= sigma phi'(0), delta = 0.1 and
sigma = 0.9; the accepted step keeps that gradient.  The trial's value
stage is dropped once it is accepted or rejected.  A rejected trial
backtracks to the minimiser of the quadratic through the current value,
the slope and the trial's value, kept within [0.1 t, 0.5 t]; a trial
outside the truncation's cone halves the step.  A step that leaves the
iterate unchanged ends the ladder as ``stalled``.

The descent climbs a ladder of grids (nested iteration; Brandt, Math.
Comp. 1977).  The minimisers are modulated carriers whose j-th harmonic
is O(eps^j), so the grid whose Nyquist wavenumber first clears the third
carrier harmonic already holds the wave to within the stopping
tolerance.  The ladder starts on the coarsest such grid size, 2^k or
3 2^k (same period), ``PeriodicGrid.carrier_grid``, where ``eps_of_mu``
and the test profile are computed whatever the requested grid, and
climbs one grid size at a time, by 3/2 after a power of two and by 4/3
after 3 2^k, up to the requested grid itself.  Each grid descends to the
same gradient tolerance with an empty L-BFGS memory and its own
objective, built from p, mu, M, that grid, nu_m (computed once per run)
and its start: the iterate of the grid below, prolonged by zero-padding
its spectrum, which is exact for a band-limited iterate and keeps it
even.  ``max_iters`` is one budget for the whole ladder.  The first
grid above the carrier grid that takes no iteration ends the ladder,
and its gradient test is the run's verdict: content the grid below could
not hold would show up there as gradient, so a start that already meets
the tolerance confirms that the wave is resolved.  The idle grid is 3/2
or 4/3 of the grid below; prolonged to twice the grid below, the
profiles it confirmed on the benchmark's levels read the same gradient
norm to three digits.  The profile is that grid's iterate, on that
grid: the requested grid caps the ladder but does not set the profile's
size.  A run whose ladder ends on a grid that still iterated (the
requested grid, or the carrier grid alone) has no such check and
reports ``under_resolved``; its profile is on that last grid.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dispersion import CriticalPoint, Params, eval_PF
from .errors import ConfigError, NumericalError, OutOfConeError
from .fieldops import (FunctionalBreakdown, PeriodicGrid, ProfilePair,
                       StagedProfile, build_eta_star, eps_of_mu, eval_J,
                       grad_J, _clean, _next_grid_size)
from .nls import NlsCoefficients

_MU_CEILING = 1e-2

#: curvature pairs kept by the L-BFGS two-loop recursion
_LBFGS_MEMORY = 20

#: the approximate Wolfe conditions' delta and sigma (Hager & Zhang), and
#: the largest |f_try - f|, in ulps of f, at which a line search tests them
_WOLFE_DELTA, _WOLFE_SIGMA = 0.1, 0.9
_WOLFE_ULPS = 4


@dataclass(frozen=True)
class MinimizeConfig:
    mu: float
    #: the top grid the ladder may climb to (its cap)
    grid: PeriodicGrid
    max_iters: int = 2000
    #: stopping threshold on the discrete-L2 gradient norm, in units of
    #: mu (``tol``).  With the surface energy free of cancellation
    #: (``fieldops._k_parts``) and the approximate Wolfe test the descent
    #: reaches 1e-9 at mu = 5e-4.  On the benchmark's sweep grids (18/13/11
    #: iterations at the default 1e-5) 1e-6 costs 1.05x to 1.25x their
    #: iterations, and 1e-7 1.25x to 1.45x.
    grad_tol: float = 1e-5
    admissibility_M: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.mu < _MU_CEILING:
            raise ConfigError(
                f"mu must lie in (0, {_MU_CEILING}); got {self.mu}"
            )
        if not 0.0 < self.grad_tol < math.inf:
            raise ConfigError(
                f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.max_iters < 0:
            raise ConfigError(
                f"max_iters must be non-negative, got {self.max_iters}")
        if not self.admissibility_M > 0.0:
            raise ConfigError("admissibility_M must be positive")

    @property
    def tol(self) -> float:
        """The absolute threshold, grad_tol * mu."""
        return self.grad_tol * self.mu


@dataclass
class MinimizeResult:
    #: the profile on the grid that ended the ladder: the idle grid that
    #: confirmed it, or the last grid where none did (``levels[-1]``)
    eta: ProfilePair
    breakdown: FunctionalBreakdown
    speed: float
    iterations: int
    #: the gradient norm on the grid that ended the ladder, whose test is
    #: the verdict
    final_grad_norm: float
    boundary_hit: bool
    converged: bool
    #: None when converged, else why not, checked in this order:
    #: "stalled" (a line search left the iterate unchanged),
    #: "max_iters" (the budget ran out before the tolerance was met),
    #: "barrier_shell" (met inside the barrier's shell) or
    #: "under_resolved" (met outside it, but only on a grid that iterated)
    reason: str | None = None
    #: (iter, J, grad_norm, step, trials, n, approx_wolfe): trials counts
    #: the objective values evaluated since the previous row, n is the
    #: grid's size, and approx_wolfe is 1 where the approximate Wolfe test
    #: accepted the step, 0 where the Armijo test did; each grid's first
    #: row is its start, with step 0.0 and approx_wolfe 0
    history: list = field(default_factory=list)
    #: largest s = ||eta||_H2^2 of any trial the descent evaluated, line
    #: search trials included, on every grid of the ladder (report only:
    #: ``boundary_hit`` sees accepted points alone)
    max_trial_h2_sq: float | None = None
    #: per grid the ladder ran, coarsest first, up to the first idle one:
    #: {n, iterations, value_evals, gradient_evals, spectral_tail}, where
    #: value_evals counts the objective values the descent took on that
    #: grid (line-search trials included), gradient_evals the gradients
    #: among them, and spectral_tail is the largest |rfft coefficient| in
    #: the top 20% of the band over the largest one, the larger of the two
    #: components, read off the level's final spectrum (report only;
    #: exactly 0 on an idle grid, whose top quarter or third is the zero
    #: padding).  The run's totals are the sums over its levels
    levels: list = field(default_factory=list)
    #: J_mu, L_trunc and the speed with the period's missing k = 0 term
    #: restored (``line_corrected``): estimates of the values on the line
    j_mu_line: float | None = None
    l_trunc_line: float | None = None
    speed_line: float | None = None


class _Trial(NamedTuple):
    """One evaluated point: its staged profile and the barrier's slope
    dV/ds in s = ||eta||_H2^2 (None inside the barrier-free ball)."""

    eta: StagedProfile
    dvds: float | None


def _model_speed(crit: CriticalPoint, c: NlsCoefficients, mu: float) -> float:
    """The NLS speed nu0 + nu_NLS alpha mu^2 of the sech wave at mu,
    floored at 0: the speed the Hessian model is taken at."""
    return max(crit.nu0 + c.nu_nls * c.alpha * mu**2, 0.0)


class _Objective:
    """J_mu plus the H^2-ball barrier, on cosine spectra.

    Built from p, mu, the ball's radius M, the level's grid, the model
    speed nu_m and the level's start x0, a cosine spectrum.

    ``precondition`` inverts the exact Hessian of the quadratic
    truncation K2 + mu^2 / L2 at the NLS speed nu_m (``_model_speed``):
    the symbol g_nu(k) = P(k) - nu_m^2 F(k) plus the rank-one term
    (2 nu_m^2 / L2) l l^T with l = F eta, both taken at the level's start
    eta.  Since 0 <= nu_m < nu0 and g_nu0 is semi-definite, g_nu =
    g_nu0 + (nu0^2 - nu_m^2) F is definite at every mode, the carrier's
    included.  At an accepted iterate inside the barrier shell the model
    adds the barrier's Hessian 2 V'(s) h(k) + 4 V'' b b^T, with h the H^2
    symbol and b = h eta.  The rank-one terms are inverted by Woodbury's
    identity, so an application is one flat solve, a 2x2 multiply per
    mode, plus a dot and an axpy per column.  The model is built on the
    first ``precondition`` after each ``move``, so a level that takes no
    step builds none.
    """

    def __init__(self, p: Params, mu: float, M: float, grid: PeriodicGrid,
                 nu: float, x0: np.ndarray):
        self.p, self.mu, self.grid, self.sym = p, mu, grid, grid.symbols
        self.s0 = (0.9 * M) ** 2
        self.s_edge = M**2
        self.value_evals = self.gradient_evals = 0
        self.max_h2_sq = 0.0
        self._nu, self._x0 = nu, x0
        # the barrier's (shift, column) at the latest iterate, None outside
        # the shell, and the model there once built
        self._shell = self._pre = None

    @cached_property
    def _quadratic(self):
        """Entries of the symbol g_nu, and the column u of the rank-one
        term at the level's start, scaled so that the term is u u^T in the
        weighted products."""
        nu = self._nu
        P, F = eval_PF(self.grid.k, self.p)
        g = P - nu**2 * F
        ell = _clean(np.einsum("kij,jk->ik", F, self._x0), self.grid.n)
        l2 = 0.5 * self.dot(self._x0, ell)
        return ((g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]),
                nu * math.sqrt(2.0 / l2) * ell)

    @cached_property
    def _base(self):
        return self._model(0.0)

    def _model(self, shift, *columns):
        """Inverse symbol entries of g_nu + shift I, the flat solves Z of
        the columns U (the rank-one term's first), and the Woodbury
        capacitance (I + U.Z)^-1."""
        (a, b, c), ell = self._quadratic
        columns = (ell, *columns)
        a, c = a + shift, c + shift
        det = a * c - b * b
        inv = c / det, -b / det, a / det
        Z = [self._flat(inv, u) for u in columns]
        G = np.array([[self.dot(u, z) for z in Z] for u in columns])
        return inv, Z, np.linalg.inv(np.eye(len(Z)) + G)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        # einsum, not @: BLAS worker threads made single dot products
        # erratically slow on a busy 2-core host.  einsum's sum order
        # follows its operands' memory order, so ``_flat`` returns a new
        # C-ordered array whatever the order of its input (``ell`` is
        # Fortran-ordered)
        return float(np.einsum("k,ik,ik->", self.sym.parseval, a, b))

    @staticmethod
    def _flat(inv, q: np.ndarray) -> np.ndarray:
        """Apply the inverse symbol to a gradient, mode by mode, into a
        new C-ordered array."""
        a, b, c = inv
        U, V = q
        y = np.empty(q.shape)
        np.multiply(a, U, out=y[0])
        y[0] += b * V
        np.multiply(b, U, out=y[1])
        y[1] += c * V
        return y

    def precondition(self, q: np.ndarray) -> np.ndarray:
        """Apply the inverse Hessian model to a gradient."""
        if self._pre is None:
            self._pre = (self._base if self._shell is None
                         else self._model(*self._shell))
        inv, Z, S = self._pre
        y = self._flat(inv, q)
        r = S @ [self.dot(z, q) for z in Z]
        for z, rj in zip(Z, r):
            y -= rj * z
        return y

    def profile(self, x: np.ndarray) -> ProfilePair:
        """The even pair of the cosine spectrum x."""
        return ProfilePair(self.grid, *np.fft.irfft(x, self.grid.n))

    def barrier(self, s: float):
        """Barrier value and slope dV/ds at s = ||eta||_H2^2."""
        if s <= self.s0:
            return 0.0, None
        w = (s - self.s0) / (self.s_edge - self.s0)
        return w**2, 2.0 * w / (self.s_edge - self.s0)

    def __call__(self, x: np.ndarray):
        """Value of J_mu plus the barrier at the cosine spectrum x, and
        the trial that holds its value stage for ``gradient``."""
        self.value_evals += 1
        eta = StagedProfile(self.grid, _clean(x.copy(), self.grid.n))
        bd = eval_J(eta, self.p, self.mu)
        s = eta.h2_sq()
        self.max_h2_sq = max(self.max_h2_sq, s)
        bval, dvds = self.barrier(s)
        return bd.j_mu + bval, _Trial(eta, dvds)

    def gradient(self, trial: _Trial):
        """Gradient at an evaluated trial, its breakdown, and the
        barrier's Hessian terms there (None outside the shell), which
        ``move`` hands to the model if the trial becomes the iterate."""
        self.gradient_evals += 1
        G, bd = grad_J(trial.eta, self.p, self.mu)
        g = G.real.copy()
        shell = None
        if trial.dvds is not None:
            b = self.sym.h2_weight * trial.eta.UV
            g += trial.dvds * 2.0 * b
            # V'' = 2 / (s_edge - s0)^2, so sqrt(4 V'') = 2 sqrt(2) / width
            scale = 2.0 * math.sqrt(2.0) / (self.s_edge - self.s0)
            shell = (2.0 * trial.dvds * self.sym.h2_weight, scale * b)
        return g, bd, shell

    def move(self, shell):
        """Take the barrier's Hessian terms ``shell`` (from ``gradient``)
        at the descent's new iterate into the model."""
        self._shell, self._pre = shell, None


def _spectral_tail(X: np.ndarray) -> float:
    """Largest |coefficient| of the two rows' rfft spectra X in the top
    20% of the band over the largest one, the larger of the two
    components."""
    a = np.abs(X)
    top = a[:, int(0.8 * (a.shape[1] - 1)):].max(axis=1)
    return float(np.max(top / a.max(axis=1)))


def line_corrected(bd: FunctionalBreakdown, p: Params, period: float):
    """The (J_mu, L_trunc, speed) of a localised wave on the line, from
    its breakdown on a period: the periodic values with the missing k = 0
    term of the kinetic energy restored.

    On the line, the upper layer's quartic integrand tends to a finite,
    nonzero limit as q -> 0, through the (1, 1) part of W, about i q S
    with S = int (u B1 + v B2) = 2 l2_upper, against Fbar^-1's 2 / q^2;
    the periodic energy is a Riemann sum over q = 2 pi j / P whose j = 0
    term has no (1, 1) part, so it misses dL = rho S^2 / (2 P).  The
    corrected L is L + dL, J_mu falls by (mu / L)^2 dL, to first order
    in dL like the estimate itself, whose residual is O(1/P^2), and the
    speed is mu over the corrected L.  The periodic values stay as they
    are: they are exact for the periodic problem, which the oracle
    checks.
    """
    dL = 2.0 * p.rho * bd.l2_upper**2 / period
    l_line = bd.l_trunc + dL
    return (bd.j_mu - (bd.mu / bd.l_trunc) ** 2 * dL, l_line,
            bd.mu / l_line)


def _ladder(grid: PeriodicGrid) -> list[PeriodicGrid]:
    """Grids the descent may climb, coarsest first: the carrier grid
    (``PeriodicGrid.carrier_grid``) and every grid size above it
    (``fieldops._next_grid_size``, steps of 3/2 and 4/3) up to the
    requested grid itself, which caps the ladder and is its top rung.
    The ladder is ``[grid]`` alone where that grid is its own carrier
    grid.  ``minimize`` stops at the first grid above the carrier grid
    that takes no iteration."""
    grids = [grid.carrier_grid]
    while grids[-1] is not grid:
        n = _next_grid_size(grids[-1].n)
        grids.append(grid if n >= grid.n else replace(grid, n=n))
    return grids


def _prolong(x: np.ndarray, n_to: int) -> np.ndarray:
    """Cosine spectrum on n_to samples of the band-limited interpolant of
    the rows of the cosine spectrum x (same period): x without its Nyquist
    mode, zero-padded and scaled by the ratio of the sizes."""
    m = x.shape[-1] - 1
    out = np.zeros((2, n_to // 2 + 1))
    out[:, :m] = x[:, :m] * (n_to / (2 * m))
    return out


class _Level(NamedTuple):
    """Where the descent on one grid stopped."""

    x: np.ndarray
    gnorm: float
    bd: FunctionalBreakdown
    iterations: int
    #: None at the tolerance outside the barrier's shell, else
    #: "max_iters" or "barrier_shell" (``MinimizeResult.reason``)
    reason: str | None
    boundary_hit: bool


def minimize(p: Params, c: NlsCoefficients, crit: CriticalPoint,
             cfg: MinimizeConfig) -> MinimizeResult:
    """Descend J_mu from the matched test profile, up the grid ladder,
    until a grid above the carrier grid takes no iteration.

    That grid's gradient test is the verdict, and the profile is its
    iterate, on that grid, which confirmed it: the requested grid caps
    the ladder, and a run that reaches it without an idle grid, or stops
    short, returns its last grid's iterate.  Deterministic for fixed
    inputs.  Raises NumericalError (with the last iterate attached) if a
    line search fails; stalling, hitting max_iters, stopping in the
    barrier's shell or ending the ladder on a grid that still iterated
    returns converged=False, with its ``reason``, rather than raising.
    ``c`` and ``crit`` give the start eta*(eps(mu)) and nu_m; ``cfg``
    gives mu, M, the requested grid (the ladder's cap), the tolerance
    and the budget.
    """
    grids = _ladder(cfg.grid)
    eps = eps_of_mu(p, c, crit, grids[0], cfg.mu)
    eta0 = build_eta_star(c, crit, eps, grids[0], p)
    nu = _model_speed(crit, c, cfg.mu)
    x = np.fft.rfft(np.stack([eta0.eta_under, eta0.eta_over])).real
    history: list = []
    levels: list = []
    it = 0
    boundary_hit = False
    max_h2_sq = 0.0
    for i, grid in enumerate(grids):
        if i:
            x = _prolong(x, grid.n)
        obj = _Objective(p, cfg.mu, cfg.admissibility_M, grid, nu, x)
        level = _descend(obj, x, it, cfg.tol, cfg.max_iters, history)
        # an idle grid above the carrier grid confirms the one below
        confirmed = i > 0 and level.iterations == it
        levels.append({"n": grid.n, "iterations": level.iterations - it,
                       "value_evals": obj.value_evals,
                       "gradient_evals": obj.gradient_evals,
                       "spectral_tail": _spectral_tail(level.x)})
        x, it = level.x, level.iterations
        boundary_hit = boundary_hit or level.boundary_hit
        max_h2_sq = max(max_h2_sq, obj.max_h2_sq)
        if confirmed or level.reason == "stalled":
            break

    reason = level.reason or (None if confirmed else "under_resolved")
    j_line, l_line, speed_line = line_corrected(level.bd, p, grid.period)
    return MinimizeResult(
        eta=obj.profile(x), breakdown=level.bd,
        speed=cfg.mu / level.bd.l_trunc, iterations=it,
        final_grad_norm=level.gnorm, boundary_hit=boundary_hit,
        converged=reason is None, reason=reason, history=history,
        max_trial_h2_sq=max_h2_sq, levels=levels,
        j_mu_line=j_line, l_trunc_line=l_line, speed_line=speed_line,
    )


def _descend(obj: _Objective, x: np.ndarray, it: int, tol: float,
             max_iters: int, history: list) -> _Level:
    """L-BFGS descent on the objective's grid from the cosine spectrum x,
    with an empty memory, until the gradient norm reaches ``tol`` or the
    iteration count ``it``, shared by all grids, reaches the run's budget
    ``max_iters``, or a line search leaves x unchanged (``stalled``).
    Appends its rows to ``history``.  The level has converged (its
    ``reason`` is None) if it stopped at the tolerance outside the
    barrier's shell, where no barrier slope can cancel that of J."""
    dot, n = obj.dot, obj.grid.n

    f, trial = obj(x)
    g, bd, shell = obj.gradient(trial)
    obj.move(shell)
    gnorm = math.sqrt(dot(g, g))
    history.append((it, f, gnorm, 0.0, obj.value_evals, n, 0))
    logged_evals = obj.value_evals
    in_shell = boundary_hit = trial.dvds is not None
    trial = None

    # (s, y, 1 / s.y) per curvature pair, oldest first
    memory: deque = deque(maxlen=_LBFGS_MEMORY)
    at_tol = gnorm <= tol
    stalled = False

    while not at_tol and it < max_iters:
        it += 1
        # two-loop recursion with the spectral Hessian model as H0
        q = g.copy()
        alphas = []
        for s_v, y_v, r in reversed(memory):
            a = r * dot(s_v, q)
            alphas.append(a)
            q -= a * y_v
        q = obj.precondition(q)
        for (s_v, y_v, r), a in zip(memory, reversed(alphas)):
            b = r * dot(y_v, q)
            q += (a - b) * s_v
        d = -q
        slope = dot(g, d)
        if slope >= 0.0:
            d = -obj.precondition(g)
            slope = dot(g, d)

        t = 1.0
        wolfe = None  # the trial's gradient, where that test accepts it
        for _ in range(50):
            x_try = x + t * d
            try:
                f_try, trial = obj(x_try)
            except OutOfConeError:
                t *= 0.5
                continue
            if f_try <= f + 1e-4 * t * slope:
                break
            if abs(f_try - f) <= _WOLFE_ULPS * math.ulp(f):
                # J cannot resolve the decrease: judge the trial by its
                # slope (the approximate Wolfe conditions)
                wolfe = obj.gradient(trial)
                if ((2.0 * _WOLFE_DELTA - 1.0) * slope >= dot(wolfe[0], d)
                        >= _WOLFE_SIGMA * slope):
                    break
                wolfe = None
            trial = None  # drop the value stage before the next trial
            # minimiser of the quadratic through f, the slope and f_try,
            # safeguarded (Nocedal & Wright, section 3.5)
            t_q = -slope * t * t / (2.0 * (f_try - f - slope * t))
            t = min(max(t_q, 0.1 * t), 0.5 * t)
        else:
            raise NumericalError(
                f"line search failed at iteration {it} (grad norm {gnorm:.3e})",
                last_iterate=obj.profile(x),
                diagnostics={"J": f, "grad_norm": gnorm, "n": n},
            )

        if np.array_equal(x_try, x):
            stalled = True
            history.append((it, f, gnorm, t, obj.value_evals - logged_evals,
                            n, 0))
            break
        g_new, bd, shell = (obj.gradient(trial) if wolfe is None
                            else wolfe)
        obj.move(shell)
        in_shell = trial.dvds is not None
        boundary_hit = boundary_hit or in_shell
        trial = None
        s_v = x_try - x
        y_v = g_new - g
        sy = dot(s_v, y_v)
        if sy > 1e-300:
            memory.append((s_v, y_v, 1.0 / sy))
        x, f, g = x_try, f_try, g_new
        gnorm = math.sqrt(dot(g, g))
        history.append((it, f, gnorm, t, obj.value_evals - logged_evals, n,
                        int(wolfe is not None)))
        logged_evals = obj.value_evals
        at_tol = gnorm <= tol

    reason = ("stalled" if stalled else "max_iters" if not at_tol
              else "barrier_shell" if in_shell else None)
    return _Level(x, gnorm, bd, it, reason, boundary_hit)


@dataclass(frozen=True)
class SpeedFit:
    fitted: float
    predicted: float
    mus: tuple
    values: tuple       # (nu - nu0) / mu^2 per run


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
    return SpeedFit(fitted=float(coef[0]), predicted=float(predicted),
                    mus=tuple(mus.tolist()), values=tuple(ys.tolist()))
