"""Direct elliptic solves for the exact kinetic-energy functional.

The kinetic energy L(eta) = (1/2) int eta . K(eta) eta involves the
Neumann-Dirichlet maps of both fluid layers.  This module realizes those
maps by solving the flattened-domain boundary-value problems directly:
each layer is pulled back to a fixed strip, where the Laplacian becomes a
divergence-form operator with coefficient matrix I + Q depending on the
profiles.  Horizontal discretization is Fourier-spectral, vertical is
Chebyshev collocation with Clenshaw-Curtis quadrature (the energy form is
assembled from the quadrature, which keeps the operator symmetric
positive semi-definite); the linear systems are solved by conjugate
gradients preconditioned with the exact flat-geometry per-mode inverse.

On a flat strip Fourier mode k_j decouples into the vertical matrix
M_j = hx (k_j^2 W + D^T W D), W = diag(quadrature weights).  Every nonzero
mode shares one generalized eigenbasis, D^T W D V = W V Lambda with
V^T W V = I, so M_j^{-1} = V diag(1 / (hx (k_j^2 + Lambda))) V^T and the
preconditioner is two matrix products over all modes at once.  Mode 0,
the only one with a null direction (the constants), keeps a regularized
Cholesky factor.

The module is the independent oracle against which the spectral
truncations are validated, so it shares no code path with the truncated
functionals.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .dispersion import Params
from .errors import ConfigError, GeometryError, NumericalError, SolvabilityError
from .fieldops import PeriodicGrid, ProfilePair, _is_power_of_two

#: the upper layer counts as pinched off where its depth falls to this
_PINCH_OFF_H0 = 0.1


@dataclass(frozen=True)
class StripGrid:
    """Discretization of the flattened layer domains.

    nx periodic horizontal samples; ny Chebyshev intervals vertically;
    the lower layer is truncated at depth_under (homogeneous Neumann
    bottom), which must be deep enough that the evanescent tail
    exp(-2 k_min depth) of the slowest active mode is negligible.
    """

    nx: int
    ny: int
    depth_under: float
    cg_tol: float = 1e-10

    def __post_init__(self):
        if not _is_power_of_two(self.nx):
            raise ConfigError("nx must be a power of two")
        if self.ny < 32:
            raise ConfigError("need at least 32 vertical intervals")
        if self.depth_under <= 0.0:
            raise ConfigError("depth_under must be positive")


@dataclass
class DnoSolution:
    potential: np.ndarray       # (ny+1, nx), row 0 = top boundary
    y: np.ndarray
    traces: tuple               # lower: (top,); upper: (interface, surface)
    flux_residual: float
    cg_iterations: int
    relative_residual: float


def _cheb_nodes_diff(n: int):
    """Chebyshev-Lobatto nodes (descending) and differentiation matrix."""
    if n == 0:
        raise ConfigError("need at least one interval")
    j = np.arange(n + 1)
    t = np.cos(np.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    T = np.tile(t, (n + 1, 1)).T
    dT = T - T.T + np.eye(n + 1)
    D = np.outer(c, 1.0 / c) / dT
    D -= np.diag(D.sum(axis=1))
    return t, D


def _clenshaw_curtis(n: int):
    """Quadrature weights at the Lobatto nodes on [-1, 1]."""
    if n == 1:
        return np.array([1.0, 1.0])
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    for kk in range(1, n // 2):
        v -= 2.0 * np.cos(2.0 * kk * np.pi * np.arange(1, n) / n) / (4.0 * kk**2 - 1.0)
    if n % 2 == 0:
        v -= np.cos(np.pi * np.arange(1, n)) / (n**2 - 1.0)
    w[1:-1] = 2.0 * v / n
    w[0] = w[-1] = 1.0 / (n**2 - 1.0) if n % 2 == 0 else 1.0 / n**2
    return w


class _StripOperator:
    """Shared machinery: grid, derivatives, quadrature, flat preconditioner.

    The preconditioner inverts the flat-geometry operator mode by mode:
    the nonzero modes through the shared eigenbasis ``_V`` scaled by the
    inverse eigenvalues ``_inv_eig`` (one column per mode), mode 0 through
    the Cholesky factor ``_mode0`` of its regularized matrix.
    """

    def __init__(self, nx: int, period: float, ny: int, y_bot: float,
                 y_top: float, cg_tol: float):
        self.nx, self.period, self.ny = nx, period, ny
        self.cg_tol = cg_tol
        self.hx = period / nx
        t, D = _cheb_nodes_diff(ny)
        scale = 2.0 / (y_top - y_bot)
        self.y = y_bot + (t + 1.0) / scale
        self.D = D * scale
        self.wy = _clenshaw_curtis(ny) / scale
        self.k = 2.0 * np.pi / period * np.arange(nx // 2 + 1)
        self.ik = 1j * self.k
        self._build_flat_preconditioner()

    def _build_flat_preconditioner(self):
        # D^T W D V = W V Lambda with V^T W V = I, read off the SVD
        # W^(1/2) D W^(-1/2) = U S Y^T as Lambda = S^2, V = W^(-1/2) Y;
        # not forming D^T W D keeps its small eigenvalues accurate
        sw = np.sqrt(self.wy)
        _, s, Yt = np.linalg.svd(sw[:, None] * self.D / sw)
        self._V = Yt.T / sw[:, None]
        lam = s[:, None]**2
        self._inv_eig = 1.0 / (self.hx * (self.k[None, 1:]**2 + lam))
        Wy = np.diag(self.wy)
        M0 = self.hx * (self.D.T @ Wy @ self.D)
        # regularize the constant null direction
        v = self.wy / np.linalg.norm(self.wy)
        self._mode0 = cho_factor(M0 + np.outer(v, v) * np.mean(np.diag(M0)),
                                 lower=True)

    def dx(self, U: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.ik * np.fft.rfft(U, axis=1), self.nx, axis=1)

    def dx_T(self, U: np.ndarray) -> np.ndarray:
        # the uniform-grid spectral derivative is antisymmetric
        return -self.dx(U)

    def precondition(self, R: np.ndarray) -> np.ndarray:
        Rh = np.fft.rfft(R, axis=1)
        Z = np.empty_like(Rh)
        Z[:, 0] = cho_solve(self._mode0, Rh[:, 0])
        # V^T acts on all of Rh: a column slice would miss the BLAS path
        Z[:, 1:] = self._V @ (self._inv_eig * (self._V.T @ Rh)[:, 1:])
        z = np.fft.irfft(Z, self.nx, axis=1)
        return z - z.mean()

    def apply(self, U: np.ndarray) -> np.ndarray:
        q11, q12, q22 = self._q
        Ux = self.dx(U)
        Uy = self.D @ U
        f1 = q11 * Ux + q12 * Uy
        f2 = q12 * Ux + q22 * Uy
        W = self.hx * self.wy[:, None]
        return self.dx_T(W * f1) + self.D.T @ (W * f2)

    def solve(self, b: np.ndarray):
        """Projected preconditioned CG for A u = b with A 1 = 0."""
        b = b - b.mean()
        bnorm = math.sqrt(float(np.sum(b * b)))
        if bnorm == 0.0:
            return np.zeros_like(b), 0, 0.0
        x = np.zeros_like(b)
        r = b.copy()
        z = self.precondition(r)
        d = z.copy()
        rz = float(np.sum(r * z))
        it = 0
        for it in range(1, 4000):
            Ad = self.apply(d)
            alpha = rz / float(np.sum(d * Ad))
            x += alpha * d
            r -= alpha * Ad
            rel = math.sqrt(float(np.sum(r * r))) / bnorm
            if rel <= self.cg_tol:
                break
            z = self.precondition(r)
            rz_new = float(np.sum(r * z))
            d = z + (rz_new / rz) * d
            rz = rz_new
        else:
            raise NumericalError(
                f"CG stalled at relative residual {rel:.3e}",
                diagnostics={"iterations": it},
            )
        x -= x.mean()
        return x, it, rel


class LowerSolver(_StripOperator):
    """Neumann-Dirichlet map of the (truncated) lower layer.

    Plain vertical shift flattening: the coefficient matrix is
    I + Q with Q = [[0, -eta_x], [-eta_x, eta_x^2]], independent of depth.
    Homogeneous Neumann bottom at y = -depth.
    """

    def __init__(self, strip: StripGrid, period: float):
        super().__init__(strip.nx, period, strip.ny,
                         -strip.depth_under, 0.0, strip.cg_tol)

    def set_geometry(self, eta_under: np.ndarray):
        ex = self.dx(eta_under[None, :])[0]
        self._q = (
            np.ones(self.nx)[None, :],
            -ex[None, :],
            (1.0 + ex**2)[None, :],
        )

    def solve_neumann(self, eta_under: np.ndarray, psi: np.ndarray) -> DnoSolution:
        mean_flux = abs(float(np.sum(psi))) * self.hx
        scale = float(np.max(np.abs(psi))) + 1e-300
        if mean_flux > 1e-10 * scale * self.period:
            raise SolvabilityError(
                f"Neumann datum has non-zero mean flux {mean_flux:.3e}"
            )
        self.set_geometry(eta_under)
        b = np.zeros((self.ny + 1, self.nx))
        b[0, :] = self.hx * psi
        u, it, rel = self.solve(b)
        u = u - u[0, :].mean()  # quotient by constants: zero-mean trace
        return DnoSolution(potential=u, y=self.y, traces=(u[0, :].copy(),),
                           flux_residual=mean_flux, cg_iterations=it,
                           relative_residual=rel)


class UpperSolver(_StripOperator):
    """Neumann-Dirichlet map of the upper layer on the unit strip.

    Flattening y = y' + f(x, y') with f = eta_under + (eta_over -
    eta_under) y'; the coefficient matrix is [[1 + f_y, -f_x],
    [-f_x, (1 + f_x^2)/(1 + f_y)]], unit determinant.
    """

    def __init__(self, strip: StripGrid, period: float):
        super().__init__(strip.nx, period, strip.ny, 0.0, 1.0, strip.cg_tol)

    def set_geometry(self, eta_under: np.ndarray, eta_over: np.ndarray):
        fy = eta_over - eta_under
        if 1.0 + float(np.min(fy)) <= _PINCH_OFF_H0:
            raise GeometryError(
                f"layer pinch-off: 1 + inf(eta_over - eta_under) <= {_PINCH_OFF_H0}"
            )
        ex_u = self.dx(eta_under[None, :])[0]
        ex_o = self.dx(eta_over[None, :])[0]
        yy = self.y[:, None]
        fx = ex_u[None, :] + (ex_o - ex_u)[None, :] * yy
        one_fy = 1.0 + fy[None, :]
        self._q = (one_fy, -fx, (1.0 + fx**2) / one_fy)

    def solve_neumann(self, eta_under: np.ndarray, eta_over: np.ndarray,
                      psi_i: np.ndarray, psi_s: np.ndarray) -> DnoSolution:
        mean_flux = abs(float(np.sum(psi_i + psi_s))) * self.hx
        scale = float(np.max(np.abs(psi_i)) + np.max(np.abs(psi_s))) + 1e-300
        if mean_flux > 1e-10 * scale * self.period:
            raise SolvabilityError(
                f"Neumann pair has non-zero total flux {mean_flux:.3e}"
            )
        self.set_geometry(eta_under, eta_over)
        b = np.zeros((self.ny + 1, self.nx))
        b[0, :] = self.hx * psi_s    # row 0 is the surface y = 1
        b[-1, :] = self.hx * psi_i   # last row is the interface y = 0
        u, it, rel = self.solve(b)
        u = u - u[-1, :].mean()  # quotient by constants: zero-mean interface
        return DnoSolution(potential=u, y=self.y,
                           traces=(u[-1, :].copy(), u[0, :].copy()),
                           flux_residual=mean_flux, cg_iterations=it,
                           relative_residual=rel)


#: (strip, period) keys whose solver pairs stay cached; each mu of a
#: sweep has its own period
_SOLVER_PAIRS = 4
_solver_cache: OrderedDict[tuple[StripGrid, float], tuple] = OrderedDict()


def _solvers(strip: StripGrid, period: float):
    """Lower and upper solvers of a strip, kept for the most recent periods."""
    key = (strip, period)
    pair = _solver_cache.get(key)
    if pair is None:
        pair = _solver_cache[key] = (LowerSolver(strip, period),
                                     UpperSolver(strip, period))
        if len(_solver_cache) > _SOLVER_PAIRS:
            _solver_cache.popitem(last=False)
    else:
        _solver_cache.move_to_end(key)
    return pair


def solve_lower(eta_under: np.ndarray, psi: np.ndarray, strip: StripGrid,
                period: float) -> DnoSolution:
    return _solvers(strip, period)[0].solve_neumann(eta_under, psi)


def solve_upper(eta: ProfilePair, neumann_pair, strip: StripGrid) -> DnoSolution:
    psi_i, psi_s = neumann_pair
    return _solvers(strip, eta.grid.period)[1].solve_neumann(
        eta.eta_under, eta.eta_over, psi_i, psi_s
    )


def _resample(u: np.ndarray, nx: int) -> np.ndarray:
    n = len(u)
    if n == nx:
        return u
    U = np.fft.rfft(u)
    if nx > n:
        Up = np.zeros(nx // 2 + 1, dtype=complex)
        Up[: n // 2 + 1] = U
        Up[n // 2] = 0.0
        return np.fft.irfft(Up, nx) * (nx / n)
    tail = float(np.sum(np.abs(U[nx // 2:]) ** 2))
    total = float(np.sum(np.abs(U) ** 2)) + 1e-300
    if tail > 1e-20 * total:
        raise ConfigError(
            "profile has spectral content beyond the strip resolution"
        )
    return np.fft.irfft(U[: nx // 2 + 1], nx) * (nx / n)


def eval_L_exact(eta: ProfilePair, p: Params, strip: StripGrid) -> float:
    """Exact kinetic energy via the layer solves.

    With zeta = eta_x, the lower map gives Phi_under = N_lower zeta_under,
    the upper map gives the trace pair of N_upper (-zeta_under, zeta_over),
    and L = (1/2) int [zeta_under (Phi_under - rho Phi_i)
                        + zeta_over rho Phi_s] dx.
    """
    period = eta.grid.period
    lower, upper = _solvers(strip, period)
    u = _resample(eta.eta_under, strip.nx)
    v = _resample(eta.eta_over, strip.nx)
    zu = lower.dx(u[None, :])[0]
    zv = lower.dx(v[None, :])[0]

    sol_low = lower.solve_neumann(u, zu)
    phi_under = sol_low.traces[0]
    sol_up = upper.solve_neumann(u, v, -zu, zv)
    phi_i, phi_s = sol_up.traces

    xi_under = phi_under - p.rho * phi_i
    xi_over = p.rho * phi_s
    hx = period / strip.nx
    return 0.5 * hx * float(np.sum(zu * xi_under + zv * xi_over))


def flat_K_matrix(k: float, p: Params, strip: StripGrid, period: float) -> np.ndarray:
    """Realized flat-geometry symbol of K(0) at wavenumber k.

    Pushes the two unit cos(kx) profiles through the full assembly on a
    flat geometry and reads off the cosine coefficients; for the continuum
    operator this is exactly the dispersion matrix F(k).
    """
    nx = strip.nx
    x = period / nx * np.arange(nx)
    out = np.empty((2, 2))
    for col, (au, av) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        eta = ProfilePair(PeriodicGrid(n=nx, period=period),
                          au * np.cos(k * x), av * np.cos(k * x))
        lower, upper = _solvers(strip, period)
        zu = lower.dx(eta.eta_under[None, :])[0]
        zv = lower.dx(eta.eta_over[None, :])[0]
        flat = np.zeros(nx)
        phi_under = lower.solve_neumann(flat, zu).traces[0]
        phi_i, phi_s = upper.solve_neumann(flat, flat, -zu, zv).traces
        xi_u = phi_under - p.rho * phi_i
        xi_o = p.rho * phi_s
        # K eta = -d/dx xi; project onto cos(kx)
        ku = -lower.dx(xi_u[None, :])[0]
        ko = -lower.dx(xi_o[None, :])[0]
        cosk = np.cos(k * x)
        norm = float(np.sum(cosk * cosk))
        out[0, col] = float(np.sum(ku * cosk)) / norm
        out[1, col] = float(np.sum(ko * cosk)) / norm
    return out
