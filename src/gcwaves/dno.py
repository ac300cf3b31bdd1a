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

CG runs on the rfft spectra of the (ny+1) x nx fields along x, with
Parseval inner products: the only transforms are the two irffts and two
rffts of each operator application, around the flux formed in physical
space, plus one rfft of the flux rows that hold the datum and one irfft
of the trace rows that L reads.  CG stops when the energy has
converged, not the residual: L is a sum of b.u, whose error is the
square of the solver's energy-norm error.

Each ``StripGrid`` owns the oracle's state on it: one work area
(``_WorkArea``) of nine (ny+1) x nx arrays, shared by every solver built
on the strip, and the solver pair of the latest period solved on it,
which a new period replaces.  Every transform, matrix product and ufunc
of a solve writes into the area, so a solve allocates no array of that
size; it returns only what L reads, the solution on the trace rows.
A strip runs one solve at a time.  ``eval_L_exact`` takes the profile's
slopes once: they are both the flux datum and the geometry.

On a flat strip Fourier mode k_j decouples into the vertical matrix
M_j = hx (k_j^2 W + D^T W D), W = diag(quadrature weights).  Every mode
shares one generalized eigenbasis, D^T W D V = W V Lambda with
V^T W V = I, so M_j^{-1} = V diag(1 / (hx (k_j^2 + Lambda))) V^T and the
preconditioner is two real matrix products over all modes at once, on
the float view of the spectrum.  Mode 0 is singular only along the
constants (Lambda = 0); its inverse drops that one direction and
projects column 0 onto zero mean, so the constant is left to one gauge.

The module is the independent oracle against which the spectral
truncations are validated, so it shares no code path with the truncated
functionals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Params
from .errors import ConfigError, GeometryError, NumericalError, SolvabilityError
from .fieldops import ProfilePair, _is_grid_size

#: the upper layer counts as pinched off where its depth falls to this
_PINCH_OFF_H0 = 0.1


@dataclass(frozen=True)
class StripGrid:
    """Discretization of the flattened layer domains.

    nx periodic horizontal samples; ny Chebyshev intervals vertically;
    the lower layer is truncated at depth_under (homogeneous Neumann
    bottom), which must be deep enough that the evanescent tail
    exp(-2 k_min depth) of the slowest active mode is negligible.

    CG stops once sqrt(r.Pr / b.Pb) <= cg_tol, with r the residual, b the
    datum and P the flat-strip preconditioner: that ratio estimates the
    energy-norm error relative to the solution's energy norm, and its
    square estimates the relative error of L (within a factor of 2 on
    eta*).

    The strip owns the oracle's state on it: its work area ``work`` and
    the solver pair that ``solvers`` keeps.  Neither refers back to the
    strip, so both are freed with it, without the garbage collector.
    Its solvers share the area, so a strip runs one solve at a time.
    """

    nx: int
    ny: int
    depth_under: float
    cg_tol: float = 1e-8

    def __post_init__(self):
        if not _is_grid_size(self.nx):
            raise ConfigError(
                f"nx must be 2^k or 3*2^k and >= 16, got {self.nx}")
        if self.ny < 32:
            raise ConfigError("need at least 32 vertical intervals")
        if not 0.0 < self.depth_under < math.inf:
            raise ConfigError(
                f"depth_under must be positive and finite, got {self.depth_under}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ConfigError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")

    @functools.cached_property
    def work(self) -> "_WorkArea":
        """The work area of every solver built on this strip."""
        return _WorkArea(self.nx, self.ny)

    def solvers(self, period: float) -> tuple:
        """The lower and upper solvers of ``period``.  The strip keeps the
        pair of the latest period solved on it; another period frees that
        pair before it builds its own."""
        state = vars(self)
        if "_solvers" not in state or state["_solvers"][0].period != period:
            state.pop("_solvers", None)
            state["_solvers"] = (LowerSolver(self, period),
                                 UpperSolver(self, period))
        return state["_solvers"]


def _cheb_nodes_diff(n: int):
    """Chebyshev-Lobatto nodes (descending) and differentiation matrix."""
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
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    for kk in range(1, n // 2):
        v -= 2.0 * np.cos(2.0 * kk * np.pi * np.arange(1, n) / n) / (4.0 * kk**2 - 1.0)
    if n % 2 == 0:
        v -= np.cos(np.pi * np.arange(1, n)) / (n**2 - 1.0)
    w[1:-1] = 2.0 * v / n
    w[0] = w[-1] = 1.0 / (n**2 - 1.0) if n % 2 == 0 else 1.0 / n**2
    return w


def _parseval_dot(a: np.ndarray, b: np.ndarray) -> float:
    """nx times sum(u * v) for real (m, nx) arrays u, v, nx even, from their
    rfft spectra a, b: interior modes count twice, DC and Nyquist once
    (their imaginary parts are zero)."""
    # per-column sums over the rows, then numpy's pairwise sum over the
    # columns: no BLAS call, whose threads split a long sum and so make its
    # rounding depend on their count
    s = np.einsum("ij,ij->j", a.view(float), b.view(float))
    return float(2.0 * s.sum() - s[0] - s[-2])


class _WorkArea:
    """The arrays a solve runs in, on a strip of (ny+1) x nx samples.

    Four spectra of shape (ny+1, nx/2+1): the residual ``r`` (which
    ``_solve_flux`` fills with the datum), the preconditioned residual
    ``z``, the direction ``d`` and ``ad`` = A d.  Three physical arrays
    for ``apply``: ``u0``, ``u1`` and ``wide``, two columns wider so that
    it also takes the preconditioner's float V^T R; ``wide_c`` views it
    as a spectrum, and ``wide_p`` and ``z_p`` view the leading
    (ny+1) x nx doubles of ``wide`` and ``z`` as physical arrays.  The
    upper layer's flux coefficients -f_x and (1 + f_x^2)/(1 + f_y) go to
    ``fx`` and ``q22``.

    A ``StripGrid`` allocates its one area on first use and shares it
    among the solvers built on it, which therefore solve one at a time.
    """

    def __init__(self, nx: int, ny: int):
        m = ny + 1
        self.r, self.z, self.d, self.ad = (
            np.empty((m, nx // 2 + 1), dtype=complex) for _ in range(4))
        self.u0, self.u1, self.fx, self.q22 = (
            np.empty((m, nx)) for _ in range(4))
        self.wide = np.empty((m, nx + 2))
        self.wide_c = self.wide.view(complex)
        self.wide_p, self.z_p = (
            a.view(float).reshape(-1)[:m * nx].reshape(m, nx)
            for a in (self.wide, self.z))


class _StripOperator:
    """Shared machinery: grid, derivatives, quadrature, flat preconditioner.

    ``solve`` runs CG on rfft spectra of shape (ny+1, nx/2+1): ``apply``
    and ``precondition`` take a spectrum and the array to write theirs
    into, at four transforms per iteration, all in ``apply``.  The
    preconditioner inverts the flat-geometry operator mode by mode,
    through the shared eigenbasis ``_V`` scaled by the inverse
    eigenvalues ``_inv_eig`` (one column per mode).  ``set_geometry``
    returns the flux coefficients q = (q11, q12, q22) that ``solve`` and
    ``apply`` take; q11 is None where it is identically 1, as in the
    lower layer.  Everything of (ny+1) x nx size lives in ``work``, the
    strip's ``_WorkArea``; the solver keeps no reference to the strip.
    """

    def __init__(self, strip: StripGrid, period: float, y_bot: float,
                 y_top: float):
        nx, ny = strip.nx, strip.ny
        self.nx, self.period = nx, period
        self.cg_tol = strip.cg_tol
        self.hx = period / nx
        t, D = _cheb_nodes_diff(ny)
        scale = 2.0 / (y_top - y_bot)
        self.y = y_bot + (t + 1.0) / scale
        self.D = D * scale
        self.wy = _clenshaw_curtis(ny) / scale
        self._w = self.hx * self.wy[:, None]
        self._DtW = np.ascontiguousarray(self.D.T * self._w.T)
        self.k = 2.0 * np.pi / period * np.arange(nx // 2 + 1)
        # the Nyquist mode of a real sample has no derivative on the grid
        # (irfft drops the imaginary part it would carry)
        self.ik = 1j * self.k
        self.ik[-1] = 0.0
        self._build_flat_preconditioner()
        self.work = strip.work

    def _build_flat_preconditioner(self):
        # D^T W D V = W V Lambda with V^T W V = I, read off the SVD
        # W^(1/2) D W^(-1/2) = U S Y^T as Lambda = S^2, V = W^(-1/2) Y;
        # not forming D^T W D keeps its small eigenvalues accurate
        sw = np.sqrt(self.wy)
        _, s, Yt = np.linalg.svd(sw[:, None] * self.D / sw)
        self._V = Yt.T / sw[:, None]
        self._Vt = np.ascontiguousarray(self._V.T)
        self._inv_eig = 1.0 / (self.hx * (self.k**2 + s[:, None]**2))
        # the last singular value (about 1e-14) is that of the constants,
        # D 1 = 0: mode 0 drops their direction
        self._inv_eig[-1, 0] = 0.0

    def refuse_unsolvable(self, flux: np.ndarray, scale: float, what: str):
        """Refuse a Neumann datum that the operator's null vectors see.

        The operator annihilates the constants and the depth-constant
        Nyquist checkerboard (whose grid x-derivative vanishes), so the
        boundary flux summed over the boundaries, ``flux``, must have no
        mean and no Nyquist content.
        """
        mean_flux = abs(float(np.sum(flux))) * self.hx
        nyquist_flux = abs(float(np.sum(flux[::2])
                                 - np.sum(flux[1::2]))) * self.hx
        tol = 1e-10 * scale * self.period
        if mean_flux > tol:
            raise SolvabilityError(
                f"{what} has non-zero mean flux {mean_flux:.3e}")
        if nyquist_flux > tol:
            raise SolvabilityError(
                f"{what} has non-zero Nyquist flux {nyquist_flux:.3e}")

    def dx(self, U: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.ik * np.fft.rfft(U, axis=1), self.nx, axis=1)

    def precondition(self, Rh: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Flat-geometry inverse of a residual spectrum, mean projected
        out, written into the spectrum ``out``.

        Runs no transform: every mode is in the two real matrix products
        on the float view of the spectrum (real and imaginary parts side
        by side), the first into the work area's ``wide``.
        """
        w = self.work
        np.matmul(self._Vt, Rh.view(float), out=w.wide)
        w.wide_c *= self._inv_eig
        np.matmul(self._V, w.wide, out=out.view(float))
        out[:, 0] -= out[:, 0].mean()
        return out

    def apply(self, Uh: np.ndarray, q: tuple,
              out: np.ndarray) -> np.ndarray:
        """The energy-form operator with flux coefficients ``q`` on a
        spectrum, written into the spectrum ``out``: two irffts, the flux
        in physical space, two rffts.  The temporaries are the work area's
        ``u0``, ``u1`` and ``wide``, each reused once the flux has absorbed
        what it held, and q11 Ux goes to ``z``, which ``solve`` has added
        to the direction before it applies the operator."""
        w = self.work
        q11, q12, q22 = q
        np.multiply(self.ik, Uh, out=w.wide_c)
        Ux = np.fft.irfft(w.wide_c, self.nx, axis=1, out=w.u0)
        U = np.fft.irfft(Uh, self.nx, axis=1, out=w.u1)
        Uy = np.matmul(self.D, U, out=w.wide_p)
        f1 = np.multiply(q12, Uy, out=U)
        f1 += Ux if q11 is None else np.multiply(q11, Ux, out=w.z_p)
        f1 *= self._w
        # f2 takes Ux's array, which f1 no longer needs
        f2 = Ux
        f2 *= q12
        Uy *= q22
        f2 += Uy
        # the uniform-grid spectral derivative is antisymmetric
        F1 = np.fft.rfft(f1, axis=1, out=w.wide_c)
        F1 *= self.ik
        f2 = np.matmul(self._DtW, f2, out=f1)
        np.fft.rfft(f2, axis=1, out=out)
        out -= F1
        return out

    def solve(self, b: np.ndarray, q: tuple, rows):
        """Projected preconditioned CG for A u = b with A 1 = 0, A the
        operator with flux coefficients ``q``.

        Takes the datum's rfft spectrum, which it overwrites (b becomes
        the residual), and returns the solution's spectrum on ``rows``,
        with the iterations and the final ``rel``.  The residual and
        directions are spectra too and inner products are Parseval sums;
        column 0 of the datum and of every direction is mean-free, and
        the solution's constant is left to the caller.  CG stops on the
        energy: P being the exact flat-strip inverse, r.Pr estimates the
        A-norm error ||e||_A^2, which is exactly the error of b.u for an
        iterate started at 0, so once rel = sqrt(r.Pr / b.Pb) <= ``cg_tol``
        the relative error of b.u is about rel**2.  A datum that meets the
        operator's other null vector, the depth-constant Nyquist
        checkerboard (its spectrum is column nx/2, the same on every row),
        would give CG a direction without curvature: it is refused with
        NumericalError before the first step.  Its level, 1e-10 of
        sqrt((ny+1) nx b.b), bounds 1e-10 nx times the sum of the rows'
        largest samples, so any datum ``refuse_unsolvable`` passes stays
        below it.  A direction without positive curvature met later raises
        NumericalError too.  The preconditioned residual, the direction
        and A d are the work area's ``z``, ``d`` and ``ad``.
        """
        w = self.work
        r = b
        checker = abs(float(np.sum(r[:, -1].real)))
        bb = _parseval_dot(r, r)
        if checker > 1e-10 * math.sqrt(len(r) * self.nx * bb):
            raise NumericalError(
                f"datum meets the Nyquist checkerboard ({checker:.3e}), a "
                "direction without curvature")
        r[:, 0] -= r[:, 0].mean()
        # the first direction is the first preconditioned residual
        d = self.precondition(r, w.d)
        rz = _parseval_dot(r, d)
        x = np.zeros_like(r[rows])
        # P is definite on mean-free spectra: r.Pr = 0 only for r = 0
        if rz <= 0.0:
            return x, 0, 0.0
        bpb = rz
        it = 0
        for it in range(1, 4000):
            Ad = self.apply(d, q, w.ad)
            dAd = _parseval_dot(d, Ad)
            if dAd <= 0.0:
                raise NumericalError(
                    f"CG direction with curvature {dAd:.3e} <= 0",
                    diagnostics={"iterations": it},
                )
            alpha = rz / dAd
            x += alpha * d[rows]
            Ad *= alpha
            r -= Ad
            z = self.precondition(r, w.z)
            rz_new = max(_parseval_dot(r, z), 0.0)
            rel = math.sqrt(rz_new / bpb)
            if rel <= self.cg_tol:
                break
            d *= rz_new / rz
            d += z
            rz = rz_new
        else:
            raise NumericalError(
                f"CG stalled at energy ratio {rel:.3e}",
                diagnostics={"iterations": it},
            )
        return x, it, rel

    def _solve_flux(self, q, flux_rows, trace_rows) -> tuple:
        """Solve for the potential whose boundary flux is psi on each
        (row, psi) of ``flux_rows``, on the geometry of the flux
        coefficients ``q``, and return its traces on ``trace_rows``.
        Only those rows are transformed: one rfft of the flux rows into
        an otherwise zero datum spectrum, the work area's residual, and
        one irfft of the trace rows, the only rows the solve keeps.  The
        potential is defined up to constants, and this is its one gauge:
        the first trace is given zero mean."""
        rows, psis = zip(*flux_rows)
        b = self.work.r
        b.fill(0.0)
        b[list(rows)] = np.fft.rfft(self.hx * np.stack(psis), axis=1)
        traces, _, _ = self.solve(b, q, list(trace_rows))
        # column 0 holds nx times each row's mean
        traces[:, 0] -= traces[0, 0]
        return tuple(np.fft.irfft(traces, self.nx, axis=1))


class LowerSolver(_StripOperator):
    """Neumann-Dirichlet map of the (truncated) lower layer.

    Plain vertical shift flattening: the coefficient matrix is
    I + Q with Q = [[0, -eta_x], [-eta_x, eta_x^2]], independent of depth.
    Homogeneous Neumann bottom at y = -depth.
    """

    def __init__(self, strip: StripGrid, period: float):
        super().__init__(strip, period, -strip.depth_under, 0.0)

    def set_geometry(self, slope: np.ndarray) -> tuple:
        """The flux coefficients, which depend only on the slope eta_x."""
        return None, -slope[None, :], (1.0 + slope**2)[None, :]

    def solve_neumann(self, slope: np.ndarray,
                      psi: np.ndarray) -> np.ndarray:
        """Trace Phi_under on the interface of slope ``slope`` of the
        potential with flux psi."""
        scale = float(np.max(np.abs(psi))) + 1e-300
        self.refuse_unsolvable(psi, scale, "Neumann datum")
        q = self.set_geometry(slope)
        return self._solve_flux(q, ((0, psi),), (0,))[0]


class UpperSolver(_StripOperator):
    """Neumann-Dirichlet map of the upper layer on the unit strip.

    Flattening y = y' + f(x, y') with f = eta_under + (eta_over -
    eta_under) y'; the coefficient matrix is [[1 + f_y, -f_x],
    [-f_x, (1 + f_x^2)/(1 + f_y)]], unit determinant.
    """

    def __init__(self, strip: StripGrid, period: float):
        super().__init__(strip, period, 0.0, 1.0)

    def set_geometry(self, eta: np.ndarray, slopes: np.ndarray) -> tuple:
        """The flux coefficients of the stacked profile and its slopes."""
        fy = eta[1] - eta[0]
        if 1.0 + float(np.min(fy)) <= _PINCH_OFF_H0:
            raise GeometryError(
                f"layer pinch-off: 1 + inf(eta_over - eta_under) <= {_PINCH_OFF_H0}"
            )
        ex_u, ex_o = slopes
        w = self.work
        fx = np.multiply((ex_o - ex_u)[None, :], self.y[:, None], out=w.fx)
        fx += ex_u[None, :]
        q22 = np.square(fx, out=w.q22)
        q22 += 1.0
        one_fy = 1.0 + fy[None, :]
        q22 /= one_fy
        return one_fy, np.negative(fx, out=fx), q22

    def solve_neumann(self, eta: np.ndarray, slopes: np.ndarray,
                      psi_i: np.ndarray, psi_s: np.ndarray) -> tuple:
        """Trace pair (Phi_i, Phi_s) on the interface and the surface of
        the potential with fluxes (psi_i, psi_s), on the stacked profile
        eta of stacked slopes ``slopes``."""
        scale = float(np.max(np.abs(psi_i)) + np.max(np.abs(psi_s))) + 1e-300
        self.refuse_unsolvable(psi_i + psi_s, scale, "Neumann pair")
        q = self.set_geometry(eta, slopes)
        # row 0 is the surface y = 1, the last row the interface y = 0
        return self._solve_flux(q, ((0, psi_s), (-1, psi_i)), (-1, 0))


def _xi(lower: LowerSolver, upper: UpperSolver, eta: np.ndarray,
        slopes: np.ndarray, zeta: np.ndarray, rho: float):
    """xi = (Phi_under - rho Phi_i, rho Phi_s) for the flux pair
    zeta = (zu, zv) on the stacked profile eta of stacked slopes ``slopes``:
    Phi_under = N_lower zu, and (Phi_i, Phi_s) the trace pair of
    N_upper (-zu, zv)."""
    phi_under = lower.solve_neumann(slopes[0], zeta[0])
    phi_i, phi_s = upper.solve_neumann(eta, slopes, -zeta[0], zeta[1])
    return phi_under - rho * phi_i, rho * phi_s


def eval_L_exact(eta: ProfilePair, p: Params, strip: StripGrid) -> float:
    """Exact kinetic energy via the layer solves.

    With zeta = eta_x, the lower map gives Phi_under = N_lower zeta_under,
    the upper map gives the trace pair of N_upper (-zeta_under, zeta_over),
    and L = (1/2) int [zeta_under (Phi_under - rho Phi_i)
                        + zeta_over rho Phi_s] dx.
    zeta is taken once and is also the slopes of the geometry.  The
    profile must be sampled on the strip's horizontal grid.
    """
    if eta.grid.n != strip.nx:
        raise ConfigError(
            f"profile has n={eta.grid.n} samples, the strip nx={strip.nx}")
    lower, upper = strip.solvers(eta.grid.period)
    profile = np.stack([eta.eta_under, eta.eta_over])
    zu, zv = zeta = lower.dx(profile)
    xi_under, xi_over = _xi(lower, upper, profile, zeta, zeta, p.rho)
    return 0.5 * lower.hx * float(np.sum(zu * xi_under + zv * xi_over))


def flat_K_matrix(k: float, p: Params, strip: StripGrid, period: float) -> np.ndarray:
    """Realized flat-geometry symbol of K(0) at wavenumber k.

    Pushes the two unit cos(kx) profiles through the full assembly on a
    flat geometry and reads off the cosine coefficients; for the continuum
    operator this is exactly the dispersion matrix F(k).
    """
    nx = strip.nx
    x = period / nx * np.arange(nx)
    cosk = np.cos(k * x)
    norm = float(np.sum(cosk * cosk))
    flat = np.zeros((2, nx))  # the flat profile, and its slopes
    out = np.empty((2, 2))
    lower, upper = strip.solvers(period)
    for col, (au, av) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        zeta = lower.dx(np.stack([au * cosk, av * cosk]))
        xi = _xi(lower, upper, flat, flat, zeta, p.rho)
        # K eta = -d/dx xi; project onto cos(kx)
        ku, ko = -lower.dx(np.stack(xi))
        out[0, col] = float(np.sum(ku * cosk)) / norm
        out[1, col] = float(np.sum(ko * cosk)) / norm
    return out
