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
gradients preconditioned with the exact flat-geometry per-mode inverse,
in the flat strip's vertical eigenbasis.

On a flat strip Fourier mode k_j decouples into the vertical matrix
M_j = hx (k_j^2 W + D^T W D), W = diag(quadrature weights).  Every mode
shares one generalized eigenbasis, D^T W D V = W V Lambda with
V^T W V = I, so M_j^{-1} = V diag(1 / (hx (k_j^2 + Lambda))) V^T.  CG
runs in that basis: its residual, direction and preconditioned residual
are coefficient spectra C along x, the field's rfft spectrum being V C,
so the flat-strip inverse that preconditions it is one elementwise
product.  Mode 0 is singular only along the constants (Lambda = 0); the
inverse drops that one direction, whose coefficient stays 0 in every
direction, so the constant is left to one gauge.

Inner products are Parseval sums, which the basis carries over.  The
only transforms are the two irffts and two rffts of each operator
application, around the flux formed in physical space, plus one rfft of
the flux rows that hold the datum and one irfft of the trace rows that L
reads; the operator's two matrix products, into and out of the basis,
take every mode at once, on the float view of the spectra.  CG stops
when the energy has converged, not the residual: L is a sum of b.u,
whose error is the square of the solver's energy-norm error.

Each ``StripGrid`` owns the oracle's state on it: one work area
(``_WorkArea``) the size of nine (ny+1) x nx arrays, shared by every
solver built on the strip, and the solver pair of the latest period
solved on it, which a new period replaces.  Every transform, matrix product and ufunc
of a solve writes into the area, so a solve allocates no array of that
size; it returns only what L reads, the solution on the trace rows.
A strip runs one solve at a time.  ``eval_L_exact`` takes the profile's
slopes once: they are both the flux datum and the geometry.

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
from .errors import (ConfigError, GeometryError, NumericalError, RangeError,
                     SolvabilityError)
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
        pair before it builds its own.  A period that is not positive and
        finite is refused, and the kept pair stays."""
        if not 0.0 < period < math.inf:
            raise ConfigError(
                f"period must be positive and finite, got {period}")
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

    Three spectra of shape (ny+1, nx/2+1), each holding coefficients in
    the flat strip's vertical eigenbasis V (the field is V C): the
    residual ``r``, the direction ``d`` and ``z``, the preconditioned
    residual, which ``apply`` also writes A d into.  One block ``pair``
    of two stacked spectra, (2(ny+1), nx/2+1), whose halves ``lo`` and
    ``hi`` take in turn the datum (``_solve_flux`` writes it into
    ``lo``), ``apply``'s forward product [V; D V] C and the pair
    [F2; ik F1] of its backward product; ``pair_f`` is its float view,
    and ``lo_p`` and ``z_p`` view the leading (ny+1) x nx doubles of
    ``lo`` and ``z`` as physical arrays.  Four physical arrays: ``u0``
    and ``u1`` for ``apply``, and the upper layer's flux coefficients
    -f_x and (1 + f_x^2)/(1 + f_y) in ``fx`` and ``q22``.

    A ``StripGrid`` allocates its one area on first use and shares it
    among the solvers built on it, which therefore solve one at a time.
    """

    def __init__(self, nx: int, ny: int):
        m = ny + 1
        self.r, self.z, self.d = (
            np.empty((m, nx // 2 + 1), dtype=complex) for _ in range(3))
        self.pair = np.empty((2 * m, nx // 2 + 1), dtype=complex)
        self.pair_f = self.pair.view(float)
        self.lo, self.hi = self.pair[:m], self.pair[m:]
        self.u0, self.u1, self.fx, self.q22 = (
            np.empty((m, nx)) for _ in range(4))
        self.lo_p, self.z_p = (
            a.view(float).reshape(-1)[:m * nx].reshape(m, nx)
            for a in (self.lo, self.z))


class _StripOperator:
    """Shared machinery: grid, derivatives, quadrature, flat eigenbasis.

    ``solve`` runs CG on coefficient spectra C of shape (ny+1, nx/2+1)
    in the vertical eigenbasis ``_V`` of the flat strip, shared by every
    Fourier mode: the field's spectrum is V C.  There the flat-strip
    inverse is the diagonal ``_inv_eig`` (one column per mode), so
    preconditioning is one elementwise product, and ``apply`` maps C to
    V^T A V C at four transforms and two matrix products.
    ``set_geometry`` returns the flux coefficients q = (q11, q12, q22)
    that ``solve`` and ``apply`` take; q11 is None where it is
    identically 1, as in the lower layer.  Everything of (ny+1) x nx
    size lives in ``work``, the strip's ``_WorkArea``; the solver keeps
    no reference to the strip.
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
        self.k = 2.0 * np.pi / period * np.arange(nx // 2 + 1)
        # the Nyquist mode of a real sample has no derivative on the grid
        # (irfft drops the imaginary part it would carry)
        self.ik = 1j * self.k
        self.ik[-1] = 0.0
        self._build_flat_eigenbasis()
        self.work = strip.work

    def _build_flat_eigenbasis(self):
        # D^T W D V = W V Lambda with V^T W V = I, read off the SVD
        # W^(1/2) D W^(-1/2) = U S Y^T as Lambda = S^2, V = W^(-1/2) Y;
        # not forming D^T W D keeps its small eigenvalues accurate
        sw = np.sqrt(self.wy)
        _, s, Yt = np.linalg.svd(sw[:, None] * self.D / sw)
        V = Yt.T / sw[:, None]
        DV = self.D @ V
        w = self.hx * self.wy
        # apply's two products: the field and its y-derivative, [V; D V] C,
        # and the energy form's two fluxes, [V^T D^T W, -V^T W] [F2; ik F1]
        self._forward = np.vstack([V, DV])
        self._backward = np.hstack([DV.T * w, -(V.T * w)])
        self._V = self._forward[:len(V)]
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

    def apply(self, C: np.ndarray, q: tuple, out: np.ndarray,
              keep: tuple | None = None) -> np.ndarray:
        """V^T A V C for the energy-form operator A with flux coefficients
        ``q`` and the coefficient spectrum C, written into ``out``.

        The forward product [V; D V] C gives the spectra of the field U
        and of U_y, two irffts take U_x and U_y to physical space, where
        the fluxes are formed, and after two rffts the backward product
        [V^T D^T W, -V^T W] [F2; ik F1] gives the coefficients of
        D^T W F2 - ik W F1.  Both products run on the float view (real and
        imaginary parts side by side) of the work area's ``pair``, and the
        quadrature weights W are in the backward table.  ``keep``, a
        (rows, array) pair, takes the spectrum of U on those rows from
        the forward product.  The physical temporaries are ``u0``, ``u1``,
        ``z_p`` and ``lo_p``; ``out`` may be the work area's ``z``.
        """
        w = self.work
        q11, q12, q22 = q
        np.matmul(self._forward, C.view(float), out=w.pair_f)
        if keep is not None:
            rows, kept = keep
            kept[...] = w.lo[rows]
        w.lo *= self.ik
        Ux = np.fft.irfft(w.lo, self.nx, axis=1, out=w.u0)
        Uy = np.fft.irfft(w.hi, self.nx, axis=1, out=w.u1)
        f1 = np.multiply(q12, Uy, out=w.z_p)
        f1 += Ux if q11 is None else np.multiply(q11, Ux, out=w.lo_p)
        # f2 takes Ux's array, which f1 no longer needs
        f2 = Ux
        f2 *= q12
        Uy *= q22
        f2 += Uy
        np.fft.rfft(f2, axis=1, out=w.lo)
        F1 = np.fft.rfft(f1, axis=1, out=w.hi)
        F1 *= self.ik
        np.matmul(self._backward, w.pair_f, out=out.view(float))
        return out

    def solve(self, b: np.ndarray, q: tuple, rows):
        """Projected preconditioned CG for A u = b with A 1 = 0, A the
        operator with flux coefficients ``q``.

        Takes the datum's rfft spectrum, which it overwrites, and returns
        the solution's spectrum on ``rows``, with the iterations and the
        final ``rel``.  The residual, the preconditioned residual and the
        directions are coefficient spectra in the flat eigenbasis V, the
        work area's ``r``, ``z`` and ``d``: the residual starts at V^T b,
        and the flat-strip inverse P = V diag(``_inv_eig``) V^T makes the
        preconditioned residual the elementwise product ``_inv_eig`` r.
        Inner products are Parseval sums, which V carries over: r.Pr and
        d.Ad are sums over the coefficients.
        Column 0 of the datum is made mean-free, and the constants'
        coefficient of every direction stays 0, so the solution's
        constant is left to the caller.  The solution accumulates on
        ``rows`` only, from the field that ``apply`` forms anyway.

        CG stops on the energy: P being the exact flat-strip inverse,
        r.Pr estimates the A-norm error ||e||_A^2, which is exactly the
        error of b.u for an iterate started at 0, so once
        rel = sqrt(r.Pr / b.Pb) <= ``cg_tol`` the relative error of b.u
        is about rel**2.  A datum that meets the operator's other null
        vector, the depth-constant Nyquist checkerboard (its spectrum is
        column nx/2, the same on every row), would give CG a direction
        without curvature: it is refused with NumericalError before the
        first step.  Its level, 1e-10 of sqrt((ny+1) nx b.b), bounds
        1e-10 nx times the sum of the rows' largest samples, so any datum
        ``refuse_unsolvable`` passes stays below it.  A direction whose
        curvature is not positive, NaN included, raises NumericalError
        too, at the iteration that meets it.
        """
        w = self.work
        checker = abs(float(np.sum(b[:, -1].real)))
        bb = _parseval_dot(b, b)
        if checker > 1e-10 * math.sqrt(len(b) * self.nx * bb):
            raise NumericalError(
                f"datum meets the Nyquist checkerboard ({checker:.3e}), a "
                "direction without curvature")
        b[:, 0] -= b[:, 0].mean()
        r = w.r
        np.matmul(self._V.T, b.view(float), out=r.view(float))
        # the first direction is the first preconditioned residual
        d = np.multiply(self._inv_eig, r, out=w.d)
        rz = _parseval_dot(r, d)
        x = np.zeros_like(b[rows])
        # P is definite on mean-free spectra: r.Pr = 0 only for r = 0
        if rz <= 0.0:
            return x, 0, 0.0
        u = np.empty_like(x)
        bpb = rz
        it = 0
        for it in range(1, 4000):
            Ad = self.apply(d, q, w.z, keep=(rows, u))
            dAd = _parseval_dot(d, Ad)
            if not dAd > 0.0:
                raise NumericalError(
                    f"CG direction with curvature {dAd:.3e}, not positive",
                    diagnostics={"iterations": it},
                )
            alpha = rz / dAd
            x += alpha * u
            Ad *= alpha
            r -= Ad
            z = np.multiply(self._inv_eig, r, out=w.z)
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
        an otherwise zero datum spectrum, the work area's ``lo``, and
        one irfft of the trace rows, the only rows the solve keeps.  The
        potential is defined up to constants, and this is its one gauge:
        the first trace is given zero mean."""
        rows, psis = zip(*flux_rows)
        b = self.work.lo
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
    profile must be sampled on the strip's horizontal grid, and a profile
    with a non-finite sample is refused with RangeError, naming its row
    and first index, before any transform: NaN compares false, so it
    would pass every later refusal and reach CG.
    """
    if eta.grid.n != strip.nx:
        raise ConfigError(
            f"profile has n={eta.grid.n} samples, the strip nx={strip.nx}")
    for name, row in (("eta_under", eta.eta_under),
                      ("eta_over", eta.eta_over)):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            raise RangeError(f"profile row {name} holds a non-finite sample "
                             f"{float(row[bad[0]])} at index {bad[0]}")
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
    lower, upper = strip.solvers(period)
    nx = strip.nx
    x = period / nx * np.arange(nx)
    cosk = np.cos(k * x)
    norm = float(np.sum(cosk * cosk))
    flat = np.zeros((2, nx))  # the flat profile, and its slopes
    out = np.empty((2, 2))
    for col, (au, av) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        zeta = lower.dx(np.stack([au * cosk, av * cosk]))
        xi = _xi(lower, upper, flat, flat, zeta, p.rho)
        # K eta = -d/dx xi; project onto cos(kx)
        ku, ko = -lower.dx(np.stack(xi))
        out[0, col] = float(np.sum(ku * cosk)) / norm
        out[1, col] = float(np.sum(ko * cosk)) / norm
    return out
