"""Periodic spectral grids and the truncated wave functionals.

Everything here lives on a uniform periodic grid whose length is an
integer number of carrier wavelengths.  Pointwise products entering
cubic/quartic integrands are formed on a 2x zero-padded grid, which
makes every quadratic, cubic and quartic integral alias-free for
Nyquist-free inputs and every gradient field exact after projection back
to the grid band.

The functionals are the quadratic/cubic/quartic truncations of the
surface energy K and the kinetic energy L of the two-layer problem (the
kinetic truncation expands the Dirichlet-Neumann operators as Craig &
Sulem do), together with the reduced objective J_mu = K + mu^2 / L_trunc
and its L^2 gradient, and the modulated-carrier test profile used to
seed the minimiser.  Each profile is evaluated in two stages:

* Value stage (``StagedProfile``).  The (u, v) pair is transformed once;
  the eight padded fields u, v, u_x, v_x, u_xx, |k|u, B1 and B2 come
  from one inverse transform of their stacked spectra, and the seven
  products in L_trunc from one forward transform of their stacked
  values.  Every integral is a sum of padded-grid values or, where it
  has the form int a M b, a Parseval sum of spectra already held, with
  no inverse transform.  Value-only calls (eval_J, eval_L_trunc) stop
  here: 17 one-dimensional transforms in 3 calls.  mu_of_eps, and so
  each trial of eps_of_mu, takes these on the carrier grid
  (``PeriodicGrid.carrier_grid``), the coarsest grid of the period
  above carrier harmonic 3, where the test profile is built with no
  transform: its transforms have 2 n_c points whatever the requested
  grid (n_c is n/8 to n/4 at 30 points per wavelength).  Grid sizes
  are 2^k or 3 2^k (``_is_grid_size``), which numpy's FFT transforms at
  about the same cost per point, so n_c / 2 exceeds 3 m by a factor
  below 1.5 where powers of two alone left up to 2.  On a finer grid
  build_eta_star zero-pads the spectrum of those samples up to the
  requested grid and keeps the samples themselves as a read-only copy
  (``ProfilePair.carrier_copy``): value-only calls on it take their 17
  transforms at 2 n_c points.
* Gradient stage (``_gradient``), run only for gradients.  Products
  under a common multiplier are summed before one forward transform,
  multipliers are combined and the chain-rule weights applied on the
  padded spectrum, whose grid band grad_J returns untransformed: 33
  one-dimensional transforms in 12 calls.

A ``StagedProfile`` runs the value stage when it is built and keeps it,
with the breakdown of the last (p, mu), between calls: a grad_J after an
eval_J on it runs the gradient stage alone, 16 more transforms in 9
calls.  The minimizer's line-search trials are value-only eval_J calls
on profiles staged from its spectra (15 transforms in 2 calls), whose
barrier reads the H^2 norm off the held spectrum
(``StagedProfile.h2_sq``); only a trial that may be accepted goes on to
grad_J.

F-bar, the upper-layer multiplier matrix [[d, o], [o, d]] with
d = |k| coth|k| and o = -|k|/sinh|k|, is owned by
``dispersion.fbar_entries``, which the coefficient formulas in ``nls``
also use.  Its inverse [[d, -o], [-o, d]]/k^2 is read off the same
entries by ``_fbar_inverse_entries``, and both are tabulated in the
``_Symbols`` that each grid builds on first use and holds
(``PeriodicGrid.symbols``).  The ``dno`` oracle shares no code with
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dispersion import CriticalPoint, Params, fbar_entries, _secant_root
from .errors import ConfigError, GeometryError, OutOfConeError, RangeError
from .nls import NlsCoefficients, soliton_shape

_PAD = 2
#: carrier harmonics 0..3 lie below the Nyquist wavenumber of the carrier
#: grid (the j-th harmonic of a small-amplitude wave is O(eps^j))
_CARRIER_HARMONICS = 3


def _is_grid_size(n: int) -> bool:
    """Whether n is a grid size: 2^k or 3 2^k, at least 16, the sizes
    at which a transform costs about the same per point."""
    odd = n // (n & -n) if n > 0 else 0
    return n >= 16 and odd in (1, 3)


def _next_grid_size(n: int) -> int:
    """The grid size after the grid size n: 2^k -> 3 2^(k-1) -> 2^(k+1),
    steps of 3/2 and 4/3."""
    return n * 3 // 2 if n & (n - 1) == 0 else n * 4 // 3


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid of n samples on [-period/2, period/2) whose
    period holds k0_multiple carrier wavelengths, 1 <= k0_multiple < n/2,
    so the carrier lies below the Nyquist wavenumber."""

    n: int
    period: float
    k0_multiple: int

    def __post_init__(self):
        if not _is_grid_size(self.n):
            raise ConfigError(
                f"n must be 2^k or 3*2^k and >= 16, got {self.n}")
        if self.k0_multiple < 1:
            raise ConfigError("need at least one carrier wavelength in the "
                              f"period, got k0_multiple = {self.k0_multiple}")
        if self.k0_multiple >= self.n // 2:
            raise ConfigError(
                f"carrier multiple {self.k0_multiple} is at or above the "
                f"Nyquist index {self.n // 2} of n = {self.n}; raise n")
        if not 0.0 < self.period < math.inf:
            raise ConfigError(
                f"period must be positive and finite, got {self.period}")

    @cached_property
    def dx(self) -> float:
        return self.period / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return -0.5 * self.period + self.dx * np.arange(self.n)

    @cached_property
    def k(self) -> np.ndarray:
        """Non-negative rfft wavenumbers 2 pi j / period, j = 0..n/2."""
        return 2.0 * np.pi / self.period * np.arange(self.n // 2 + 1)

    @property
    def carrier(self) -> float:
        """The grid-exact carrier wavenumber 2 pi k0_multiple / period."""
        return 2.0 * np.pi * self.k0_multiple / self.period

    @cached_property
    def _coarse_carrier(self) -> PeriodicGrid | None:
        """The coarsest grid size n_c (``_is_grid_size``) with this period
        whose Nyquist wavenumber lies above carrier harmonic
        ``_CARRIER_HARMONICS`` (n_c / 2 > 3 m), as a grid, where it is
        coarser than this grid; None where this grid is that grid or is
        coarser (a grid that held itself would be a reference cycle,
        whose cached arrays only the garbage collector frees)."""
        m = self.k0_multiple
        n_c = 16
        while n_c < self.n and n_c // 2 <= _CARRIER_HARMONICS * m:
            n_c = _next_grid_size(n_c)
        if n_c == self.n:
            return None
        return PeriodicGrid(n=n_c, period=self.period, k0_multiple=m)

    @property
    def carrier_grid(self) -> PeriodicGrid:
        """The grid's carrier grid: the coarser one it holds
        (``_coarse_carrier``), the same object on every call, with the
        carrier waves (``carrier_waves``) and symbols it has built; this
        grid itself where it has none.

        The test profile holds carrier harmonics 0..2 only, so it and its
        truncated functionals are resolved to rounding on this grid; the
        descent's ladder starts on it.
        """
        return self._coarse_carrier or self

    @cached_property
    def carrier_waves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """cos(k x), cos(2 k x) and sin(k x) at the carrier k, sampled on
        the grid."""
        kc, x = self.carrier, self.x
        return np.cos(kc * x), np.cos(2.0 * kc * x), np.sin(kc * x)

    @cached_property
    def symbols(self) -> _Symbols:
        """The grid's multiplier symbols (``_Symbols``), built on first use
        and freed with the grid."""
        return _Symbols(self.n, self.period)


def make_grid(n: int, k0: float, multiples: int) -> PeriodicGrid:
    """Grid whose period is an exact integer number of carrier wavelengths."""
    return PeriodicGrid(n=n, period=2.0 * np.pi * multiples / k0,
                        k0_multiple=multiples)


def _resample(rows: np.ndarray, n_to: int) -> np.ndarray:
    """Values on n_to samples of the band-limited interpolant of rows of
    samples on the same period: their Nyquist-cleaned spectrum,
    zero-padded.  Exact for rows whose spectrum lies below both Nyquist
    wavenumbers."""
    n = rows.shape[-1]
    return np.fft.irfft(_rfft(rows, n), n_to) * (n_to / n)


def _fbar_inverse_entries(k: np.ndarray, d: np.ndarray, o: np.ndarray):
    """Symbols of the inverse upper-layer matrix multiplier, from the
    F-bar entries (d, o) = ``fbar_entries(k)``.

    The entries satisfy d^2 - o^2 = k^2, so the inverse matrix is
    [[d, -o], [-o, d]]/k^2.  It is singular at k = 0 on vectors (1, 1);
    fields it acts on here have zero-sum zero modes, where the limit
    acts as the projection [[1, -1], [-1, 1]]/4.
    """
    k2, pos = k**2, k != 0.0
    return (np.divide(d, k2, out=np.full_like(k2, 0.25), where=pos),
            np.divide(-o, k2, out=np.full_like(k2, -0.25), where=pos))


class _Symbols:
    """Multiplier symbols of the grid of n samples on ``period``, on the
    padded band, with views of their first n/2 + 1 entries as the base
    band (``absk`` and ``absk_pad``, and so on).

    ``fb_diag``/``fb_off`` are the entries of F-bar, the upper-layer
    multiplier matrix, from ``dispersion.fbar_entries``, and
    ``nb_diag_pad``/``nb_off_pad`` those of its inverse; every F-bar
    product in the truncated functionals is formed from them.
    ``parseval`` weights products of padded-grid rfft coefficients so that
    their sum is the integral of the product of the two fields over the
    period.  ``h2_weight`` is the base-band H^2 symbol 1 + k^2 + k^4.
    """

    def __init__(self, n: int, period: float):
        k = 2.0 * np.pi / period * np.arange(_PAD * n // 2 + 1)
        fb_d, fb_o = fbar_entries(k)
        band = slice(0, n // 2 + 1)
        for name, value in (("absk", np.abs(k)), ("fb_diag", fb_d),
                            ("fb_off", fb_o), ("ik", 1j * k),
                            ("mk2", -(k**2))):
            setattr(self, name + "_pad", value)
            setattr(self, name, value[band])
        self.nb_diag_pad, self.nb_off_pad = _fbar_inverse_entries(
            k, fb_d, fb_o)
        self.h2_weight = 1.0 + self.absk**2 + self.absk**4
        npad = _PAD * n
        w = np.full(npad // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        self.parseval = w * period / npad**2


def _clean(U: np.ndarray, n: int) -> np.ndarray:
    U[..., n // 2] = 0.0
    return U


def _rfft(u: np.ndarray, n: int) -> np.ndarray:
    return _clean(np.fft.rfft(u), n)


def _fbar_apply(diag: np.ndarray, off: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the symmetric matrix multiplier [[diag, off], [off, diag]] to
    the stacked spectra X = (X1, X2), into a new C-ordered array; each
    entry is the sum of the same two products as in the written-out
    form [d X1 + o X2, o X1 + d X2]."""
    Y = diag * X
    Y[0] += off * X[1]
    Y[1] += off * X[0]
    return Y


@dataclass
class ProfilePair:
    """Interface and surface elevations on a shared periodic grid.

    ``carrier_copy`` is set by ``build_eta_star`` alone, on a test profile
    whose grid is finer than its carrier grid
    (``PeriodicGrid.carrier_grid``): the carrier-grid samples it was built
    from, where the profile is exact, and whose band-limited interpolant
    the pair holds.  eval_J and eval_L_trunc evaluate a plain pair on its
    copy, at 2 n_c points; grad_J, whose gradient lives on the grid,
    ignores it.  The four arrays of a profile with a copy are read-only,
    so no in-place write can leave the copy stale.  A pair built from its
    arrays has no copy.
    """

    grid: PeriodicGrid
    eta_under: np.ndarray
    eta_over: np.ndarray
    carrier_copy: ProfilePair | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n
        if self.eta_under.shape != (n,) or self.eta_over.shape != (n,):
            raise ConfigError("profile arrays must match the grid size")


@dataclass(frozen=True)
class FunctionalBreakdown:
    k_total: float
    k2: float
    k4: float
    l2: float
    l3: float
    l4: float
    l_trunc: float
    j_mu: float
    mu: float
    #: the upper layer's quadratic term before the density weighting,
    #: (1/2) int (u B1 + v B2) (``minimizer.line_corrected`` reads it)
    l2_upper: float


class _Products(NamedTuple):
    """The kinetic-energy products a gradient needs, and the upper quartic
    term they give.

    P = F[u |k|u] and S = F[u B1, v B2] are padded spectra, as is
    Z = Fbar^{-1} W, where W = d/dx S - Fbar R, with R = F[u u_x, v v_x],
    is the first-order flux correction of the upper layer.
    """

    P: np.ndarray
    S: np.ndarray
    Z: np.ndarray
    upper_l4: float


class StagedProfile:
    """A profile and its value stage: the transforms of the profile, each
    formed once.

    Built from ``UV``, the rfft spectrum of the pair's rows with its
    Nyquist column zero (``_staged`` takes it in one call).  The base-band
    fields u, v, u_x, v_x, u_xx, |k|u and (B1, B2) = Fbar (u, v) are held
    as values on the padded grid, where products are formed: one call
    transforms their eight stacked spectra.  The seven product spectra
    of the kinetic energy are formed on first use, in one more call, so
    the surface energy alone never pays for them.  A batched call
    transforms each row exactly as it transforms that row alone.

    eval_J and grad_J take a StagedProfile wherever they take a
    ProfilePair.  It holds about a dozen padded fields and spectra, so
    its owner drops it as soon as it is done with it.
    """

    def __init__(self, grid: PeriodicGrid, UV: np.ndarray):
        self._breakdown: tuple[tuple, FunctionalBreakdown] | None = None
        g = self.grid = grid
        s = self.sym = g.symbols
        self.UV = UV
        U = UV[0]
        X = np.empty((8, UV.shape[-1]), dtype=complex)
        X[:2] = UV
        np.multiply(s.ik, UV, out=X[2:4])
        np.multiply(s.mk2, U, out=X[4])
        np.multiply(s.absk, U, out=X[5])
        self.B_hat = _fbar_apply(s.fb_diag, s.fb_off, UV)
        X[6:] = self.B_hat
        X *= _PAD
        (self.u, self.v, self.ux, self.vx, self.uxx, self.Ku,
         self.B1, self.B2) = np.fft.irfft(X, _PAD * g.n)

    def padded(self, X: np.ndarray) -> np.ndarray:
        """Padded-grid values of base-band spectra (the inverse transform
        zero-fills the padded band)."""
        return np.fft.irfft(_PAD * X, _PAD * self.grid.n)

    def integral(self, w: np.ndarray) -> float:
        # np.mean's sum and division, without its Python wrapper
        return float(w.sum() / w.size) * self.grid.period

    def pairing(self, A: np.ndarray, C: np.ndarray) -> float:
        """Integral of the product of two fields given by padded spectra
        (summed over stacked components; A may stop at any wavenumber)."""
        m = A.shape[-1]
        wA = (self.sym.parseval[:m] * A).view(float).ravel()
        # einsum, not vdot: vdot goes through BLAS, whose worker threads
        # made it up to 60 times slower on a busy 2-core host.  einsum's
        # sum order follows its operands' memory order, so the helpers
        # that build the spectra it reads (``_fbar_apply``, ``_staged``)
        # return C-ordered arrays
        return float(np.einsum("i,i->", wA, C[..., :m].view(float).ravel()))

    @cached_property
    def products(self) -> _Products:
        # the seven spectra come from one transform; the block is dropped
        # once its integrals are taken, and P and S, which the gradient
        # stage needs, are copied out of it so as not to hold all seven:
        # this and the gradient stage set the peak memory of a descent
        s = self.sym
        u, v = self.u, self.v
        # u |k|u, r1 = u u_x, r2 = v v_x, u r1, v r2, u B1 and v B2
        Q = np.empty((7, u.size))
        np.multiply(u, self.Ku, out=Q[0])
        np.multiply(u, self.ux, out=Q[1])
        np.multiply(v, self.vx, out=Q[2])
        np.multiply(u, Q[1], out=Q[3])
        np.multiply(v, Q[2], out=Q[4])
        np.multiply(u, self.B1, out=Q[5])
        np.multiply(v, self.B2, out=Q[6])
        spectra = np.fft.rfft(Q)
        del Q
        P, S = spectra[0].copy(), spectra[5:].copy()
        Bx = _PAD * s.ik * self.B_hat  # padded spectra of B1', B2', base band
        upper_l4 = 0.5 * self.pairing(Bx, spectra[3:5])
        R = spectra[1:3]
        FR = _fbar_apply(s.fb_diag_pad, s.fb_off_pad, R)
        upper_l4 -= 0.5 * self.pairing(FR, R)
        del spectra, R
        W = s.ik_pad * S
        W -= FR
        del FR
        Z = _fbar_apply(s.nb_diag_pad, s.nb_off_pad, W)
        upper_l4 += 0.5 * self.pairing(Z, W)
        return _Products(P, S, Z, upper_l4)

    def breakdown(self, p: Params, mu: float) -> FunctionalBreakdown:
        key = (p, mu)
        if self._breakdown is None or self._breakdown[0] != key:
            self._breakdown = key, _breakdown(self, p, mu)
        return self._breakdown[1]

    def h2_sq(self) -> float:
        """Squared discrete H^2 norm, int eta^2 + eta_x^2 + eta_xx^2 summed
        over both components: a Parseval sum of the held spectrum (the
        padded spectrum is _PAD times ``UV``), with no transform."""
        return _PAD**2 * self.pairing(self.sym.h2_weight * self.UV, self.UV)


def _staged(eta: ProfilePair) -> StagedProfile:
    """The pair staged from the spectrum of its rows."""
    rows = np.empty((2, eta.grid.n))
    rows[0] = eta.eta_under
    rows[1] = eta.eta_over
    return StagedProfile(eta.grid, _rfft(rows, eta.grid.n))


def _lower_parts(f: StagedProfile):
    """Quadratic, cubic and quartic kinetic terms of the lower layer."""
    u, ux, uxx, Ku = f.u, f.ux, f.uxx, f.Ku
    P = f.products.P
    l2 = 0.5 * f.integral(u * Ku)
    l3 = 0.5 * f.integral((ux**2 - Ku**2) * u)
    l4 = 0.5 * (f.integral(u**2 * uxx * Ku) + f.pairing(f.sym.absk_pad * P, P))
    return l2, l3, l4


def _upper_parts(f: StagedProfile):
    """Upper-layer truncation.

    The quartic term comes from second-order perturbation theory of the
    strip Neumann-Dirichlet map,

        l4 = 1/2 int N0 W . W
             - 1/2 int [r1 K11 r1 + 2 r1 K12 r2 + r2 K22 r2]
             + 1/2 int [B1' u^2 u_x + B2' v^2 v_x],

    with r1 = u u_x, r2 = v v_x and W the first-order flux correction;
    the same derivation specialised to one boundary reproduces the
    single-layer quartic term exactly.  ``StagedProfile.products`` evaluates
    all three integrals as Parseval sums of the product spectra.
    """
    u, v, ux, vx, B1, B2 = f.u, f.v, f.ux, f.vx, f.B1, f.B2
    l2 = 0.5 * f.integral(u * B1 + v * B2)
    l3 = 0.5 * f.integral(-(ux**2 - B1**2) * u + (vx**2 - B2**2) * v)
    return l2, l3, f.products.upper_l4


def _l_parts(f: StagedProfile, p: Params):
    """The combined (l2, l3, l4), and the upper layer's l2 before rho."""
    lo = _lower_parts(f)
    up = _upper_parts(f)
    return tuple(a + p.rho * b for a, b in zip(lo, up)), up[0]


def _k_parts(f: StagedProfile, p: Params):
    """Exact surface energy and its quadratic and quartic truncations,
    (k_total, k2, k4).  The exact value integrates sqrt(1 + eta_x^2) - 1
    written as eta_x^2 / (sqrt(1 + eta_x^2) + 1), which keeps full relative
    precision at small slopes."""
    r, bu, bo = p.rho, p.beta_under, p.beta_over
    u2, v2, ux2, vx2 = f.u**2, f.v**2, f.ux**2, f.vx**2
    k_total = f.integral(
        0.5 * (1.0 - r) * u2 + 0.5 * r * v2
        + bu * ux2 / (np.sqrt(1.0 + ux2) + 1.0)
        + r * bo * vx2 / (np.sqrt(1.0 + vx2) + 1.0)
    )
    k2 = 0.5 * f.integral(
        (1.0 - r) * u2 + r * v2 + bu * ux2 + r * bo * vx2
    )
    # squared squares: numpy's power takes a slow generic path for **4
    k4 = -0.125 * f.integral(bu * ux2**2 + r * bo * vx2**2)
    return k_total, k2, k4


def _breakdown(f: StagedProfile, p: Params, mu: float) -> FunctionalBreakdown:
    k_total, k2, k4 = _k_parts(f, p)
    (l2, l3, l4), l2_upper = _l_parts(f, p)
    l_trunc = l2 + l3 + l4
    if l_trunc <= 0.0:
        raise OutOfConeError(
            f"truncated kinetic energy is non-positive ({l_trunc}); "
            "profile left the validity cone"
        )
    return FunctionalBreakdown(
        k_total=k_total, k2=k2, k4=k4, l2=l2, l3=l3, l4=l4,
        l_trunc=l_trunc, j_mu=k_total + mu**2 / l_trunc, mu=mu,
        l2_upper=l2_upper,
    )


def _gradient(f: StagedProfile, p: Params, ck: float, cl: float):
    """Gradient stage: the L^2 gradient of ck K + cl L_trunc on the n-grid,
    as its rfft spectrum G, shape (2, n/2 + 1), Nyquist column zero
    (``np.fft.irfft(G, n)`` gives the two gradient rows).

    Terms free of an outer multiplier are summed on the padded grid, and
    products under a common multiplier are summed before their forward
    transform.  Only the grid band of the result survives, so the
    multipliers, F-bar included, and the weights ck and cl act on that
    band of the padded spectra, whose sum is G.  Each padded field is
    dropped once its terms are formed.  ``grad_J`` passes ck = 1; the
    weights stay because ``tests/spectral_helpers.py`` takes grad K
    (ck, cl = 1, 0) and grad L_trunc (0, 1) from this body, which the
    acceptance and reference-parity tests check one at a time.
    """
    s, r, n = f.sym, p.rho, f.grid.n
    npad = _PAD * n
    u, v, ux, vx = f.u, f.v, f.ux, f.vx

    def band_spectra(a, b):
        rows = np.empty((2, npad))
        rows[0] = a
        rows[1] = b
        return np.fft.rfft(rows)[:, : n // 2 + 1]

    # surface tension: -beta d/dx (eta_x / sqrt(1 + eta_x^2))
    beta = np.array([[p.beta_under], [r * p.beta_over]])
    G = -ck * beta * s.ik * band_spectra(ux / np.sqrt(1.0 + ux**2),
                                         vx / np.sqrt(1.0 + vx**2))
    point_u = ck * (1.0 - r) * u
    point_v = ck * r * v
    if cl:
        q = f.products
        uxx, Ku, B1, B2 = f.uxx, f.Ku, f.B1, f.B2
        # lower layer, with the products under -k^2 and under |k|
        KuKu = np.fft.irfft(s.absk_pad * q.P, npad)
        point_u += cl * (Ku - 0.5 * Ku**2 - 0.5 * ux**2 - u * uxx
                         + u * uxx * Ku + Ku * KuKu)
        Y = band_spectra(u**2 * Ku, 0.5 * u**2 * uxx + u * (KuKu - Ku))
        G[0] += cl * (0.5 * s.mk2 * Y[0] + s.absk * Y[1])
        del KuKu
        # upper layer, with the products under F-bar, where
        # d/dx (u^2 u_x) / 2 enters as u u_x^2 + u^2 u_xx / 2
        cr = cl * r
        vxx = f.padded(s.mk2 * f.UV[1])
        point_u += cr * (B1 + 0.5 * ux**2 + u * uxx + 0.5 * B1**2)
        point_v += cr * (B2 - 0.5 * vx**2 - v * vxx - 0.5 * B2**2)
        z1x, z2x = np.fft.irfft(s.ik_pad * q.Z, npad)
        point_u -= cr * z1x * B1
        point_v -= cr * z2x * B2
        Y = band_spectra(u * (z1x - B1 + ux**2 + 0.5 * u * uxx),
                         v * (z2x + B2 + vx**2 + 0.5 * v * vxx))
        G -= cr * _fbar_apply(s.fb_diag, s.fb_off, Y)
        del vxx, z1x, z2x
        B1xx, B2xx = f.padded(s.mk2 * f.B_hat)
        point_u -= 0.5 * cr * u**2 * B1xx
        point_v -= 0.5 * cr * v**2 * B2xx
        del B1xx, B2xx
        # d/dx Fbar (Z + R) is -k^2 S: Fbar (Z + R) = W + Fbar R = d/dx S
        Tu, Tv = np.fft.irfft(s.mk2_pad * q.S, npad)
        point_u += cr * u * Tu
        point_v += cr * v * Tv
    G += band_spectra(point_u, point_v)
    G /= _PAD
    G[:, n // 2] = 0.0
    return G


def _value_profile(eta: ProfilePair) -> ProfilePair:
    """The samples a value-only call evaluates: the carrier-grid copy
    where the pair has one (``ProfilePair.carrier_copy``)."""
    return eta if eta.carrier_copy is None else eta.carrier_copy


def eval_L_trunc(eta: ProfilePair, p: Params):
    """Combined truncation (l2, l3, l4) with the density weighting; on the
    carrier-grid copy of a test profile that has one."""
    return _l_parts(_staged(_value_profile(eta)), p)[0]


def eval_J(eta: ProfilePair | StagedProfile, p: Params,
           mu: float) -> FunctionalBreakdown:
    """Reduced objective J_mu = K_exact + mu^2 / (l2 + l3 + l4); on the
    carrier-grid copy of a test profile that has one.  A StagedProfile is
    evaluated as staged."""
    if not isinstance(eta, StagedProfile):
        eta = _staged(_value_profile(eta))
    return eta.breakdown(p, mu)


def grad_J(eta: ProfilePair | StagedProfile, p: Params, mu: float):
    """L^2 gradient of J_mu via the chain rule, as its band spectrum G
    (``_gradient``), plus the breakdown."""
    staged = eta if isinstance(eta, StagedProfile) else _staged(eta)
    bd = staged.breakdown(p, mu)
    return _gradient(staged, p, 1.0, -((mu / bd.l_trunc) ** 2)), bd


def build_eta_star(c: NlsCoefficients, crit: CriticalPoint, eps: float,
                   grid: PeriodicGrid, p: Params) -> ProfilePair:
    """Modulated-carrier test profile.

    eps phi(eps x) cos(k0 x) v0, its first-harmonic corrector
    -a' d/dx[eps phi(eps x)] sin(k0 x) on the surface, and the
    second-harmonic and mean-flow corrections at order eps^2.  The
    corrector turns v0 = (1, -a(k)) with the packet's local wavenumber.
    It is the form the paper's reduction gives: eliminating the part of
    the first harmonic outside ker g(k0) leaves this Schur-complement
    term, and with it the envelope's dispersion is the branch curvature
    A2 = lambda'' v0.F v0 (``nls``).  The profile stays even.  Envelopes
    are wrapped once around the period, which makes the profile smoothly
    periodic; the wrap overlap must be negligible.

    The profile holds carrier harmonics 0..2 only, so it is sampled on
    the carrier grid (``PeriodicGrid.carrier_grid``).  On that grid the
    samples are returned as computed, with no transform.  On a finer grid
    they are the band-limited interpolant of those samples
    (``_resample``), whose truncated functionals are those of the
    carrier-grid profile to rounding, and the carrier-grid samples are
    kept as the read-only ``carrier_copy`` that eval_J and eval_L_trunc
    evaluate: they return the carrier-grid build's numbers bit for bit.
    The carrier waves cos k0x, cos 2k0x and sin k0x are built once per
    carrier grid (``PeriodicGrid.carrier_waves``, held by the carrier
    grid object, which a finer grid holds), so every build on one grid,
    or on its carrier grid, reuses them.  The second-harmonic and
    mean-flow vectors w1 = g(2k0)^-1 A3_1 and w2 = g(0)^-1 A3_2 are those
    that ``nls.compute_a3`` solves for A3, read off ``c``.  ``p`` is not
    used; it stays for the callers that pass it.
    """
    if not eps > 0.0:
        raise RangeError("eps must be positive")
    amp, decay = soliton_shape(c)
    L = grid.period
    if eps < wrap_floor(c, grid):
        overlap = 1.0 / math.cosh(0.5 * decay * eps * L)
        raise GeometryError(
            f"envelope wrap overlap {overlap:.2e} exceeds {_WRAP_OVERLAP:g}; "
            "enlarge the period or the carrier multiple"
        )
    kc = grid.carrier
    if abs(kc - crit.k0) > 1e-8 * crit.k0:
        raise ConfigError(
            f"grid carrier {kc} does not represent k0={crit.k0}"
        )

    coarse = grid.carrier_grid
    x = coarse.x
    # phi(eps x) and d/dx [eps phi(eps x)], each wrapped once
    phi = np.zeros_like(x)
    dphi = np.zeros_like(x)
    for j in (-1, 0, 1):
        z = decay * eps * (x + j * L)
        sech = 1.0 / np.cosh(z)
        phi += amp * sech
        dphi -= amp * decay * eps**2 * sech * np.tanh(z)

    w1, w2 = c.w_harmonic, c.w_mean
    env2 = -0.5 * phi**2

    carrier, carrier2, sine = coarse.carrier_waves
    eta_under = (
        eps * phi * carrier
        + eps**2 * env2 * (w1[0] * carrier2 + w2[0])
    )
    eta_over = (
        -crit.a * eps * phi * carrier
        - crit.a_prime * dphi * sine
        + eps**2 * env2 * (w1[1] * carrier2 + w2[1])
    )
    if coarse is grid:
        return ProfilePair(grid, eta_under, eta_over)
    eta = ProfilePair(grid, *_resample(np.stack([eta_under, eta_over]),
                                       grid.n))
    eta.carrier_copy = ProfilePair(coarse, eta_under, eta_over)
    for a in (eta.eta_under, eta.eta_over, eta.carrier_copy.eta_under,
              eta.carrier_copy.eta_over):
        a.flags.writeable = False
    return eta


#: largest envelope overlap across the period ends that a test profile
#: may carry, sech(decay * eps * period / 2)
_WRAP_OVERLAP = 1e-12
#: margin on the shortest period that passes the envelope wrap test
_WRAP_SAFETY = 1.1


def wrap_floor(c: NlsCoefficients, grid: PeriodicGrid) -> float:
    """Smallest eps whose test profile passes the envelope wrap test on
    the grid, 2 acosh(1e12) / (decay * period); ``build_eta_star`` rejects
    every eps below it."""
    return (2.0 * math.acosh(1.0 / _WRAP_OVERLAP)
            / (soliton_shape(c)[1] * grid.period))


def suggest_carrier_multiple(c: NlsCoefficients, crit: CriticalPoint,
                             mu: float) -> int:
    """Smallest carrier multiple whose period passes the wrap test at mu.

    sech(x) < 1e-12 needs x > 28.4, so the period puts the grid's wrap
    floor (``wrap_floor``) at or below 0.95 mu / ``_WRAP_SAFETY``, about
    0.86 mu.  The root of mu(eps) = mu lies above it in the
    small-amplitude range, where eps = mu (1 - kappa mu^2) with
    kappa mu^2 of a few percent; ``eps_of_mu`` never probes below the
    floor.
    """
    if not 0.0 < mu < math.inf:
        raise RangeError(f"mu must be positive and finite, got {mu}")
    _, decay = soliton_shape(c)
    period_min = 2.0 * 28.4 * _WRAP_SAFETY / (decay * 0.95 * mu)
    return max(1, math.ceil(period_min * crit.k0 / (2.0 * np.pi)))


def mu_of_eps(p: Params, c: NlsCoefficients, crit: CriticalPoint,
              grid: PeriodicGrid, eps: float) -> float:
    """Momentum level carried by the test profile: mu = nu0 * L_trunc,
    evaluated on the carrier grid (``PeriodicGrid.carrier_grid``), where
    the profile and its truncated kinetic energy are exact whatever the
    size of ``grid``."""
    eta = build_eta_star(c, crit, eps, grid.carrier_grid, p)
    l2, l3, l4 = eval_L_trunc(eta, p)
    return crit.nu0 * (l2 + l3 + l4)


def _cubic_model_root(mu: float, kappa: float) -> float | None:
    """Root of eps + kappa eps^3 = mu on the increasing branch of the
    cubic, by Newton's method from eps = mu; None where it has none.

    The cubic is convex (kappa > 0) or concave (kappa < 0) for eps > 0,
    so the iterates approach the root from one side without crossing it.
    """
    eps = mu
    for _ in range(50):
        slope = 1.0 + 3.0 * kappa * eps**2
        if slope <= 0.0:
            return None
        step = (eps + kappa * eps**3 - mu) / slope
        eps -= step
        if abs(step) <= 1e-15 * eps:
            return eps
    return None


#: bracket rungs (below, above) in units of mu, widened in turn when the
#: model step does not bracket the root
_LADDER = ((0.95, 1.06), (0.8, 1.25), (0.5, 2.0), (0.25, 4.0))


def eps_of_mu(p: Params, c: NlsCoefficients, crit: CriticalPoint,
              grid: PeriodicGrid, mu: float) -> float:
    """Invert eps -> mu(eps), bracketing the root from the NLS scaling.

    mu(eps) = eps + O(eps^3), so one value f0 = mu(eps0) - mu at
    eps0 = mu fixes kappa = f0 / mu^3 in the odd cubic model
    eps + kappa eps^3 = mu, whose root eps1 is a scalar solve.  Where
    f(eps1) and f0 differ in sign they bracket the root, and the
    bracketed secant iteration (``dispersion._secant_root``) starts at
    their secant point.  Otherwise the bracket widens rung by rung
    (``_LADDER``), reusing every value already taken.  Where the model's
    curvature puts the bracket's secant point within half an ulp of the
    root, that point is returned without a further value.  On the bench
    configuration the inversion takes two values of mu(eps) below
    mu ~ 8.5e-4, three up to about 2.6e-3 and four near 4e-3.  No trial lies
    below the grid's wrap floor (``wrap_floor``); where mu(eps) at the
    floor already exceeds mu, the root is unreachable on this grid and
    a RangeError says so.  Every value of mu(eps) is taken on the carrier
    grid (``mu_of_eps``), so each costs transforms of 2 n_c points, and
    on every grid at least as fine as the carrier grid the root is the
    same number.  A finer grid holds its carrier grid, so the test
    profile's carrier waves cos k0x, cos 2k0x and sin k0x are built once
    per grid (``build_eta_star``), for every trial and for the
    ``build_eta_star`` that follows on the same grid, and each trial
    builds the profile there with no transform: 17 rows in 3 calls per
    value of mu(eps).
    """
    if not 0.0 < mu < math.inf:
        raise RangeError(f"mu must be positive and finite, got {mu}")
    eps_min = wrap_floor(c, grid)

    def f(eps: float) -> float:
        return mu_of_eps(p, c, crit, grid, eps) - mu

    lo = hi = None  # the (eps, f) nearest the root with f < 0 and f >= 0

    def probe(eps: float) -> float:
        nonlocal lo, hi
        value = f(eps)
        if value < 0.0:
            if lo is None or eps > lo[0]:
                lo = (eps, value)
        elif hi is None or eps < hi[0]:
            hi = (eps, value)
        return value

    # eps0 exceeds mu only where the period is too short for mu
    eps0 = max(mu, eps_min)
    f0 = probe(eps0)
    kappa = (f0 + mu - eps0) / eps0**3
    eps1 = _cubic_model_root(mu, kappa)
    if eps1 is not None and max(eps1, eps_min) != eps0:
        probe(max(eps1, eps_min))
    for lo_f, hi_f in _LADDER:
        if lo is None and max(lo_f * mu, eps_min) < hi[0]:
            probe(max(lo_f * mu, eps_min))
        elif hi is None and hi_f * mu > lo[0]:
            probe(hi_f * mu)
    if lo is None and hi[0] == eps_min:
        raise RangeError(
            f"mu(eps) exceeds mu={mu:g} already at the wrap floor "
            f"eps_min = {eps_min / mu:.4f} mu of this grid (carrier multiple "
            f"{grid.k0_multiple}): mu is outside the small-amplitude range, "
            "or the period is too short for it"
        )
    if lo is None or hi is None or lo[0] > hi[0]:
        raise RangeError(
            "mu(eps) is not increasing through the target on the bracket; "
            "eps is outside the small-amplitude range"
        )
    (a, fa), (b, fb) = lo, hi
    x = (a * fb - b * fa) / (fb - fa)
    # the secant point misses the root by about f''/(2 f') (x - a)(x - b);
    # where the cubic model puts that within half an ulp, a value at x
    # would only re-read rounding
    if (abs(3.0 * kappa * x / (1.0 + 3.0 * kappa * x**2) * (x - a) * (x - b))
            <= 0.5 * math.ulp(x)):
        return x
    return _secant_root(f, a, b, fa, fb, x)
