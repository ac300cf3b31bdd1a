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

* Value stage (``_Fields``).  The (u, v) pair is transformed once; the
  padded fields u, v, u_x, v_x, u_xx, |k|u, B1 and B2 take one inverse
  transform each, and each product in L_trunc one forward transform.
  Every integral is a sum of padded-grid values or, where it has the
  form int a M b, a Parseval sum of spectra already held, with no
  inverse transform.  Value-only calls (eval_J, eval_L_trunc, mu_of_eps)
  stop here: 17 one-dimensional transforms.
* Gradient stage (``_gradient``), run only for gradients.  Products
  under a common multiplier are summed before one forward transform,
  multipliers are combined and the chain-rule weights applied on the
  padded spectrum, and the result is truncated and transformed back once
  per component: grad_J costs 35 one-dimensional transforms in all.

F-bar, the upper-layer multiplier matrix [[d, o], [o, d]] with
d = |k| coth|k| and o = -|k|/sinh|k|, is owned by
``dispersion.fbar_entries``, which the coefficient formulas in ``nls``
also use.  Its inverse [[d, -o], [-o, d]]/k^2 is read off those entries
by ``_fbar_inverse_entries``, and both are tabulated per grid in
``_Symbols``.  The ``dno`` oracle shares no code with either.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dispersion import (CriticalPoint, Params, eval_g, fbar_entries,
                         _secant_root)
from .errors import ConfigError, GeometryError, OutOfConeError, RangeError
from .nls import NlsCoefficients, soliton_shape

_PAD = 2


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid of n samples on [-period/2, period/2)."""

    n: int
    period: float
    k0_multiple: int | None = None

    def __post_init__(self):
        if not _is_power_of_two(self.n) or self.n < 16:
            raise ConfigError(f"n must be a power of two >= 16, got {self.n}")
        if self.period <= 0.0:
            raise ConfigError("period must be positive")

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

    @cached_property
    def k_pad(self) -> np.ndarray:
        return 2.0 * np.pi / self.period * np.arange(_PAD * self.n // 2 + 1)

    @property
    def carrier(self) -> float:
        """The grid-exact carrier wavenumber 2 pi k0_multiple / period."""
        if self.k0_multiple is None:
            raise ConfigError("grid was built without a carrier multiple")
        return 2.0 * np.pi * self.k0_multiple / self.period


def make_grid(n: int, k0: float, multiples: int) -> PeriodicGrid:
    """Grid whose period is an exact integer number of carrier wavelengths."""
    if multiples < 1:
        raise ConfigError("need at least one carrier wavelength in the period")
    return PeriodicGrid(n=n, period=2.0 * np.pi * multiples / k0,
                        k0_multiple=multiples)


def _fbar_inverse_entries(k: np.ndarray):
    """Symbols of the inverse upper-layer matrix multiplier.

    The F-bar entries (d, o) satisfy d^2 - o^2 = k^2, so the inverse
    matrix is [[d, -o], [-o, d]]/k^2.  It is singular at k = 0 on vectors
    (1, 1); fields it acts on here have zero-sum zero modes, where the
    limit acts as the projection [[1, -1], [-1, 1]]/4.
    """
    d, o = fbar_entries(k)
    k2, pos = k**2, k != 0.0
    return (np.divide(d, k2, out=np.full_like(k2, 0.25), where=pos),
            np.divide(-o, k2, out=np.full_like(k2, -0.25), where=pos))


class _Symbols:
    """Per-grid multiplier symbols on the padded band, with views of their
    first n/2 + 1 entries as the base band (``absk`` and ``absk_pad``,
    and so on).

    ``fb_diag``/``fb_off`` are the entries of F-bar, the upper-layer
    multiplier matrix, from ``dispersion.fbar_entries``, and
    ``nb_diag_pad``/``nb_off_pad`` those of its inverse; every F-bar
    product in the truncated functionals is formed from them.
    ``parseval`` weights products of padded-grid rfft coefficients so that
    their sum is the integral of the product of the two fields over the
    period.  ``h2_weight`` is the base-band H^2 symbol 1 + k^2 + k^4.
    """

    def __init__(self, grid: PeriodicGrid):
        k = grid.k_pad
        fb_d, fb_o = fbar_entries(k)
        band = slice(0, grid.n // 2 + 1)
        for name, value in (("absk", np.abs(k)), ("fb_diag", fb_d),
                            ("fb_off", fb_o), ("ik", 1j * k),
                            ("mk2", -(k**2))):
            setattr(self, name + "_pad", value)
            setattr(self, name, value[band])
        self.nb_diag_pad, self.nb_off_pad = _fbar_inverse_entries(k)
        self.h2_weight = 1.0 + self.absk**2 + self.absk**4
        npad = _PAD * grid.n
        w = np.full(npad // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        self.parseval = w * grid.period / npad**2


#: grids whose symbols stay cached; a descent or an eps(mu) inversion
#: works on one grid at a time, a sweep on one grid per mu
_SYMBOL_GRIDS = 4
_symbol_cache: OrderedDict[tuple[int, float], _Symbols] = OrderedDict()


def _symbols(grid: PeriodicGrid) -> _Symbols:
    """Symbols of a grid, kept for the most recently used grids."""
    key = (grid.n, grid.period)
    sym = _symbol_cache.get(key)
    if sym is None:
        sym = _symbol_cache[key] = _Symbols(grid)
        if len(_symbol_cache) > _SYMBOL_GRIDS:
            _symbol_cache.popitem(last=False)
    else:
        _symbol_cache.move_to_end(key)
    return sym


def _clean(U: np.ndarray, n: int) -> np.ndarray:
    U[n // 2] = 0.0
    return U


def _rfft(u: np.ndarray, n: int) -> np.ndarray:
    return _clean(np.fft.rfft(u), n)


def _fbar_apply(diag: np.ndarray, off: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the symmetric matrix multiplier [[diag, off], [off, diag]] to
    the stacked spectra X = (X1, X2)."""
    return np.stack([diag * X[0] + off * X[1], off * X[0] + diag * X[1]])


@dataclass
class ProfilePair:
    """Interface and surface elevations on a shared periodic grid."""

    grid: PeriodicGrid
    eta_under: np.ndarray
    eta_over: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        if self.eta_under.shape != (n,) or self.eta_over.shape != (n,):
            raise ConfigError("profile arrays must match the grid size")

    def copy(self) -> "ProfilePair":
        return ProfilePair(self.grid, self.eta_under.copy(), self.eta_over.copy())

    def roll(self, shift: int) -> "ProfilePair":
        return ProfilePair(self.grid, np.roll(self.eta_under, shift),
                           np.roll(self.eta_over, shift))

    def h2_sq(self) -> float:
        """Squared discrete H^2 norm, int eta^2 + eta_x^2 + eta_xx^2 summed
        over both components."""
        n = self.grid.n
        w = _symbols(self.grid).h2_weight
        # rfft coefficient -> line-spectrum weights (count +-k once each)
        mult = np.full(n // 2 + 1, 2.0)
        mult[0] = 1.0
        s = 0.0
        for comp in (self.eta_under, self.eta_over):
            U = _rfft(comp, n) / n
            s += float(np.sum(mult * w * np.abs(U) ** 2))
        return s * self.grid.period

    def h2_norm(self) -> float:
        """Discrete H^2 norm, the square root of ``h2_sq``."""
        return math.sqrt(self.h2_sq())


def zero_profile(grid: PeriodicGrid) -> ProfilePair:
    return ProfilePair(grid, np.zeros(grid.n), np.zeros(grid.n))


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


class _Products(NamedTuple):
    """The kinetic-energy products a gradient needs, and the upper quartic
    term they give.

    P = F[u |k|u] and R = F[u u_x, v v_x] are padded spectra, as is
    Z = Fbar^{-1} W, where W = d/dx F[u B1, v B2] - Fbar R is the
    first-order flux correction of the upper layer.
    """

    P: np.ndarray
    R: np.ndarray
    Z: np.ndarray
    upper_l4: float


class _Fields:
    """Value stage: the transforms of one profile, each formed once.

    The pair is transformed once and the base-band fields u, v, u_x,
    v_x, u_xx, |k|u and (B1, B2) = Fbar (u, v) are held as values on the
    padded grid, where products are formed.  The spectra of the products
    in the kinetic energy are formed on first use, so the surface energy
    alone never pays for them.  Transforms run on (lower, upper) pairs of
    rows.
    """

    def __init__(self, eta: ProfilePair):
        g = self.grid = eta.grid
        s = self.sym = _symbols(g)
        UV = np.fft.rfft(np.stack([eta.eta_under, eta.eta_over]))
        UV[:, g.n // 2] = 0.0
        U, self.V = UV
        self.B_hat = _fbar_apply(s.fb_diag, s.fb_off, UV)
        self.u, self.v = self.padded(UV)
        self.ux, self.vx = self.padded(s.ik * UV)
        self.uxx, self.Ku = self.padded(np.stack([s.mk2 * U, s.absk * U]))
        self.B1, self.B2 = self.padded(self.B_hat)

    def padded(self, X: np.ndarray) -> np.ndarray:
        """Padded-grid values of base-band spectra (the inverse transform
        zero-fills the padded band)."""
        return np.fft.irfft(_PAD * X, _PAD * self.grid.n)

    def integral(self, w: np.ndarray) -> float:
        return float(np.mean(w)) * self.grid.period

    def pairing(self, A: np.ndarray, C: np.ndarray) -> float:
        """Integral of the product of two fields given by padded spectra
        (summed over stacked components; A may stop at any wavenumber)."""
        m = A.shape[-1]
        wA = (self.sym.parseval[:m] * A).view(float).ravel()
        # einsum, not vdot: vdot goes through BLAS, whose worker threads
        # made it up to 60 times slower on a busy 2-core host
        return float(np.einsum("i,i->", wA, C[..., :m].view(float).ravel()))

    @cached_property
    def products(self) -> _Products:
        # each spectrum is dropped once its integrals are taken: this
        # and the gradient stage set the peak memory of a descent
        s = self.sym
        u, v = self.u, self.v
        r1, r2 = u * self.ux, v * self.vx
        P = np.fft.rfft(u * self.Ku)
        R = np.fft.rfft(np.stack([r1, r2]))
        S = np.fft.rfft(np.stack([u * r1, v * r2]))
        del r1, r2
        Bx = _PAD * s.ik * self.B_hat  # padded spectra of B1', B2', base band
        upper_l4 = 0.5 * self.pairing(Bx, S)
        del S
        FR = _fbar_apply(s.fb_diag_pad, s.fb_off_pad, R)
        upper_l4 -= 0.5 * self.pairing(FR, R)
        W = s.ik_pad * np.fft.rfft(np.stack([u * self.B1, v * self.B2]))
        W -= FR
        del FR
        Z = _fbar_apply(s.nb_diag_pad, s.nb_off_pad, W)
        upper_l4 += 0.5 * self.pairing(Z, W)
        return _Products(P, R, Z, upper_l4)


def _lower_parts(f: _Fields):
    """Quadratic, cubic and quartic kinetic terms of the lower layer."""
    u, ux, uxx, Ku = f.u, f.ux, f.uxx, f.Ku
    P = f.products.P
    l2 = 0.5 * f.integral(u * Ku)
    l3 = 0.5 * f.integral((ux**2 - Ku**2) * u)
    l4 = 0.5 * (f.integral(u**2 * uxx * Ku) + f.pairing(f.sym.absk_pad * P, P))
    return l2, l3, l4


def _upper_parts(f: _Fields):
    """Upper-layer truncation.

    The quartic term comes from second-order perturbation theory of the
    strip Neumann-Dirichlet map,

        l4 = 1/2 int N0 W . W
             - 1/2 int [r1 K11 r1 + 2 r1 K12 r2 + r2 K22 r2]
             + 1/2 int [B1' u^2 u_x + B2' v^2 v_x],

    with r1 = u u_x, r2 = v v_x and W the first-order flux correction;
    the same derivation specialised to one boundary reproduces the
    single-layer quartic term exactly.  ``_Fields.products`` evaluates
    all three integrals as Parseval sums of the product spectra.
    """
    u, v, ux, vx, B1, B2 = f.u, f.v, f.ux, f.vx, f.B1, f.B2
    l2 = 0.5 * f.integral(u * B1 + v * B2)
    l3 = 0.5 * f.integral(-(ux**2 - B1**2) * u + (vx**2 - B2**2) * v)
    return l2, l3, f.products.upper_l4


def _l_parts(f: _Fields, p: Params):
    lo = _lower_parts(f)
    up = _upper_parts(f)
    return tuple(a + p.rho * b for a, b in zip(lo, up))


def _k_parts(f: _Fields, p: Params):
    r, bu, bo = p.rho, p.beta_under, p.beta_over
    ux2, vx2 = f.ux**2, f.vx**2
    k_total = f.integral(
        0.5 * (1.0 - r) * f.u**2 + 0.5 * r * f.v**2
        + bu * (np.sqrt(1.0 + ux2) - 1.0)
        + r * bo * (np.sqrt(1.0 + vx2) - 1.0)
    )
    k2 = 0.5 * f.integral(
        (1.0 - r) * f.u**2 + r * f.v**2 + bu * ux2 + r * bo * vx2
    )
    # squared squares: numpy's power takes a slow generic path for **4
    k4 = -0.125 * f.integral(bu * ux2**2 + r * bo * vx2**2)
    return k_total, k2, k4


def _breakdown(f: _Fields, p: Params, mu: float) -> FunctionalBreakdown:
    k_total, k2, k4 = _k_parts(f, p)
    l2, l3, l4 = _l_parts(f, p)
    l_trunc = l2 + l3 + l4
    if l_trunc <= 0.0:
        raise OutOfConeError(
            f"truncated kinetic energy is non-positive ({l_trunc}); "
            "profile left the validity cone"
        )
    return FunctionalBreakdown(
        k_total=k_total, k2=k2, k4=k4, l2=l2, l3=l3, l4=l4,
        l_trunc=l_trunc, j_mu=k_total + mu**2 / l_trunc, mu=mu,
    )


def _gradient(f: _Fields, p: Params, ck: float, cl: float):
    """Gradient stage: the L^2 gradient of ck K + cl L_trunc on the n-grid.

    Terms free of an outer multiplier are summed on the padded grid, and
    products under a common multiplier are summed before their forward
    transform.  Only the grid band of the result survives, so the
    multipliers, F-bar included, and the weights ck and cl act on that
    band of the padded spectra, whose sum is transformed back once per
    component.  Each padded field is dropped once its terms are formed.
    """
    s, r, n = f.sym, p.rho, f.grid.n
    npad = _PAD * n
    u, v, ux, vx = f.u, f.v, f.ux, f.vx

    def band_spectra(a, b):
        return np.fft.rfft(np.stack([a, b]))[:, : n // 2 + 1]

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
        vxx = f.padded(s.mk2 * f.V)
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
        T = _fbar_apply(s.fb_diag_pad, s.fb_off_pad, q.Z + q.R)
        Tu, Tv = np.fft.irfft(s.ik_pad * T, npad)
        point_u += cr * u * Tu
        point_v += cr * v * Tv
    G += band_spectra(point_u, point_v)
    G /= _PAD
    G[:, n // 2] = 0.0
    gu, gv = np.fft.irfft(G, n)
    return gu, gv


def eval_L_trunc(eta: ProfilePair, p: Params):
    """Combined truncation (l2, l3, l4) with the density weighting."""
    return _l_parts(_Fields(eta), p)


def eval_K(eta: ProfilePair, p: Params):
    """Exact surface energy and its quadratic/quartic truncations.

    Returns (k_total, k2, k4).  The exact value uses the full
    sqrt(1 + eta_x^2) integrand on the padded grid; the truncations are
    the displayed polynomial parts.
    """
    return _k_parts(_Fields(eta), p)


def grad_K(eta: ProfilePair, p: Params):
    """L^2 gradient of the exact surface energy."""
    return _gradient(_Fields(eta), p, 1.0, 0.0)


def grad_L_trunc(eta: ProfilePair, p: Params):
    """L^2 gradient of the combined truncated kinetic energy."""
    return _gradient(_Fields(eta), p, 0.0, 1.0)


def eval_J(eta: ProfilePair, p: Params, mu: float) -> FunctionalBreakdown:
    """Reduced objective J_mu = K_exact + mu^2 / (l2 + l3 + l4)."""
    return _breakdown(_Fields(eta), p, mu)


def grad_J(eta: ProfilePair, p: Params, mu: float):
    """L^2 gradient of J_mu via the chain rule, plus the breakdown."""
    f = _Fields(eta)
    bd = _breakdown(f, p, mu)
    return _gradient(f, p, 1.0, -((mu / bd.l_trunc) ** 2)), bd


def l2_norm_pair(gu: np.ndarray, gv: np.ndarray, grid: PeriodicGrid) -> float:
    return math.sqrt(grid.dx * float(np.sum(gu**2 + gv**2)))


def build_eta_star(c: NlsCoefficients, crit: CriticalPoint, eps: float,
                   grid: PeriodicGrid, p: Params) -> ProfilePair:
    """Modulated-carrier test profile.

    eps phi(eps x) cos(k0 x) v0 plus the second-harmonic and mean-flow
    corrections at order eps^2.  Envelopes are wrapped once around the
    period, which makes the profile smoothly periodic; the wrap overlap
    must be negligible.
    """
    if eps == 0.0:
        return zero_profile(grid)
    if eps < 0.0:
        raise RangeError("eps must be non-negative")
    amp, decay = soliton_shape(c)
    L = grid.period
    overlap = 1.0 / math.cosh(0.5 * decay * eps * L)
    if overlap > 1e-12:
        raise GeometryError(
            f"envelope wrap overlap {overlap:.2e} exceeds 1e-12; "
            "enlarge the period or the carrier multiple"
        )
    kc = grid.carrier
    if abs(kc - crit.k0) > 1e-8 * crit.k0:
        raise ConfigError(
            f"grid carrier {kc} does not represent k0={crit.k0}"
        )

    x = grid.x
    phi = np.zeros_like(x)
    for j in (-1, 0, 1):
        phi += amp / np.cosh(decay * eps * (x + j * L))

    w1 = np.linalg.solve(eval_g(2.0 * kc, p, crit.nu0), c.a3_vec1)
    w2 = np.linalg.solve(eval_g(0.0, p, crit.nu0), c.a3_vec2)
    env2 = -0.5 * phi**2

    carrier = np.cos(kc * x)
    carrier2 = np.cos(2.0 * kc * x)
    eta_under = (
        eps * phi * carrier
        + eps**2 * env2 * (w1[0] * carrier2 + w2[0])
    )
    eta_over = (
        -crit.a * eps * phi * carrier
        + eps**2 * env2 * (w1[1] * carrier2 + w2[1])
    )
    n = grid.n
    eta_under = np.fft.irfft(_rfft(eta_under, n), n)
    eta_over = np.fft.irfft(_rfft(eta_over, n), n)
    return ProfilePair(grid, eta_under, eta_over)


#: margin on the shortest period that passes the envelope wrap test
_WRAP_SAFETY = 1.1


def suggest_carrier_multiple(c: NlsCoefficients, crit: CriticalPoint,
                             mu: float) -> int:
    """Smallest carrier multiple whose period passes the wrap test at mu.

    The widest envelope probed while inverting mu -> eps has eps ~ 0.95 mu,
    and sech(x) < 1e-12 needs x > 28.4; ``_WRAP_SAFETY`` pads the bound.
    """
    _, decay = soliton_shape(c)
    period_min = 2.0 * 28.4 * _WRAP_SAFETY / (decay * 0.95 * mu)
    return max(1, math.ceil(period_min * crit.k0 / (2.0 * np.pi)))


def mu_of_eps(p: Params, c: NlsCoefficients, crit: CriticalPoint,
              grid: PeriodicGrid, eps: float) -> float:
    """Momentum level carried by the test profile: mu = nu0 * L_trunc."""
    eta = build_eta_star(c, crit, eps, grid, p)
    l2, l3, l4 = eval_L_trunc(eta, p)
    return crit.nu0 * (l2 + l3 + l4)


def eps_of_mu(p: Params, c: NlsCoefficients, crit: CriticalPoint,
              grid: PeriodicGrid, mu: float) -> float:
    """Invert eps -> mu(eps) by a bisection-safeguarded secant iteration."""
    if mu <= 0.0:
        raise RangeError("mu must be positive")
    # mu(eps) = eps + O(eps^3): start from a narrow bracket (which keeps the
    # widest trial envelope inside the wrap tolerance) and expand if needed.
    a = b = fa = fb = None
    for lo_f, hi_f in ((0.95, 1.06), (0.8, 1.25), (0.5, 2.0), (0.25, 4.0)):
        lo, hi = lo_f * mu, hi_f * mu
        f_lo = mu_of_eps(p, c, crit, grid, lo) - mu
        f_hi = mu_of_eps(p, c, crit, grid, hi) - mu
        if f_lo < 0.0 < f_hi:
            a, b, fa, fb = lo, hi, f_lo, f_hi
            break
    if a is None:
        raise RangeError(
            "mu(eps) is not increasing through the target on the bracket; "
            "eps is outside the small-amplitude range"
        )
    # started at eps = mu, its leading order
    return _secant_root(lambda eps: mu_of_eps(p, c, crit, grid, eps) - mu,
                        a, b, fa, fb, mu)


# ---------------------------------------------------------------------------
# profile serialisation


def atomic_write_text(path, text: str):
    """Write via a same-directory temp file and rename."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(csv_path) -> str:
    return os.fspath(csv_path) + ".json"


def write_profile_csv(path, eta: ProfilePair):
    """CSV columns x, eta_under, eta_over plus a JSON grid sidecar."""
    lines = ["x,eta_under,eta_over"]
    for x, a, b in zip(eta.grid.x, eta.eta_under, eta.eta_over):
        lines.append(f"{x:.17g},{a:.17g},{b:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    meta = {
        "n": eta.grid.n,
        "period": float(f"{eta.grid.period:.17g}"),
        "k0_multiple": eta.grid.k0_multiple,
    }
    atomic_write_text(sidecar_path(path), json.dumps(meta, sort_keys=True) + "\n")


def read_profile_csv(path) -> ProfilePair:
    with open(sidecar_path(path)) as fh:
        meta = json.load(fh)
    grid = PeriodicGrid(n=meta["n"], period=meta["period"],
                        k0_multiple=meta["k0_multiple"])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape != (grid.n, 3):
        raise ConfigError(f"profile CSV shape {data.shape} does not match grid")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ConfigError("profile CSV rows must be ascending in x")
    return ProfilePair(grid, data[:, 1].copy(), data[:, 2].copy())
