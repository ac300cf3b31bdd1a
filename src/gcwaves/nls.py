"""Cubic-NLS reduction coefficients and the explicit bright-soliton data.

The dispersive coefficient A2 = lambda''(k0) v0.F(k0)v0 is the curvature
of the slow branch.  A wave packet turns its eigenvector with the local
wavenumber, v0' = (0, -a'), so A2 is not v0.g''(k0)v0 with v0 held fixed
(``CriticalPoint.a2``) but that value less 2 g22 a'^2, the Schur
complement of the first harmonic outside ker g(k0).  It vanishes where
the minimum is degenerate.  The slow-branch carrier at k0 drives
second-harmonic and mean-flow corrections whose back-reaction produces
the effective cubic coefficient A3; the direct quartic truncations
produce A4.  When A3/2 + A4 < 0 the reduced equation is focusing and
admits the sech standing wave whose amplitude, decay rate and energy are
all in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import CriticalPoint, Params, eval_PF, eval_fbar, eval_g
from .errors import ConfigError, RegimeError, ResonanceError

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NlsCoefficients:
    """The reduced equation's coefficients, and the two solves behind A3
    that the test profile carries (``compute_a3``)."""

    a2: float  # lambda''(k0) v0.F(k0)v0, the curvature of the slow branch
    a3: float
    a4: float
    w_harmonic: np.ndarray  # g(2 k0)^-1 A3_1, the second-harmonic vector
    w_mean: np.ndarray  # g(0)^-1 A3_2, the mean-flow vector
    a4_1: float
    a4_2: float
    alpha: float

    @property
    def cubic(self) -> float:
        """The sign-carrying combination A3/2 + A4."""
        return 0.5 * self.a3 + self.a4

    @property
    def focusing(self) -> bool:
        """Whether the reduced NLS is focusing, A3/2 + A4 < 0."""
        return self.cubic < 0.0

    @property
    def nu_nls(self) -> float:
        """NLS speed of the sech standing wave, -9 alpha^2 cubic^2 / (8 A2)."""
        return -9.0 * self.alpha**2 * self.cubic**2 / (8.0 * self.a2)

    @property
    def i_nls(self) -> float:
        """Energy level of the sech standing wave, -3 alpha^3 cubic^2 / (4 A2)."""
        return -3.0 * self.alpha**3 * self.cubic**2 / (4.0 * self.a2)


def _carrier_couplings(k0: float, a: float):
    """C1, C2: the two rows of Fbar(k0) contracted with v0 = (1, -a)."""
    fb = eval_fbar(k0)
    c1 = fb[0, 0] - a * fb[0, 1]
    c2 = fb[1, 0] - a * fb[1, 1]
    return c1, c2


def _a3_forcing(k0, a, rho, nu0_sq, fb, c1, c2, harmonic: int):
    """Forcing vector of carrier harmonic 2 (the second harmonic, with
    fb = Fbar(2 k0)) or 0 (the mean flow, with fb = Fbar(0)).  The k0^2
    terms weigh 1.5 in the first and 0.5 in the second, and only the
    second harmonic carries the lower-layer term nu0^2 k0^2."""
    w = 0.5 + 0.5 * harmonic
    main = rho * nu0_sq * np.array([
        w * k0**2 - 0.5 * c1**2 - fb[0, 0] * c1,
        -w * k0**2 * a**2 + 0.5 * c2**2 - a * fb[1, 1] * c2,
    ])
    cross = rho * nu0_sq * np.array([
        -a * fb[1, 0] * c2,
        -fb[0, 1] * c1,
    ])
    forcing = main + cross
    if harmonic == 2:
        forcing += np.array([nu0_sq * k0**2, 0.0])
    return forcing


def _solve_checked(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    if np.linalg.cond(M) > _COND_LIMIT:
        raise ResonanceError(f"{what} is numerically singular")
    return np.linalg.solve(M, rhs)


def compute_a3(p: Params, crit: CriticalPoint):
    """Effective cubic coefficient from the second-harmonic and mean-flow
    corrections.

    Returns (a3, w1, w2), where w1 = g(2 k0)^-1 A3_1 and w2 = g(0)^-1 A3_2
    solve for the second-harmonic and mean-flow corrections that the
    forcings A3_1 and A3_2 drive, and a3 = -(w1.A3_1)/3 - 2(w2.A3_2)/3.
    The test profile ``fieldops.build_eta_star`` carries w1 and w2 as its
    order-eps^2 terms.  Both quadratic forms are non-positive because
    g(2 k0) and g(0) are positive definite away from +-k0 when the
    slow-branch minimum is strict.
    """
    k0, a, nu0_sq = crit.k0, crit.a, crit.nu0**2
    c1, c2 = _carrier_couplings(k0, a)
    v1 = _a3_forcing(k0, a, p.rho, nu0_sq, eval_fbar(2.0 * k0), c1, c2, 2)
    v2 = _a3_forcing(k0, a, p.rho, nu0_sq, eval_fbar(0.0), c1, c2, 0)
    g2 = eval_g(2.0 * k0, p, crit.nu0)
    g0 = eval_g(0.0, p, crit.nu0)
    w1 = _solve_checked(g2, v1, "g(2 k0)")
    w2 = _solve_checked(g0, v2, "g(0)")
    a3 = -float(w1 @ v1) / 3.0 - 2.0 * float(w2 @ v2) / 3.0
    return a3, w1, w2


def upper_quartic_kinetic(k0: float, a: float) -> float:
    """Carrier-profile coefficient of the upper-layer quartic kinetic term.

    Evaluating the quartic term of the upper kinetic energy on the
    modulated carrier (1, -a) cos(k0 x) and normalising by the quartic
    power of the interface component gives three pieces: the
    second-harmonic response (a quadratic form of the inverse multiplier
    at 2 k0), the mean-flow response (the squared zero-wavenumber flux
    coefficient), and the direct quartic products.
    """
    c1, c2 = _carrier_couplings(k0, a)
    fb2 = eval_fbar(2.0 * k0)
    d2, o2 = fb2[0, 0], fb2[0, 1]

    # first-order flux correction at the second harmonic
    w = k0 * np.array([
        0.5 * (d2 + a**2 * o2) - c1,
        0.5 * (o2 + a**2 * d2) + a * c2,
    ])
    second_harmonic = (2.0 / 3.0) * float(np.linalg.solve(fb2, w) @ w)
    mean_flow = (c1 - a * c2) ** 2 / 3.0
    direct = (k0**2 / 6.0) * ((c1 - a**3 * c2) - d2 * (1.0 + a**4) - 2.0 * a**2 * o2)
    return second_harmonic + mean_flow + direct


def compute_a4(p: Params, crit: CriticalPoint):
    """Quartic coefficient A4 = A4^1 - nu0^2 A4^2.

    A4^1 comes from the quartic surface-tension terms; A4^2 collects the
    quartic kinetic terms of both layers; the upper-layer part is the
    carrier coefficient of the perturbative quartic kinetic term, which
    the small-amplitude extraction oracle confirms.
    """
    k0, a = crit.k0, crit.a
    a4_1 = -0.125 * (p.beta_under + p.rho * p.beta_over * a**4) * k0**4
    lower = -(k0**3) / 6.0
    a4_2 = lower + p.rho * upper_quartic_kinetic(k0, a)
    return a4_1 - crit.nu0**2 * a4_2, a4_1, a4_2


def compute_coefficients(p: Params, crit: CriticalPoint) -> NlsCoefficients:
    """Assemble the full coefficient record for one parameter set: A2 is
    lambda''(k0) F(k0) v0 . v0, and the constrained-norm constant is
    alpha = 2 / (nu0 F(k0) v0 . v0)."""
    a3, w1, w2 = compute_a3(p, crit)
    a4, a4_1, a4_2 = compute_a4(p, crit)
    _, F = eval_PF(crit.k0, p)
    fv = float(F @ crit.v0 @ crit.v0)
    return NlsCoefficients(
        a2=crit.lambda2 * fv, a3=a3, a4=a4, w_harmonic=w1, w_mean=w2,
        a4_1=a4_1, a4_2=a4_2, alpha=2.0 / (crit.nu0 * fv),
    )


@dataclass(frozen=True)
class SolitonProfile:
    amplitude: float
    decay_rate: float
    x: np.ndarray
    samples: np.ndarray


def soliton_shape(c: NlsCoefficients):
    """(amplitude, decay_rate) of the sech standing wave."""
    if not c.focusing:
        raise RegimeError(
            "defocusing coefficients: no bright soliton (dark regime out of scope)"
        )
    s = c.cubic
    amplitude = c.alpha * math.sqrt(-3.0 * s / c.a2)
    decay_rate = -3.0 * c.alpha * s / c.a2
    return amplitude, decay_rate


def build_soliton(c: NlsCoefficients, n: int) -> SolitonProfile:
    """Sample the sech profile at n points of [-25, 25] / decay_rate.

    The window puts the truncated tails below 1e-21, so quadrature
    truncation is negligible at double precision.
    """
    if n < 2:
        raise ConfigError(f"the soliton needs n >= 2 samples, got {n}")
    amplitude, decay_rate = soliton_shape(c)
    half_width = 25.0 / decay_rate
    x = np.linspace(-half_width, half_width, n)
    samples = amplitude / np.cosh(decay_rate * x)
    return SolitonProfile(amplitude=amplitude, decay_rate=decay_rate, x=x,
                          samples=samples)


def soliton_energy(prof: SolitonProfile, c: NlsCoefficients) -> float:
    """Trapezoid value of the NLS energy; converges to I_NLS as the
    window grows."""
    u = prof.decay_rate * prof.x
    phi_x = -prof.amplitude * prof.decay_rate * np.tanh(u) / np.cosh(u)
    integrand = 0.125 * c.a2 * phi_x**2 + 0.375 * c.cubic * prof.samples**4
    return float(np.trapezoid(integrand, prof.x))


def soliton_mass(prof: SolitonProfile) -> float:
    """Trapezoid value of the squared L2 norm; equals 2 alpha up to tails."""
    return float(np.trapezoid(prof.samples**2, prof.x))
