"""Test-only spectral helpers and oracles.

The zero profile, translation and the H^2 norm of a profile pair, the
surface energy and the separate surface and kinetic gradients,
plain-loop multiplier application, the symmetric bilinear forms whose
diagonals are the cubic kinetic gradients, the per-layer kinetic
truncations, the finite-period correction of the quartic coefficient,
the dense per-mode matrices of the oracle's flat preconditioner, the
physical-space form of the oracle's operator, the dense Hessian model of
the descent, and the reader of the profile files ``write_profile_csv``
writes.
None of these is on a production path.
"""

import json
import math

import numpy as np

from gcwaves import ProfilePair
from gcwaves import fieldops as fo
from gcwaves.cli import sidecar_path
from gcwaves.dispersion import eval_PF, eval_fbar, eval_g
from gcwaves.errors import ConfigError
from gcwaves.fieldops import PeriodicGrid

_PAD = fo._PAD


def zero_profile(grid):
    """The flat pair on ``grid``."""
    return ProfilePair(grid, np.zeros(grid.n), np.zeros(grid.n))


def roll(eta, shift):
    """The pair translated by ``shift`` samples."""
    return ProfilePair(eta.grid, np.roll(eta.eta_under, shift),
                       np.roll(eta.eta_over, shift))


def h2_norm(eta):
    """Discrete H^2 norm of a pair, the square root of the barrier's
    ``StagedProfile.h2_sq``, staged as eval_J stages it."""
    return math.sqrt(fo._staged(eta).h2_sq())


def eval_K(eta, p):
    """Exact surface energy and its quadratic and quartic truncations,
    (k_total, k2, k4)."""
    return fo._k_parts(fo._staged(eta), p)


def grad_K(eta, p):
    """L^2 gradient of the exact surface energy, as its two rows: the
    gradient stage at cl = 0."""
    return np.fft.irfft(fo._gradient(fo._staged(eta), p, 0.0), eta.grid.n)


def grad_L_trunc(eta, p):
    """L^2 gradient of the combined truncated kinetic energy, as its two
    rows: the gradient stage at cl = 1 less grad K."""
    staged = fo._staged(eta)
    G = fo._gradient(staged, p, 1.0) - fo._gradient(staged, p, 0.0)
    return np.fft.irfft(G, eta.grid.n)


def apply_multiplier(symbol, f, grid):
    """Apply a Fourier multiplier; ``symbol`` maps wavenumbers to scalars
    or 2x2 matrices.

    Scalar symbols act on a single grid function; matrix symbols act on a
    (u, v) pair.  The symbol is evaluated on the non-negative wavenumbers
    of the grid (symbols are even functions of k throughout this problem).
    """
    k = grid.k
    if isinstance(f, tuple):
        S = np.array([symbol(kk) for kk in k])  # (n/2+1, 2, 2)
        U = fo._rfft(f[0], grid.n)
        V = fo._rfft(f[1], grid.n)
        out_u = np.fft.irfft(S[:, 0, 0] * U + S[:, 0, 1] * V, grid.n)
        out_v = np.fft.irfft(S[:, 1, 0] * U + S[:, 1, 1] * V, grid.n)
        return out_u, out_v
    s = np.array([symbol(kk) for kk in k])
    return np.fft.irfft(s * fo._rfft(f, grid.n), grid.n)


def eval_L_lower(eta_under, grid):
    """Quadratic, cubic and quartic kinetic terms of the lower layer."""
    eta = ProfilePair(grid, eta_under, np.zeros_like(eta_under))
    return fo._lower_parts(fo._staged(eta))


def eval_L_upper(eta):
    """Quadratic, cubic and quartic kinetic terms of the upper layer."""
    return fo._upper_parts(fo._staged(eta))


def _pad_values(U, n):
    """Trig-interpolate rfft coefficients of the n-grid onto the padded grid."""
    Up = np.zeros(_PAD * n // 2 + 1, dtype=complex)
    Up[: n // 2 + 1] = U
    return np.fft.irfft(Up, _PAD * n) * _PAD


def _truncate_values(w, n):
    """Project padded-grid values back onto the n-grid band."""
    U = np.fft.rfft(w)[: n // 2 + 1] / _PAD
    U[n // 2] = 0.0
    return np.fft.irfft(U, n)


def _mult_pad(symbol, w):
    return np.fft.irfft(symbol * np.fft.rfft(w), len(w))


def _padded_fields(eta):
    """Padded-grid values of u, v, their derivatives and B = Fbar (u, v)."""
    n = eta.grid.n
    s = eta.grid.symbols
    U, V = fo._rfft(eta.eta_under, n), fo._rfft(eta.eta_over, n)
    spectra = {
        "u": U, "v": V, "ux": s.ik * U, "vx": s.ik * V,
        "uxx": s.mk2 * U, "vxx": s.mk2 * V,
        "B1": s.fb_diag * U + s.fb_off * V, "B2": s.fb_off * U + s.fb_diag * V,
    }
    return {name: _pad_values(X, n) for name, X in spectra.items()}


def m_lower(u1, u2, grid):
    """Symmetric bilinear form whose diagonal is the cubic lower gradient."""
    n = grid.n
    s = grid.symbols
    U1, U2 = fo._rfft(u1, n), fo._rfft(u2, n)
    a1, a2 = _pad_values(U1, n), _pad_values(U2, n)
    a1x, a2x = _pad_values(s.ik * U1, n), _pad_values(s.ik * U2, n)
    a1xx, a2xx = _pad_values(s.mk2 * U1, n), _pad_values(s.mk2 * U2, n)
    K1, K2 = _pad_values(s.absk * U1, n), _pad_values(s.absk * U2, n)

    def Kp(w):
        return _mult_pad(s.absk_pad, w)

    # swapped pairs are grouped so the float sum is exactly symmetric
    w = (
        -0.5 * (Kp(a1 * K2) + Kp(a2 * K1))
        - 0.5 * K1 * K2 - 0.5 * a1x * a2x
        - 0.5 * (a1xx * a2 + a1 * a2xx)
    )
    return _truncate_values(w, n)


def m_upper(eta1, eta2):
    """Symmetric bilinear form whose diagonal is the cubic upper gradient."""
    f1, f2 = _padded_fields(eta1), _padded_fields(eta2)
    n = eta1.grid.n
    s = eta1.grid.symbols

    def Kd(w):
        return _mult_pad(s.fb_diag_pad, w)

    def Ko(w):
        return _mult_pad(s.fb_off_pad, w)

    comp1 = (
        0.5 * f1["ux"] * f2["ux"]
        + 0.5 * (f1["uxx"] * f2["u"] + f2["uxx"] * f1["u"])
        + 0.5 * f1["B1"] * f2["B1"]
        + 0.5 * (Kd(f1["u"] * f2["B1"]) + Kd(f2["u"] * f1["B1"]))
        - 0.5 * (Ko(f1["v"] * f2["B2"]) + Ko(f2["v"] * f1["B2"]))
    )
    comp2 = (
        -0.5 * f1["vx"] * f2["vx"]
        - 0.5 * (f1["vxx"] * f2["v"] + f2["vxx"] * f1["v"])
        - 0.5 * f1["B2"] * f2["B2"]
        - 0.5 * (Kd(f1["v"] * f2["B2"]) + Kd(f2["v"] * f1["B2"]))
        + 0.5 * (Ko(f1["u"] * f2["B1"]) + Ko(f2["u"] * f1["B1"]))
    )
    return _truncate_values(comp1, n), _truncate_values(comp2, n)


def quartic_box_correction(k0, a, eps, period, amplitude, decay_rate):
    """Finite-period deficit of the mean-flow part of the quartic term.

    On a periodic domain the zero mode of the mean-flow response is
    absent, which reduces the extracted quartic coefficient by
    (c1 - a c2)^2 / 3 times (int psi^2)^2 / (period int psi^4) relative
    to the real line.
    """
    fbk = eval_fbar(k0)
    c1 = fbk[0, 0] - a * fbk[0, 1]
    c2 = fbk[1, 0] - a * fbk[1, 1]
    mass_sq = (2.0 * amplitude**2 / decay_rate) ** 2 * eps**2
    quart = (4.0 / 3.0) * amplitude**4 / decay_rate * eps**3
    return (c1 - a * c2) ** 2 / 3.0 * mass_sq / (period * quart)


def flat_mode_matrices(op):
    """Dense flat-geometry matrices M_j = hx (k_j^2 W + D^T W D) of a
    ``dno`` strip operator, one per Fourier mode, with the constant null
    direction of mode 0 regularized; shape (nx/2+1, ny+1, ny+1)."""
    Wy = np.diag(op.wy)
    base = op.D.T @ Wy @ op.D
    M = op.hx * (op.k[:, None, None]**2 * Wy + base)
    v = op.wy / np.linalg.norm(op.wy)
    M[0] += np.outer(v, v) * np.mean(np.diag(M[0]))
    return M


def physical_apply(op, q, U):
    """The energy-form operator of a ``dno`` strip operator with flux
    coefficients ``q`` on a physical (ny+1, nx) array, with the flux
    formed by two spectral derivatives (the transpose of ``dx`` is ``-dx``
    on the uniform grid) and from the full coefficient matrix, with q22 =
    (1 + q12^2)/q11 of determinant 1; a q11 of None is the lower
    layer's, identically 1."""
    q11, q12, _ = q
    q11 = 1.0 if q11 is None else q11
    q22 = (1.0 + q12**2) / q11
    Ux = op.dx(U)
    Uy = op.D @ U
    f1 = q11 * Ux + q12 * Uy
    f2 = q12 * Ux + q22 * Uy
    W = op.hx * op.wy[:, None]
    return -op.dx(W * f1) + op.D.T @ (W * f2)


def multiplier_matrix(symbol, n):
    """Dense matrix of a real 2x2 Fourier multiplier, even in k, on the
    stacked rows (u, v) of n samples each, summed as cosines with the
    Nyquist mode dropped; ``symbol`` has shape (n/2 + 1, 2, 2)."""
    q = np.arange(n // 2)
    j = np.arange(n)
    # the phase reduced mod n in integers keeps cos accurate to rounding
    cos = np.cos(2.0 * np.pi / n * (q[:, None, None] * (j[:, None] - j) % n))
    w = np.where(q == 0, 1.0, 2.0) / n
    return np.einsum("q,qab,qjl->ajbl", w, symbol[: n // 2],
                     cos).reshape(2 * n, 2 * n)


def _cosine_maps(n):
    """Dense maps between the stacked rows (u, v) of an even pair, n
    samples each, and its cosine spectrum, shape (2, n/2 + 1), both
    flattened: E synthesises the rows (the inverse rfft of a real
    spectrum) and R analyses them (the real part of the rfft)."""
    q = np.arange(n // 2 + 1)
    # the phase reduced mod n in integers keeps cos accurate to rounding
    cos = np.cos(2.0 * np.pi / n * (np.outer(np.arange(n), q) % n))
    w = np.where((q == 0) | (q == n // 2), 1.0, 2.0) / n
    return np.kron(np.eye(2), cos * w), np.kron(np.eye(2), cos.T)


def hessian_model_matrix(p, grid, nu, x0, barrier=None):
    """Dense Hessian of the quadratic truncation K2 + mu^2 / L2 at the
    speed nu and the even profile of the cosine spectrum x0, in the
    descent's coordinates: formed on the rows as the L^2 Hessian, it maps
    a step's cosine spectrum to that of the change of the L^2 gradient
    (both flattened), and is self-adjoint in the Parseval-weighted
    products.  ``barrier = (dV/ds, V'', x)`` adds the barrier's Hessian
    2 V' h(k) + 4 V'' b b^T at the cosine spectrum x, with h the H^2
    symbol and b = h eta."""
    n, dx, k = grid.n, grid.dx, grid.k
    E, R = _cosine_maps(n)
    _, F = eval_PF(k, p)
    eta = E @ x0.ravel()
    ell = multiplier_matrix(F, n) @ eta
    l2 = 0.5 * dx * eta @ ell
    symbol = eval_g(k, p, nu)
    extra = 2.0 * nu**2 / l2 * dx * np.outer(ell, ell)
    if barrier is not None:
        dvds, v2, x = barrier
        h2 = 1.0 + k**2 + k**4
        symbol = symbol + 2.0 * dvds * h2[:, None, None] * np.eye(2)
        b = multiplier_matrix(h2[:, None, None] * np.eye(2), n) \
            @ (E @ x.ravel())
        extra = extra + 4.0 * v2 * dx * np.outer(b, b)
    return R @ (multiplier_matrix(symbol, n) + extra) @ E


def read_profile_csv(path) -> ProfilePair:
    """The profile pair of a CSV that ``write_profile_csv`` wrote, with
    the grid from its JSON sidecar."""
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
