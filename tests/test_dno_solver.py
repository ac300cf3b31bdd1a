"""The oracle's strip solvers: flat preconditioner, CG work, memory, cache."""

import numpy as np
import pytest

from gcwaves import PeriodicGrid, ProfilePair, StripGrid, eval_L_exact
from gcwaves import dno
from gcwaves.dno import LowerSolver, UpperSolver

from conftest import BENCH
from spectral_helpers import flat_mode_matrices

K0 = 1.2679365323136993  # bench carrier scale, as in test_dno
PERIOD = 2.0 * np.pi * 4 / K0


def dense_precondition(op, R):
    """Per-mode dense solve of the flat-geometry system."""
    M = flat_mode_matrices(op)
    Rh = np.fft.rfft(R, axis=1)
    Z = np.empty_like(Rh)
    for j in range(Rh.shape[1]):
        Z[:, j] = np.linalg.solve(M[j], Rh[:, j])
    z = np.fft.irfft(Z, op.nx, axis=1)
    return z - z.mean()


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
@pytest.mark.parametrize("ny", [48, 128])
def test_precondition_matches_dense_per_mode_solve(solver, ny):
    op = solver(StripGrid(nx=128, ny=ny, depth_under=14.0 / K0), PERIOD)
    # two backward-stable solves of M_j z = r may differ by eps cond(M_j)
    # in the direction of the smallest eigenvalue; cond(M_1) runs from
    # 1e4 (lower, ny=48) to 2e7 (upper, ny=128)
    kappa = max(np.linalg.cond(m) for m in flat_mode_matrices(op))
    tol = 0.25 * np.finfo(float).eps * kappa
    rng = np.random.default_rng(ny)
    for _ in range(3):
        r = rng.standard_normal((ny + 1, op.nx))
        z = op.precondition(r)
        ref = dense_precondition(op, r)
        assert np.linalg.norm(z - ref) <= tol * np.linalg.norm(ref)
        # the preconditioner stays symmetric positive definite
        assert float(np.sum(r * z)) > 0.0


def curved_cg_iterations(strip):
    """CG iterations of the lower and upper solves of eval_L_exact on a
    curved two-mode profile."""
    x = PERIOD / strip.nx * np.arange(strip.nx)
    u = 0.12 * np.cos(K0 * x) + 0.04 * np.sin(2 * K0 * x)
    v = -0.05 * np.cos(K0 * x) + 0.02 * np.cos(3 * K0 * x)
    lower, upper = dno._solvers(strip, PERIOD)
    zu = lower.dx(u[None, :])[0]
    zv = lower.dx(v[None, :])[0]
    return (lower.solve_neumann(u, zu).cg_iterations,
            upper.solve_neumann(u, v, -zu, zv).cg_iterations)


@pytest.mark.parametrize("ny, cg_tol, counts", [
    (128, 1e-12, (14, 13)),
    (48, 1e-10, (12, 11)),
])
def test_cg_iterations_pinned(ny, cg_tol, counts):
    # counts recorded with the per-mode Cholesky preconditioner; the
    # eigenbasis form is the same operator, so CG does the same work
    strip = StripGrid(nx=256, ny=ny, depth_under=14.0 / K0, cg_tol=cg_tol)
    assert curved_cg_iterations(strip) == counts


def array_bytes(value):
    """Bytes of the arrays held in a value, through nested containers."""
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(item) for item in value)
    return getattr(value, "nbytes", 0)


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_solver_memory_bounded(solver):
    # per-mode Cholesky factors held 2049 x 49^2 doubles (39 MB) here
    strip = StripGrid(nx=4096, ny=48, depth_under=12.0 / K0)
    op = solver(strip, PERIOD)
    assert array_bytes(list(vars(op).values())) < 2e6
    # after a solve the geometry adds at most two full (ny+1) x nx
    # coefficient arrays; a coefficient constant in depth is kept as a row
    x = PERIOD / strip.nx * np.arange(strip.nx)
    u = 0.12 * np.cos(K0 * x)
    v = -0.05 * np.cos(K0 * x)
    zu = op.dx(u[None, :])[0]
    if solver is LowerSolver:
        op.solve_neumann(u, zu)
    else:
        op.solve_neumann(u, v, -zu, op.dx(v[None, :])[0])
    full, row = (strip.ny + 1) * strip.nx * 8, strip.nx * 8
    assert array_bytes(list(vars(op).values())) < 2e6 + 2 * full + row


def test_solver_cache_bounded():
    dno._solver_cache.clear()
    strip = StripGrid(nx=64, ny=32, depth_under=14.0 / K0)
    periods = [PERIOD * (1.0 + 0.1 * i) for i in range(dno._SOLVER_PAIRS + 3)]
    for period in periods:
        g = PeriodicGrid(n=64, period=period)
        x = g.x
        eta = ProfilePair(g, 0.05 * np.cos(2 * np.pi * x / period),
                          -0.02 * np.cos(2 * np.pi * x / period))
        assert eval_L_exact(eta, BENCH, strip) > 0.0
        assert len(dno._solver_cache) <= dno._SOLVER_PAIRS
    assert list(dno._solver_cache) == [
        (strip, period) for period in periods[-dno._SOLVER_PAIRS:]]
    dno._solver_cache.clear()
