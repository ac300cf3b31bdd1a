"""The oracle's strip solvers: flat preconditioner, CG work, memory, and
the work area and solver pair each strip owns."""

import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gcwaves import ProfilePair, StripGrid, dno
from gcwaves.dno import LowerSolver, UpperSolver, eval_L_exact
from gcwaves.errors import NumericalError, SolvabilityError
from gcwaves.fieldops import (PeriodicGrid, build_eta_star, eps_of_mu,
                              make_grid, suggest_carrier_multiple)

from conftest import BENCH
from spectral_helpers import flat_mode_matrices, physical_apply

K0 = 1.2679365323136993  # bench carrier scale, as in test_dno
PERIOD = 2.0 * np.pi * 4 / K0


def dense_precondition(op, R):
    """Per-mode dense solves of the flat-geometry system for the residual
    spectrum R."""
    M = flat_mode_matrices(op)
    return np.stack([np.linalg.solve(M[j], R[:, j])
                     for j in range(R.shape[1])], axis=1)


def eigenbasis_precondition(op, R):
    """The flat-strip inverse V diag(_inv_eig) V^T that CG applies in the
    eigenbasis, on the residual spectrum R."""
    return op._V @ (op._inv_eig * (op._V.T @ R))


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
@pytest.mark.parametrize("ny", [48, 128])
def test_precondition_matches_dense_per_mode_solve(solver, ny):
    op = solver(StripGrid(nx=128, ny=ny, depth_under=14.0 / K0), PERIOD)
    # two backward-stable solves of M_j z = r may differ by eps cond(M_j)
    # in the direction of the smallest eigenvalue; cond(M_1) runs from
    # 1e4 (lower, ny=48) to 2e7 (upper, ny=128)
    M = flat_mode_matrices(op)
    kappa = max(np.linalg.cond(m) for m in M)
    tol = 0.25 * np.finfo(float).eps * kappa
    rng = np.random.default_rng(ny)
    for _ in range(3):
        r = rng.standard_normal((ny + 1, op.nx))
        R = np.fft.rfft(r, axis=1)
        Z = eigenbasis_precondition(op, R)
        ref = dense_precondition(op, R)
        # mode 0: the eigenbasis without the constants against the
        # regularized dense solve, which differ by a constant; both are
        # compared with the plain mean removed
        for a in (Z, ref):
            a[:, 0] -= a[:, 0].mean()
        assert np.linalg.norm(Z - ref) <= tol * np.linalg.norm(ref)
        assert (np.linalg.norm(Z[:, 0] - ref[:, 0])
                <= tol * np.linalg.norm(ref[:, 0]))
        # the preconditioner stays symmetric positive definite
        assert dno._parseval_dot(R, Z) > 0.0


def curved_profile(strip, x=None):
    """A curved two-mode profile pair on the strip's grid, sampled at x
    (by default from 0)."""
    if x is None:
        x = PERIOD / strip.nx * np.arange(strip.nx)
    u = 0.12 * np.cos(K0 * x) + 0.04 * np.sin(2 * K0 * x)
    v = -0.05 * np.cos(K0 * x) + 0.02 * np.cos(3 * K0 * x)
    return u, v


def curved_solve(op, strip) -> int:
    """The CG iterations of the solve eval_L_exact makes with ``op`` on
    the curved profile, as ``_StripOperator.solve`` reports them."""
    eta = np.stack(curved_profile(strip))
    zu, zv = zeta = op.dx(eta)
    results = []
    solve = op.solve

    def recorded(b, q, rows):
        results.append(solve(b, q, rows))
        return results[-1]

    op.solve = recorded
    try:
        if isinstance(op, LowerSolver):
            op.solve_neumann(zu, zu)
        else:
            op.solve_neumann(eta, zeta, -zu, zv)
    finally:
        del op.solve
    (_, iterations, _), = results
    return iterations


def curved_cg_iterations(strip):
    """CG iterations of the lower and upper solves of eval_L_exact on a
    curved two-mode profile."""
    return tuple(curved_solve(op, strip) for op in strip.solvers(PERIOD))


@pytest.mark.parametrize("ny, cg_tol, counts", [
    (128, 1e-12, (13, 13)),
    (48, 1e-10, (11, 11)),
    (48, None, (9, 9)),
])
def test_cg_iterations_pinned(ny, cg_tol, counts):
    # counts of the energy stop, sqrt(r.Pr / b.Pb) <= cg_tol; cg_tol None
    # is the StripGrid default
    tol = {} if cg_tol is None else {"cg_tol": cg_tol}
    strip = StripGrid(nx=256, ny=ny, depth_under=14.0 / K0, **tol)
    assert curved_cg_iterations(strip) == counts


@pytest.fixture(scope="module")
def eta_star(bench_crit, bench_coeffs):
    """eta* at mu = 4e-3 on n = 1024, and the bench oracle strip's depth."""
    mu = 4e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(1024, bench_crit.k0, m)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    return eta, 12.0 / bench_crit.k0


def test_default_tolerance_gives_L_to_rounding(eta_star):
    # the energy stop leaves L a relative error of about cg_tol^2 = 1e-16
    eta, depth = eta_star
    L = [eval_L_exact(eta, BENCH, StripGrid(nx=1024, ny=48, depth_under=depth,
                                            **tol))
         for tol in ({}, {"cg_tol": 1e-14})]
    assert abs(L[0] - L[1]) <= 4 * np.spacing(L[1])


def geometry(op, eta):
    """The flux coefficients of the stacked profile eta on op, from its
    slopes, as eval_L_exact sets them, and those slopes."""
    zeta = op.dx(eta)
    if isinstance(op, LowerSolver):
        return op.set_geometry(zeta[0]), zeta
    return op.set_geometry(eta, zeta), zeta


def datum_spectrum(op, eta):
    """The flux coefficients of eta's geometry on op, and the spectrum of
    the flux datum eval_L_exact gives op: zeta_under on the lower layer's
    top row, the pair (-zeta_under, zeta_over) on the upper layer's bottom
    and top."""
    q, (zu, zv) = geometry(op, np.stack([eta.eta_under, eta.eta_over]))
    b = np.zeros((op.y.size, op.nx))
    if isinstance(op, LowerSolver):
        b[0] = op.hx * zu
    else:
        b[0], b[-1] = op.hx * zv, -op.hx * zu
    return q, np.fft.rfft(b, axis=1)


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
@pytest.mark.parametrize("cg_tol", [1e-4, 1e-6, None])
def test_energy_stop_bounds_the_error_of_b_dot_u(eta_star, solver, cg_tol):
    # b.u, the part of L a layer gives, is off by ||e||_A^2, which the
    # stop's rel^2 = r.Pr / b.Pb estimates; at the default cg_tol rel^2
    # falls below the rounding of b.u, hence the 2 eps allowance
    eta, depth = eta_star
    out = []
    for tol in (cg_tol, 1e-14):
        kw = {} if tol is None else {"cg_tol": tol}
        op = solver(StripGrid(nx=1024, ny=48, depth_under=depth, **kw),
                    eta.grid.period)
        q, b = datum_spectrum(op, eta)
        # the solve overwrites its datum
        x, _, rel = op.solve(b.copy(), q, slice(None))
        out.append((dno._parseval_dot(b, x), rel))
    (bu, rel), (exact, _) = out
    err = abs(bu - exact) / exact
    assert err <= 2.0 * rel**2 + 2.0 * np.finfo(float).eps
    if cg_tol is not None:  # the estimate is sharp, not just a bound
        assert err >= 0.5 * rel**2


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
@pytest.mark.parametrize("ny", [48, 128])
def test_spectral_apply_matches_physical_form(solver, ny):
    # apply maps eigenbasis coefficients C to V^T A V C, with A the
    # operator on the field's spectrum, and keeps the field's spectrum
    # V C on the rows it is given
    strip = StripGrid(nx=256, ny=ny, depth_under=14.0 / K0)
    op = solver(strip, PERIOD)
    q, _ = geometry(op, np.stack(curved_profile(strip)))
    rng = np.random.default_rng(ny)
    a, b = (np.fft.rfft(rng.standard_normal((ny + 1, strip.nx)), axis=1)
            for _ in range(2))
    rows = [0, ny]
    kept = [np.empty_like(c[rows]) for c in (a, b)]
    Aa, Ab = (op.apply(c, q, out=np.empty_like(c), keep=(rows, u))
              for c, u in zip((a, b), kept))
    for c, u in zip((a, b), kept):
        field_rows = (op._V @ c)[rows]
        assert (np.linalg.norm(u - field_rows)
                <= 1e-14 * np.linalg.norm(field_rows))
    with pytest.raises(TypeError, match="keep"):
        op.apply(a, q, np.empty_like(a))
    fields = [np.fft.irfft(op._V @ c, strip.nx, axis=1) for c in (a, b)]
    A_vb = physical_apply(op, q, fields[1])
    ref = op._V.T @ np.fft.rfft(A_vb, axis=1)
    assert np.linalg.norm(Ab - ref) <= 1e-13 * np.linalg.norm(ref)
    # the Parseval sum is nx times the grid sum of the physical fields
    phys = strip.nx * float(np.sum(fields[0] * A_vb))
    dot = dno._parseval_dot
    assert dot(a, Ab) == pytest.approx(phys, rel=1e-13)
    # symmetric under that inner product, as CG needs
    scale = np.sqrt(dot(a, a) * dot(Ab, Ab))
    assert abs(dot(a, Ab) - dot(b, Aa)) <= 1e-13 * scale


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_transform_counts_per_cg_iteration(solver, fft_record):
    # four transforms per iteration, all inside apply; outside the loop
    # one dx of the profile, whose slopes are both the data and the
    # geometry (two transforms), one rfft of the flux rows and one irfft
    # of the trace rows
    strip = StripGrid(nx=256, ny=48, depth_under=14.0 / K0)
    iterations = curved_solve(solver(strip, PERIOD), strip)
    assert iterations > 1
    assert len(fft_record) == 2 + 2 + 4 * iterations


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_matmul_counts_per_cg_iteration(solver, monkeypatch):
    # two matrix products per iteration, both in apply (the forward
    # [V; D V] C and the backward table on the two fluxes), and one for
    # the datum's coefficients V^T b; preconditioning is elementwise
    strip = StripGrid(nx=256, ny=48, depth_under=14.0 / K0)
    op = solver(strip, PERIOD)
    calls = []
    matmul = np.matmul

    def recorded(*args, **kwargs):
        calls.append(None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    iterations = curved_solve(op, strip)
    assert iterations > 1
    assert len(calls) == 1 + 2 * iterations


@pytest.mark.parametrize("solver, data_rows", [(LowerSolver, 1),
                                               (UpperSolver, 2)])
def test_datum_and_traces_transform_only_their_rows(solver, data_rows,
                                                    fft_record):
    # the dx of the profile (two rows), the rfft of the flux rows, every
    # apply on all ny + 1 rows, the irfft of the traces
    strip = StripGrid(nx=256, ny=48, depth_under=14.0 / K0)
    iterations = curved_solve(solver(strip, PERIOD), strip)
    apply_rows = [strip.ny + 1] * (4 * iterations)
    assert [rows for rows, _ in fft_record] == (
        [2, 2] + [data_rows] + apply_rows + [data_rows])


def test_eval_L_exact_takes_each_slope_once(fft_record, monkeypatch):
    # outside CG, one dx of the profile (two transforms) and, for each
    # layer, one rfft of the flux rows and one irfft of the trace rows
    # (ten when each solver differentiated the profile again)
    strip = StripGrid(nx=1024, ny=48, depth_under=14.0 / K0)
    eta = curved_pair(strip)
    iterations = []
    solve = dno._StripOperator.solve

    def recorded(self, b, q, rows):
        result = solve(self, b, q, rows)
        iterations.append(result[1])
        return result

    monkeypatch.setattr(dno._StripOperator, "solve", recorded)
    eval_L_exact(eta, BENCH, strip)
    assert len(iterations) == 2 and min(iterations) > 1
    assert len(fft_record) - 4 * sum(iterations) == 6


def test_flat_K_matrix_transforms_no_zero_profile(monkeypatch):
    # the flat geometry's slopes are zeros, not the dx of zero profiles:
    # dx takes the two cosine profiles and the two xi, nothing else
    strip = StripGrid(nx=128, ny=48, depth_under=14.0 / K0)
    taken = []
    dx = dno._StripOperator.dx

    def recorded(self, U):
        taken.append(bool(np.any(U != 0.0)))
        return dx(self, U)

    monkeypatch.setattr(dno._StripOperator, "dx", recorded)
    dno.flat_K_matrix(K0, BENCH, strip, PERIOD)
    assert taken == [True] * 4


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
    # a solve passes its geometry along, so a solver keeps no per-call
    # coefficient arrays (the upper layer's q12 is an (ny+1) x nx one)
    x = PERIOD / strip.nx * np.arange(strip.nx)
    eta = np.stack([0.12 * np.cos(K0 * x), -0.05 * np.cos(K0 * x)])
    zu, zv = zeta = op.dx(eta)
    if solver is LowerSolver:
        op.solve_neumann(zu, zu)
    else:
        op.solve_neumann(eta, zeta, -zu, zv)
    assert array_bytes(list(vars(op).values())) < 2e6


def test_oracle_working_set_bounded(eta_star):
    # the solves run in the strip's work area, which the first evaluation
    # allocates, and keep the solution on the trace rows only,
    # so the repeat allocates less than one (ny + 1) x nx array (see
    # test_repeat_evaluation_allocates_no_strip_array); this looser bound
    # of 10 such arrays stays as the guard on eta*
    eta, depth = eta_star
    strip = StripGrid(nx=1024, ny=48, depth_under=depth)
    first = eval_L_exact(eta, BENCH, strip)  # builds the solvers
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert eval_L_exact(eta, BENCH, strip) == first
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (strip.ny + 1) * strip.nx * 8


def curved_pair(strip, x=None):
    """The curved two-mode profile as a ProfilePair on the strip's grid."""
    g = PeriodicGrid(n=strip.nx, period=PERIOD, k0_multiple=4)
    return ProfilePair(g, *curved_profile(strip, x))


def test_repeat_evaluation_allocates_no_strip_array():
    # once the pair has solved, every (ny + 1) x nx array of a solve is
    # in its work area: what a repeat allocates is a few rows
    strip = StripGrid(nx=1024, ny=48, depth_under=14.0 / K0)
    eta = curved_pair(strip)
    first = eval_L_exact(eta, BENCH, strip)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert eval_L_exact(eta, BENCH, strip) == first
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < (strip.ny + 1) * strip.nx * 8


def test_work_area_is_six_strip_arrays():
    # two spectra of (ny + 1) x (nx/2 + 1) complex values, each
    # (ny + 1) x (nx + 2) doubles, the block of three stacked spectra, and
    # one physical (ny + 1) x nx array; every other array of the area
    # views them
    strip = StripGrid(nx=256, ny=48, depth_under=14.0 / K0)
    lower, upper = strip.solvers(PERIOD)
    assert lower.work is upper.work is strip.work
    arrays = [a for a in vars(strip.work).values()
              if isinstance(a, np.ndarray)]
    owned = [a for a in arrays if a.base is None]
    m, nx = strip.ny + 1, strip.nx
    assert sorted(a.nbytes for a in owned) == ([m * nx * 8]
                                               + [m * (nx + 2) * 8] * 2
                                               + [3 * m * (nx + 2) * 8])
    assert all(any(a.base is o for o in owned)
               for a in arrays if a.base is not None)
    # the solves run in those arrays and bind no other
    eval_L_exact(curved_pair(strip), BENCH, strip)
    after = [a for a in vars(strip.work).values()
             if isinstance(a, np.ndarray)]
    assert all(a is b for a, b in zip(after, arrays, strict=True))
    # a solver built on its own runs in the strip's area too
    assert LowerSolver(strip, PERIOD).work is strip.work


def test_next_period_keeps_the_area(monkeypatch):
    # a new period frees the last pair before it builds its own, and its
    # solves run in the strip's area: it allocates no area
    strip = StripGrid(nx=64, ny=32, depth_under=14.0 / K0)
    g = PeriodicGrid(n=64, period=PERIOD, k0_multiple=1)
    wave = np.cos(2 * np.pi * g.x / PERIOD)
    assert eval_L_exact(ProfilePair(g, 0.05 * wave, -0.02 * wave), BENCH,
                        strip) > 0.0
    area = strip.work
    last = weakref.ref(strip.solvers(PERIOD)[0])
    areas, last_alive = [], []
    init = dno._WorkArea.__init__

    def recorded(self, nx, ny):
        areas.append((nx, ny))
        init(self, nx, ny)

    class Lower(LowerSolver):
        def __init__(self, strip, period):
            last_alive.append(last() is not None)
            super().__init__(strip, period)

    monkeypatch.setattr(dno._WorkArea, "__init__", recorded)
    monkeypatch.setattr(dno, "LowerSolver", Lower)
    g = PeriodicGrid(n=64, period=1.5 * PERIOD, k0_multiple=1)
    wave = np.cos(2 * np.pi * g.x / g.period)
    assert eval_L_exact(ProfilePair(g, 0.05 * wave, -0.02 * wave), BENCH,
                        strip) > 0.0
    assert areas == [] and strip.work is area
    assert last_alive == [False]
    assert all(op.work is area for op in strip.solvers(g.period))


@pytest.mark.parametrize("x0, L_hex", [(0.0, "0x1.abc07ef8ecf4bp-3"),
                                       (-0.5 * PERIOD, "0x1.abc07ef8ecf52p-3")],
                         ids=["from_zero", "from_grid_start"])
def test_oracle_bits_pinned(x0, L_hex):
    # float.hex of L_exact on the curved profile, sampled from x0 (the
    # second origin is the grid's own), and of the flat symbol at k0
    strip = StripGrid(nx=128, ny=48, depth_under=14.0 / K0)
    x = x0 + PERIOD / strip.nx * np.arange(strip.nx)
    assert eval_L_exact(curved_pair(strip, x), BENCH, strip).hex() == L_hex
    K = dno.flat_K_matrix(K0, BENCH, strip, PERIOD)
    assert [k.hex() for k in K.ravel()] == [
        "0x1.0166dd20bdcc1p+1", "-0x1.8ccc998a65700p-2",
        "-0x1.8ccc998a65817p-2", "0x1.7c6c793c1a8f7p-1"]


def test_oracle_bits_do_not_depend_on_blas_threads():
    # at nx = 256 np.vdot split the CG's Parseval sums across OpenBLAS
    # threads, and L read 1 ulp apart at 1 and 2 threads.  OpenBLAS reads
    # its thread count at load, hence a subprocess per count
    code = ("import test_dno_solver as t\n"
            "s = t.StripGrid(nx=256, ny=48, depth_under=14.0 / t.K0)\n"
            "print(t.eval_L_exact(t.curved_pair(s), t.BENCH, s).hex())\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    hexes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        hexes.add(proc.stdout.strip())
    assert len(hexes) == 1, hexes


def test_one_solver_pair_per_period(monkeypatch):
    # two amplitudes on each of two periods build one pair per period,
    # and the second period's pair frees the first's, without the
    # garbage collector
    built = []

    for name in ("LowerSolver", "UpperSolver"):
        class Counted(getattr(dno, name)):
            def __init__(self, strip, period, _name=name):
                built.append(_name)
                super().__init__(strip, period)

        monkeypatch.setattr(dno, name, Counted)
    strip = StripGrid(nx=64, ny=32, depth_under=14.0 / K0)
    first = None
    for period in (PERIOD, 1.5 * PERIOD):
        g = PeriodicGrid(n=64, period=period, k0_multiple=1)
        wave = np.cos(2 * np.pi * g.x / period)
        for amp in (1.0, 0.5):
            eta = ProfilePair(g, 0.05 * amp * wave, -0.02 * amp * wave)
            assert eval_L_exact(eta, BENCH, strip) > 0.0
        if first is None:
            first = [weakref.ref(op) for op in strip.solvers(period)]
    assert sorted(built) == ["LowerSolver"] * 2 + ["UpperSolver"] * 2
    # the strip holds the last period's pair, and no other
    strip.solvers(1.5 * PERIOD)
    assert len(built) == 4
    assert all(ref() is None for ref in first)


def test_solver_cache_bounded(monkeypatch):
    # a strip keeps at most one solver pair, that of its latest period,
    # and each strip keeps its own: two strips evict no pair of each other
    built, alive = [], []

    class CountedLower(LowerSolver):
        def __init__(self, strip, period):
            built.append(period)
            alive.append(weakref.ref(self))
            super().__init__(strip, period)

    def live():
        return sum(ref() is not None for ref in alive)

    monkeypatch.setattr(dno, "LowerSolver", CountedLower)
    strip = StripGrid(nx=64, ny=32, depth_under=14.0 / K0)
    periods = [PERIOD * (1.0 + 0.1 * i) for i in range(4)]
    for period in periods:
        g = PeriodicGrid(n=64, period=period, k0_multiple=1)
        x = g.x
        eta = ProfilePair(g, 0.05 * np.cos(2 * np.pi * x / period),
                          -0.02 * np.cos(2 * np.pi * x / period))
        assert eval_L_exact(eta, BENCH, strip) > 0.0
        assert live() == 1
    # one build per period, and every other lookup of a period hits
    assert built == periods
    # the latest period is kept, and a hit builds nothing; another period
    # replaces it
    strip.solvers(periods[-1])
    assert built == periods
    strip.solvers(periods[0])
    strip.solvers(periods[0])
    assert built == periods + [periods[0]] and live() == 1
    strip.solvers(periods[-1])
    assert built == periods + [periods[0], periods[-1]] and live() == 1
    # an equal strip is another owner, with its own pair and area
    other = StripGrid(nx=64, ny=32, depth_under=14.0 / K0)
    assert other == strip
    other.solvers(periods[0])
    assert other.work is not strip.work and live() == 2
    del built[:]
    for _ in range(2):
        strip.solvers(periods[-1])
        other.solvers(periods[0])
    assert built == [] and live() == 2


NYQUIST = (-1.0) ** np.arange(256)  # the checkerboard on nx = 256


@pytest.mark.parametrize("depth", [9.46, 5.0, 1.0])
def test_nyquist_flux_refused(depth):
    # the depth-constant checkerboard is a null vector of both layer
    # operators, so CG cannot solve data that see it: it stalled, or
    # divided by zero, before the datum was refused
    strip = StripGrid(nx=256, ny=48, depth_under=depth)
    flat = np.zeros((2, strip.nx))
    with pytest.raises(SolvabilityError, match="Nyquist"):
        LowerSolver(strip, PERIOD).solve_neumann(flat[0], NYQUIST)
    upper = UpperSolver(strip, PERIOD)
    for pair in ((NYQUIST, flat[0]), (flat[0], NYQUIST)):
        with pytest.raises(SolvabilityError, match="Nyquist"):
            upper.solve_neumann(flat, flat, *pair)


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_cg_refuses_direction_without_curvature(solver):
    # a smooth datum, the period's first cosine mode, passes the
    # checkerboard check, but on the flat geometry (q12 = 0) q11 = -100
    # makes the coefficient matrix diag(-100, -1/100), so the operator is
    # negative definite and the first direction has d.Ad < 0
    strip = StripGrid(nx=256, ny=48, depth_under=5.0)
    op = solver(strip, PERIOD)
    flat = np.zeros((2, strip.nx))
    _, q12, _ = (op.set_geometry(flat[0]) if solver is LowerSolver
                 else op.set_geometry(flat, flat))
    b = np.zeros((strip.ny + 1, strip.nx))
    b[0] = op.hx * np.cos(2.0 * np.pi / PERIOD * op.hx * np.arange(op.nx))
    q11 = np.full((1, strip.nx), -100.0)
    indefinite = (q11, q12, 1.0 / q11)
    with pytest.raises(NumericalError,
                       match="CG direction with curvature") as ex:
        op.solve(np.fft.rfft(b, axis=1), indefinite, slice(None))
    assert ex.value.diagnostics == {"iterations": 1}


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_cg_refuses_nan_curvature_at_once(solver):
    # one NaN sample spreads through the slopes to every flux and datum
    # value, and NaN compares false, so it passes every refusal before CG;
    # CG refuses the first direction, whose curvature is NaN, where it ran
    # 3999 iterations to a stall
    strip = StripGrid(nx=1024, ny=48, depth_under=14.0 / K0)
    op = solver(strip, PERIOD)
    u, v = curved_profile(strip)
    u[17] = np.nan
    eta = np.stack([u, v])
    zu, zv = zeta = op.dx(eta)
    with pytest.raises(NumericalError, match="curvature nan, not positive") \
            as ex:
        if solver is LowerSolver:
            op.solve_neumann(zu, zu)
        else:
            op.solve_neumann(eta, zeta, -zu, zv)
    assert ex.value.diagnostics["iterations"] == 1


@pytest.mark.parametrize("solver", [LowerSolver, UpperSolver])
def test_cg_refuses_checkerboard_datum(solver, monkeypatch):
    # the checkerboard is a null vector of the operator, so a datum that
    # meets it has no solution: it is refused before the first CG step
    strip = StripGrid(nx=256, ny=48, depth_under=5.0)
    op = solver(strip, PERIOD)
    flat = np.zeros((2, strip.nx))
    q = (op.set_geometry(flat[0]) if solver is LowerSolver
         else op.set_geometry(flat, flat))
    b = np.zeros((strip.ny + 1, strip.nx))
    b[0] = NYQUIST

    def no_step(*args):
        raise AssertionError("CG took a step")

    monkeypatch.setattr(solver, "apply", no_step)
    with pytest.raises(NumericalError, match="Nyquist checkerboard"):
        op.solve(np.fft.rfft(b, axis=1), q, slice(None))
