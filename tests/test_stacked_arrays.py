"""The small stacked arrays of the descent and the dispersion scan are
built in place, with the arithmetic of their np.stack forms: the same
bits, in a new C-ordered array (einsum sums in its operands' memory
order, so the order reaches the pinned values)."""

import numpy as np
import pytest

from gcwaves import compute_coefficients, find_critical, minimizer
from gcwaves.dispersion import _sym2
from gcwaves.fieldops import (_fbar_apply, build_eta_star, eval_J,
                              eval_L_trunc, grad_J, make_grid,
                              suggest_carrier_multiple)

from conftest import BENCH

MU = 4e-3


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def stacked_sym2(a, b, c):
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


@pytest.fixture(scope="module")
def carrier_eta(bench_crit, bench_coeffs):
    """eta* at MU on its carrier grid (n = 768)."""
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, MU)
    grid = make_grid(4096, bench_crit.k0, m).carrier_grid
    return build_eta_star(bench_coeffs, bench_crit, MU, grid, BENCH)


@pytest.fixture(scope="module")
def objective(carrier_eta, bench_crit, bench_coeffs):
    eta = carrier_eta
    x0 = np.fft.rfft(np.stack([eta.eta_under, eta.eta_over])).real
    nu = minimizer._model_speed(bench_crit, bench_coeffs, MU)
    return minimizer._Objective(BENCH, MU, 0.5, eta.grid, nu, x0)


@pytest.mark.parametrize("call", ["eval_J", "grad_J", "eval_L_trunc",
                                  "find_critical", "compute_coefficients",
                                  "precondition"])
def test_hot_paths_call_no_stack_or_mean(call, carrier_eta, objective,
                                         bench_crit, numpy_calls):
    # numpy's wrappers cost about as much as the arithmetic they wrap on
    # these sizes; every call below is made many times per descent or
    # per scan
    q = objective.gradient(objective(objective._x0)[1])[0]
    calls = {
        "eval_J": lambda: eval_J(carrier_eta, BENCH, MU),
        "grad_J": lambda: grad_J(carrier_eta, BENCH, MU),
        "eval_L_trunc": lambda: eval_L_trunc(carrier_eta, BENCH),
        "find_critical": lambda: find_critical(BENCH),
        "compute_coefficients": lambda: compute_coefficients(BENCH,
                                                             bench_crit),
        "precondition": lambda: objective.precondition(q),
    }
    numpy_calls.clear()
    calls[call]()
    assert numpy_calls == []


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_sym2_equals_its_stacked_form(shape):
    rng = np.random.default_rng(1)
    a, b, c = (rng.standard_normal(shape) for _ in range(3))
    out = _sym2(a, b, c)
    assert same_bits(out, stacked_sym2(a, b, c))
    assert out.shape == shape + (2, 2) and out.flags.c_contiguous


def test_sym2_broadcasts_scalars_beside_arrays():
    # _pf_derivatives passes zero and one beside bu * k, at a 0-d and at
    # an array k; a Python scalar entry broadcasts as np.stack of the
    # broadcast entries would
    for k in (np.asarray(1.25), np.geomspace(0.1, 10.0, 7)):
        zero, one = np.zeros_like(k), np.ones_like(k)
        for entries in ((0.34 * k, zero, 0.17 * k),
                        (0.34 * one, zero, 0.17 * one),
                        (0.34 * k, 0.0, 1.5), (2.0, -1.0, 0.17 * k)):
            out = _sym2(*entries)
            assert same_bits(out, stacked_sym2(*np.broadcast_arrays(*entries)))
            assert out.shape == k.shape + (2, 2) and out.flags.c_contiguous


def test_fbar_apply_equals_its_stacked_form(bench_crit):
    grid = make_grid(768, bench_crit.k0, 64)
    s = grid.symbols
    rng = np.random.default_rng(2)
    wide = (rng.standard_normal((2, 2 * grid.n))
            + 1j * rng.standard_normal((2, 2 * grid.n)))
    # a C-ordered block, and the band of a wider one, as _gradient passes
    for X in (np.ascontiguousarray(wide[:, : grid.n // 2 + 1]),
              wide[:, : grid.n // 2 + 1]):
        d, o = s.fb_diag, s.fb_off
        Y = _fbar_apply(d, o, X)
        assert same_bits(Y, np.stack([d * X[0] + o * X[1],
                                      o * X[0] + d * X[1]]))
        assert Y.flags.c_contiguous


def test_flat_equals_its_stacked_form(objective):
    ell = objective._quadratic[1]
    inv = objective._base[0]
    a, b, c = inv
    rng = np.random.default_rng(3)
    q = rng.standard_normal(ell.shape)
    # the rank-one column ell comes out of einsum in Fortran order
    assert ell.flags.f_contiguous and not ell.flags.c_contiguous
    for x in (q, np.asfortranarray(q), ell):
        y = objective._flat(inv, x)
        U, V = x
        assert same_bits(y, np.stack([a * U + b * V, b * U + c * V]))
        assert y.flags.c_contiguous

