import numpy as np
import pytest

from gcwaves import (Params, compute_coefficients, fieldops, find_critical)

# Reference configuration for the classification regimes: strong
# interfacial tension with the slow branch close to the long-wave
# resonance (nu0^2 within 6% of 1 - rho)
NEAR_RESONANT = Params(rho=0.5, beta_under=1.0, beta_over=0.2)
DEGENERATE_SEED = (0.063, 0.939, 0.232)

# Default bench configuration for the quantitative small-mu laws.  The
# near-resonant reference above has its asymptotic range pushed down to
# mu ~ 1e-4; this set keeps the same density ratio but has a
# well-separated carrier (decay_rate / k0 ~ 22), so mu in the 1e-3 range
# is genuinely small.
BENCH = Params(rho=0.5, beta_under=0.17, beta_over=0.17)


@pytest.fixture
def fft_record(monkeypatch):
    """Record every call of numpy's one-dimensional transforms, in call
    order, as (rows, n): a batched (m, ...) call holds m rows, and n is
    the n argument or the length the input implies."""
    record = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
        def recorded(a, n=None, *args, _original=getattr(np.fft, name),
                     _inverse_real=name in ("irfft", "hfft"), **kwargs):
            a = np.asarray(a)
            if n is None:
                n = 2 * (a.shape[-1] - 1) if _inverse_real else a.shape[-1]
            record.append((a.size // a.shape[-1], n))
            return _original(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    return record


@pytest.fixture
def numpy_calls(monkeypatch):
    """Record the name of every call of numpy's ``stack`` and ``mean``
    wrappers made through the ``numpy`` namespace, in call order."""
    record = []
    for name in ("stack", "mean"):
        def recorded(*args, _original=getattr(np, name), _name=name,
                     **kwargs):
            record.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, recorded)
    return record


def fft_lengths(record):
    """The n of every call in an ``fft_record``."""
    return [n for _, n in record]


def fft_rows_calls(record):
    """The rows and the calls of an ``fft_record``."""
    return sum(rows for rows, _ in record), len(record)


@pytest.fixture
def symbol_builds(monkeypatch):
    """Record the n of every grid's symbols (``fieldops._Symbols``) as
    they are built."""
    sizes = []
    build = fieldops._Symbols

    def recorded(n, period):
        sizes.append(n)
        return build(n, period)
    monkeypatch.setattr(fieldops, "_Symbols", recorded)
    return sizes


@pytest.fixture(scope="session")
def resonant_report():
    return find_critical(NEAR_RESONANT)


@pytest.fixture(scope="session")
def resonant_crit(resonant_report):
    return resonant_report.crit


@pytest.fixture(scope="session")
def resonant_coeffs(resonant_crit):
    return compute_coefficients(NEAR_RESONANT, resonant_crit)


@pytest.fixture(scope="session")
def bench_report():
    return find_critical(BENCH)


@pytest.fixture(scope="session")
def bench_crit(bench_report):
    return bench_report.crit


@pytest.fixture(scope="session")
def bench_coeffs(bench_crit):
    return compute_coefficients(BENCH, bench_crit)


def soliton_ode_residual(prof, c):
    """Residual of the standing-wave ODE at the sample points.

    The second derivative is taken analytically from sech identities,
    so this measures only the algebraic consistency of the closed forms.
    """
    phi = prof.samples
    u = prof.decay_rate * prof.x
    phi_xx = prof.amplitude * prof.decay_rate**2 * (
        1.0 / np.cosh(u) - 2.0 / np.cosh(u) ** 3
    )
    return (
        -0.25 * c.a2 * phi_xx
        - 2.0 * c.nu_nls * phi
        + 1.5 * c.cubic * phi**3
    )


def random_band_profile(rng, n, scale, max_mode=None, decay=6.0):
    """Smooth random periodic field, Nyquist-free, max-normalised."""
    max_mode = max_mode or max(8, n // 16)
    U = np.zeros(n // 2 + 1, dtype=complex)
    amps = (rng.standard_normal(max_mode - 1)
            + 1j * rng.standard_normal(max_mode - 1))
    U[1:max_mode] = amps * np.exp(-np.arange(1, max_mode) / decay)
    u = np.fft.irfft(U, n)
    return scale * u / np.max(np.abs(u))
