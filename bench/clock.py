"""Operation timer that corrects for the host's speed.

On a shared host the speed of the CPU itself drifts: a fixed loop of
numpy FFTs, timed in 1 s slices, varies by about 20% (coefficient of
variation), and the median of 10 s blocks moves by ±20% over a minute;
process CPU time tracks wall time, so the slowdown is inside the core,
not time spent descheduled.  No number of repeats inside one run removes
drift that lasts longer than the run.

``Clock`` therefore times a fixed reference kernel (``reference_kernel``:
FFT pairs, small Cholesky solves and elementwise array work, the
package's three kinds of hot work) before and after every timed segment
of an operation.  The kernel runs once untimed first, so its timed run
finds its data in cache whatever the operation left there.  A segment's normalized time is its wall time times
``KERNEL_REF_S`` over the mean of the two kernel times that bracket it:
the time the segment would take on a host where the kernel takes
``KERNEL_REF_S``.  Long operations are cut into segments of about
``SEGMENT_S`` at hook points (the entry points in ``HOOKS``), so the
correction follows drift inside an operation too.  Kernel time is never
part of an operation's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# about the reference kernel's median time, warm, on 2 cores of an Intel Xeon
# (Python 3.11, numpy 2.4, scipy 1.17, 2 OpenBLAS threads)
KERNEL_REF_S = 0.009
SEGMENT_S = 1.0

# entry points at which a long operation may be cut into segments:
# (module path[:Class], attribute)
HOOKS = (
    ("gcwaves.minimizer", "grad_J"),
    ("gcwaves.dno:_StripOperator", "apply"),
)

_N = 8192
_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(_N)
_A = _rng.standard_normal((49, 49))
_CHO = cho_factor(_A @ _A.T + 49.0 * np.eye(49))
_B = _rng.standard_normal(49)


def reference_kernel() -> float:
    """One fixed slice of FFT, small-solve and array work; returns a value
    so the work cannot be skipped."""
    acc = 0.0
    for _ in range(28):
        y = np.fft.irfft(np.fft.rfft(_X) * 0.5, _N)
        acc += float(np.dot(y, np.tanh(y)))
    for _ in range(260):
        acc += float(cho_solve(_CHO, _B)[0])
    return acc


_active: "Clock | None" = None


class Clock:
    """Wall and host-normalized time of the operations of one pass."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.ref_s: list[float] = []
        self.kernel_s: list[float] = []
        self._k_end = -float("inf")  # when the last kernel run ended

    def _calibrate(self) -> float:
        reference_kernel()  # warm-up
        t0 = time.perf_counter()
        reference_kernel()
        self._k_end = time.perf_counter()
        k = self._k_end - t0
        self.kernel_s.append(k)
        return k

    def _close_segment(self):
        t1 = time.perf_counter()
        k_after = self._calibrate()
        seg = t1 - self._t0
        self._raw += seg
        self._ref += seg * KERNEL_REF_S / (0.5 * (self._k_before + k_after))
        self._k_before = k_after
        self._t0 = time.perf_counter()

    def tick(self):
        """Cut the open segment if it has run for ``SEGMENT_S``."""
        if time.perf_counter() - self._t0 >= SEGMENT_S:
            self._close_segment()

    @contextlib.contextmanager
    def op(self):
        """Time one operation; appends its raw and normalized seconds.

        The kernel run that closed the previous operation opens this one
        if it ended less than ``SEGMENT_S`` ago.
        """
        global _active
        self._raw = self._ref = 0.0
        if time.perf_counter() - self._k_end >= SEGMENT_S:
            self._calibrate()
        self._k_before = self.kernel_s[-1]
        _active = self
        self._t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_segment()
            _active = None
            self.raw_s.append(self._raw)
            self.ref_s.append(self._ref)


def _ticking(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _active is not None:
            _active.tick()
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def segmenting():
    """Let the open operation be cut at the ``HOOKS`` entry points.

    Not used in traced passes: a cut inside a span would add kernel time
    to that span.
    """
    undo = []
    for owner_path, attr in HOOKS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            print(f"clock: cannot hook {owner_path}.{attr}",
                  file=sys.stderr)
            continue
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _ticking(original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
