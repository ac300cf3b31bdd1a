"""In-process span tracer for the gcwaves benchmark.

The tracer times the package from outside: it replaces each public entry
point with a wrapper at the name its caller looks it up by (``minimizer``
imports ``grad_J`` by name, so that binding is wrapped on
``gcwaves.minimizer`` as well as on ``gcwaves.fieldops``), and it counts
FFTs by wrapping the ``numpy.fft`` entry points.  Spans stay in memory;
a span's self time is its duration minus the time covered by its direct
child spans.  ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                    "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft",
                    "ihfft")

# (owner, attribute, span name).  An owner is a module path, optionally
# followed by ":Class" for a method looked up on instances of that class.
SPAN_BINDINGS = (
    ("gcwaves.cli", "main", "cli.main"),
    ("gcwaves.dispersion", "find_critical", "dispersion.find_critical"),
    ("gcwaves.nls", "compute_coefficients", "nls.compute_coefficients"),
    ("gcwaves.fieldops", "grad_J", "fieldops.grad_J"),
    ("gcwaves.fieldops", "eval_J", "fieldops.eval_J"),
    ("gcwaves.fieldops", "eps_of_mu", "fieldops.eps_of_mu"),
    ("gcwaves.fieldops", "mu_of_eps", "fieldops.mu_of_eps"),
    ("gcwaves.fieldops", "build_eta_star", "fieldops.build_eta_star"),
    ("gcwaves.minimizer", "grad_J", "fieldops.grad_J"),
    ("gcwaves.minimizer", "eval_J", "fieldops.eval_J"),
    ("gcwaves.minimizer", "eps_of_mu", "fieldops.eps_of_mu"),
    ("gcwaves.minimizer", "build_eta_star", "fieldops.build_eta_star"),
    ("gcwaves.minimizer", "minimize", "minimizer.minimize"),
    ("gcwaves.minimizer:_Objective", "precondition", "minimizer.precondition"),
    ("gcwaves.dno", "eval_L_exact", "dno.eval_L_exact"),
    ("gcwaves.dno:_StripOperator", "solve", "dno.solve"),
    ("gcwaves.dno:LowerSolver", "__init__", "dno.solver_build"),
    ("gcwaves.dno:UpperSolver", "__init__", "dno.solver_build"),
)

# (owner, attribute, counter name): calls counted without a span, so they
# do not take self time away from the span that makes them.
COUNT_BINDINGS = (
    ("gcwaves.minimizer:_Objective", "__call__", "minimizer.objective_evals"),
)


def _array_mb(obj) -> float:
    """Megabytes of the arrays an object holds, one level into containers."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            parts = item if isinstance(item, tuple) else (item,)
            total += sum(getattr(a, "nbytes", 0) for a in parts)
    return total / 1e6


def _record_info(span, args, result):
    """Pull the work counters a span's result carries into ``span.info``."""
    if span.name == "minimizer.minimize":
        span.info["iterations"] = result.iterations
        span.info["mu"] = result.breakdown.mu
    elif span.name == "dno.solve":
        span.info["cg_iterations"] = result[1]
    elif span.name == "dno.solver_build":
        span.info["mb"] = _array_mb(args[0])


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "ffts", "child_s", "children",
                 "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.ffts = 0
        self.child_s = 0.0
        self.children: dict[str, int] = {}
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules.get(module) or importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Wraps the bindings above while installed; records only while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.ffts = 0
        self.active = False
        self.unbound: list[str] = []
        self._stack: list[Span] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        import numpy.fft
        for name in FFT_ENTRY_POINTS:
            if hasattr(numpy.fft, name):
                self._patch(numpy.fft, name, self._fft_counter)
        for owner, attr, name in SPAN_BINDINGS:
            self._bind(owner, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for owner, attr, name in COUNT_BINDINGS:
            self._bind(owner, attr, lambda fn, n=name: self._call_counter(fn, n))
        self.active = True
        return self

    def uninstall(self):
        self.active = False
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _bind(self, owner_path: str, attr: str, make_wrapper):
        owner = _resolve(owner_path)
        if owner is None or not hasattr(owner, attr):
            # a renamed entry point reads as zero work; say so loudly
            self.unbound.append(f"{owner_path}.{attr}")
            print(f"tracer: cannot bind {owner_path}.{attr}", file=sys.stderr)
            return
        self._patch(owner, attr, make_wrapper)

    def _patch(self, owner, attr: str, make_wrapper):
        original = getattr(owner, attr)
        owned = not isinstance(owner, type) or attr in vars(owner)
        self._undo.append((owner, attr, original, owned))
        setattr(owner, attr, make_wrapper(original))

    # -- wrappers ----------------------------------------------------------

    def _fft_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.ffts += 1
            return fn(*args, **kwargs)
        return wrapper

    def _call_counter(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[name] = tracer.counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            ffts0 = tracer.ffts
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.ffts = tracer.ffts - ffts0
                stack.pop()
                tracer.spans.append(span)
                if span.parent is not None:
                    span.parent.child_s += span.duration
                    span.parent.children[name] = \
                        span.parent.children.get(name, 0) + 1
            _record_info(span, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around correctness checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def export(self) -> list[dict]:
        """Spans in completion order, parents referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "t0": s.t0, "t1": s.t1, "ffts": s.ffts,
                 "parent": index.get(id(s.parent)), "info": s.info}
                for s in self.spans]


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    @contextlib.contextmanager
    def paused(self):
        yield


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_samples: list[dict]) -> dict:
    """Per-layer metrics of one traced pass plus the median set-up split.

    Returns ``{name: (value, unit)}``.  Counts are whole-pass totals;
    ``*.s`` is the summed inclusive time of the named spans.
    """
    out = {}

    def calls_time(name, prefix):
        spans = tracer.named(name)
        out[prefix + ".calls"] = (len(spans), "count")
        out[prefix + ".s"] = (sum(s.duration for s in spans), "s")
        return spans

    for layer in ("grad_J", "eval_J"):
        spans = calls_time("fieldops." + layer, "fieldops." + layer)
        out[f"fieldops.{layer}.ffts_per_call"] = (
            _ratio(sum(s.ffts for s in spans), len(spans)), "count/call")
    spans = calls_time("fieldops.eps_of_mu", "fieldops.eps_of_mu")
    out["fieldops.eps_of_mu.l_evals_per_call"] = (
        _ratio(sum(s.children.get("fieldops.mu_of_eps", 0) for s in spans),
               len(spans)), "count/call")
    calls_time("fieldops.build_eta_star", "fieldops.build_eta_star")
    out["fieldops.ffts"] = (tracer.ffts, "count")

    spans = tracer.named("minimizer.minimize")
    iterations = sum(s.info.get("iterations", 0) for s in spans)
    evals = tracer.counters.get("minimizer.objective_evals", 0)
    out["minimizer.minimize.s"] = (sum(s.duration for s in spans), "s")
    out["minimizer.self_s"] = (sum(s.self_s for s in spans), "s")
    out["minimizer.iterations"] = (iterations, "count")
    out["minimizer.objective_evals"] = (evals, "count")
    out["minimizer.accept_ratio"] = (_ratio(iterations, evals), "1")
    out["minimizer.precondition.s"] = (
        sum(s.duration for s in tracer.named("minimizer.precondition")), "s")

    calls_time("dno.eval_L_exact", "dno.eval_L_exact")
    spans = calls_time("dno.solve", "dno.solve")
    out["dno.cg_iters_per_solve"] = (
        _ratio(sum(s.info.get("cg_iterations", 0) for s in spans),
               len(spans)), "count/call")
    builds = tracer.named("dno.solver_build")
    out["dno.solver_builds"] = (len(builds), "count")
    out["dno.solver_build.s"] = (sum(s.duration for s in builds), "s")
    out["dno.solver_mb"] = (
        _ratio(sum(s.info.get("mb", 0.0) for s in builds), len(builds)), "MB")

    out["cli.self_s"] = (sum(s.self_s for s in tracer.named("cli.main")), "s")

    for key, name in (("import_s", "import_s"),
                      ("find_critical_s", "dispersion.find_critical.s"),
                      ("compute_coefficients_s", "nls.compute_coefficients.s")):
        out[name] = (statistics.median(p[key] for p in setup_samples), "s")
    out["trace.unbound_targets"] = (len(tracer.unbound), "count")
    return out
