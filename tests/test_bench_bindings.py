"""The benchmark's bindings and the package's public names resolve.

A renamed target fails no benchmark run: ``bench/clock.py`` prints
``clock: cannot hook`` and loses its host-drift correction inside long
operations, and ``bench/tracer.py`` reads zero work for it.
"""

import importlib
import importlib.util
from pathlib import Path

import gcwaves


def _bench_module(name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_bindings_resolve():
    clock, tracer = _bench_module("clock"), _bench_module("tracer")
    tables = (clock.HOOKS, tracer.SPAN_BINDINGS, tracer.COUNT_BINDINGS)
    assert all(tables)
    unresolved = []
    for owner_path, attr, *_ in (b for table in tables for b in table):
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or not hasattr(owner, attr):
            unresolved.append(f"{owner_path}.{attr}")
    assert unresolved == []


def test_public_names_resolve():
    assert [n for n in gcwaves.__all__ if not hasattr(gcwaves, n)] == []
