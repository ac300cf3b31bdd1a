"""The benchmark's bindings and the package's public names resolve.

A renamed target fails no benchmark run: ``bench/clock.py`` prints
``clock: cannot hook`` and loses its host-drift correction inside long
operations, and ``bench/tracer.py`` reads zero work for it.  A top-level
name that the benchmark or a script uses, dropped from ``gcwaves``,
would fail only when that file runs.  A ``result.json`` key that the
benchmark reads, dropped from the file, would show only as a failed
operation in a benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import gcwaves
from gcwaves import cli
from gcwaves.fieldops import FunctionalBreakdown
from gcwaves.minimizer import MinimizeResult

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    path = ROOT / "bench" / f"{name}.py"
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


def _top_level_names(path):
    """Names read off the ``gcwaves`` package itself in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "gcwaves" \
                and node.level == 0:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "gcwaves":
            names.add(node.attr)
    return names


def test_bench_and_scripts_use_exported_names():
    submodules = {m.name for m in pkgutil.iter_modules(gcwaves.__path__)}
    files = sorted((ROOT / "bench").glob("*.py")) \
        + sorted((ROOT / "scripts").glob("*.py"))
    used = {}
    for path in files:
        for name in _top_level_names(path) - submodules - {"__file__"}:
            used.setdefault(name, []).append(path.name)
    assert used
    missing = {n: f for n, f in used.items() if n not in gcwaves.__all__}
    assert missing == {}


def _sweep_result_keys():
    """The string keys the ``sweep`` workload indexes on the result it
    reads back from ``result.json`` (its ``r``)."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    (sweep,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Sweep"]
    return {node.slice.value for node in ast.walk(sweep)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "r"
            and isinstance(node.slice, ast.Constant)}


def test_result_json_holds_the_keys_the_benchmark_reads():
    keys = _sweep_result_keys()
    assert keys == {"converged", "speed", "iterations"}
    bd = FunctionalBreakdown(
        *[0.0] * len(dataclasses.fields(FunctionalBreakdown)))
    r = MinimizeResult(eta=None, breakdown=bd, speed=0.0, iterations=0,
                       final_grad_norm=0.0, boundary_hit=False,
                       converged=True)
    written = cli._result_dict(r, SimpleNamespace(nu0=1.0))
    assert keys - set(written) == set()
