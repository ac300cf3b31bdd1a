"""Smoke test of the benchmark harness at toy sizes.

Runs every workload untraced and traced on small grids and checks the
result object against BENCHMARK.json: exact key sets, every metric named
there present with its unit, no failed operation, and work counts that
repeat exactly between two traced passes.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import clock as hostclock  # noqa: E402
import run_bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("fieldops.grad_J.ffts_per_call", "fieldops.eval_J.ffts_per_call",
                "minimizer.iterations", "dno.cg_iters_per_solve",
                "dno.solver_builds", "fieldops.ffts")


def _run(name, trace, seed=3):
    return run_bench.run_workload(name, seed, seconds=0.0, trace=trace,
                                  toy=True, probes=1)


def _check_shape(res, metric_specs):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in metric_specs}
    for m in metric_specs:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    json.dumps(res, allow_nan=False)


@pytest.mark.parametrize("name", run_bench.WORKLOAD_NAMES)
def test_untraced_run_reports_end_to_end_metrics(name):
    res = _run(name, trace=False)
    _check_shape(res, SPEC["end_to_end"])
    assert all(res["metrics"][m["name"]]["value"] > 0
               for m in SPEC["end_to_end"])


def test_traced_run_reports_per_layer_metrics():
    res = _run("ansatz", trace=True)
    _check_shape(res, SPEC["per_layer"])
    assert res["metrics"]["trace.unbound_targets"]["value"] == 0


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    return workloads.Pipeline.ready(str(tmp_path_factory.mktemp("bench")))


@pytest.mark.parametrize("name", run_bench.WORKLOAD_NAMES)
def test_traced_counts_repeat(pipe, name):
    workload = workloads.WORKLOADS[name](3, toy=True)
    setup = [{"import_s": 0.0, "find_critical_s": 0.0,
              "compute_coefficients_s": 0.0}]
    runs = []
    for _ in range(2):
        workloads.reset_caches()
        tr = tracing.Tracer().install()
        try:
            assert workload.run(pipe, tr).failed == 0
        finally:
            tr.uninstall()
        runs.append(tracing.layer_metrics(tr, setup))
    for key in EXACT_COUNTS:
        assert runs[0][key] == runs[1][key], key
    layer = {"sweep": "minimizer.iterations", "oracle": "dno.solver_builds",
             "ansatz": "fieldops.eval_J.calls"}[name]
    assert runs[0][layer][0] > 0


def test_tracer_restores_every_binding():
    import gcwaves.fieldops
    import gcwaves.minimizer
    import numpy.fft
    originals = (gcwaves.fieldops.grad_J, gcwaves.minimizer.grad_J,
                 numpy.fft.rfft, gcwaves.minimizer._Objective.__call__)
    tr = tracing.Tracer().install()
    assert gcwaves.minimizer.grad_J is not originals[1]
    tr.uninstall()
    assert (gcwaves.fieldops.grad_J, gcwaves.minimizer.grad_J,
            numpy.fft.rfft, gcwaves.minimizer._Objective.__call__) == originals


def test_clock_cuts_long_operations_and_restores_hooks(monkeypatch):
    import gcwaves.minimizer
    original = gcwaves.minimizer.grad_J
    monkeypatch.setattr(hostclock, "SEGMENT_S", 0.0)
    clock = hostclock.Clock()
    with hostclock.segmenting():
        assert gcwaves.minimizer.grad_J is not original
        with clock.op():
            time.sleep(0.01)
            clock.tick()  # cuts: one kernel before, one at the cut, one after
    assert gcwaves.minimizer.grad_J is original
    assert len(clock.kernel_s) == 3
    assert clock.raw_s[0] >= 0.01 and clock.ref_s[0] > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "ansatz", "--seed",
                                             "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
