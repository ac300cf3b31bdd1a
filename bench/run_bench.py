#!/usr/bin/env python3
"""gcwaves benchmark: speed-law sweep, elliptic oracle and value-only ansatz.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all      # every workload, one table

The package is imported from ``src/`` of the checkout.  Set-up time is
measured in fresh processes (``setup_probe.py``), one at a time, before
and after the workload; the workload itself then runs closed-loop in
this process, repeating whole passes from cold caches until
``--seconds`` have been measured.  Every operation is timed both on the
wall clock and in seconds at a reference host speed (``clock.py``).  With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one untraced reference pass and one traced pass give the
per-layer metrics and the tracing overhead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "oracle", "ansatz")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def _limit_threads():
    """At most one BLAS/OpenMP thread per available core (set before numpy)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_threads())


def _probe_setup() -> dict:
    """One cold set-up in a fresh process: start to a ready pipeline."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                           str(SRC)], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["setup_s"] = sample.pop("ready_monotonic") - t_spawn
    return sample


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """Thread count the bundled OpenBLAS reports, else the env setting."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def run_info(workload: str, seed: int, passes=()) -> dict:
    import numpy
    import scipy
    import clock
    kernel = [k for r in passes for k in r.clock.kernel_s]
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "affinity_cpus": _threads(), "cpu_model": _cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": _openblas_threads(),
            "kernel_ref_s": clock.KERNEL_REF_S,
            "kernel_median_s": statistics.median(kernel) if kernel else None,
            "workload": workload, "seed": seed}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_time(passes, kind: str) -> float:
    """Sum over the operations of each one's median time across passes.

    ``kind`` is ``"raw_s"`` (wall clock) or ``"ref_s"`` (reference host
    speed).  Every pass runs the same operations in the same order; the
    per-op median discards a load burst on a shared host that hits one
    pass's operations.
    """
    return sum(statistics.median(ts)
               for ts in zip(*(getattr(r.clock, kind) for r in passes)))


def _print_metrics(metrics: dict):
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def _print_ops(passes):
    for label, ok, detail in passes[-1].ops:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    for res in passes[:-1]:
        for label, ok, detail in res.ops:
            if not ok:
                print(f"  [FAIL] {label}: {detail}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload in this process and return the result object.

    Half the set-up probes run before the workload and half after it, so
    that their median does not follow one moment's machine load.
    """
    setup = [_probe_setup() for _ in range(probes // 2)]
    sys.path.insert(0, str(SRC))
    import gcwaves
    if Path(gcwaves.__file__).resolve().parent != (SRC / "gcwaves").resolve():
        raise RuntimeError(f"imported gcwaves from {gcwaves.__file__}")
    import clock
    import tracer as tracing
    import workloads

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pipe = workloads.Pipeline.ready(str(workdir))
        workload = workloads.WORKLOADS[name](seed, toy=toy)
        passes = []
        null = tracing.NullTracer()
        t_start = time.perf_counter()
        # a traced run makes one untraced reference pass, then the traced one
        while not passes or (not trace
                             and time.perf_counter() - t_start < seconds):
            workloads.reset_caches()
            with clock.segmenting():
                passes.append(workload.run(pipe, null))
        if trace:
            workloads.reset_caches()
            tr = tracing.Tracer().install()
            try:
                traced = workload.run(pipe, tr)
            finally:
                tr.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += [_probe_setup() for _ in range(probes - probes // 2)]

    attempted = sum(len(r.ops) for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"workload {name} seed {seed}: {len(passes)} pass(es), "
          f"pass wall times {[round(r.wall_s, 4) for r in passes]} s, "
          f"at reference speed {[round(r.ref_s, 4) for r in passes]} s")
    _print_ops(passes)
    print(f"  set-up probes {[round(s['setup_s'], 4) for s in setup]} s")
    print(f"  fail_share = {failed}/{attempted} = "
          f"{failed / attempted:.6g} (1)")
    print(f"  wall_s = {_pass_time(passes[:1 if trace else None], 'raw_s'):.6g}"
          f" s (wall clock, not normalized)")
    if trace:
        per_layer = tracing.layer_metrics(tr, setup)
        per_layer["trace.overhead_s"] = (passes[-1].ref_s - passes[0].ref_s,
                                        "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   per_layer.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {"run": run_info(name, seed, passes), "metrics": metrics,
             "spans": tr.export()}) + "\n")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        iters = [s.info["iterations"] for s in tr.named("minimizer.minimize")]
        if iters:
            print(f"  minimizer iterations per mu: {iters}")
    else:
        metrics = {
            "ref_wall_s": {"value": _pass_time(passes, "ref_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"]
                                                   for s in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "ok_share": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
    _print_metrics(metrics)
    print("info " + json.dumps(run_info(name, seed, passes)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another, as one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
        rows.append((name, res))
    if not args.trace:
        print(f"\n{'workload':10s} {'ref_wall_s':>12s} {'setup_s':>10s} "
              f"{'peak_rss_mb':>12s} {'fail_share':>11s}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:10s} {m['ref_wall_s']['value']:>10.4f} s "
                  f"{m['setup_s']['value']:>8.4f} s "
                  f"{m['peak_rss_mb']['value']:>9.1f} MB "
                  f"{res['failed'] / res['attempted']:>11.3g}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gcwaves" / "__init__.py").is_file():
        print(f"no gcwaves sources under {SRC}", file=sys.stderr)
        return 2
    _limit_threads()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
