#!/usr/bin/env python3
"""Run one sigfit benchmark workload; the last stdout line is the result.

Usage, from the root of a sigfit checkout:

    python3 perfbench/run.py --workload fit-serial --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed slice twice, untraced and then traced, and
prints the per-layer metrics; the spans, per-layer self times and fit
histograms go to ``.bench_work/trace-<workload>-seed<seed>.json``.
Either way the outputs are checked, the line before the result carries the
checks, recorded values and the environment, and any failed check makes
the exit code 1. The package is imported from ``./src`` only: without it
the run stops with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
WORK_DIR = ".bench_work"


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _openblas_threads(numpy):
    """Thread count the bundled OpenBLAS reports, read without changing it."""
    import ctypes

    base = os.path.dirname(numpy.__file__)
    for path in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import multiprocessing

    import numpy

    import sigfit

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    threads = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    threads["openblas_get_num_threads"] = _openblas_threads(numpy)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sigfit_backend": sigfit.BACKEND,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_start_method": multiprocessing.get_context().get_start_method(),
        "synth_seed": seed,
    }


def measure(workload, inputs, seconds):
    """Passes over the slice until the next one would end past ``seconds``."""
    first = None
    digests = set()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        output = workload.run_pass(inputs)
        wall = time.perf_counter() - t0
        walls.append(wall)
        cpus.append(_cpu_seconds() - cpu0)
        digests.add(workload.digest(output))
        if first is None:
            first = output
        if time.perf_counter() - start + wall > seconds:
            break
    return first, walls, cpus, digests


def fixed_passes(workload, inputs, n):
    first = None
    digests = set()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for _ in range(n):
        output = workload.run_pass(inputs)
        digests.add(workload.digest(output))
        if first is None:
            first = output
    return first, time.perf_counter() - t0, _cpu_seconds() - cpu0, digests


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sigfit" / "__init__.py").is_file():
        print("perfbench: no ./src/sigfit here; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sigfit

    if Path(sigfit.__file__).resolve().parent != (src / "sigfit").resolve():
        print(f"perfbench: sigfit imported from {sigfit.__file__}, not ./src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = root / WORK_DIR
    work_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)

    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.prepare()
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.warm(inputs)
        warm_s = time.perf_counter() - t0
        details = {
            "workload": workload.name,
            "seed": args.seed,
            "warmup_s": warm_s,
            "environment": environment(args.seed),
        }
        if args.trace:
            result = traced_run(workload, inputs, args, work_dir, details)
        else:
            result = untraced_run(workload, inputs, args, setup, details)
    finally:
        workload.cleanup()
    print(json.dumps({"details": details}, default=str))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced_run(workload, inputs, args, setup, details):
    output, walls, cpus, digests = measure(workload, inputs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = workload.units(inputs)
    outcome = workload.evaluate(inputs, output)
    checks = dict(outcome.checks)
    if len(walls) > 1:  # a single pass has nothing to be compared with
        checks["passes_identical"] = len(digests) == 1
    samples = workload.samples(inputs)
    wall = statistics.median(walls)
    details.update(
        {
            "slice": {workload.unit: units, "samples": samples},
            "passes": len(walls),
            "pass_s": walls,
            f"{workload.unit}_per_s": units / wall,
            "checks": checks,
            "record": outcome.record,
            "setup_runs_s": setup,
        }
    )
    metrics = {
        "samples_per_s": _metric(samples / wall, "1/s"),
        "cpu_s_per_sample": _metric(sum(cpus) / (samples * len(walls)), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "success_ratio": _metric(1.0 - outcome.failed / outcome.attempted, "ratio"),
    }
    return {
        "correct": all(checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def traced_run(workload, inputs, args, work_dir, details):
    import tracing

    sub = workload.trace_slice(inputs)
    passes = workload.trace_passes
    _, plain_wall, plain_cpu, plain_digests = fixed_passes(workload, sub, passes)
    with tracing.Tracer() as tracer:
        origin = time.perf_counter()
        output, traced_wall, _, traced_digests = fixed_passes(workload, sub, passes)
    outcome = workload.evaluate(sub, output)
    checks = dict(outcome.checks, traced_matches_untraced=plain_digests == traced_digests)
    if passes > 1:
        checks["passes_identical"] = len(plain_digests) == 1
    layers, summary = tracing.layer_metrics(tracer.spans, traced_wall)
    overhead = traced_wall / plain_wall - 1.0
    layers["pipeline.cpu_per_wall"] = (plain_cpu / plain_wall, "ratio")
    layers["pipeline.failed_channels"] = (outcome.record.get("failed_channels", 0), "count")
    layers["trace.overhead_pct"] = (100.0 * overhead, "pct")
    for name in ("gof.r2_p10", "verify.eer_fitted"):
        layers[name] = outcome.quality.get(name, (0.0, "ratio"))
    details.update(
        {
            "trace_slice": {workload.unit: workload.units(sub), "passes": passes},
            "untraced_s": plain_wall,
            "traced_s": traced_wall,
            "tracing_overhead": overhead,
            "checks": checks,
            "record": outcome.record,
        }
    )
    trace_path = work_dir / f"trace-{workload.name}-seed{args.seed}.json"
    details["trace_file"] = str(trace_path.relative_to(work_dir.parent))
    trace = {
        "details": details,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "summary": summary,
        "fit_histograms": outcome.histograms,
        "spans": tracing.spans_table(tracer.spans, origin),
    }
    trace_path.write_text(json.dumps(trace, default=str) + "\n")
    metrics = {k: _metric(v, u) for k, (v, u) in layers.items()}
    return {
        "correct": all(checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
