"""Run one benchmark workload against the onemax sources of this checkout.

    python3 bench/run.py --workload desk-multi --seed 1 --seconds 25 --trace 0

Untraced runs (--trace 0) print every end-to-end metric; traced runs
(--trace 1) wrap onemax's functions and print every per-layer metric.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record (raw samples, environment, spans when traced) goes to
.bench_results/ in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-multi", "paper-shape")
# One BLAS thread: the steadiest setting on a small shared machine. It must be
# set before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "onemax" / "__init__.py").is_file():
        print(f"error: no onemax sources under {src}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import numpy as np
    from harness import Checks, measure
    from layers import conv_width_ms, per_layer
    from tracing import Tracer
    from workloads import Workload

    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        phases = {}
        w = Workload(args.workload, args.seed, work, tracer)
        w.setup()
        phases["setup"] = time.perf_counter() - started
        w.fill()
        phases["fill"] = time.perf_counter() - started
        probes = w.probes()
        # Peak RSS is read once every operation has run once: later rounds repeat
        # the same work, and how many there are depends on the machine's speed.
        peak = []
        rounds = measure(probes, w.spec.heavy, args.seconds, tracer, after_first_round=lambda:
                         peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
        phases["measure"] = time.perf_counter() - started
        peak_rss_mb = peak[0]
        if tracer is not None:
            tracer.uninstall()
        checks = Checks()
        w.run_checks(checks)
        phases["checks"] = time.perf_counter() - started
        by_name = {p.name: p for p in probes}
        if tracer is None:
            metrics = w.end_to_end(by_name, peak_rss_mb)
        else:
            metrics = per_layer(w, tracer, by_name, conv_width_ms(w))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "wall_s": time.perf_counter() - started,
        "phase_end_s": phases,
        "env": {"blas_threads": threads, "cpus": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "machine": platform.machine()},
        "checks": vars(checks),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "samples": {p.name: p.samples for p in probes},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.json", {"workload": args.workload, "seed": args.seed})
    print(f"bench: workload={args.workload} seed={args.seed} blas_threads={threads} "
          f"rounds={rounds} wall_s={record['wall_s']:.1f}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
