"""One workload process: set up, then run passes for a fixed time.

Started by ``run.py`` with the BLAS and OpenMP thread counts pinned in its
environment.  Prints one JSON object on stdout.  With ``--probe`` it stops
once set-up is done and the host's speed is sampled, so the parent can time
set-up in fresh processes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import spans
import workloads

SETUP_PROBE_CHUNKS = 10

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_passes(workload, runner, seconds, since):
    """Whole passes, at least one, until ``seconds`` have gone by since the
    ``perf_counter`` reading ``since``.  Returns a (wall time without the
    speed probe's chunks, probe scale during the pass) pair per pass."""
    passes = []
    while not passes or time.perf_counter() - since < seconds:
        gc.collect()
        runner.probe.reset()
        t0 = time.perf_counter()
        workload.run_pass(runner)
        passes.append((time.perf_counter() - t0 - runner.probe.time, runner.probe.scale()))
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file that receives the traced spans, one JSON per line")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    runner = workloads.JobRunner()
    # the host's speed just after set-up, which scales the set-up time
    out["setup_scale"] = runner.probe.sample(SETUP_PROBE_CHUNKS)
    if args.probe:
        print(json.dumps(out), flush=True)
        return 0

    start = time.perf_counter()
    if args.trace:
        # untraced and traced passes alternate, so a drift in machine speed
        # hits both sides of the tracing overhead alike
        tracer = spans.Tracer()
        runner.tracer = tracer
        untraced, traced, layers, recorded = [], [], [], []
        while not traced or time.perf_counter() - start < args.seconds:
            if len(untraced) <= len(traced):
                untraced += run_passes(workload, runner, 0, start)
                continue
            tracer.reset()
            tracer.install()
            try:
                traced += run_passes(workload, runner, 0, start)
            finally:
                tracer.uninstall()
            layers.append({**tracer.layer_metrics(), **workload.quality})
            recorded.append(tracer.spans)
        if args.spans:
            spans.write_spans(args.spans, recorded)
        out["per_pass"] = {k: float(np.median([m[k] for m in layers])) for k in layers[0]}
        out["untraced_walls"], out["untraced_scales"] = map(list, zip(*untraced))
        out["walls"], out["scales"] = map(list, zip(*traced))
    else:
        out["walls"], out["scales"] = map(list, zip(*run_passes(workload, runner,
                                                                args.seconds, start)))

    out.update(
        counts=runner.counts,
        notes=runner.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        env=environment(),
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
