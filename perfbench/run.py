"""Benchmark of ``polyce``: one workload per run, metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload static-lp --seed 0 --seconds 24 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``static-lp``,
``adaptive-sdp``, ``moments-sdp`` and ``sos-bulk``.  ``--seed`` drives the
random polynomials of ``sos-bulk``; the other three run fixed game sets,
because the cost of one game varies so much that a seed-dependent set of
ten or twenty games would swing the pass time by a third between seeds.

Each workload runs in a fresh process with the BLAS and OpenMP thread
counts pinned to 1 (and the hash seed to 0) in its environment; at two
threads the IPM takes other paths and iteration counts stop repeating.  Set-up (interpreter start, importing
``polyce`` with ``polyce.ipm`` and generating the inputs) is timed in
``SETUP_SAMPLES`` fresh processes.  The last of them then runs whole passes
over the workload's job list until ``--seconds`` have gone by.

Times are reported in reference seconds: the measured seconds times the
scale of ``workloads.SpeedProbe``, which times chunks of fixed work that
does not depend on the program (about 5% of the run, between jobs; after
set-up for the set-up time).  On a shared host the speed drifts by a third and more within
minutes; the scaled figures follow the program, not the host.  The output
lists the raw pass times and the scales too.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics; the spans go to ``perfbench/out/``.  Metrics of a layer
that a workload does not call read 0.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts jobs that gave a wrong answer, and ``correct`` is false
when there is one.  Jobs that raised or missed a precision or status check
are the program's shortfalls that the benchmark measures: they lower
``ok_frac`` (and raise the per-layer ``fail_frac``) but do not fail the run
(see ``workloads.py``).  Lines before it describe the run: the environment,
pass counts, sample counts and every job that was not ok.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}
# figures of merit that only some workloads produce; the others report 0
QUALITY = ("eps_x_d", "box_width", "proof_p50_ms", "proof_p95_ms")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON output and its set-up time, from
    process start to inputs ready, in reference seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} timed out") from None
        except BaseException:  # interrupted: the worker must not outlive the run
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    try:
        out = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result: {exc}") from None
    return out, (out["ready"] - started) * out["setup_scale"]


def scaled_median(walls, scales) -> float:
    return statistics.median(w * s for w, s in zip(walls, scales))


def measure(workload: str, seed: int, seconds: int, trace: int):
    """Returns (metric values, worker output, setup samples)."""
    t0 = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker([*common, "--probe"], RUN_LIMIT_S - (time.monotonic() - t0))[1])
    main_args = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        main_args += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
    out, setup = run_worker(main_args, RUN_LIMIT_S - (time.monotonic() - t0))
    setups.append(setup)

    counts = out["counts"]
    attempted = sum(counts.values())
    if trace:
        values = dict.fromkeys(QUALITY, 0.0)
        values.update(out["per_pass"])
        values["trace.overhead_s"] = (scaled_median(out["walls"], out["scales"])
                                      - scaled_median(out["untraced_walls"],
                                                      out["untraced_scales"]))
        values["fail_frac"] = 1.0 - counts["ok"] / attempted
    else:
        values = {
            "wall_s": scaled_median(out["walls"], out["scales"]),
            "setup_s": statistics.median(setups),
            "ok_frac": counts["ok"] / attempted,
            "peak_rss_mb": out["peak_rss_mb"],
        }
    return values, out, setups


def main(argv=None) -> int:
    # a terminated run unwinds, so run_worker stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polyce" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no polyce sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        values, out, setups = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    counts = out["counts"]
    attempted = sum(counts.values())
    print("env " + json.dumps(out["env"]))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(out.get('untraced_walls', [])) + len(out['walls'])} passes, "
          f"{attempted} jobs ({counts['ok']} ok, {counts['missed']} missed, {counts['wrong']} wrong), "
          f"{len(setups)} set-ups")
    labels = {"untraced_": "untraced passes", "": "traced passes" if args.trace else "passes"}
    for key, label in labels.items():
        if key + "walls" in out:
            print(f"  {label} (s): " + " ".join(f"{w:.3f}" for w in out[key + "walls"]))
            print("    speed scales: " + " ".join(f"{s:.3f}" for s in out[key + "scales"]))
    print("  set-ups (reference s): " + " ".join(f"{s:.3f}" for s in setups))
    for note in out["notes"][:20]:
        print(f"  {note}")
    if len(out["notes"]) > 20:
        print(f"  ... {len(out['notes']) - 20} more")
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:28s} {value:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": attempted,
        "failed": counts["wrong"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
