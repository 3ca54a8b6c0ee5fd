"""Tests of the benchmark itself: span arithmetic, metric names and units,
wrapper coverage, and the output contract of ``run.py``.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"wall_s": "s", "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ipm.compile_s": "s", "ipm.core_s": "s", "ipm.iterations": "count",
    "ipm.iters_p50": "count", "ipm.iters_max": "count", "ipm.ms_per_iter": "ms",
    "ipm.kkt_gflop": "GFLOP-computed", "ipm.kkt_mb_max": "MB-computed",
    "conic.solves": "count", "conic.rows": "count", "conic.scalars": "count",
    "conic.psd_blocks": "count", "conic.optimal": "count", "conic.infeasible": "count",
    "conic.numerical_failure": "count", "conic.raised": "count",
    "conic.max_iter_solves": "count",
    "finite_ce.build_s": "s", "finite_ce.check_s": "s", "finite_ce.lp_solves": "count",
    "finite_ce.audit_s": "s", "finite_ce.audit_calls": "count",
    "games.sample_s": "s", "games.sample_calls": "count",
    "games.gain_poly_s": "s", "games.gain_poly_calls": "count",
    "polynomials.maximize_s": "s", "polynomials.maximize_calls": "count",
    "sos.encode_s": "s", "sos.encode_calls": "count",
    "sos.prove_self_s": "s", "sos.verify_s": "s",
    "adaptive.build_s": "s", "adaptive.rounds": "count", "adaptive.grid_points": "count",
    "moments.build_s": "s", "trace.overhead_s": "s",
    "fail_frac": "ratio", "eps_x_d": "payoff", "box_width": "payoff",
    "proof_p50_ms": "ms", "proof_p95_ms": "ms",
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_static():
    proc = run_bench("--workload", "static-lp", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_of_nested_spans():
    tr = spans.Tracer()
    tr.spans = [
        spans.Span("ipm.solve", 0.0, 10.0, None, 1),
        spans.Span("ipm.compile", 1.0, 4.0, 0, 1),
        spans.Span("games.sample", 2.0, 3.0, 1, 1),
        spans.Span("ipm.compile", 5.0, 6.0, 0, 1),
        spans.Span("ipm.solve", 11.0, 12.5, None, 2),
    ]
    assert tr.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])
    layers = tr.layer_metrics()
    assert layers["ipm.core_s"] == pytest.approx(7.5)
    assert layers["ipm.compile_s"] == pytest.approx(3.0)
    assert layers["games.sample_s"] == pytest.approx(1.0)
    assert layers["games.sample_calls"] == 1


def test_a_solve_that_raises_is_counted_and_its_span_closed():
    def breakdown(self, tol=1e-8, max_iter=200, centering="mehrotra"):
        raise ValueError("breakdown")

    tr = spans.Tracer()
    solve = tr._wrap("conic.solve", breakdown, tr._on_solve)
    problem = spans.ConicProblem()
    problem.add_nonneg_var()
    with pytest.raises(ValueError):
        solve(problem)
    assert tr.layer_metrics()["conic.raised"] == 1
    assert tr._stack == [] and tr.spans[0].end >= tr.spans[0].start


def test_benchmark_json_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_traced_run_reports_every_layer_metric(traced_static):
    got = {k: v["unit"] for k, v in traced_static["metrics"].items()}
    assert got == PER_LAYER
    assert traced_static["correct"] and traced_static["failed"] == 0


def test_wrappers_reach_the_bindings_callers_use(traced_static):
    # finite_ce calls its own ``sample_game`` binding and ce_lp's solves go
    # through ConicProblem.solve: both show only if those bindings are wrapped
    metrics = traced_static["metrics"]
    assert metrics["games.sample_calls"]["value"] == len(workloads.STATIC_DS)
    assert metrics["finite_ce.lp_solves"]["value"] >= len(workloads.STATIC_DS)
    assert metrics["finite_ce.audit_calls"]["value"] == len(workloads.STATIC_DS)
    assert metrics["polynomials.maximize_calls"]["value"] > 0


def test_install_replaces_and_uninstall_restores_every_binding():
    originals = {(name, attr): getattr(mod, attr)
                 for name, targets in spans.WRAPPED.items() for mod, attr in targets}
    solve = spans.ConicProblem.solve
    tr = spans.Tracer()
    tr.install()
    try:
        for mod in spans.polyce_modules():
            for key, value in vars(mod).items():
                assert all(value is not fn for fn in originals.values()), (mod.__name__, key)
        assert spans.ConicProblem.solve is not solve
    finally:
        tr.uninstall()
    assert spans.ConicProblem.solve is solve
    from polyce import adaptive, finite_ce
    assert adaptive.sample_game is originals[("games.sample", "sample_game")]
    assert finite_ce.min_epsilon is originals[("finite_ce.audit", "min_epsilon")]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "static-lp", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert last["attempted"] >= len(workloads.STATIC_DS)


def test_missed_jobs_lower_ok_frac_but_do_not_fail_the_run():
    proc = run_bench("--workload", "sos-bulk", "--seed", "0", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    summary = next(line for line in lines if line.startswith("workload sos-bulk"))
    missed = int(re.search(r"(\d+) missed", summary).group(1))
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == 439
    assert last["metrics"]["ok_frac"]["value"] == pytest.approx(1 - missed / 439)


def test_speed_probe_pays_its_share_of_job_time():
    probe = workloads.SpeedProbe()
    assert probe.count == 0 and probe.time == 0.0
    probe.after_job(1.0)
    assert probe.count >= 1
    assert probe.time >= workloads.REF_SHARE * 1.0
    assert probe.scale() == pytest.approx(workloads.REF_CHUNK_S * probe.count / probe.time)
    count = probe.count
    probe.after_job(0.0)  # a share already paid is not paid again
    assert probe.count == count


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("--workload", "sos-bulk", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ce_violation_matches_the_program_on_a_sampled_game():
    from polyce import demo_games, finite_ce, games

    game = demo_games.quadratic_demo_game()
    grid = finite_ce.midpoint_grid(4)
    fg = games.sample_game(game, [grid, grid])
    rng = np.random.default_rng(1)
    probs = rng.random((4, 4))
    dist = games.SupportedDistribution(fg.grids, probs / probs.sum())
    assert workloads.ce_violation(game, dist) == pytest.approx(
        finite_ce.max_ce_violation(fg, dist), abs=1e-12)


def test_default_seed_reproduces_the_criterion_6_inputs():
    constructions, negatives = workloads.criterion6_sets(np.random.default_rng(2024))
    assert len(constructions) == len(negatives) == workloads.SOS_COUNT
    assert len(workloads.boundary_set()) == 39
    grid = np.linspace(-1.0, 1.0, 1001)
    assert all(np.polynomial.polynomial.polyval(grid, c).min() >= -1e-12 for c in constructions)
    assert all(np.polynomial.polynomial.polyval(grid, c).min() < -1e-3 for c in negatives)
