"""Spans around calls into the program's layers, kept in memory.

The tracer replaces public functions of ``polyce`` with timing wrappers from
outside the program.  A module that did ``from .games import sample_game``
holds its own binding, so every binding of a wrapped function in every
loaded ``polyce`` module is replaced, not only the defining one.
``ConicProblem.solve`` is wrapped on the class.

Each span records its name, start, end, parent span and job id.  A layer's
self time is its spans' durations minus the time their direct children
cover; calls run one at a time in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from polyce import adaptive, finite_ce, games, ipm, moments, polynomials, sos
from polyce.conic import ConicProblem

# span name -> the functions it wraps (by their defining module)
WRAPPED = {
    "ipm.compile": [(ipm, "compile_problem")],
    "ipm.solve": [(ipm, "solve")],
    "finite_ce.ce_lp": [(finite_ce, "ce_lp")],
    "finite_ce.check": [(finite_ce, "max_ce_violation")],
    "finite_ce.audit": [(finite_ce, "min_epsilon")],
    "games.sample": [(games, "sample_game")],
    "games.gain_poly": [(games, "deviation_gain_poly")],
    "polynomials.maximize": [(polynomials, "maximize_univariate")],
    "sos.encode": [(sos, "interval_nonneg_constraint"),
                   (sos, "matrix_psd_on_interval_constraint")],
    "sos.prove": [(sos, "prove_interval_nonneg")],
    "sos.verify": [(sos, "verify_certificate")],
    "adaptive.build": [(adaptive, "build_iteration_sdp")],
    "adaptive.run": [(adaptive, "run_adaptive")],
    "moments.build": [(moments, "build_relaxation")],
}

_SOLVE_SIGNATURE = inspect.signature(ConicProblem.solve)
RAISED = "raised"  # status of a solve that raised instead of returning


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    job: int | None


@dataclass
class SolveRecord:
    """Public sizes and result of one ``ConicProblem.solve`` call."""

    rows: int
    scalars: int
    free: int
    psd_blocks: int
    iterations: int
    max_iter: int
    status: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solves: list[SolveRecord] = []
        self.rounds = 0
        self.grid_points = 0
        self.job_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_exit=None):
        """``on_exit(args, kwargs, result, exc)`` runs after each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job_id)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if on_exit is not None:
                    on_exit(args, kwargs, None, exc)
                raise
            self._close(span)
            if on_exit is not None:
                on_exit(args, kwargs, result, None)
            return result

        return wrapper

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _on_solve(self, args, kwargs, sol, exc):
        bound = _SOLVE_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        problem = bound.arguments["self"]
        self.solves.append(SolveRecord(
            rows=len(problem.equalities),
            scalars=problem.num_scalars,
            free=sum(1 for nn in problem.scalar_nonneg if not nn),
            psd_blocks=len(problem.blocks),
            iterations=0 if exc else sol.iterations,
            max_iter=bound.arguments["max_iter"],
            status=RAISED if exc else sol.status.value,
        ))

    def _on_adaptive(self, args, kwargs, trace, exc):
        if exc is None:
            self.rounds += len(trace.records)
            self.grid_points += sum(len(g) for g in trace.final.grids)

    def install(self) -> None:
        """Replace every binding of the wrapped functions in loaded polyce
        modules.  ``uninstall`` restores them."""
        hooks = {"adaptive.run": self._on_adaptive}
        for name, targets in WRAPPED.items():
            for module, attr in targets:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in polyce_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        self._undo.append((ConicProblem, "solve", ConicProblem.solve))
        ConicProblem.solve = self._wrap("conic.solve", ConicProblem.solve, self._on_solve)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans, self.solves = [], []
        self.rounds = self.grid_points = 0

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded since the last reset."""
        own = self.self_times()
        time_of, calls_of = {}, {}
        for s, t in zip(self.spans, own):
            time_of[s.name] = time_of.get(s.name, 0.0) + t
            calls_of[s.name] = calls_of.get(s.name, 0) + 1

        def under(idx, name):
            while idx is not None:
                if self.spans[idx].name == name:
                    return True
                idx = self.spans[idx].parent
            return False

        solves = self.solves
        iters = np.array([r.iterations for r in solves], dtype=float)
        kkt = np.array([max(r.rows, 1) + r.free for r in solves], dtype=float)
        core_s = time_of.get("ipm.solve", 0.0)
        status = [r.status for r in solves]
        out = {
            "ipm.compile_s": time_of.get("ipm.compile", 0.0),
            "ipm.core_s": core_s,
            "ipm.iterations": float(iters.sum()),
            "ipm.iters_p50": float(np.median(iters)) if solves else 0.0,
            "ipm.iters_max": float(iters.max(initial=0.0)),
            "ipm.ms_per_iter": 1e3 * core_s / iters.sum() if iters.sum() else 0.0,
            # computed from problem sizes: dense LU of the (m+f)-square KKT
            # matrix once per iteration, and its float64 storage
            "ipm.kkt_gflop": float(np.sum(iters * (2.0 / 3.0) * kkt**3)) / 1e9,
            "ipm.kkt_mb_max": float(np.max(8.0 * kkt**2, initial=0.0)) / 1e6,
            "conic.solves": float(len(solves)),
            "conic.rows": float(sum(r.rows for r in solves)),
            "conic.scalars": float(sum(r.scalars for r in solves)),
            "conic.psd_blocks": float(sum(r.psd_blocks for r in solves)),
            "conic.optimal": float(status.count("Optimal")),
            "conic.infeasible": float(status.count("Infeasible")),
            "conic.numerical_failure": float(status.count("NumericalFailure")),
            "conic.raised": float(status.count(RAISED)),
            "conic.max_iter_solves": float(sum(r.iterations >= r.max_iter for r in solves)),
            "finite_ce.build_s": time_of.get("finite_ce.ce_lp", 0.0),
            "finite_ce.check_s": time_of.get("finite_ce.check", 0.0),
            "finite_ce.lp_solves": float(sum(
                1 for s in self.spans
                if s.name == "conic.solve" and under(s.parent, "finite_ce.ce_lp"))),
            "finite_ce.audit_s": time_of.get("finite_ce.audit", 0.0),
            "finite_ce.audit_calls": float(calls_of.get("finite_ce.audit", 0)),
            "games.sample_s": time_of.get("games.sample", 0.0),
            "games.sample_calls": float(calls_of.get("games.sample", 0)),
            "games.gain_poly_s": time_of.get("games.gain_poly", 0.0),
            "games.gain_poly_calls": float(calls_of.get("games.gain_poly", 0)),
            "polynomials.maximize_s": time_of.get("polynomials.maximize", 0.0),
            "polynomials.maximize_calls": float(calls_of.get("polynomials.maximize", 0)),
            "sos.encode_s": time_of.get("sos.encode", 0.0),
            "sos.encode_calls": float(calls_of.get("sos.encode", 0)),
            "sos.prove_self_s": time_of.get("sos.prove", 0.0),
            "sos.verify_s": time_of.get("sos.verify", 0.0),
            "adaptive.build_s": time_of.get("adaptive.build", 0.0),
            "adaptive.rounds": float(self.rounds),
            "adaptive.grid_points": float(self.grid_points),
            "moments.build_s": time_of.get("moments.build", 0.0),
        }
        return out


def polyce_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyce" or name.startswith("polyce."))]


def write_spans(path, passes) -> None:
    """One JSON object per span; ``passes`` holds each traced pass's spans."""
    with open(path, "w") as fh:
        for index, recorded in enumerate(passes, start=1):
            for span in recorded:
                fh.write(json.dumps({"pass": index, **asdict(span)}) + "\n")
