"""Adaptive discretization: support-growing approximate-equilibrium SDPs.

Each iteration solves, over distributions supported on the current grids,

    minimize eps
    s.t.     restricted deviation gains <= alpha * eps   (grid deviations)
             eps_{i,s} - g_{i,s}(t) >= 0 on [-1,1]       (continuous deviations,
                                                          interval SOS encoding)
             sum_s eps_{i,s} <= eps                      (per player)
             pi a probability distribution

then, for players whose total deviation gain is binding (>= beta * eps),
adds the maximizers of their deviation-gain polynomials to the grids and
repeats.  With 0 <= alpha < beta <= 1 the minimum epsilon converges to zero;
the degenerate alpha = beta = 1 mode (restricted constraints dropped,
explicit flag) exists to reproduce the known stalling behavior and is
documented as non-convergent.

Maximizers come from derivative root finding rather than SDP dual decoding;
both extract the tight deviation points, and root finding is self-contained
and independently testable.  Per-recommendation gains are always recomputed
exactly from the solved distribution before strategies are added, so slack
in the SDP's eps_{i,s} variables never injects spurious grid points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .conic import ConicProblem, LinExpr, SolverError, Status, expr
from .finite_ce import MASS_TOL, EpsilonReport, min_epsilon
from .games import (
    FiniteGame,
    PolynomialGame,
    SupportedDistribution,
    conditional_coeffs,
    deviation_gain_poly,
    gains,
    player_view,
    sample_game,
)
from .polynomials import maximize_univariate, merge_points
from .sos import interval_nonneg_constraint

__all__ = [
    "AdaptiveConfig",
    "IterationRecord",
    "IterationTrace",
    "build_iteration_sdp",
    "maximize_univariate",
    "run_adaptive",
    "run_adaptive_finite",
]

_BIND_TOL = 1e-6
_NEAR_OPT_TOL = 1e-6


@dataclass(frozen=True)
class AdaptiveConfig:
    """Loop parameters.  Requires 0 <= alpha < beta <= 1 unless the
    degenerate flag explicitly selects the non-convergent alpha=beta=1 mode."""

    alpha: float = 0.0
    beta: float = 1.0
    eps_stop: float = 1e-6
    max_iter: int = 50
    merge_tol: float = 1e-6
    degenerate: bool = False
    solver_tol: float = 1e-8

    def __post_init__(self):
        if self.degenerate:
            if not (self.alpha == self.beta == 1.0):
                raise ValueError("degenerate mode means alpha = beta = 1")
        elif not (0.0 <= self.alpha < self.beta <= 1.0):
            raise ValueError("need 0 <= alpha < beta <= 1 (or the degenerate flag)")
        if not 0 < self.eps_stop < np.inf or self.max_iter < 1:
            raise ValueError("eps_stop must be positive and finite, and max_iter >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the trace.  ``new_strategies[i]`` lists the points that
    were added to player i's grid to *form* this iteration (the initial grid
    at k=0), matching the usual trace-table layout."""

    k: int
    grids: tuple[np.ndarray, ...]
    new_strategies: tuple[tuple[float, ...], ...]
    epsilon: float
    epsilon_exact: float
    distribution: SupportedDistribution
    per_recommendation: dict[tuple[int, float], tuple[float, float]]


@dataclass
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iter"  # converged | max_iter | stalled

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    def epsilons(self) -> list[float]:
        return [r.epsilon for r in self.records]

    def to_json(self, player_names=None) -> str:
        doc = {
            "status": self.status,
            "iterations": [
                {
                    "k": r.k,
                    "epsilon": r.epsilon,
                    "epsilon_exact": r.epsilon_exact,
                    "grids": [g.tolist() for g in r.grids],
                    "added": [list(a) for a in r.new_strategies],
                    "support": [
                        {"point": list(pt), "prob": p}
                        for pt, p in r.distribution.support(MASS_TOL)
                    ],
                }
                for r in self.records
            ],
            "final_distribution": {
                "grids": [g.tolist() for g in self.final.distribution.grids],
                "probs": self.final.distribution.probs.tolist(),
            },
        }
        if player_names is not None:
            doc["players"] = list(player_names)
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# the per-iteration optimization problem


def _distribution_vars(problem: ConicProblem, shape):
    """Cell probabilities on a product grid: nonnegative and summing to one.
    Returns them by cell and as a tensor of variable indices."""
    pi = {cell: problem.add_nonneg_var() for cell in np.ndindex(shape)}
    problem.add_equality(LinExpr({("s", v.index): 1.0 for v in pi.values()}), 1.0)
    return pi, np.array([v.index for v in pi.values()]).reshape(shape)


def _gain_row(var_idx, coeffs) -> LinExpr:
    """sum_o coeffs[o] * pi[var_idx[o]] over one recommendation's cells."""
    return LinExpr({("s", int(k)): float(c) for k, c in zip(var_idx, coeffs) if c != 0.0})


def build_iteration_sdp(
    game: PolynomialGame,
    grids,
    alpha: float,
    include_restricted: bool = True,
):
    """Build the per-iteration problem over the given grids.

    Returns ``(problem, handles)`` with handles for the cell probabilities
    (``pi``) and the objective variable (``eps``).
    """
    grids = tuple(np.asarray(g, dtype=float) for g in grids)
    if any(g.size == 0 for g in grids):
        raise SolverError("empty strategy grid")
    fg = sample_game(game, grids)
    problem = ConicProblem()
    pi, var_idx = _distribution_vars(problem, fg.shape)
    eps = problem.add_scalar_var()

    for i in range(game.num_players):
        rows = player_view(var_idx, i)
        u = player_view(fg.payoffs[i], i)
        # restricted-deviation inequalities over the grid itself
        if include_restricted:
            for s in range(len(u)):
                for t in range(len(u)):
                    if t != s:
                        gain = _gain_row(rows[s], u[t] - u[s])
                        problem.add_leq(gain - alpha * expr(eps), 0.0)

        # continuous deviations: eps_{i,s} - g_{i,s}(t) nonnegative on [-1,1]
        coeffs = conditional_coeffs(game.utilities[i], i, fg.grids)
        deg = coeffs.shape[i] - 1
        dev = player_view(coeffs, i)
        player_sum = LinExpr()
        for s in range(len(u)):
            ev = problem.add_scalar_var()
            player_sum = player_sum + expr(ev)
            coeff_exprs = [expr(ev) - _gain_row(rows[s], dev[0] - u[s])]
            coeff_exprs += [-1.0 * _gain_row(rows[s], dev[k]) for k in range(1, deg + 1)]
            interval_nonneg_constraint(problem, coeff_exprs, max(deg, 1))
        problem.add_leq(player_sum - expr(eps), 0.0)

    problem.set_objective(expr(eps))
    return problem, {"pi": pi, "eps": eps}


def _solve_iteration(game, grids, config: AdaptiveConfig):
    problem, handles = build_iteration_sdp(
        game, grids, config.alpha, include_restricted=not config.degenerate
    )
    sol = problem.solve(tol=config.solver_tol)
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"iteration SDP ended with status {sol.status.value}")
    probs = np.zeros(tuple(len(g) for g in grids))
    for cell, v in handles["pi"].items():
        probs[cell] = sol.value(v)
    dist = SupportedDistribution.from_solver(grids, probs)
    return float(sol.value(handles["eps"])), dist


def _grow(grids, additions, merge_tol):
    out = []
    for g, extra in zip(grids, additions):
        out.append(merge_points(list(g) + list(extra), merge_tol) if extra else g)
    return tuple(out)


def run_adaptive(game: PolynomialGame, initial_grids, config: AdaptiveConfig | None = None) -> IterationTrace:
    """Run the adaptive loop from per-player initial grids.

    Terminates when the iteration optimum drops to ``eps_stop`` or after
    ``max_iter`` iterations; reports status ``stalled`` when no new strategy
    clears the beta threshold (expected only in the degenerate mode).
    """
    config = config or AdaptiveConfig()
    grids = tuple(merge_points(g, config.merge_tol) for g in initial_grids)
    trace = IterationTrace()
    pending = tuple(tuple(float(p) for p in g) for g in grids)
    stalled = False

    for k in range(config.max_iter):
        eps_k, dist = _solve_iteration(game, grids, config)
        report = min_epsilon(game, dist)
        trace.records.append(
            IterationRecord(
                k=k,
                grids=grids,
                new_strategies=pending,
                epsilon=eps_k,
                epsilon_exact=report.epsilon,
                distribution=dist,
                per_recommendation=dict(report.per_recommendation),
            )
        )
        if eps_k <= config.eps_stop:
            trace.status = "converged"
            return trace

        additions: list[list[float]] = [[] for _ in range(game.num_players)]
        for i in range(game.num_players):
            if report.player_total(i) < config.beta * eps_k - _BIND_TOL * (1 + eps_k):
                continue
            for (j, s_i), (gain, _) in report.per_recommendation.items():
                if j != i or gain <= config.eps_stop:
                    continue
                g_poly = deviation_gain_poly(game, i, dist, s_i)
                _, _, maximizers = maximize_univariate(g_poly, _NEAR_OPT_TOL)
                for t in maximizers:
                    if np.min(np.abs(grids[i] - t), initial=np.inf) > config.merge_tol and all(
                        abs(t - u) > config.merge_tol for u in additions[i]
                    ):
                        additions[i].append(t)

        if not any(additions):
            stalled = True
            if not config.degenerate:
                break
            pending = tuple(() for _ in range(game.num_players))
            continue
        pending = tuple(tuple(a) for a in additions)
        grids = _grow(grids, additions, config.merge_tol)

    trace.status = "stalled" if stalled else "max_iter"
    return trace


# ---------------------------------------------------------------------------
# finite-game variant: deviations enumerate the full strategy set


def _subset_payoffs(fg: FiniteGame, subset_idx, i: int) -> np.ndarray:
    """Player i's payoffs in :func:`player_view` layout: one row per strategy
    of the full set, one column per opponent profile on the subsets."""
    axes = [np.arange(fg.shape[i]) if j == i else idx for j, idx in enumerate(subset_idx)]
    return player_view(fg.payoffs[i][np.ix_(*axes)], i)


def _finite_report(fg: FiniteGame, subset_idx, dist: SupportedDistribution) -> EpsilonReport:
    per = {}
    totals = np.zeros(fg.num_players)
    for i in range(fg.num_players):
        u = _subset_payoffs(fg, subset_idx, i)
        rows = gains(player_view(dist.probs, i), u, u[subset_idx[i]])
        for s_idx, mass, row in zip(subset_idx[i], dist.marginal(i), rows):
            if mass <= MASS_TOL:
                continue
            best, best_t = 0.0, int(s_idx)
            for t_idx, gain in enumerate(row):
                if gain > best + 1e-12:
                    best, best_t = float(gain), t_idx
            per[(i, float(fg.grids[i][s_idx]))] = (best, float(fg.grids[i][best_t]))
            totals[i] += best
    return EpsilonReport(float(totals.max(initial=0.0)), per)


def run_adaptive_finite(fg: FiniteGame, initial_subsets, config: AdaptiveConfig | None = None) -> IterationTrace:
    """Adaptive loop on a finite game: the per-iteration problem is an LP and
    deviations/maximizers range over the full finite strategy set."""
    config = config or AdaptiveConfig()
    subset_idx = []
    for i, pts in enumerate(initial_subsets):
        idx = sorted({int(np.argmin(np.abs(fg.grids[i] - float(p)))) for p in pts})
        subset_idx.append(idx)
    trace = IterationTrace()
    pending = tuple(tuple(float(fg.grids[i][j]) for j in subset_idx[i]) for i in range(fg.num_players))
    stalled = False

    for k in range(config.max_iter):
        eps_k, probs = _solve_finite_iteration(fg, subset_idx, config)
        grids_k = tuple(fg.grids[i][subset_idx[i]] for i in range(fg.num_players))
        dist = SupportedDistribution.from_solver(grids_k, probs)
        report = _finite_report(fg, subset_idx, dist)
        trace.records.append(
            IterationRecord(
                k=k,
                grids=grids_k,
                new_strategies=pending,
                epsilon=eps_k,
                epsilon_exact=report.epsilon,
                distribution=dist,
                per_recommendation=dict(report.per_recommendation),
            )
        )
        if eps_k <= config.eps_stop:
            trace.status = "converged"
            return trace

        additions = [[] for _ in range(fg.num_players)]
        for i in range(fg.num_players):
            if report.player_total(i) < config.beta * eps_k - _BIND_TOL * (1 + eps_k):
                continue
            u = _subset_payoffs(fg, subset_idx, i)
            rows = gains(player_view(dist.probs, i), u, u[subset_idx[i]])
            for mass, row in zip(dist.marginal(i), rows):
                if mass <= MASS_TOL:
                    continue
                best = row.max()
                if best <= config.eps_stop:
                    continue
                for t_idx, gain in enumerate(row):
                    if gain >= best - _NEAR_OPT_TOL and t_idx not in subset_idx[i] \
                            and t_idx not in additions[i]:
                        additions[i].append(t_idx)

        if not any(additions):
            stalled = True
            if not config.degenerate:
                break
            pending = tuple(() for _ in range(fg.num_players))
            continue
        pending = tuple(
            tuple(float(fg.grids[i][j]) for j in additions[i]) for i in range(fg.num_players)
        )
        subset_idx = [sorted(set(subset_idx[i]) | set(additions[i])) for i in range(fg.num_players)]

    trace.status = "stalled" if stalled else "max_iter"
    return trace


def _solve_finite_iteration(fg: FiniteGame, subset_idx, config: AdaptiveConfig):
    problem = ConicProblem()
    shape = tuple(len(s) for s in subset_idx)
    pi, var_idx = _distribution_vars(problem, shape)
    eps = problem.add_scalar_var()

    for i in range(fg.num_players):
        rows = player_view(var_idx, i)
        u = _subset_payoffs(fg, subset_idx, i)
        player_sum = LinExpr()
        for pos, s_idx in enumerate(subset_idx[i]):
            if not config.degenerate:
                for t_idx in subset_idx[i]:
                    if t_idx != s_idx:
                        gain = _gain_row(rows[pos], u[t_idx] - u[s_idx])
                        problem.add_leq(gain - config.alpha * expr(eps), 0.0)
            ev = problem.add_scalar_var()
            player_sum = player_sum + expr(ev)
            for t_idx in range(len(u)):
                problem.add_leq(_gain_row(rows[pos], u[t_idx] - u[s_idx]) - expr(ev), 0.0)
        problem.add_leq(player_sum - expr(eps), 0.0)

    problem.set_objective(expr(eps))
    sol = problem.solve(tol=config.solver_tol)
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"finite iteration LP ended with status {sol.status.value}")
    probs = np.zeros(shape)
    for cell, v in pi.items():
        probs[cell] = sol.value(v)
    return float(sol.value(eps)), probs
