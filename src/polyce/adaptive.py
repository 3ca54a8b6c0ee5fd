"""Adaptive discretization: one support-growing loop for polynomial and
finite games.

Each iteration solves, over distributions supported on the current grids,

    minimize eps
    s.t.     restricted deviation gains <= alpha * eps   (grid deviations)
             g_{i,s}(t) <= eps_{i,s} for every t          (full deviations)
             sum_s eps_{i,s} <= eps                      (per player)
             pi a probability distribution

then, for players whose total deviation gain is binding (>= beta * eps),
adds the near-maximizers of their deviation gains to the grids and repeats.
With 0 <= alpha < beta <= 1 the minimum epsilon converges to zero.  The
degenerate alpha = beta = 1 mode reproduces the known
stalling behavior and is documented as non-convergent.  Its restricted rows
are implied: the deviation t = s gives eps_{i,s} >= g_{i,s}(s) = 0, so
g_{i,s}(t) <= eps_{i,s} <= sum_s eps_{i,s} <= eps.

One loop serves both game types; each supplies two oracles, the iteration
solve and an exact :class:`EpsilonReport` whose near-maximizers are the
candidate strategies, assembled by :func:`~polyce.finite_ce.epsilon_report`
from the gains and the maximizer that the game type supplies:

* polynomial games: t ranges over [-1,1], so the full deviations are interval
  SOS constraints and the iteration is an SDP; the exact epsilon and the
  maximizers come from ``min_epsilon`` by derivative root finding, which
  finds the same tight points as SDP dual decoding and is testable alone;
* finite games: t ranges over the full strategy set, so the iteration is an
  LP, built as one sparse matrix and solved by HiGHS; the exact epsilon and
  the near-argmax deviations come from enumerating that set.

Both maximizers follow ``polynomials.pick_maximizers``; a trace writes its
distributions by ``games.distribution_doc``.  Per-recommendation gains are
always recomputed exactly from the solved distribution before strategies
are added, so slack in the eps_{i,s} variables never injects spurious grid
points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .conic import SOLVER_TOL, ConicProblem, LinExpr, expr
from .finite_ce import EpsilonReport, deviation_rows, epsilon_report, gain_rows, min_epsilon, solve_lp
from .games import (
    FiniteGame,
    PolynomialGame,
    SupportedDistribution,
    _check_arity,
    _check_points,
    conditional_coeffs,
    distribution_doc,
    gains,
    player_view,
    sample_game,
)
from .polynomials import merge_points, pick_maximizers
from .sos import interval_nonneg_constraint

_BIND_TOL = 1e-6
_MERGE_TOL = 1e-6  # a strategy this close to a grid point counts as on the grid


@dataclass(frozen=True)
class AdaptiveConfig:
    """Loop parameters.  Requires 0 <= alpha < beta <= 1, or alpha = beta = 1
    for the non-convergent degenerate mode, whose iteration problems keep the
    (then implied) restricted rows and whose stalled loop repeats its last
    record instead of stopping.  ``eps_stop`` must be finite and at least
    1e-9: every iteration solve runs at :attr:`solver_tol`, min(SOLVER_TOL,
    eps_stop / 10), and HiGHS solves no finer than 1e-10."""

    alpha: float = 0.0
    beta: float = 1.0
    eps_stop: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        if not (0.0 <= self.alpha < self.beta <= 1.0 or self.alpha == self.beta == 1.0):
            raise ValueError("need 0 <= alpha < beta <= 1, or alpha = beta = 1")
        if not (1e-9 <= self.eps_stop < np.inf and isinstance(self.max_iter, (int, np.integer))
                and self.max_iter >= 1):
            raise ValueError("need a finite eps_stop >= 1e-9 and an integer max_iter >= 1")

    @property
    def solver_tol(self) -> float:  # the test eps_k <= eps_stop is only as sound as eps_k's solve
        return min(SOLVER_TOL, self.eps_stop / 10)


@dataclass(frozen=True)
class IterationRecord:
    """One row of the trace (per-recommendation gains stay in the loop's
    :class:`EpsilonReport`).  ``new_strategies[i]`` lists the points added to
    player i's grid to *form* this iteration (the initial grid at k=0)."""

    k: int
    grids: tuple[np.ndarray, ...]
    new_strategies: tuple[tuple[float, ...], ...]
    epsilon: float
    epsilon_exact: float
    distribution: SupportedDistribution


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
                    "support": distribution_doc(r.distribution)["support"],
                }
                for r in self.records
            ],
            "final_distribution": distribution_doc(self.final.distribution),
        }
        if player_names is not None:
            doc["players"] = list(player_names)
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# the per-iteration optimization problem


def _gain_row(var_idx, coeffs) -> LinExpr:
    """sum_o coeffs[o] * pi[var_idx[o]] over one recommendation's cells."""
    return LinExpr({int(k): float(c) for k, c in zip(var_idx, coeffs) if c != 0.0})


def build_iteration_sdp(game: PolynomialGame, grids, alpha: float):
    """Build the per-iteration problem over the given grids.

    Returns ``(problem, handles)`` with handles for the cell probabilities
    (``pi``) and the objective variable (``eps``).
    """
    fg = sample_game(game, grids)
    problem = ConicProblem()
    pi = {cell: problem.add_nonneg_var() for cell in np.ndindex(fg.shape)}
    problem.add_equality(LinExpr({v.index: 1.0 for v in pi.values()}), 1.0)
    var_idx = np.array([v.index for v in pi.values()]).reshape(fg.shape)
    eps = problem.add_scalar_var()

    for i in range(game.num_players):
        rows = player_view(var_idx, i)
        u = player_view(fg.payoffs[i], i)
        # restricted-deviation inequalities over the grid itself
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
            interval_nonneg_constraint(problem, coeff_exprs, deg)
        problem.add_leq(player_sum - expr(eps), 0.0)

    problem.set_objective(expr(eps))
    return problem, {"pi": pi, "eps": eps}


def _solve_iteration(game, grids, config: AdaptiveConfig):
    problem, handles = build_iteration_sdp(game, grids, config.alpha)
    sol = problem.solve(tol=config.solver_tol)
    probs = np.zeros(tuple(len(g) for g in grids))
    for cell, v in handles["pi"].items():
        probs[cell] = sol.value(v)
    dist = SupportedDistribution.from_solver(grids, probs)
    return float(sol.value(handles["eps"])), dist


def _adaptive_loop(grids, solve, report, config: AdaptiveConfig) -> IterationTrace:
    """The alpha/beta loop from the given grids.  ``solve(grids)`` returns the
    iteration optimum and its distribution, and ``report(dist)`` the exact
    :class:`EpsilonReport`, whose near-maximizers are the strategies that
    may join the grids."""
    trace = IterationTrace()
    pending = tuple(tuple(float(p) for p in g) for g in grids)
    stalled = False

    for k in range(config.max_iter):
        # a stalled degenerate loop repeats its last record without solving
        if k == 0 or any(pending):
            eps_k, dist = solve(grids)
            exact = report(dist)
        trace.records.append(
            IterationRecord(
                k=k,
                grids=grids,
                new_strategies=pending,
                epsilon=eps_k,
                epsilon_exact=exact.epsilon,
                distribution=dist,
            )
        )
        if eps_k <= config.eps_stop:
            trace.status = "converged"
            return trace

        additions: list[list[float]] = [[] for _ in grids]
        for i, grid in enumerate(grids):
            recs = {s: gain for (j, s), (gain, _) in exact.per_recommendation.items() if j == i}
            if sum(recs.values()) < config.beta * eps_k - _BIND_TOL * (1 + eps_k):
                continue
            for s_i, gain in recs.items():
                # skip only gains too small to matter: were every gain of the
                # player at most this share, its total would be at most eps_stop
                if gain <= config.eps_stop / len(recs):
                    continue
                for t in exact.near_maximizers[(i, s_i)]:
                    if np.min(np.abs(grid - t), initial=np.inf) > _MERGE_TOL and all(
                        abs(t - u) > _MERGE_TOL for u in additions[i]
                    ):
                        additions[i].append(float(t))

        if not any(additions):
            stalled = True
            if config.alpha == config.beta:  # degenerate: repeat the last record until max_iter
                pending = tuple(() for _ in grids)
                continue
            break
        pending = tuple(tuple(a) for a in additions)
        grids = tuple(
            merge_points(list(g) + extra, _MERGE_TOL) if extra else g
            for g, extra in zip(grids, additions)
        )

    trace.status = "stalled" if stalled else "max_iter"
    return trace


def run_adaptive(game: PolynomialGame, initial_grids, config: AdaptiveConfig | None = None) -> IterationTrace:
    """Run the adaptive loop from per-player initial grids.

    Terminates when the iteration optimum drops to ``eps_stop`` or after
    ``max_iter`` iterations; reports status ``stalled`` when no new strategy
    clears the beta threshold (expected only in the degenerate mode).
    """
    config = config or AdaptiveConfig()
    return _adaptive_loop(
        tuple(merge_points(g, _MERGE_TOL) for g in initial_grids),
        lambda grids: _solve_iteration(game, grids, config),
        lambda dist: min_epsilon(game, dist),
        config,
    )


# ---------------------------------------------------------------------------
# finite games: deviations enumerate the full strategy set


def _subset_payoffs(fg: FiniteGame, grids, i: int):
    """Player i's payoffs in :func:`player_view` layout, one row per strategy
    of the full set and one column per opponent profile on the subsets
    ``grids`` of the strategy sets, and the rows of player i's subset."""
    subset_idx = [np.searchsorted(g, sub) for g, sub in zip(fg.grids, grids)]
    rec = subset_idx[i]
    subset_idx[i] = np.arange(fg.shape[i])
    return player_view(fg.payoffs[i][np.ix_(*subset_idx)], i), rec


def _finite_report(fg: FiniteGame, dist: SupportedDistribution) -> EpsilonReport:
    def full_set_gains(i):  # rows: recommendations of dist; columns: the full set
        u, rec = _subset_payoffs(fg, dist.grids, i)
        return gains(player_view(dist.probs, i), u, u[rec])

    return epsilon_report(dist, full_set_gains, lambda i, row: pick_maximizers(fg.grids[i], row))


def _solve_finite_iteration(fg: FiniteGame, grids, config: AdaptiveConfig):
    """The iteration LP over the subsets ``grids`` of the strategy sets.
    Columns: the cells in C order, eps, then one ev_{i,s} per recommendation
    of each player in turn.  Rows: every deviation to the full set
    (gain <= ev_{i,s}), sum_s ev_{i,s} <= eps, and the restricted deviations
    within the subsets (gain <= alpha * eps), from :func:`deviation_rows`."""
    shape = tuple(len(g) for g in grids)
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    full, restricted = [], []
    for i in range(fg.num_players):
        u, rec = _subset_payoffs(fg, grids, i)
        s, t = np.divmod(np.arange(len(rec) * len(u)), len(u))
        full.append(gain_rows(player_view(flat, i), u[rec], u, s, t))
        restricted.append(deviation_rows(player_view(flat, i), u[rec]))
    picks = sp.block_diag([np.repeat(np.eye(k), len(g), axis=0) for k, g in zip(shape, fg.grids)])
    sums = sp.block_diag([np.ones((1, k)) for k in shape])
    R = sp.vstack(restricted)
    blocks = [[sp.vstack(full), None, -picks], [None, -np.ones((len(shape), 1)), sums],
              [R, np.full((R.shape[0], 1), -config.alpha), None]]
    n = flat.size
    c = np.zeros(n + 1 + sum(shape))
    c[n] = 1.0
    x = solve_lp(c, sp.bmat(blocks, "csr"), n, config.solver_tol)
    return float(x[n]), SupportedDistribution.from_solver(grids, x[:n].reshape(shape))


def run_adaptive_finite(fg: FiniteGame, initial_subsets, config: AdaptiveConfig | None = None) -> IterationTrace:
    """Adaptive loop on a finite game: the per-iteration problem is an LP
    solved by HiGHS, and deviations and candidates range over the full
    finite strategy set.  Each initial point in [-1,1] selects its nearest
    strategy; strategies within ``_MERGE_TOL`` of the grid count as on it."""
    config = config or AdaptiveConfig()
    grids = tuple(
        g[sorted({int(np.argmin(np.abs(g - p))) for p in _check_points(np.asarray(pts, float))})]
        for g, pts in zip(fg.grids, _check_arity(fg.num_players, initial_subsets))
    )
    return _adaptive_loop(
        grids,
        lambda grids: _solve_finite_iteration(fg, grids, config),
        lambda dist: _finite_report(fg, dist),
        config,
    )
