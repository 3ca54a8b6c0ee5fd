"""Correlated equilibria of finite (sampled) games, and exact epsilon audits.

``ce_lp`` computes a correlated equilibrium of a finite game as one LP:
nonnegative cells, the simplex row, and one sparse matrix holding one
deviation inequality per (player, recommendation, deviation) triple, solved
by HiGHS through ``scipy.optimize.linprog``.  Without an objective the LP
minimizes the largest cell probability.  ``min_epsilon``
evaluates any finitely supported distribution against the *continuous* game:
for every recommendation with positive marginal it maximizes the
deviation-gain polynomial over [-1,1] by derivative root finding, giving the
exact minimal epsilon for which the distribution is an approximate
correlated equilibrium.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .conic import SolverError
from .games import (
    FiniteGame,
    PolynomialGame,
    SupportedDistribution,
    gain_coeffs,
    gains,
    player_view,
    sample_game,
)
from .polynomials import maximize_univariate

MASS_TOL = 1e-12


@dataclass(frozen=True)
class EpsilonReport:
    """Exact per-recommendation deviation gains of a distribution.

    ``per_recommendation[(player, s_i)] = (eps, t_star)`` where eps is the
    maximum of the deviation-gain polynomial over [-1,1] and t_star its
    smallest maximizer; ``epsilon`` is the largest per-player total.
    """

    epsilon: float
    per_recommendation: dict[tuple[int, float], tuple[float, float]]

    def player_total(self, player: int) -> float:
        return sum(v[0] for (i, _), v in self.per_recommendation.items() if i == player)

    def to_json(self) -> str:
        rows = [
            {"player": i, "strategy": s, "epsilon": e, "maximizer": t}
            for (i, s), (e, t) in sorted(self.per_recommendation.items())
        ]
        return json.dumps({"epsilon": self.epsilon, "per_recommendation": rows}, indent=2)


def min_epsilon(game: PolynomialGame, dist: SupportedDistribution) -> EpsilonReport:
    """Exact minimal epsilon for which ``dist`` is an approximate correlated
    equilibrium of ``game`` (deviations range over all of [-1,1])."""
    per: dict[tuple[int, float], tuple[float, float]] = {}
    totals = np.zeros(game.num_players)
    for i in range(game.num_players):
        rows = zip(dist.grids[i], dist.marginal(i), gain_coeffs(game, i, dist))
        for s_i, mass, g in rows:
            if mass <= MASS_TOL:
                continue
            t_star, value, _ = maximize_univariate(g)
            value = max(value, 0.0)
            per[(i, float(s_i))] = (value, t_star)
            totals[i] += value
    return EpsilonReport(float(totals.max(initial=0.0)), per)


def max_ce_violation(fg: FiniteGame, dist: SupportedDistribution) -> float:
    """Largest deviation gain over every (player, s_i, t_i) triple."""
    worst = 0.0
    for i in range(fg.num_players):
        u = player_view(fg.payoffs[i], i)
        worst = max(worst, float(gains(player_view(dist.probs, i), u, u).max()))
    return worst


def _deviation_rows(fg: FiniteGame) -> sp.csr_matrix:
    """Every CE inequality sum_{s_-i} p(s, s_-i) (u_i(t, s_-i) - u_i(s, s_-i))
    <= 0 as one sparse matrix over the cells in C order, one row per
    (player i, recommendation s, deviation t != s) in that order."""
    flat = np.arange(int(np.prod(fg.shape)), dtype=np.int32).reshape(fg.shape)
    blocks = []
    for i in range(fg.num_players):
        u = player_view(fg.payoffs[i], i)
        s, t = np.nonzero(~np.eye(len(u), dtype=bool))
        indptr = np.arange(len(s) + 1) * u.shape[1]
        rows = (u[t] - u[s]).ravel(), player_view(flat, i)[s].ravel(), indptr
        blocks.append(sp.csr_matrix(rows, shape=(len(s), flat.size)))
    out = sp.vstack(blocks, format="csr")
    out.eliminate_zeros()
    return out


def ce_lp(fg: FiniteGame, objective=None, tol: float = 1e-8) -> SupportedDistribution:
    """Correlated equilibrium of a finite game from one sparse LP, solved by
    HiGHS with primal and dual feasibility tolerances ``tol``.

    With ``objective`` a map cell -> coefficient, maximizes that linear
    functional of the cell probabilities.  With ``objective=None`` minimizes
    the largest cell probability through one level column t >= every cell.
    """
    if not 0 < tol <= 1e-2:
        raise SolverError("tol must lie in (0, 1e-2]")
    # imported here: loading scipy.optimize adds about 0.2 s to every start-up
    from scipy.optimize import linprog

    n = int(np.prod(fg.shape))
    A_ub = _deviation_rows(fg)
    c = np.zeros(n)
    if objective is None:
        A_ub = sp.bmat([[A_ub, None], [sp.eye(n), sp.csr_matrix(-np.ones((n, 1)))]], "csr")
        c = np.append(c, 1.0)
    else:
        for cell, coef in objective.items():
            c[np.ravel_multi_index(cell, fg.shape)] = -coef
    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=(np.arange(len(c)) < n)[None] * 1.0,
        b_eq=[1.0], bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol},
    )
    # a CE always exists and the simplex is bounded: any other outcome is a
    # solver failure
    if res.status != 0:
        raise SolverError(f"CE solve failed: {res.message}")
    dist = SupportedDistribution.from_solver(fg.grids, res.x[:n].reshape(fg.shape))
    worst = max_ce_violation(fg, dist)
    if worst > 1e-7:
        raise SolverError(f"CE constraints violated by {worst:.2e} after solve")
    return dist


def midpoint_grid(d: int, include_endpoints: bool = False) -> np.ndarray:
    """Centers of d equal subintervals of [-1,1]; optionally add the
    endpoints (exploratory finer-rate variant)."""
    if d < 1:
        raise ValueError("grid size must be >= 1")
    pts = -1.0 + (2.0 * np.arange(d) + 1.0) / d
    if include_endpoints:
        pts = np.concatenate([[-1.0], pts, [1.0]])
    return pts


def static_discretization(
    game: PolynomialGame, d: int, objective=None, include_endpoints: bool = False,
    tol: float = 1e-8,
) -> tuple[SupportedDistribution, EpsilonReport]:
    """Sample the game on the midpoint grid of size d (every player), solve
    the sampled-game CE LP, and report the exact epsilon of the result
    against the continuous game."""
    grid = midpoint_grid(d, include_endpoints)
    fg = sample_game(game, [grid] * game.num_players)
    dist = ce_lp(fg, objective, tol=tol)
    return dist, min_epsilon(game, dist)
