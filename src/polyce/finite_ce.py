"""Correlated equilibria of finite (sampled) games, and exact epsilon audits.

``ce_lp`` computes a correlated equilibrium of a finite game as one LP:
nonnegative cells, the simplex row, and one sparse matrix holding one
deviation inequality per (player, recommendation, deviation) triple, solved
by HiGHS through ``scipy.optimize.linprog``.  ``deviation_rows`` writes one
player's block of that matrix, and the finite adaptive iteration LP's
restricted rows.  Without an objective the LP minimizes the largest cell
probability.  ``min_epsilon`` evaluates any finitely supported distribution
against the *continuous* game: for every recommendation with positive
marginal it maximizes the deviation-gain polynomial over [-1,1] by
derivative root finding, giving the exact minimal epsilon for which the
distribution is an approximate correlated equilibrium.
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
    ``near_maximizers`` has the same keys and lists, ascending, every
    deviation within ``polynomials.NEAR_TOL`` of that maximum; ``to_json``
    leaves it out.
    """

    epsilon: float
    per_recommendation: dict[tuple[int, float], tuple[float, float]]
    near_maximizers: dict[tuple[int, float], tuple[float, ...]]

    def to_json(self) -> str:
        rows = [
            {"player": i, "strategy": s, "epsilon": e, "maximizer": t}
            for (i, s), (e, t) in sorted(self.per_recommendation.items())
        ]
        return json.dumps({"epsilon": self.epsilon, "per_recommendation": rows}, indent=2)


def min_epsilon(game: PolynomialGame, dist: SupportedDistribution) -> EpsilonReport:
    """Exact minimal epsilon for which ``dist`` is an approximate correlated
    equilibrium of ``game`` (deviations range over all of [-1,1])."""
    per, near = {}, {}
    totals = np.zeros(game.num_players)
    for i in range(game.num_players):
        rows = zip(dist.grids[i], dist.marginal(i), gain_coeffs(game, i, dist))
        for s_i, mass, g in rows:
            if mass <= MASS_TOL:
                continue
            t_star, value, maximizers = maximize_univariate(g)
            value = max(value, 0.0)
            per[(i, float(s_i))] = (value, t_star)
            near[(i, float(s_i))] = tuple(maximizers)
            totals[i] += value
    return EpsilonReport(float(totals.max(initial=0.0)), per, near)


def max_ce_violation(fg: FiniteGame, dist: SupportedDistribution) -> float:
    """Largest deviation gain over every (player, s_i, t_i) triple."""
    worst = 0.0
    for i in range(fg.num_players):
        u = player_view(fg.payoffs[i], i)
        worst = max(worst, float(gains(player_view(dist.probs, i), u, u).max()))
    return worst


def gain_rows(cells, u_rec, u_dev, s, t) -> sp.csr_matrix:
    """Row k is the gain sum_o p(cells[s_k, o]) (u_dev[t_k, o] - u_rec[s_k, o])
    of deviating from recommendation s_k to strategy t_k, as a sparse row over
    the columns 0 .. cells.size - 1 with exact zeros dropped.  ``cells``
    (column indices), ``u_rec`` (payoffs of the recommendations) and ``u_dev``
    (payoffs of the deviations) are in :func:`player_view` layout."""
    indptr = np.arange(len(s) + 1) * cells.shape[1]
    rows = (u_dev[t] - u_rec[s]).ravel(), cells[s].ravel(), indptr
    out = sp.csr_matrix(rows, shape=(len(s), cells.size))
    out.eliminate_zeros()
    return out


def deviation_rows(cells, u) -> sp.csr_matrix:
    """One player's CE gains sum_o p(cells[s, o]) (u[t, o] - u[s, o]) from
    recommendation s to strategy t != s, one row per (s, t) in that order,
    with ``cells`` (column indices) and ``u`` (payoffs) in
    :func:`player_view` layout."""
    s, t = np.nonzero(~np.eye(len(u), dtype=bool))
    return gain_rows(cells, u, u, s, t)


def solve_lp(c, A_ub, n_cells: int, tol: float) -> np.ndarray:
    """Minimize c.x over x >= 0 subject to A_ub x <= 0 and the first
    ``n_cells`` entries summing to one, by HiGHS with primal and dual
    feasibility tolerances ``tol``.  Raises :class:`SolverError` with HiGHS's
    message, which names the model status, unless HiGHS reports an optimum."""
    # HiGHS rejects feasibility tolerances below 1e-10 with only a warning
    # and then solves at its default 1e-7
    if not 1e-10 <= tol <= 1e-2:
        raise SolverError("tol must lie in [1e-10, 1e-2]")
    # imported here: loading scipy.optimize adds about 0.2 s to every start-up
    from scipy.optimize import linprog

    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=(np.arange(len(c)) < n_cells)[None] * 1.0,
        b_eq=[1.0], bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol},
    )
    if res.status != 0:
        raise SolverError(f"LP solve failed: {res.message}")
    return res.x


def ce_lp(fg: FiniteGame, objective=None, tol: float = 1e-8) -> SupportedDistribution:
    """Correlated equilibrium of a finite game from one sparse LP, solved by
    HiGHS with primal and dual feasibility tolerances ``tol``.

    With ``objective`` a map cell -> coefficient, maximizes that linear
    functional of the cell probabilities.  With ``objective=None`` minimizes
    the largest cell probability through one level column t >= every cell.
    """
    n = int(np.prod(fg.shape))
    flat = np.arange(n, dtype=np.int32).reshape(fg.shape)
    A_ub = sp.vstack([deviation_rows(player_view(flat, i), player_view(u, i))
                      for i, u in enumerate(fg.payoffs)], format="csr")
    c = np.zeros(n)
    if objective is None:
        A_ub = sp.bmat([[A_ub, None], [sp.eye(n), sp.csr_matrix(-np.ones((n, 1)))]], "csr")
        c = np.append(c, 1.0)
    else:
        for cell, coef in objective.items():
            c[np.ravel_multi_index(cell, fg.shape)] = -coef
    # a CE always exists and the simplex is bounded: any status but optimal
    # is a solver failure
    x = solve_lp(c, A_ub, n, tol)
    dist = SupportedDistribution.from_solver(fg.grids, x[:n].reshape(fg.shape))
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
    game: PolynomialGame, d: int, include_endpoints: bool = False, tol: float = 1e-8,
) -> tuple[SupportedDistribution, EpsilonReport]:
    """Sample the game on the midpoint grid of size d (every player), solve
    the sampled-game CE LP, and report the exact epsilon of the result
    against the continuous game."""
    grid = midpoint_grid(d, include_endpoints)
    fg = sample_game(game, [grid] * game.num_players)
    dist = ce_lp(fg, tol=tol)
    return dist, min_epsilon(game, dist)
