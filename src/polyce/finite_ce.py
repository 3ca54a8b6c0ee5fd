"""Correlated equilibria of finite (sampled) games, and exact epsilon audits.

``ce_lp`` computes a correlated equilibrium of a finite game as an LP over
the conic backend (nonnegative cells, simplex, one linear deviation
inequality per (player, recommendation, deviation) triple).  ``min_epsilon``
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

from .conic import ConicProblem, LinExpr, SolverError, Status, expr
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
# tie-break stages get expensive on big grids; above these cell counts the
# LP falls back to plain min-max, then to pure feasibility
LEX_CELL_CAP = 64
MINMAX_CELL_CAP = 400


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


def _ce_polytope(problem: ConicProblem, fg: FiniteGame, fixed: dict):
    """CE constraints with ``fixed`` cells substituted as constants."""
    cells = list(fg.cells())
    pi = {cell: problem.add_nonneg_var() for cell in cells if cell not in fixed}
    problem.add_equality(
        LinExpr({("s", v.index): 1.0 for v in pi.values()}), 1.0 - sum(fixed.values())
    )
    flat = np.arange(len(cells)).reshape(fg.shape)  # cells are in C order
    for i in range(fg.num_players):
        u = player_view(fg.payoffs[i], i)
        row_cells = player_view(flat, i)
        for s in range(len(u)):
            for t in range(len(u)):
                if t == s:
                    continue
                e = LinExpr()
                for k, c in zip(row_cells[s], u[t] - u[s]):
                    cell = cells[k]
                    if cell in fixed:
                        e.const += float(c * fixed[cell])
                    else:
                        e.add_term(("s", pi[cell].index), float(c))
                problem.add_leq(e, 0.0)
    return cells, pi


def _solve_ce(fg: FiniteGame, objective, fixed: dict, cap: float | None, tol: float):
    """One CE LP; objective 'feasible' | 'minmax' | ('max', coeffs) |
    ('min_cell', cell).  Returns (solution, cells, pi, t_var)."""
    problem = ConicProblem()
    cells, pi = _ce_polytope(problem, fg, fixed)
    t_var = None
    if objective == "minmax" or cap is not None:
        t_var = problem.add_scalar_var()
        for cell in pi:
            problem.add_leq(expr(pi[cell]) - expr(t_var), 0.0)
        if cap is not None:
            problem.add_leq(expr(t_var), cap)
    if objective == "minmax":
        problem.set_objective(expr(t_var))
    elif objective == "feasible":
        pass
    elif objective[0] == "max":
        e = LinExpr()
        for cell, c in objective[1].items():
            if cell in pi:
                e.add_term(("s", pi[cell].index), -float(c))
        problem.set_objective(e)
    elif objective[0] == "min_cell":
        problem.set_objective(expr(pi[objective[1]]))
    sol = problem.solve(tol=tol)
    return sol, cells, pi, t_var


def _lexicographic_minmax(fg: FiniteGame, tol: float) -> np.ndarray:
    """Lexicographically minimize the sorted probability vector (largest
    first) over the CE polytope.  Classic freeze-and-probe scheme: minimize
    the max, detect saturated cells (those that cannot go below the level),
    pin them, repeat on the rest."""
    fixed: dict = {}
    cells = list(fg.cells())
    probs = np.zeros(fg.shape)
    slack = 100 * tol
    while len(fixed) < len(cells):
        sol, _, pi, t_var = _solve_ce(fg, "minmax", fixed, None, tol)
        if sol.status is not Status.OPTIMAL:
            raise SolverError(f"tie-break stage failed: {sol.status.value}")
        level = sol.value(t_var)
        if level <= slack:
            for cell, v in pi.items():
                fixed[cell] = max(sol.value(v), 0.0)
            break
        saturated = []
        for cell, v in pi.items():
            if sol.value(v) < level - slack:
                continue
            probe, _, ppi, _ = _solve_ce(fg, ("min_cell", cell), fixed, level + slack, tol)
            if probe.status is Status.OPTIMAL and probe.value(ppi[cell]) < level - slack:
                continue
            saturated.append(cell)
        if not saturated:
            # numerically ambiguous; pin the current argmax to keep progress
            saturated = [max(pi, key=lambda c: sol.value(pi[c]))]
        for cell in saturated:
            fixed[cell] = level
    for cell, v in fixed.items():
        probs[cell] = v
    return probs


def ce_lp(fg: FiniteGame, objective=None, tol: float = 1e-8) -> SupportedDistribution:
    """Correlated equilibrium of a finite game.

    With ``objective`` a map cell -> coefficient, maximizes that linear
    functional of the cell probabilities.  With ``objective=None`` solves for
    a deterministic representative: the maximum probability is minimized,
    refined lexicographically on grids of at most LEX_CELL_CAP cells (plain
    min-max up to MINMAX_CELL_CAP cells, pure feasibility beyond).
    """
    n_cells = int(np.prod(fg.shape))
    if objective is not None:
        sol, cells, pi, _ = _solve_ce(fg, ("max", dict(objective)), {}, None, tol)
        if sol.status is not Status.OPTIMAL:
            raise SolverError(f"CE solve failed: {sol.status.value}")
        probs = np.zeros(fg.shape)
        for cell in cells:
            probs[cell] = sol.value(pi[cell])
    elif n_cells <= LEX_CELL_CAP:
        probs = _lexicographic_minmax(fg, tol)
    else:
        mode = "minmax" if n_cells <= MINMAX_CELL_CAP else "feasible"
        sol, cells, pi, _ = _solve_ce(fg, mode, {}, None, tol)
        if sol.status is not Status.OPTIMAL:
            raise SolverError(f"CE solve failed: {sol.status.value}")
        probs = np.zeros(fg.shape)
        for cell in cells:
            probs[cell] = sol.value(pi[cell])
    dist = SupportedDistribution.from_solver(fg.grids, probs)
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
