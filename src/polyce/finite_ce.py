"""Correlated equilibria of finite (sampled) games, and exact epsilon audits.

``ce_lp`` computes a correlated equilibrium of a finite game as an LP:
nonnegative cells, the simplex row, and one sparse matrix holding one
deviation inequality per (player, recommendation, deviation) triple, solved
by HiGHS through ``scipy.optimize.linprog``.  ``min_epsilon``
evaluates any finitely supported distribution against the *continuous* game:
for every recommendation with positive marginal it maximizes the
deviation-gain polynomial over [-1,1] by derivative root finding, giving the
exact minimal epsilon for which the distribution is an approximate
correlated equilibrium.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .conic import SolverError, Status
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


class _LP(NamedTuple):
    """Status, cell probabilities and min-max level of one CE LP (None where
    absent), and HiGHS's own status message."""

    status: Status
    probs: np.ndarray | None
    level: float | None
    message: str


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


def _solve_ce(fg: FiniteGame, objective, fixed: dict, cap: float | None, tol: float) -> _LP:
    """One CE LP solved by HiGHS; objective 'feasible' | 'minmax' | a map
    cell -> coefficient to maximize.  ``fixed`` cells are pinned by their
    bounds and ``cap`` bounds every other cell; 'minmax' adds one level
    column t >= every unpinned cell and minimizes it."""
    # imported here: loading scipy.optimize adds about 0.2 s to every start-up
    from scipy.optimize import linprog

    n = int(np.prod(fg.shape))
    A_ub = _deviation_rows(fg)
    lo, hi = np.zeros(n), np.full(n, np.inf if cap is None else cap)
    pinned = [np.ravel_multi_index(cell, fg.shape) for cell in fixed]
    lo[pinned] = hi[pinned] = list(fixed.values())
    c = np.zeros(n)
    if objective == "minmax":
        free = np.setdiff1d(np.arange(n), pinned)
        below = sp.eye(n, format="csr")[free]
        A_ub = sp.bmat([[A_ub, None], [below, sp.csr_matrix(-np.ones((len(free), 1)))]], "csr")
        c, lo, hi = np.append(c, 1.0), np.append(lo, 0.0), np.append(hi, np.inf)
    elif objective != "feasible":
        for cell, coef in objective.items():
            c[np.ravel_multi_index(cell, fg.shape)] = -coef
    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=(np.arange(len(c)) < n)[None] * 1.0,
        b_eq=[1.0], bounds=np.column_stack([lo, hi]), method="highs",
        options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol},
    )
    if res.status != 0:  # 2 infeasible, 3 unbounded, else a HiGHS failure
        status = {2: Status.INFEASIBLE, 3: Status.UNBOUNDED}.get(res.status)
        return _LP(status or Status.NUMERICAL_FAILURE, None, None, res.message)
    level = float(res.x[n]) if objective == "minmax" else None
    return _LP(Status.OPTIMAL, res.x[:n].reshape(fg.shape), level, res.message)


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
        lp = _solve_ce(fg, "minmax", fixed, None, tol)
        if lp.status is not Status.OPTIMAL:
            raise SolverError(f"tie-break stage failed: {lp.message}")
        free = [cell for cell in cells if cell not in fixed]
        if lp.level <= slack:
            for cell in free:
                fixed[cell] = max(lp.probs[cell], 0.0)
            break
        saturated = []
        for cell in free:
            if lp.probs[cell] < lp.level - slack:
                continue
            probe = _solve_ce(fg, {cell: -1.0}, fixed, lp.level + slack, tol)
            if probe.status is Status.OPTIMAL and probe.probs[cell] < lp.level - slack:
                continue
            saturated.append(cell)
        if not saturated:
            # numerically ambiguous; pin the current argmax to keep progress
            saturated = [max(free, key=lambda c: lp.probs[c])]
        for cell in saturated:
            fixed[cell] = lp.level
    for cell, v in fixed.items():
        probs[cell] = v
    return probs


def ce_lp(fg: FiniteGame, objective=None, tol: float = 1e-8) -> SupportedDistribution:
    """Correlated equilibrium of a finite game, from one sparse LP per stage
    solved by HiGHS with feasibility tolerances ``tol``.

    With ``objective`` a map cell -> coefficient, maximizes that linear
    functional of the cell probabilities.  With ``objective=None`` solves for
    a deterministic representative: the maximum probability is minimized,
    refined lexicographically on grids of at most LEX_CELL_CAP cells (plain
    min-max up to MINMAX_CELL_CAP cells, pure feasibility beyond).
    """
    n_cells = int(np.prod(fg.shape))
    if objective is None and n_cells <= LEX_CELL_CAP:
        probs = _lexicographic_minmax(fg, tol)
    else:
        mode = "minmax" if n_cells <= MINMAX_CELL_CAP else "feasible"
        lp = _solve_ce(fg, mode if objective is None else dict(objective), {}, None, tol)
        if lp.status is not Status.OPTIMAL:
            raise SolverError(f"CE solve failed: {lp.message}")
        probs = lp.probs
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
