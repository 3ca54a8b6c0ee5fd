"""Correlated equilibria of finite (sampled) games, and exact epsilon audits.

``ce_lp`` computes a correlated equilibrium of a finite game by row
generation: it solves LPs over nonnegative cells and the simplex row that
hold only the deviation inequalities, one per (player, recommendation,
deviation) triple, that bind, and adds those its solution breaks, found by
``games.gains``, until none is broken.  ``solve_lp`` solves each LP on
scipy's compiled HiGHS module without loading ``scipy.optimize``, which
would add about 20 MB of unused modules.  ``gain_rows`` writes the chosen
rows of one player; ``deviation_rows`` writes all of them, for the finite
adaptive iteration LP's restricted rows.  Without an objective the LP
minimizes the largest cell probability.  ``min_epsilon`` evaluates any
finitely supported distribution against the *continuous* game: for every
recommendation with positive marginal it maximizes the deviation-gain
polynomial over [-1,1] by derivative root finding, giving the exact minimal
epsilon for which the distribution is an approximate correlated equilibrium;
``epsilon_report`` assembles it, and the report of a finite game, from
per-player gain rows.  ``games.MASS_TOL`` decides which recommendations
carry mass, and ``polynomials.pick_maximizers`` picks their maximizers.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp

from .conic import SOLVER_TOL, SolverError
from .games import (
    FiniteGame,
    MASS_TOL,
    PolynomialGame,
    SupportedDistribution,
    gain_coeffs,
    gains,
    player_view,
    sample_game,
)
from .polynomials import maximize_univariate


@dataclass(frozen=True)
class EpsilonReport:
    """Exact per-recommendation deviation gains of a distribution.

    ``per_recommendation[(player, s_i)] = (eps, t_star)`` where eps is the
    maximum of the deviation-gain polynomial over [-1,1] and t_star its
    smallest maximizer; ``epsilon`` is the largest per-player total.
    ``near_maximizers`` has the same keys and lists, ascending, every
    deviation within ``polynomials.NEAR_TOL`` of that maximum; ``to_json``
    leaves it out.  Maximizers follow ``polynomials.pick_maximizers``, so the
    gain at t_star can sit up to ``NEAR_TOL`` below eps.
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


def epsilon_report(dist: SupportedDistribution, gain_rows, maximize) -> EpsilonReport:
    """The :class:`EpsilonReport` of ``dist`` from player i's gains
    ``gain_rows(i)``, one row per point of ``dist.grids[i]``, and
    ``maximize(i, row) -> (t_star, value, maximizers)``.  Recommendations of
    mass at most ``MASS_TOL`` are skipped; negative maxima count as 0."""
    per, near = {}, {}
    totals = np.zeros(dist.num_players)
    for i in range(dist.num_players):
        for s_i, mass, row in zip(dist.grids[i], dist.marginal(i), gain_rows(i)):
            if mass <= MASS_TOL:
                continue
            t_star, value, maximizers = maximize(i, row)
            value = max(value, 0.0)
            per[(i, float(s_i))] = (value, t_star)
            near[(i, float(s_i))] = tuple(maximizers)
            totals[i] += value
    return EpsilonReport(float(totals.max(initial=0.0)), per, near)


def min_epsilon(game: PolynomialGame, dist: SupportedDistribution) -> EpsilonReport:
    """Exact minimal epsilon for which ``dist`` is an approximate correlated
    equilibrium of ``game`` (deviations range over all of [-1,1])."""
    return epsilon_report(dist, lambda i: gain_coeffs(game, i, dist),
                          lambda i, g: maximize_univariate(g))


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
    """All of one player's CE gains sum_o p(cells[s, o]) (u[t, o] - u[s, o])
    from recommendation s to strategy t != s, one row per (s, t) in that
    order, with ``cells`` (column indices) and ``u`` (payoffs) in
    :func:`player_view` layout; ``ce_lp`` writes only the rows it holds."""
    s, t = np.nonzero(~np.eye(len(u), dtype=bool))
    return gain_rows(cells, u, u, s, t)


@functools.cache
def _highs():
    """scipy's compiled HiGHS module, loaded by file path: ``scipy.optimize`` stays unloaded."""
    name = "scipy.optimize._highspy._core"
    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "_Highs"):
                return module
    raise ImportError(f"scipy {scipy.__version__} has no {name} with a _Highs class")


def solve_lp(c, A_ub, n_cells: int, tol: float) -> np.ndarray:
    """Minimize c.x over x >= 0 subject to A_ub x <= 0 and the first
    ``n_cells`` entries summing to one, by HiGHS with ``linprog(method="highs")``'s
    model and options (presolve, dual simplex, feasibility tolerances ``tol``),
    so x is linprog's byte for byte.  Raises ``ValueError`` on a non-finite c or
    A_ub, and :class:`SolverError` naming the model status unless it is optimal."""
    # HiGHS rejects feasibility tolerances below 1e-10 with only a warning
    # and then solves at its default 1e-7
    if not 1e-10 <= tol <= 1e-2:
        raise SolverError("tol must lie in [1e-10, 1e-2]")
    c = np.asarray(c, dtype=float)
    simplex_row = sp.coo_array((np.arange(len(c)) < n_cells)[None] * 1.0)
    A = sp.csc_array(sp.vstack([sp.coo_array(A_ub), simplex_row]))
    # HiGHS solves a NaN cost to a wrong x, and ends "Not Set" on an inf in A
    if not (np.isfinite(c).all() and np.isfinite(A.data).all()):
        raise ValueError("LP costs and constraint matrix must be finite")
    highs = _highs()
    (m, n), lp, solver = A.shape, highs.HighsLp(), highs._Highs()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.zeros(n), np.full(n, np.inf)
    lp.row_lower_, lp.row_upper_ = np.r_[np.full(m - 1, -np.inf), 1.0], np.r_[np.zeros(m - 1), 1.0]
    for key, value in [("output_flag", False), ("presolve", "on"), ("simplex_strategy", 1),
                       ("primal_feasibility_tolerance", tol), ("dual_feasibility_tolerance", tol)]:
        solver.setOptionValue(key, value)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"LP solve failed: model status is {solver.modelStatusToString(status)}")
    return np.array(solver.getSolution().col_value)


def ce_lp(fg: FiniteGame, objective=None) -> SupportedDistribution:
    """Correlated equilibrium of a finite game by row generation, each LP
    solved from scratch by HiGHS at ``SOLVER_TOL``.

    With ``objective`` a map cell -> coefficient, maximizes that linear
    functional of the cell probabilities.  With ``objective=None`` minimizes
    the largest cell probability through one level column t >= every cell.
    The first LP holds each player's deviations to the neighbouring grid
    points, s -> s +- 1, and no cap p_c <= t.  Each round adds every
    deviation row and cap that its solution breaks by more than
    ``SOLVER_TOL``, until a round adds none: of finitely many rows, so the
    loop ends.  Every round's LP relaxes the full one, so the last
    solution, which meets every row, is optimal for the full LP.
    """
    n = int(np.prod(fg.shape))
    flat = np.arange(n, dtype=np.int32).reshape(fg.shape)
    views = [(player_view(flat, i), player_view(u, i)) for i, u in enumerate(fg.payoffs)]
    held = [np.eye(len(u), k=1, dtype=bool) | np.eye(len(u), k=-1, dtype=bool) for _, u in views]
    capped = np.zeros(n, dtype=bool)
    c = np.zeros(n)
    if objective is None:
        c = np.append(c, 1.0)
    else:
        for cell, coef in objective.items():
            c[np.ravel_multi_index(cell, fg.shape)] = -coef
    while True:
        A_ub = sp.vstack([gain_rows(cells, u, u, *np.nonzero(h)) for (cells, u), h in zip(views, held)])
        if objective is None:
            caps = np.flatnonzero(capped)
            A_ub = sp.bmat([[A_ub, None], [sp.eye(n, format="csr")[caps], -np.ones((len(caps), 1))]])
        # a CE always exists and the simplex is bounded: any status but
        # optimal is a solver failure
        x = solve_lp(c, A_ub, n, SOLVER_TOL)
        probs = x[:n].reshape(fg.shape)
        broken = [(gains(player_view(probs, i), u, u) > SOLVER_TOL) & ~h
                  for i, ((_, u), h) in enumerate(zip(views, held))]
        level = x[n] if objective is None else np.inf
        new_caps = (x[:n] > level + SOLVER_TOL) & ~capped
        if not (new_caps.any() or any(b.any() for b in broken)):
            break
        held = [h | b for h, b in zip(held, broken)]
        capped |= new_caps
    dist = SupportedDistribution.from_solver(fg.grids, probs)
    worst = max_ce_violation(fg, dist)
    if worst > 1e-7:
        raise SolverError(f"CE constraints violated by {worst:.2e} after solve")
    return dist


def midpoint_grid(d: int) -> np.ndarray:
    """Centers of d equal subintervals of [-1,1]."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("grid size must be an integer >= 1")
    return -1.0 + (2.0 * np.arange(d) + 1.0) / d


def static_discretization(game: PolynomialGame, d: int) -> tuple[SupportedDistribution, EpsilonReport]:
    """Sample the game on the midpoint grid of size d (every player), solve
    the sampled-game CE LP at ``SOLVER_TOL``, and report the exact epsilon of
    the result against the continuous game."""
    grid = midpoint_grid(d)
    fg = sample_game(game, [grid] * game.num_players)
    dist = ce_lp(fg)
    return dist, min_epsilon(game, dist)
