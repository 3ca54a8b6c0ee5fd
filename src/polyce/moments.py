"""Moment relaxations of the correlated-equilibrium set.

Couples two necessary-condition families over the truncated joint moments of
a candidate equilibrium measure:

* moment validity: the order-r moment matrix and per-variable localizing
  matrices for (1 - s_i^2) are PSD (necessary-only for n >= 2).  The
  relaxation and :func:`moment_validity_margin` read their entries from
  one table, :func:`polyce.sos.localizing_entries`;
* the deviation test: for each player the matrix of moment-weighted
  deviation gains against squared polynomial test functions of degree <= d
  must be negative semidefinite for every deviation t in [-1,1].  It is
  built negated, on its PSD side, for the biform interval SOS identity;
  :func:`separating_test_polynomial` negates it back to gains.

Growing d (and with it the moment truncation r) yields a nested family of
outer approximations of the set of correlated-equilibrium moments; their
projections to expected-payoff space shrink accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conic import ConicProblem, LinExpr, SolverError, Status, expr
from .games import PolynomialGame
from .polynomials import grlex_monomials
from .sos import MomentVector, localizing_entries, matrix_psd_on_interval_constraint, \
    moment_feasibility_constraint

MEMBERSHIP_SLACK = 1e-6


def required_half_order(game: PolynomialGame, d: int) -> int:
    """Smallest moment half-order r making every deviation-matrix entry
    (degree 2d in the recommendation variable times a utility term)
    expressible in stored moments of total degree <= 2r."""
    max_deg = max(u.total_degree() for u in game.utilities)
    return -(-(2 * d + max_deg) // 2)  # ceil


@dataclass(frozen=True)
class RelaxationOrder:
    """d: half-degree of the squared test polynomials; r: moment half-order."""

    d: int
    r: int

    def __post_init__(self):
        if self.d < 0 or self.r < 1:
            raise ValueError("need d >= 0 and r >= 1")

    @staticmethod
    def auto(game: PolynomialGame, d: int, r: int | None = None) -> "RelaxationOrder":
        r_min = max(required_half_order(game, d), 1)
        if r is None:
            r = r_min
        elif r < r_min:
            raise ValueError(f"r={r} cannot express the order-{d} deviation matrices; need r >= {r_min}")
        return RelaxationOrder(d, r)

    def validate_for(self, game: PolynomialGame) -> None:
        if self.r < required_half_order(game, self.d):
            raise ValueError(
                f"moment order 2r={2*self.r} too small for d={self.d} on this game"
            )


@dataclass(frozen=True)
class PayoffBox:
    """Per-player [min, max] expected utility over a relaxation."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi + 1e-9:
                raise ValueError(f"bad box [{lo}, {hi}]")

    def contains(self, point, tol: float = 0.0) -> bool:
        return all(
            lo - tol <= p <= hi + tol for (lo, hi), p in zip(self.bounds, point)
        )

    def nests_inside(self, outer: "PayoffBox", tol: float = 0.0) -> bool:
        return all(
            o_lo - tol <= lo and hi <= o_hi + tol
            for (lo, hi), (o_lo, o_hi) in zip(self.bounds, outer.bounds)
        )

    def spread(self, player: int) -> float:
        lo, hi = self.bounds[player]
        return hi - lo

    def to_json(self, player_names=None) -> str:
        doc = {"bounds": [{"min": lo, "max": hi} for lo, hi in self.bounds]}
        if player_names is not None:
            for row, name in zip(doc["bounds"], player_names):
                row["player"] = name
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# building the relaxation


def _deviation_matrix_entries(game, player, order, moment_of):
    """Upper-triangle entries of the negated moment-weighted deviation-gain
    matrix for one player, the side that must be PSD on [-1,1]: (j,k) entry
    = integral of s_i^{j+k} [u_i(s) - u_i(t, s_-i)] dpi, a polynomial in t
    whose coefficients are affine in the moments."""
    u = game.utilities[player]
    t_deg = u.degree_in(player)
    dim = order.d + 1
    entries = [[None] * dim for _ in range(dim)]
    for j in range(dim):
        for k in range(j, dim):
            power = j + k
            coeffs = [LinExpr() for _ in range(t_deg + 1)]
            for exp, coef in u.terms.items():
                # - coef * t^{exp_i} * mu[(power) e_i + exp_{-i}]
                shifted = tuple(power if v == player else e for v, e in enumerate(exp))
                coeffs[exp[player]] = coeffs[exp[player]] - coef * moment_of(shifted)
                # + coef * mu[exp + power e_i]
                bumped = tuple(e + power if v == player else e for v, e in enumerate(exp))
                coeffs[0] = coeffs[0] + coef * moment_of(bumped)
            entries[j][k] = coeffs
    return entries, t_deg


INTERIOR_SLACK = 1e-7


def build_relaxation(game: PolynomialGame, order: RelaxationOrder):
    """Moment variables + validity constraints + per-player deviation-matrix
    NSD-on-interval constraints.  Returns ``(problem, moments, handles)``
    where ``moments`` maps exponent tuples to scalar variables.

    ``INTERIOR_SLACK`` (1e-7) relaxes every matrix constraint to -slack*I.  The exact
    relaxation often has empty interior (sliver equilibrium sets, boundary
    supports), which cripples interior-point accuracy; the slack enlarges
    the feasible set slightly, which is the *sound* direction for an outer
    approximation.
    """
    order.validate_for(game)
    n = game.num_players
    problem = ConicProblem()
    exps = grlex_monomials(n, 2 * order.r)
    moments = {e: problem.add_scalar_var() for e in exps}

    def moment_of(e) -> LinExpr:
        return expr(moments[tuple(e)])

    validity = moment_feasibility_constraint(
        problem, {e: expr(v) for e, v in moments.items()}, n, 2 * order.r,
        diag_shift=INTERIOR_SLACK,
    )
    deviation_blocks = []
    for i in range(n):
        entries, t_deg = _deviation_matrix_entries(game, i, order, moment_of)
        deviation_blocks.append(
            matrix_psd_on_interval_constraint(
                problem, entries, order.d + 1, t_deg, diag_shift=INTERIOR_SLACK
            )
        )
    handles = {"validity": validity, "deviation": deviation_blocks}
    return problem, moments, handles


def payoff_expr(game: PolynomialGame, player: int, moments) -> LinExpr:
    out = LinExpr()
    for exp, coef in game.utilities[player].terms.items():
        out = out + coef * expr(moments[exp])
    return out


def _support_points(game, order, directions, tol):
    """For each direction, the expected-payoff vector that maximizes
    direction . payoff over the relaxation.  The relaxation is built once and
    only its objective changes between solves, which is sound because
    ``ConicProblem.solve`` is a pure function of the built data."""
    problem, moments, _ = build_relaxation(game, order)
    payoffs = [payoff_expr(game, i, moments) for i in range(game.num_players)]
    points = []
    for direction in directions:
        obj = LinExpr()
        for w, payoff in zip(direction, payoffs):
            if w:
                obj = obj + (-float(w)) * payoff
        problem.set_objective(obj)
        sol = problem.solve(tol=tol)
        if sol.status is not Status.OPTIMAL:
            raise SolverError(
                f"relaxation solve failed ({sol.status.value}); relaxations of a "
                "nonempty equilibrium set are never infeasible, check the order"
            )
        points.append(np.array([sol.evaluate(payoff) for payoff in payoffs]))
    return points


def payoff_bounds(game: PolynomialGame, order: RelaxationOrder, tol: float = 1e-8) -> PayoffBox:
    """Valid outer bounds on every correlated-equilibrium payoff vector."""
    axes = np.eye(game.num_players)
    points = _support_points(game, order, [sign * e for e in axes for sign in (1.0, -1.0)], tol)
    hi, lo = np.diagonal(points[0::2]), np.diagonal(points[1::2])
    return PayoffBox(tuple((float(min(a, b)), float(max(a, b))) for a, b in zip(lo, hi)))


def payoff_region_sketch(
    game: PolynomialGame, order: RelaxationOrder, directions: int = 16,
    seed: int = 0, tol: float = 1e-8,
):
    """Support-function sampling of the relaxation's payoff set: for each of
    K unit directions, the payoff vector maximizing that direction.  Returns
    a list of (direction, support_point) pairs (K >= 3)."""
    if directions < 3:
        raise ValueError("need at least 3 directions")
    n = game.num_players
    if n == 2:
        angles = 2.0 * np.pi * np.arange(directions) / directions
        dirs = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    else:
        rng = np.random.default_rng(seed)
        dirs = [v / np.linalg.norm(v) for v in rng.normal(size=(directions, n))]
    return list(zip(dirs, _support_points(game, order, dirs, tol)))


# ---------------------------------------------------------------------------
# membership tests for concrete moment vectors


def moment_validity_margin(mv: MomentVector, r: int) -> float:
    """Most-negative eigenvalue over the moment matrix and all localizing
    matrices of a concrete moment vector (0 or more means valid)."""
    worst = np.inf
    for dim, entries in localizing_entries(mv.num_vars, r):
        M = np.empty((dim, dim))
        for i, j, terms in entries:
            M[i, j] = M[j, i] = sum(sign * mv[e] for e, sign in terms)
        worst = min(worst, float(np.linalg.eigvalsh(M)[0]))
    return worst


def deviation_margin(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector) -> float:
    """Smallest lam such that the deviation matrices shifted by -lam*I are
    negative semidefinite on [-1,1]; a correlated equilibrium has margin
    <= 0 (up to numerics)."""
    worst = -np.inf
    for i in range(game.num_players):
        problem = ConicProblem()
        lam = problem.add_scalar_var()
        entries, t_deg = _deviation_matrix_entries(
            game, i, order, lambda e: LinExpr(const=mv[tuple(e)])
        )
        dim = order.d + 1
        for j in range(dim):
            entries[j][j][0] = entries[j][j][0] + expr(lam)
        matrix_psd_on_interval_constraint(problem, entries, dim, t_deg)
        problem.set_objective(expr(lam))
        sol = problem.solve(tol=1e-8)
        if sol.status is not Status.OPTIMAL:
            raise SolverError(f"deviation margin solve failed: {sol.status.value}")
        worst = max(worst, float(sol.objective_value))
    return worst


def check_moment_membership(
    game: PolynomialGame, order: RelaxationOrder, mv: MomentVector,
    slack: float = MEMBERSHIP_SLACK,
) -> bool:
    """Does a concrete moment vector lie in the order-(d, r) relaxation
    (within ``slack``)?  Necessary for the moments of any correlated
    equilibrium, so a False refutes equilibrium-ness."""
    if mv.num_vars != game.num_players:
        raise ValueError("moment vector arity does not match the game")
    if mv.order < 2 * order.r:
        raise ValueError(f"moment vector order {mv.order} < required {2 * order.r}")
    if abs(mv[(0,) * mv.num_vars] - 1.0) > slack:
        return False
    if moment_validity_margin(mv, order.r) < -slack:
        return False
    return deviation_margin(game, order, mv) <= slack


def separating_test_polynomial(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector):
    """Search for a violated deviation test: returns (player, t0, p_coeffs)
    with the property that the squared test polynomial p certifies a
    profitable deviation to t0 under any measure with these moments, or None
    if every deviation matrix is NSD (within 1e-9) on a 401-point scan grid
    of [-1,1]."""
    ts = np.linspace(-1.0, 1.0, 401)
    best = None
    for i in range(game.num_players):
        entries, t_deg = _deviation_matrix_entries(
            game, i, order, lambda e: LinExpr(const=mv[tuple(e)])
        )
        dim = order.d + 1
        polys = np.zeros((dim, dim, t_deg + 1))
        for j in range(dim):
            for k in range(j, dim):
                polys[j, k] = [-c.const for c in entries[j][k]]  # back to the gains
                polys[k, j] = polys[j, k]
        powers = ts[:, None] ** np.arange(t_deg + 1)[None, :]
        mats = np.einsum("jkd,td->tjk", polys, powers)
        eigs, vecs = np.linalg.eigh(mats)
        worst = int(np.argmax(eigs[:, -1]))
        val = float(eigs[worst, -1])
        if val > 1e-9 and (best is None or val > best[0]):
            best = (val, i, float(ts[worst]), vecs[worst][:, -1].copy())
    return None if best is None else best[1:]
