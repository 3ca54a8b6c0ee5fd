"""Moment relaxations of the correlated-equilibrium set.

Couples two necessary-condition families over the truncated joint moments of
a candidate equilibrium measure:

* moment validity: the order-r moment matrix and per-variable localizing
  matrices for (1 - s_i^2) are PSD (necessary-only for n >= 2).  The
  relaxation and :func:`moment_validity_margin` read their entries from
  one table, :func:`polyce.sos.localizing_entries`;
* the deviation test: for each player the matrix of moment-weighted
  deviation gains against squared polynomial test functions of degree <= d
  must be negative semidefinite for every deviation t in [-1,1].  The
  relaxation builds it negated, on its PSD side, for the biform interval SOS
  identity; on a concrete moment vector :func:`_worst_deviation` decides it
  from the roots of a determinant, with no conic solve.

Growing d (and with it the moment truncation r) yields a nested family of
outer approximations of the set of correlated-equilibrium moments; their
projections to expected-payoff space shrink accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial

from .conic import ConicProblem, LinExpr, expr
from .games import PolynomialGame
from .polynomials import grlex_monomials
from .sos import MomentVector, localizing_entries, matrix_psd_on_interval_constraint, \
    moment_feasibility_constraint

MEMBERSHIP_SLACK = 1e-6


def required_half_order(game: PolynomialGame, d: int) -> int:
    """Smallest moment half-order r making every deviation-matrix entry
    (degree 2d in the recommendation variable times a utility term)
    expressible in stored moments of total degree <= 2r."""
    return -(-(2 * d + max(u.total_degree() for u in game.utilities)) // 2)  # ceil


@dataclass(frozen=True)
class RelaxationOrder:
    """d: half-degree of the squared test polynomials; r: moment half-order."""

    d: int
    r: int

    def __post_init__(self):
        if not (all(isinstance(v, (int, np.integer)) for v in (self.d, self.r)) and self.d >= 0 and self.r >= 1):
            raise ValueError("need integers d >= 0 and r >= 1")

    @staticmethod
    def auto(game: PolynomialGame, d: int, r: int | None = None) -> "RelaxationOrder":
        order = RelaxationOrder(d, max(required_half_order(game, d), 1) if r is None else r)
        order.validate_for(game)
        return order

    def validate_for(self, game: PolynomialGame) -> None:
        need = required_half_order(game, self.d)
        if self.r < need:
            raise ValueError(f"r={self.r} cannot express the order-{self.d} deviation "
                             f"matrices; need r >= {need}")


@dataclass(frozen=True)
class PayoffBox:
    """Per-player [min, max] expected utility over a relaxation."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not lo <= hi + 1e-9:  # rejects nan too
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


def _deviation_matrix_entries(game, player, order, moment_of, shift=0.0):
    """One player's negated moment-weighted deviation-gain matrix plus shift*I,
    the side that must be PSD on [-1,1]: entry (j,k) = (k,j) is the integral of
    s_i^{j+k} [u_i(s) - u_i(t, s_-i)] dpi, a polynomial in t affine in the
    ``moment_of`` values, then ``shift`` on each diagonal constant."""
    u = game.utilities[player]
    t_deg = u.degree_in(player)
    dim = order.d + 1
    entries = [[None] * dim for _ in range(dim)]
    for j in range(dim):
        for k in range(j, dim):
            power = j + k
            coeffs = [0.0] * (t_deg + 1)
            for exp, coef in u.terms.items():
                # - coef * t^{exp_i} * mu[(power) e_i + exp_{-i}]
                shifted = tuple(power if v == player else e for v, e in enumerate(exp))
                coeffs[exp[player]] = coeffs[exp[player]] - coef * moment_of(shifted)
                # + coef * mu[exp + power e_i]
                bumped = tuple(e + power if v == player else e for v, e in enumerate(exp))
                coeffs[0] = coeffs[0] + coef * moment_of(bumped)
            if j == k:
                coeffs[0] = coeffs[0] + shift
            entries[j][k] = entries[k][j] = coeffs
    return entries, t_deg


INTERIOR_SLACK = 1e-7


def build_relaxation(game: PolynomialGame, order: RelaxationOrder):
    """Moment variables + validity constraints + per-player deviation-matrix
    NSD-on-interval constraints.  Returns ``(problem, moments)`` where
    ``moments`` maps exponent tuples to scalar variables.

    ``INTERIOR_SLACK`` (1e-7) relaxes every matrix constraint to -slack*I:
    the validity matrices through ``diag_shift``, the deviation matrices
    through the ``shift`` of :func:`_deviation_matrix_entries`.  The exact
    relaxation often has empty interior (sliver equilibrium sets, boundary
    supports), which cripples interior-point accuracy; the slack enlarges the
    feasible set slightly, which is the *sound* direction for an outer
    approximation.
    """
    order.validate_for(game)
    n = game.num_players
    problem = ConicProblem()
    moments = {e: problem.add_scalar_var() for e in grlex_monomials(n, 2 * order.r)}
    moment_feasibility_constraint(problem, {e: expr(v) for e, v in moments.items()}, n,
                                  2 * order.r, diag_shift=INTERIOR_SLACK)
    for i in range(n):
        entries, t_deg = _deviation_matrix_entries(game, i, order, lambda e: expr(moments[e]), INTERIOR_SLACK)
        matrix_psd_on_interval_constraint(problem, entries, order.d + 1, t_deg)
    return problem, moments


def _support_points(game, order, directions):
    """For each direction, the expected-payoff vector that maximizes
    direction . payoff over the relaxation.  The relaxation is built once and
    all directions are solved as one batch (``ConicProblem.solve_many``): one
    compile and one IPM run, in which each direction's solve ends exactly as
    it would alone."""
    problem, moments = build_relaxation(game, order)
    payoffs = [sum((coef * expr(moments[exp]) for exp, coef in u.terms.items()), LinExpr())
               for u in game.utilities]
    objectives = [sum(((-float(w)) * payoff for w, payoff in zip(direction, payoffs) if w), LinExpr())
                  for direction in directions]
    return [np.array([sol.evaluate(payoff) for payoff in payoffs])
            for sol in problem.solve_many(objectives)]


def payoff_bounds(game: PolynomialGame, order: RelaxationOrder) -> PayoffBox:
    """Per-player [min, max] expected utility over the relaxation.  Each
    bound is the IPM's primal value at ``conic.SOLVER_TOL``, not a certified
    outer bound on the correlated-equilibrium payoffs: the solver's residuals
    are not yet turned into a guaranteed error."""
    axes = np.eye(game.num_players)
    points = _support_points(game, order, [sign * e for e in axes for sign in (1.0, -1.0)])
    hi, lo = np.diagonal(points[0::2]), np.diagonal(points[1::2])
    return PayoffBox(tuple((float(min(a, b)), float(max(a, b))) for a, b in zip(lo, hi)))


def payoff_region_sketch(game: PolynomialGame, order: RelaxationOrder, directions: int = 16, seed: int = 0):
    """Support-function sampling of the relaxation's payoff set: for each of
    K unit directions, the payoff vector maximizing that direction, solved at
    ``conic.SOLVER_TOL`` like :func:`payoff_bounds`.  Returns
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
    return list(zip(dirs, _support_points(game, order, dirs)))


# ---------------------------------------------------------------------------
# membership tests for concrete moment vectors


def _check_fit(mv: MomentVector, r: int, game: PolynomialGame | None = None) -> None:
    """Raise ValueError unless ``mv`` has one variable per player of ``game`` and moments to order 2r."""
    if game is not None and mv.num_vars != game.num_players:
        raise ValueError(f"moment vector arity {mv.num_vars} does not match the game's {game.num_players}")
    if mv.order < 2 * r:
        raise ValueError(f"moment vector order {mv.order} < required {2 * r}")


def moment_validity_margin(mv: MomentVector, r: int) -> float:
    """Most-negative eigenvalue over the moment matrix and all localizing
    matrices of a concrete moment vector (0 or more means valid)."""
    _check_fit(mv, r)
    worst = np.inf
    for dim, entries in localizing_entries(mv.num_vars, r):
        M = np.empty((dim, dim))
        for i, j, terms in entries:
            M[i, j] = M[j, i] = sum(sign * mv[e] for e, sign in terms)
        worst = min(worst, float(np.linalg.eigvalsh(M)[0]))
    return worst


def _worst_deviation(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector):
    """The one deviation test on concrete moments: ``(margin, player, t, v)``,
    the largest eigenvalue of any player's gain matrix G(t) (the negated
    :func:`_deviation_matrix_entries`) over t in [-1,1], attained by that
    player at t with unit eigenvector v.

    Per player, a level-set ascent (Boyd & Balakrishnan 1990) raises lam from
    the best of t = -1, 0, 1 to the best value at the midpoints between -1, 1
    and the real parts of the roots of det(lam I - G(t)), a polynomial found
    by Chebyshev interpolation, until none beats lam by a few ulps.  det is
    taken on the range of G's coefficients: a direction they all annihilate
    is an eigenvalue 0 at every t and would make det vanish at lam = 0."""
    order.validate_for(game)
    _check_fit(mv, order.r, game)
    best = (-np.inf,)
    for i in range(game.num_players):
        entries, t_deg = _deviation_matrix_entries(game, i, order, mv.__getitem__)
        coeffs = -np.array(entries).transpose(2, 0, 1)
        basis, sv, _ = np.linalg.svd(np.hstack(coeffs))
        basis = basis[:, sv > sv[0] * sv.size * np.finfo(float).eps]  # matrix_rank's tolerance
        reduced, rank = basis.T @ coeffs @ basis, basis.shape[1]
        few_ulps = 4 * np.finfo(float).eps * np.abs(coeffs).sum()  # the sum bounds |G(t)|
        ts, lam = np.array([-1.0, 0.0, 1.0]), -np.inf
        while True:
            vals, vecs = np.linalg.eigh(polynomial.polyval(ts, coeffs).T)
            k = int(np.argmax(vals[:, -1]))
            if not vals[k, -1] > lam + few_ulps:
                break
            lam, t, v = float(vals[k, -1]), float(ts[k]), vecs[k, :, -1]
            det = chebyshev.chebinterpolate(
                lambda x: np.linalg.det(lam * np.eye(rank) - polynomial.polyval(x, reduced).T), rank * t_deg)
            roots = chebyshev.chebroots(chebyshev.chebtrim(det)).real
            cuts = np.sort(np.concatenate(([-1.0], roots[np.abs(roots) < 1.0], [1.0])))
            ts = (cuts[1:] + cuts[:-1]) / 2
        if lam > best[0]:
            best = (lam, i, t, v)
    return best


def deviation_margin(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector) -> float:
    """Largest eigenvalue of any player's deviation-gain matrix over t in
    [-1,1] (:func:`_worst_deviation`); a correlated equilibrium has margin <= 0."""
    return _worst_deviation(game, order, mv)[0]


def check_moment_membership(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector) -> bool:
    """Does a concrete moment vector lie in the order-(d, r) relaxation
    within ``MEMBERSHIP_SLACK``?  Necessary for the moments of any correlated
    equilibrium, so a False refutes equilibrium-ness."""
    return (deviation_margin(game, order, mv) <= MEMBERSHIP_SLACK
            and moment_validity_margin(mv, order.r) >= -MEMBERSHIP_SLACK)


def separating_test_polynomial(game: PolynomialGame, order: RelaxationOrder, mv: MomentVector):
    """A violated deviation test, or None exactly when :func:`deviation_margin`
    <= ``MEMBERSHIP_SLACK``, the threshold of :func:`check_moment_membership`:
    (player, t0, p_coeffs) such that the squared test polynomial p certifies a
    profitable deviation to t0 under any measure with these moments."""
    margin, player, t0, p_coeffs = _worst_deviation(game, order, mv)
    return (player, t0, p_coeffs) if margin > MEMBERSHIP_SLACK else None
