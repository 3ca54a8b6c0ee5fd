"""Polynomial and finite (sampled) games on [-1,1]^n, and distributions over grids.

All types are immutable after construction and safe to share across
concurrent solves.  The JSON game format used by every CLI command is::

    {"players": ["x", "y"],
     "utilities": [{"terms": [{"exp": [2, 0], "coef": 0.596}, ...]}, ...]}

Exponent tuple order follows the ``players`` array.

All payoff and deviation-gain arithmetic in the package goes through one
kernel in this module:

* :func:`player_view` lays any tensor over a product grid out as player i
  sees it: a matrix with one row per own strategy (or power of the own
  variable) and one column per opponent profile, opponents in player order
  and the last one varying fastest;
* :func:`conditional_coeffs` turns a utility's dense coefficient tensor into
  the coefficients of u_i(t, s_-i) in t for every opponent profile, by
  elementwise Horner evaluation along each opponent axis; evaluating the
  result at player i's own grid samples the utility, so a sampled payoff is
  bit-identical however many grid points are sampled at once;
* :func:`gains` forms the expected deviation gains
  sum_{s_-i} pi(s_i, s_-i) [u_i(t, s_-i) - u_i(s)] from those matrices.

:func:`distribution_doc` builds the one distribution document, which
``polyce static --dump-dist`` writes and a trace holds as its
``final_distribution``; ``MASS_TOL`` is the one negligible-mass cut-off.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .conic import SolverError
from .polynomials import MERGE_TOL, MultiPoly, PolynomialError, grlex_monomials, is_number, merge_points

MASS_TOL = 1e-12  # a cell or recommendation with at most this mass carries none
_COORD_TOL = 1e-12


class GameFormatError(ValueError):
    """Malformed game or distribution document."""


@dataclass(frozen=True)
class PolynomialGame:
    """n players; utility i is a polynomial in n variables; variable j is
    player j's strategy in [-1, 1]."""

    utilities: tuple[MultiPoly, ...]
    player_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.utilities)
        if n < 1:
            raise GameFormatError("a game needs at least one player")
        if len(self.player_names) != n:
            raise GameFormatError("player_names length mismatch")
        for u in self.utilities:
            if u.num_vars != n:
                raise GameFormatError(
                    f"utility in {u.num_vars} variables for an {n}-player game"
                )

    @property
    def num_players(self) -> int:
        return len(self.utilities)


def _check_arity(num_players: int, grids):
    if len(grids) != num_players:
        raise GameFormatError(f"one grid per player required, got {len(grids)} for {num_players}")
    return grids


def _check_points(g: np.ndarray) -> np.ndarray:
    """The one test of strategy values, a grid or a profile: nonempty, every
    point in [-1, 1]."""
    if g.size == 0:
        raise GameFormatError("empty strategy grid: grids must be nonempty number lists")
    if not np.all(np.abs(g) <= 1 + _COORD_TOL):  # rejects nan too
        raise GameFormatError(
            f"grid points must be numbers in [-1, 1], got {g.tolist()} (a value outside or not a number)")
    return g


@dataclass(frozen=True)
class FiniteGame:
    """Per-player strictly increasing strategy grids in [-1,1] and one dense
    payoff tensor per player over the product grid."""

    grids: tuple[np.ndarray, ...]
    payoffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        shape = self.shape
        for g in self.grids:
            _check_points(g)
            if np.any(np.diff(g) <= 0):
                raise GameFormatError("grid points must be strictly increasing")
        if len(self.payoffs) != len(shape):
            raise GameFormatError(f"{len(self.payoffs)} payoff tensors for {len(shape)} players")
        for p in self.payoffs:
            if p.shape != shape:
                raise GameFormatError(f"payoff tensor shape {p.shape} != grid shape {shape}")
            if not np.all(np.isfinite(p)):
                raise GameFormatError("payoffs must be finite numbers")

    @property
    def num_players(self) -> int:
        return len(self.grids)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grids)

    def cells(self):
        return itertools.product(*(range(s) for s in self.shape))


@dataclass(frozen=True)
class SupportedDistribution:
    """Finitely supported joint probability measure on a product grid."""

    grids: tuple[np.ndarray, ...]
    probs: np.ndarray

    def __post_init__(self):
        shape = tuple(len(g) for g in self.grids)
        for g in self.grids:
            _check_points(g)
        if self.probs.shape != shape:
            raise GameFormatError(f"probs shape {self.probs.shape} != grid shape {shape}")
        if not np.all(self.probs >= 0):  # rejects nan too
            raise GameFormatError(
                f"probabilities must be nonnegative numbers, got {self.probs.min()}")
        total = float(self.probs.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise GameFormatError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def from_solver(grids, probs) -> "SupportedDistribution":
        """Build from solver output: clips tiny negatives and renormalizes.
        Output too far from a distribution is the solver's fault, so it
        raises :class:`SolverError`, not :class:`GameFormatError`."""
        probs = np.asarray(probs, dtype=float)
        if probs.min() < -1e-6:
            raise SolverError(f"solver probability {probs.min()} too negative")
        probs = np.clip(probs, 0.0, None)
        s = probs.sum()
        if not (0.5 < s < 2.0):
            raise SolverError(f"solver probabilities sum to {s}")
        return SupportedDistribution(tuple(np.asarray(g, float) for g in grids), probs / s)

    @staticmethod
    def point_mass(point) -> "SupportedDistribution":
        grids = tuple(np.array([float(c)]) for c in point)
        return SupportedDistribution(grids, np.ones((1,) * len(grids)))

    @property
    def num_players(self) -> int:
        return len(self.grids)

    def marginal(self, player: int) -> np.ndarray:
        axes = tuple(j for j in range(self.probs.ndim) if j != player)
        return self.probs.sum(axis=axes)

    def support(self, tol: float = 0.0):
        """Yield ``(point, prob)`` for every cell with probability > tol."""
        for cell in itertools.product(*(range(len(g)) for g in self.grids)):
            p = float(self.probs[cell])
            if p > tol:
                yield tuple(float(self.grids[j][cell[j]]) for j in range(len(self.grids))), p

    def moment(self, exponent: tuple[int, ...]) -> float:
        """Joint moment: sum over support of prob * prod_j s_j^k_j."""
        monomial = MultiPoly(len(self.grids), {tuple(exponent): 1.0})
        return float(np.sum(self.probs * _sample(monomial, 0, self.grids)))


# ---------------------------------------------------------------------------
# the payoff kernel


def player_view(tensor: np.ndarray, i: int) -> np.ndarray:
    """Tensor over a product grid as a (player i axis) x (opponent profile)
    matrix; columns run over the other axes in C order."""
    return np.moveaxis(tensor, i, 0).reshape(tensor.shape[i], -1)


def _horner(coeffs: np.ndarray, axis: int, points) -> np.ndarray:
    """Evaluate the polynomial along ``axis`` of a coefficient tensor at
    every point, replacing that axis by one entry per point."""
    c = np.moveaxis(coeffs, axis, 0)
    x = np.asarray(points, dtype=float).reshape((-1,) + (1,) * (c.ndim - 1))
    acc = np.repeat(c[-1:], len(x), axis=0)
    for ck in c[-2::-1]:
        acc = acc * x + ck
    return np.moveaxis(acc, 0, axis)


def conditional_coeffs(u: MultiPoly, i: int, grids) -> np.ndarray:
    """Ascending coefficients of u(t, s_-i) in t for every opponent profile:
    axis i indexes the powers of t, axis j != i the points of ``grids[j]``."""
    coeffs = np.zeros([u.degree_in(j) + 1 for j in range(u.num_vars)])
    for exp, coef in u.terms.items():
        coeffs[exp] = coef
    for j, grid in enumerate(grids):
        if j != i:
            coeffs = _horner(coeffs, j, grid)
    return coeffs


def _sample(u: MultiPoly, i: int, grids) -> np.ndarray:
    """Utility ``u`` of player i on the product of ``grids``."""
    return _horner(conditional_coeffs(u, i, grids), i, grids[i])


def gains(probs: np.ndarray, dev_payoffs: np.ndarray, rec_payoffs: np.ndarray) -> np.ndarray:
    """Expected deviation gains, one row per recommendation s:

        out[s, k] = sum_o probs[s, o] * (dev_payoffs[k, o] - rec_payoffs[s, o])

    with ``probs`` and ``rec_payoffs`` in :func:`player_view` layout and one
    row of ``dev_payoffs`` per deviation k.  A zero-gain deviation (k = s on
    a finite game) gives exactly 0."""
    return np.einsum("so,sko->sk", probs, dev_payoffs[None, :, :] - rec_payoffs[:, None, :])


def _check_point(game: PolynomialGame, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (game.num_players,):
        raise GameFormatError(
            f"point has {point.size} coordinates, expected {game.num_players}"
        )
    return _check_points(point)


def eval_utility(game: PolynomialGame, player: int, point) -> float:
    """Exact polynomial evaluation of one player's utility at a profile."""
    grids = [[x] for x in _check_point(game, point)]
    return float(_sample(game.utilities[player], player, grids).item())


def _grid_index(grid: np.ndarray, value: float) -> int:
    idx = int(np.argmin(np.abs(grid - value)))
    if not abs(grid[idx] - value) <= MERGE_TOL:  # rejects nan too
        raise GameFormatError(f"strategy {value} not in grid {grid.tolist()}")
    return idx


def gain_coeffs(game: PolynomialGame, player: int, dist: SupportedDistribution) -> np.ndarray:
    """Deviation-gain polynomials of every recommendation of ``player``: row
    s holds the ascending coefficients of

        g(t) = sum over s_{-i} of pi(s_i, s_{-i}) * [u_i(t, s_{-i}) - u_i(s)]

    for s_i = ``dist.grids[player][s]``."""
    grids = _check_arity(game.num_players, dist.grids)
    coeffs = conditional_coeffs(game.utilities[player], player, grids)
    dev = player_view(coeffs, player)
    rec = player_view(_horner(coeffs, player, grids[player]), player)
    probs = player_view(dist.probs, player)
    out = gains(probs, dev, np.zeros_like(rec))
    out[:, :1] = gains(probs, dev[:1], rec)  # u_i(s) is constant in t
    return out


def deviation_gain_poly(
    game: PolynomialGame, player: int, dist: SupportedDistribution, s_i: float
) -> MultiPoly:
    """Expected-gain polynomial g(t) for player ``player`` deviating to t when
    recommended ``s_i``, under ``dist`` (one row of :func:`gain_coeffs`).
    g(s_i) = 0 up to float cancellation.
    """
    s_idx = _grid_index(dist.grids[player], s_i)
    return MultiPoly.univariate(gain_coeffs(game, player, dist)[s_idx])


def sample_game(game: PolynomialGame, grids) -> FiniteGame:
    """Restrict utilities to a product of finite grids (the sampled game)."""
    grids = _check_arity(game.num_players, tuple(merge_points(g) for g in grids))
    payoffs = tuple(_sample(u, i, grids) for i, u in enumerate(game.utilities))
    return FiniteGame(grids, payoffs)


def expected_utilities(game: PolynomialGame, dist: SupportedDistribution) -> np.ndarray:
    """Expected utility per player under a finitely supported distribution."""
    _check_arity(game.num_players, dist.grids)
    return np.array([
        float(np.sum(dist.probs * _sample(u, i, dist.grids)))
        for i, u in enumerate(game.utilities)
    ])


# ---------------------------------------------------------------------------
# serialization


def serialize_game(game: PolynomialGame) -> str:
    utilities = []
    for u in game.utilities:
        terms = [
            {"exp": list(exp), "coef": coef}
            for exp, coef in sorted(u.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        ]
        utilities.append({"terms": terms})
    doc = {"players": list(game.player_names), "utilities": utilities}
    return json.dumps(doc, indent=2)


def _number_tensor(value, what: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array."""
    def leaves(v):
        return [x for item in v for x in leaves(item)] if isinstance(v, list) else [v]

    if not all(is_number(x) for x in leaves(value)):
        raise GameFormatError(f"{what} must hold finite numbers only")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise GameFormatError(f"{what} is not a rectangular array: {exc}") from exc


def parse_game(text: str) -> PolynomialGame:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "players" not in doc or "utilities" not in doc:
        raise GameFormatError("document must have 'players' and 'utilities'")
    players = doc["players"]
    if not isinstance(players, list) or not players:
        raise GameFormatError("'players' must be a nonempty list")
    n = len(players)
    utilities = doc["utilities"]
    if not isinstance(utilities, list) or len(utilities) != n:
        raise GameFormatError(f"expected {n} utilities, got {utilities!r:.60}")
    polys = []
    for i, entry in enumerate(utilities):
        entry_terms = entry.get("terms", []) if isinstance(entry, dict) else None
        if not isinstance(entry_terms, list):
            raise GameFormatError(f"utility {i} must be an object with a 'terms' list")
        pairs = []
        for term in entry_terms:
            if not isinstance(term, dict) or not isinstance(term.get("exp"), list):
                raise GameFormatError(f"utility {i}: term {term!r} is not an object with an 'exp' list")
            pairs.append((term["exp"], term.get("coef")))
            try:
                MultiPoly(n, pairs[-1:])
            except PolynomialError as exc:
                raise GameFormatError(f"utility {i}: term {term}: {exc}") from exc
        polys.append(MultiPoly(n, pairs))  # repeated exponents add up in file order
    return PolynomialGame(tuple(polys), tuple(str(p) for p in players))


def distribution_doc(dist: SupportedDistribution) -> dict:
    """The grids, the probabilities, and the support: every cell of mass
    above ``MASS_TOL`` as a point and its probability."""
    return {
        "grids": [g.tolist() for g in dist.grids],
        "probs": dist.probs.tolist(),
        "support": [
            {"point": list(point), "prob": prob} for point, prob in dist.support(MASS_TOL)
        ],
    }


def serialize_distribution(dist: SupportedDistribution) -> str:
    return json.dumps(distribution_doc(dist), indent=2)


def parse_distribution(text: str) -> SupportedDistribution:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "grids" not in doc or "probs" not in doc:
        raise GameFormatError("distribution document must have 'grids' and 'probs'")
    grids_doc = doc["grids"] if isinstance(doc["grids"], list) else []
    raw_grids = [_number_tensor(g, "each grid") for g in grids_doc]
    if not raw_grids or any(g.ndim != 1 for g in raw_grids):
        raise GameFormatError("'grids' must be a nonempty list of nonempty number lists")
    probs = _number_tensor(doc["probs"], "'probs'")
    if probs.shape != tuple(len(g) for g in raw_grids):
        raise GameFormatError("probs shape does not match grids")
    # sort the grid points, merging those closer than MERGE_TOL and
    # accumulating their mass
    grids, out = [], probs
    for axis, g in enumerate(raw_grids):
        grids.append(merge_points(g))
        folded = np.zeros(out.shape[:axis] + (len(grids[-1]),) + out.shape[axis + 1:])
        idx = [_grid_index(grids[-1], v) for v in g]
        np.add.at(np.moveaxis(folded, axis, 0), idx, np.moveaxis(out, axis, 0))
        out = folded
    return SupportedDistribution(tuple(grids), out)


# ---------------------------------------------------------------------------
# random games

_DEFAULT_NAMES = ("x", "y", "z")


def player_names(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"s{i}" for i in range(n))


def random_polynomial_game(num_players: int, degree: int, seed: int) -> PolynomialGame:
    """Random game: every monomial of total degree <= ``degree`` gets an
    independent N(0, 1) coefficient.  Deterministic per seed."""
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    rng = np.random.default_rng(seed)
    exponents = grlex_monomials(num_players, degree)
    utilities = []
    for _ in range(num_players):
        coefs = rng.normal(0.0, 1.0, size=len(exponents))
        utilities.append(MultiPoly(num_players, dict(zip(exponents, coefs))))
    return PolynomialGame(tuple(utilities), player_names(num_players))
