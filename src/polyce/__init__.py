"""Correlated equilibria of polynomial games on [-1,1]^n.

Three solvers; the two SDP ones run on a univariate sum-of-squares layer
and an in-house conic interior-point method:

* static discretization (sampled-game LP solved by HiGHS, its deviation rows
  added as they bind),
* adaptive discretization (support-growing SDP loop; on finite games each
  iteration is an LP solved by HiGHS),
* moment relaxation (outer SDP approximations of the equilibrium set).

Every linear program goes to scipy's HiGHS module, loaded without
``scipy.optimize``; the conic solver rejects problems with no cone.
"""

from .conic import ConicProblem, ConicSolution, LinExpr, SolverError, Status
from .games import (
    FiniteGame,
    GameFormatError,
    PolynomialGame,
    SupportedDistribution,
    deviation_gain_poly,
    eval_utility,
    expected_utilities,
    parse_distribution,
    parse_game,
    random_polynomial_game,
    sample_game,
    serialize_distribution,
    serialize_game,
)
from .polynomials import MultiPoly, maximize_univariate

__all__ = [
    "ConicProblem",
    "ConicSolution",
    "LinExpr",
    "SolverError",
    "Status",
    "FiniteGame",
    "GameFormatError",
    "PolynomialGame",
    "SupportedDistribution",
    "MultiPoly",
    "deviation_gain_poly",
    "eval_utility",
    "expected_utilities",
    "maximize_univariate",
    "parse_distribution",
    "parse_game",
    "random_polynomial_game",
    "sample_game",
    "serialize_distribution",
    "serialize_game",
]

__version__ = "0.1.0"
