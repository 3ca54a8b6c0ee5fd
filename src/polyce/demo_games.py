"""Small demonstration games with known equilibrium structure.

Used by the test suite and the benchmark as reproducible fixtures; all
three are two-player games with strategies in [-1,1].
"""

from __future__ import annotations

import numpy as np

from .games import FiniteGame, PolynomialGame
from .polynomials import MultiPoly


def quadratic_demo_game() -> PolynomialGame:
    """Randomly generated quadratic game whose unique correlated equilibrium
    is the point mass at (1, 1)."""
    u_x = MultiPoly(
        2,
        {
            (2, 0): 0.596,
            (1, 1): 2.072,
            (0, 2): -0.394,
            (1, 0): 1.360,
            (0, 1): -1.200,
            (0, 0): 0.554,
        },
    )
    u_y = MultiPoly(
        2,
        {
            (2, 0): -0.108,
            (1, 1): 1.918,
            (0, 2): -1.044,
            (1, 0): -1.232,
            (0, 1): 0.842,
            (0, 0): -1.886,
        },
    )
    return PolynomialGame((u_x, u_y), ("x", "y"))


def common_interest_demo_game() -> PolynomialGame:
    """Identical-utility game u(x,y) = (1-x^2)(3y^2+6y+5) + (1-y^2)(3x^2+6x+5).

    Embeds :func:`stuck_3x3_game` on the grid {-1, 0, 1} (payoffs doubled);
    greedy support growth without the restricted-equilibrium condition stalls
    on it, which makes it the standard non-convergence fixture.
    """
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    one = MultiPoly.constant(2, 1.0)
    u = (one - x * x) * (3.0 * y * y + 6.0 * y + 5.0) + (one - y * y) * (
        3.0 * x * x + 6.0 * x + 5.0
    )
    return PolynomialGame((u, u), ("x", "y"))


def stuck_3x3_game() -> FiniteGame:
    """Symmetric 3x3 game with identical payoffs [[0,1,0],[1,5,7],[0,7,0]] on
    which greedy support growth stalls when started from the first strategy.

    Strategies are placed at {-1, 0, 1} so the game doubles as a sampled game.
    """
    payoff = np.array([[0.0, 1.0, 0.0], [1.0, 5.0, 7.0], [0.0, 7.0, 0.0]])
    grid = np.array([-1.0, 0.0, 1.0])
    return FiniteGame((grid, grid), (payoff, payoff.copy()))
