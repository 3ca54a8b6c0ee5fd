import pytest

from polyce.demo_games import (
    common_interest_demo_game,
    quadratic_demo_game,
    stuck_3x3_game,
)


@pytest.fixture(scope="session")
def quad_game():
    return quadratic_demo_game()


@pytest.fixture(scope="session")
def emb_game():
    return common_interest_demo_game()


@pytest.fixture(scope="session")
def table3():
    return stuck_3x3_game()
