import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import polyce
from polyce import adaptive, finite_ce
from polyce.adaptive import AdaptiveConfig
from polyce.conic import SolverError
from polyce.finite_ce import (
    ce_lp,
    max_ce_violation,
    midpoint_grid,
    min_epsilon,
    solve_lp,
    static_discretization,
)
from polyce.games import FiniteGame, GameFormatError, PolynomialGame, SupportedDistribution, sample_game
from polyce.polynomials import MultiPoly

from oracles import (
    dense_ce_lp_value,
    dense_ce_minmax_level,
    dense_max_on_interval,
    max_departure_gain,
    max_single_deviation_gain,
)


def _point_mass_on(fg, cell):
    probs = np.zeros(fg.shape)
    probs[cell] = 1.0
    return SupportedDistribution(fg.grids, probs)


# ---------------------------------------------------------------------------
# finite-game checks


def test_pure_nash_cell_is_ce(table3):
    # (b, c) is a pure Nash equilibrium: all 12 deviation sums are <= 0
    dist = _point_mass_on(table3, (1, 2))
    assert max_ce_violation(table3, dist) <= 1e-12
    assert max_departure_gain(table3, dist) <= 1e-12


def test_middle_cell_is_not_ce(table3):
    # deviating b -> c against b gains 7 - 5 = 2
    dist = _point_mass_on(table3, (1, 1))
    assert max_ce_violation(table3, dist) == pytest.approx(2.0)


def test_trivial_single_cell_game():
    fg = FiniteGame((np.array([0.3]), np.array([-0.2])), (np.ones((1, 1)), np.ones((1, 1))))
    dist = ce_lp(fg)
    assert dist.probs[0, 0] == pytest.approx(1.0)


def test_ce_lp_output_is_an_equilibrium(table3):
    dist = ce_lp(table3)
    assert max_ce_violation(table3, dist) <= 1e-7
    assert max_departure_gain(table3, dist) <= 1e-7


def test_ce_lp_tie_break_minimizes_max_probability(table3):
    # no correlated equilibrium has a smaller largest atom than the returned one
    peak = float(ce_lp(table3).probs.max())
    assert peak == pytest.approx(dense_ce_minmax_level(table3), abs=1e-7)


def test_ce_lp_with_welfare_objective(table3):
    objective = {}
    for cell in table3.cells():
        objective[cell] = float(table3.payoffs[0][cell] + table3.payoffs[1][cell])
    dist = ce_lp(table3, objective)
    welfare = sum(objective[cell] * float(dist.probs[cell]) for cell in table3.cells())
    # the pure Nash at (b,c) already attains utility 7 per player
    assert welfare >= 14.0 - 1e-6
    assert max_ce_violation(table3, dist) <= 1e-7


def test_product_nash_satisfies_ce_constraints():
    # matching pennies: the uniform product distribution is the mixed Nash
    payoff = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fg = FiniteGame(
        (np.array([-1.0, 1.0]), np.array([-1.0, 1.0])), (payoff, -payoff)
    )
    uniform = SupportedDistribution(fg.grids, np.full((2, 2), 0.25))
    assert max_ce_violation(fg, uniform) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_ce_lp_passes_departure_enumeration_on_random_games(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    grids = tuple(np.linspace(-1, 1, s) for s in shape)
    payoffs = tuple(rng.integers(0, 8, size=shape).astype(float) for _ in range(2))
    fg = FiniteGame(grids, payoffs)
    dist = ce_lp(fg)
    assert max_departure_gain(fg, dist) <= 1e-7


def _integer_game(rng, shape):
    grids = tuple(np.linspace(-1, 1, s) for s in shape)
    return FiniteGame(grids, tuple(rng.integers(0, 8, size=shape).astype(float) for _ in shape))


@given(st.integers(0, 10_000), st.permutations([2, 3, 4]))
@settings(max_examples=20, deadline=None)
def test_ce_lp_rows_on_three_players(seed, shape):
    # distinct grid sizes per axis, so a misplaced axis in the deviation rows
    # changes the polytope
    fg = _integer_game(np.random.default_rng(seed), tuple(shape))
    minmax = ce_lp(fg)
    assert max_single_deviation_gain(fg, minmax) <= 1e-7
    assert float(minmax.probs.max()) == pytest.approx(dense_ce_minmax_level(fg), abs=1e-7)
    welfare = {cell: sum(float(u[cell]) for u in fg.payoffs) for cell in fg.cells()}
    dist = ce_lp(fg, welfare)
    assert max_single_deviation_gain(fg, dist) <= 1e-7
    value = sum(c * float(dist.probs[cell]) for cell, c in welfare.items())
    assert value == pytest.approx(dense_ce_lp_value(fg, welfare), abs=1e-6)


def test_ce_lp_minmax_on_21x21():
    fg = _integer_game(np.random.default_rng(21), (21, 21))
    dist = ce_lp(fg)
    assert max_single_deviation_gain(fg, dist) <= 1e-7
    assert float(dist.probs.max()) == pytest.approx(dense_ce_minmax_level(fg), abs=1e-7)


def test_ce_lp_on_nan_payoff_is_a_format_error():
    with pytest.raises(GameFormatError, match="payoffs must be finite"):
        ce_lp(FiniteGame((np.array([-1.0, 1.0]),) * 2, (np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2))))


def _linprog_x(c, A_ub, n_cells, tol):
    """``solve_lp``'s LP solved by ``linprog``, the reference it must match."""
    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=(np.arange(len(c)) < n_cells)[None] * 1.0,
        b_eq=[1.0], bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": tol, "dual_feasibility_tolerance": tol},
    )
    assert res.status == 0, res.message
    return res.x


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this ``polyce``."""
    path = os.pathsep.join([str(Path(polyce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


def _solved_lps(monkeypatch, module, run):
    """(arguments, x) of every ``solve_lp`` call that ``run()`` makes through ``module``."""
    solved = []

    def record(*args):
        solved.append((args, solve_lp(*args)))
        return solved[-1][1]

    monkeypatch.setattr(module, "solve_lp", record)
    run()
    return solved


@pytest.mark.parametrize("d", [5, 15, 30])
def test_solve_lp_is_linprog_byte_for_byte_on_the_static_lp(quad_game, d, monkeypatch):
    fg = sample_game(quad_game, [midpoint_grid(d)] * 2)
    welfare = {cell: float(fg.payoffs[0][cell] + fg.payoffs[1][cell]) for cell in fg.cells()}
    solved = _solved_lps(monkeypatch, finite_ce, lambda: (ce_lp(fg), ce_lp(fg, welfare)))
    # each ce_lp solves one LP per row-generation round
    assert len(solved) >= 2
    for args, x in solved:
        assert x.tobytes() == _linprog_x(*args).tobytes()


def test_ce_lp_solves_only_the_rows_that_bind(quad_game, monkeypatch):
    # the full min-max LP at d=30 holds 2 * 30 * 29 deviation rows and 900 caps
    fg = sample_game(quad_game, [midpoint_grid(30)] * 2)
    solved = _solved_lps(monkeypatch, finite_ce, lambda: ce_lp(fg))
    assert len(solved) >= 2
    A_ub = solved[-1][0][1]
    assert A_ub.shape[0] <= 0.1 * (2 * 30 * 29 + 900)


def test_static_lp_at_d160_peaks_below_300_mb():
    # its own process, so the peak is this solve's; the full LP's 76,480
    # rows took about 1.2 GB
    code = """
import resource
from polyce.demo_games import quadratic_demo_game
from polyce.finite_ce import static_discretization
static_discretization(quadratic_demo_game(), 160)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr
    # ru_maxrss is in KiB on Linux
    assert int(out.stdout) <= 300 * 1000**2 / 1024


def test_solve_lp_is_linprog_byte_for_byte_on_a_finite_iteration_lp(quad_game, monkeypatch):
    fg = sample_game(quad_game, [midpoint_grid(15)] * 2)
    grids = (fg.grids[0][::4], fg.grids[1][::5])
    [(args, x)] = _solved_lps(monkeypatch, adaptive,
                              lambda: adaptive._solve_finite_iteration(fg, grids, AdaptiveConfig()))
    assert x.tobytes() == _linprog_x(*args).tobytes()


def test_solve_lp_names_the_status_of_an_infeasible_lp():
    # x <= 0 with the cells summing to one
    with pytest.raises(SolverError, match="Infeasible"):
        solve_lp(np.zeros(2), np.eye(2), 2, 1e-8)


@pytest.mark.parametrize("c, A_ub", [
    (np.array([np.nan, 0.0]), sp.csr_matrix((1, 2))),
    (np.zeros(2), sp.csr_matrix([[np.inf, 1.0]])),
], ids=["nan-cost", "inf-entry"])
def test_solve_lp_rejects_non_finite_data_as_linprog_does(c, A_ub):
    # HiGHS itself solves the NaN cost to x = [0, 1] and ends "Not Set" on the inf
    with pytest.raises(ValueError, match="must be finite"):
        solve_lp(c, A_ub, 2, 1e-8)
    with pytest.raises(ValueError):
        _linprog_x(c, A_ub, 2, 1e-8)


def test_highs_loader_names_the_scipy_version_when_the_module_is_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no"):
        finite_ce._highs.__wrapped__()


def test_import_leaves_scipy_optimize_unloaded():
    # solve_lp loads only scipy's compiled HiGHS module: scipy.optimize would
    # add about 0.2 s to the start-up of every process, and about 20 MB to
    # the peak memory of every process that solves an LP
    code = """
import sys, polyce, polyce.ipm, polyce.cli
assert 'scipy.optimize' not in sys.modules
from polyce.adaptive import run_adaptive_finite
from polyce.demo_games import quadratic_demo_game, stuck_3x3_game
from polyce.finite_ce import ce_lp, static_discretization
static_discretization(quadratic_demo_game(), 5)
fg = stuck_3x3_game()
ce_lp(fg, {cell: float(fg.payoffs[0][cell] + fg.payoffs[1][cell]) for cell in fg.cells()})
run_adaptive_finite(fg, [[-1.0], [-1.0]])
assert 'scipy.optimize' not in sys.modules
"""
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# exact epsilon of a distribution against the continuous game


def test_min_epsilon_unique_equilibrium_is_exact(quad_game):
    report = min_epsilon(quad_game, SupportedDistribution.point_mass((1.0, 1.0)))
    assert report.epsilon == pytest.approx(0.0, abs=1e-12)


def test_min_epsilon_common_interest_corner(emb_game):
    report = min_epsilon(emb_game, SupportedDistribution.point_mass((-1.0, -1.0)))
    assert report.epsilon == pytest.approx(2.0, abs=1e-12)
    eps, t_star = report.per_recommendation[(0, -1.0)]
    assert (eps, t_star) == (pytest.approx(2.0), pytest.approx(0.0))


def test_min_epsilon_origin(quad_game):
    report = min_epsilon(quad_game, SupportedDistribution.point_mass((0.0, 0.0)))
    assert report.epsilon == pytest.approx(1.956, abs=1e-9)
    eps, t_star = report.per_recommendation[(0, 0.0)]
    assert t_star == pytest.approx(1.0)


def test_min_epsilon_positively_homogeneous(quad_game):
    dist = SupportedDistribution.point_mass((0.0, 0.0))
    base = min_epsilon(quad_game, dist)

    def scale_player(lam):
        u_x, u_y = quad_game.utilities
        return PolynomialGame((u_x * lam, u_y), quad_game.player_names)

    doubled = min_epsilon(scale_player(2.0), dist)
    # scaling by a power of two is exact in floating point
    assert doubled.per_recommendation[(0, 0.0)][0] == 2.0 * base.per_recommendation[(0, 0.0)][0]
    assert doubled.per_recommendation[(1, 0.0)][0] == base.per_recommendation[(1, 0.0)][0]
    scaled = min_epsilon(scale_player(1.7), dist)
    assert scaled.per_recommendation[(0, 0.0)][0] == pytest.approx(
        1.7 * base.per_recommendation[(0, 0.0)][0], rel=1e-12
    )


def test_min_epsilon_zero_iff_every_gain_nonpositive(quad_game):
    good = min_epsilon(quad_game, SupportedDistribution.point_mass((1.0, 1.0)))
    assert good.epsilon <= 1e-7
    assert all(e <= 1e-7 for e, _ in good.per_recommendation.values())
    bad = min_epsilon(quad_game, SupportedDistribution.point_mass((0.0, 0.0)))
    assert bad.epsilon > 1e-7
    assert any(e > 1e-7 for e, _ in bad.per_recommendation.values())


def test_epsilon_report_json(quad_game):
    report = min_epsilon(quad_game, SupportedDistribution.point_mass((0.0, 0.0)))
    import json

    doc = json.loads(report.to_json())
    assert doc["epsilon"] == pytest.approx(1.956)
    assert {row["player"] for row in doc["per_recommendation"]} == {0, 1}


# ---------------------------------------------------------------------------
# static discretization


def test_midpoint_grid_rule():
    assert midpoint_grid(1).tolist() == [0.0]
    assert midpoint_grid(4).tolist() == pytest.approx([-0.75, -0.25, 0.25, 0.75])
    with pytest.raises(ValueError):
        midpoint_grid(0)


def test_grid_size_must_be_an_integer(quad_game):
    # 2.5 would give [-0.6, 0.2, 1.0], whose last point is the boundary
    with pytest.raises(ValueError, match="integer"):
        midpoint_grid(2.5)
    with pytest.raises(ValueError, match="integer"):
        static_discretization(quad_game, 2.5)
    assert midpoint_grid(np.int64(2)).tolist() == [-0.5, 0.5]


def test_solve_lp_rejects_bad_tolerance():
    # the guard stays: the adaptive loop passes its own tolerance
    for tol in (0.0, -1.0, 0.5, 1e-12):
        with pytest.raises(SolverError, match="tol must lie"):
            solve_lp(np.zeros(2), sp.csr_matrix((1, 2)), 2, tol)


def test_solve_lp_nan_tol_is_a_solver_error():
    # its own process: a nan tolerance that reached HiGHS would kill the
    # interpreter instead of raising
    code = """
import numpy as np, scipy.sparse as sp
from polyce.conic import SolverError
from polyce.finite_ce import solve_lp
try:
    solve_lp(np.zeros(2), sp.csr_matrix((1, 2)), 2, float("nan"))
except SolverError as exc:
    print(exc)
"""
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "tol must lie in [1e-10, 1e-2]\n"


def test_static_forced_point_mass(quad_game):
    dist, report = static_discretization(quad_game, 1)
    assert dist.probs[0, 0] == pytest.approx(1.0)
    assert report.epsilon == pytest.approx(1.956, abs=1e-9)


def test_static_constant_game_has_zero_epsilon():
    const = PolynomialGame(
        (MultiPoly.constant(2, 3.0), MultiPoly.constant(2, -1.0)), ("x", "y")
    )
    for d in (1, 3):
        _, report = static_discretization(const, d)
        assert report.epsilon == pytest.approx(0.0, abs=1e-12)


def test_static_epsilon_agrees_with_dense_oracle(quad_game):
    from polyce.games import deviation_gain_poly

    dist, report = static_discretization(quad_game, 5)
    oracle_eps = 0.0
    for i in range(2):
        marginal = dist.marginal(i)
        total = 0.0
        for idx, s in enumerate(dist.grids[i]):
            if marginal[idx] <= 1e-12:
                continue
            g = deviation_gain_poly(quad_game, i, dist, float(s))
            total += max(0.0, dense_max_on_interval(g.univariate_coeffs())[1])
        oracle_eps = max(oracle_eps, total)
    assert report.epsilon == pytest.approx(oracle_eps, abs=1e-5)


def test_static_epsilon_decays(quad_game):
    eps = [static_discretization(quad_game, d)[1].epsilon for d in (2, 4, 8)]
    assert eps[0] > eps[1] > eps[2] > 0
