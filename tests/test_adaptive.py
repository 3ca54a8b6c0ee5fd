import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyce import adaptive
from polyce.adaptive import (
    AdaptiveConfig,
    build_iteration_sdp,
    run_adaptive,
    run_adaptive_finite,
)
from polyce.conic import Status
from polyce.finite_ce import min_epsilon
from polyce.games import (
    FiniteGame,
    GameFormatError,
    SupportedDistribution,
    random_polynomial_game,
    serialize_distribution,
)

from oracles import dense_finite_iteration_value, dense_iteration_value, max_departure_gain


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        AdaptiveConfig(alpha=0.5, beta=0.5)
    AdaptiveConfig(alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="eps_stop"):
        AdaptiveConfig(eps_stop=0.0)
    with pytest.raises(ValueError, match="eps_stop"):
        AdaptiveConfig(eps_stop=float("nan"))


# ---------------------------------------------------------------------------
# single-iteration problems


@pytest.mark.parametrize("mode", [(0.0, False), (0.5, False), (1.0, True)])
@pytest.mark.parametrize("seed", range(12))
def test_iteration_sdp_matches_dense_lp_oracle(seed, mode):
    # in mode (1, True) the SDP keeps its restricted rows at alpha = 1 and
    # the oracle drops them: equal optima show that those rows are implied
    rng = np.random.default_rng(seed)
    game = random_polynomial_game(2, 4, seed)
    grids = [rng.uniform(-1.0, 1.0, size=rng.integers(1, 4)) for _ in range(2)]
    alpha, degenerate = mode
    problem, _ = build_iteration_sdp(game, grids, alpha)
    sol = problem.solve()
    assert sol.status is Status.OPTIMAL
    expected = dense_iteration_value(game, grids, alpha, degenerate)
    assert sol.objective_value == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("grids", [[[], []], [[0.0], []]])
def test_empty_iteration_grid_is_a_format_error(quad_game, grids):
    with pytest.raises(GameFormatError, match="empty strategy grid"):
        build_iteration_sdp(quad_game, grids, 0.0)


def test_nan_initial_point_is_a_format_error(quad_game):
    with pytest.raises(GameFormatError, match=r"grid points must be numbers in \[-1, 1\], got \[nan\]"):
        run_adaptive(quad_game, [[float("nan")], [0.0]])


def test_iteration_sdp_from_corner(emb_game):
    problem, handles = build_iteration_sdp(emb_game, [[-1.0], [-1.0]], 0.0)
    sol = problem.solve()
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-6)
    assert sol.value(handles["pi"][(0, 0)]) == pytest.approx(1.0, abs=1e-6)


def test_iteration_sdp_at_pure_nash(quad_game):
    problem, _ = build_iteration_sdp(quad_game, [[1.0], [1.0]], 0.0)
    sol = problem.solve()
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-7)


def test_iteration_sdp_full_grid_reaches_zero(emb_game):
    grids = [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]
    problem, handles = build_iteration_sdp(emb_game, grids, 0.0)
    sol = problem.solve()
    assert sol.status is Status.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-6)
    probs = np.zeros((3, 3))
    for cell, v in handles["pi"].items():
        probs[cell] = max(sol.value(v), 0.0)
    dist = SupportedDistribution.from_solver(grids, probs)
    # the returned point lies in the optimal set: it is an exact equilibrium
    assert min_epsilon(emb_game, dist).epsilon <= 1e-6


# ---------------------------------------------------------------------------
# the adaptive loop on the demonstration games


def test_adaptive_three_iterations(quad_game):
    trace = run_adaptive(quad_game, [[0.0], [0.0]])
    assert trace.status == "converged"
    assert len(trace.records) == 3
    assert trace.final.epsilon <= 1e-5
    for g in trace.final.grids:
        assert np.allclose(np.sort(g), [0.0, 1.0], atol=1e-4)
    assert trace.records[0].epsilon == pytest.approx(1.956, abs=1e-6)
    assert trace.records[1].epsilon == pytest.approx(1.716, abs=1e-6)


def test_adaptive_corner_start_trace(emb_game):
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]])
    eps = trace.epsilons()
    assert eps[0] == pytest.approx(2.0, abs=1e-6)
    assert eps[1] == pytest.approx(4.0, abs=1e-6)
    assert eps[2] <= 1e-6
    assert [sorted(a) for a in trace.records[1].new_strategies] == [[0.0], [0.0]]
    added = [sorted(a) for a in trace.records[2].new_strategies]
    assert np.allclose(added, [[1.0], [1.0]], atol=1e-6)
    # terminal distribution is an exact equilibrium
    assert trace.final.epsilon_exact <= 1e-6


def test_adaptive_consistency_between_sdp_and_root_finding():
    game = random_polynomial_game(2, 3, 42)
    trace = run_adaptive(game, [[0.0], [0.0]], AdaptiveConfig(max_iter=15))
    for rec in trace.records:
        assert abs(rec.epsilon - rec.epsilon_exact) <= 1e-5 * (1 + abs(rec.epsilon))


def test_adaptive_support_growth():
    game = random_polynomial_game(2, 4, 5)
    trace = run_adaptive(game, [[0.0], [0.0]], AdaptiveConfig(max_iter=12))
    for prev, nxt in zip(trace.records, trace.records[1:]):
        if prev.epsilon > 1e-6:
            assert sum(len(g) for g in nxt.grids) > sum(len(g) for g in prev.grids)


def test_adaptive_grows_on_gains_that_sum_past_eps_stop():
    # player 0 binds with a total gain of 1.2e-6, but each of its two
    # recommendations gains less than eps_stop = 1e-6 on its own
    trace = run_adaptive(random_polynomial_game(2, 4, 10), [[0.0], [0.0]])
    assert trace.status == "converged"
    assert trace.final.epsilon <= 1e-6


def test_adaptive_degenerate_mode_stalls(emb_game):
    cfg = AdaptiveConfig(alpha=1.0, beta=1.0, max_iter=5)
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]], cfg)
    assert trace.status == "stalled"
    assert len(trace.records) == 5
    assert all(e == pytest.approx(2.0, abs=1e-6) for e in trace.epsilons())
    for rec in trace.records[1:]:
        for g in rec.grids:
            assert np.allclose(g, [-1.0, 0.0], atol=1e-9)


def test_adaptive_stalls_when_no_gain_clears_its_share_of_eps_stop(quad_game):
    # from the equilibrium (1, 1) the iteration's epsilon is solver noise
    # (1.8e-8): above eps_stop = 1e-15, yet no gain clears eps_stop / len(recs),
    # so no point is added and the loop (alpha < beta) stops as stalled
    start = [[1.0], [1.0]]
    trace = run_adaptive(quad_game, start, AdaptiveConfig(eps_stop=1e-15))
    assert trace.status == "stalled" and len(trace.records) == 1
    assert trace.records[0].epsilon > 1e-15
    assert run_adaptive(quad_game, start).status == "converged"


def test_trace_json_layout(emb_game):
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]])
    doc = json.loads(trace.to_json(("x", "y")))
    assert doc["status"] == "converged"
    assert [row["k"] for row in doc["iterations"]] == [0, 1, 2]
    assert doc["iterations"][1]["added"] == [[0.0], [0.0]]
    assert "final_distribution" in doc and "probs" in doc["final_distribution"]
    # the final distribution is the document that --dump-dist writes
    assert doc["final_distribution"] == json.loads(serialize_distribution(trace.final.distribution))


# ---------------------------------------------------------------------------
# finite-game variant


def test_finite_report_picks_maximizers_by_the_shared_rule():
    # recommended 0, the one player gains 1 by deviating to -1 and 5e-7 more
    # by deviating to 1: a near tie, so t_star is -1, not the exact argmax
    grid = np.array([-1.0, 0.0, 1.0])
    fg = FiniteGame((grid,), (np.array([1.0, 0.0, 1.0 + 5e-7]),))
    report = adaptive._finite_report(fg, SupportedDistribution.point_mass([0.0]))
    assert report.per_recommendation == {(0, 0.0): (1.0 + 5e-7, -1.0)}
    assert report.near_maximizers == {(0, 0.0): (-1.0, 1.0)}


def test_finite_degenerate_mode_gets_stuck(table3):
    cfg = AdaptiveConfig(alpha=1.0, beta=1.0, max_iter=5)
    trace = run_adaptive_finite(table3, [[-1.0], [-1.0]], cfg)
    assert trace.status == "stalled"
    assert all(e == pytest.approx(1.0, abs=1e-6) for e in trace.epsilons())
    for g in trace.final.grids:
        assert np.allclose(g, [-1.0, 0.0])


def test_stalled_degenerate_loop_does_not_solve_again(table3, emb_game, monkeypatch):
    # records 2-4 of the criterion-3 fixtures repeat record 1 on the same
    # grids, so only the first two iterations solve
    cfg = AdaptiveConfig(alpha=1.0, beta=1.0, max_iter=5)
    for name, run, game in (("_solve_finite_iteration", run_adaptive_finite, table3),
                            ("_solve_iteration", run_adaptive, emb_game)):
        solves = []
        real = getattr(adaptive, name)
        monkeypatch.setattr(adaptive, name, lambda *a, real=real: solves.append(a) or real(*a))
        trace = run(game, [[-1.0], [-1.0]], cfg)
        assert trace.status == "stalled" and len(trace.records) == 5
        assert len(solves) == 2
        for rec in trace.records[2:]:
            assert rec.new_strategies == ((), ())
            assert rec.epsilon == trace.records[1].epsilon
            assert rec.distribution is trace.records[1].distribution
    with pytest.raises(GameFormatError, match="empty strategy grid"):
        run_adaptive(emb_game, [[], []], cfg)


def test_finite_nan_initial_point_is_a_format_error(table3):
    with pytest.raises(GameFormatError, match=r"grid points must be numbers in \[-1, 1\], got \[nan\]"):
        run_adaptive_finite(table3, [[float("nan")], [float("nan")]])


@pytest.mark.parametrize("subsets", [[[-1.0]], [[-1.0], [-1.0], [0.0]]])
def test_finite_initial_subsets_need_one_per_player(table3, subsets):
    with pytest.raises(GameFormatError, match="one grid per player required"):
        run_adaptive_finite(table3, subsets)


@pytest.mark.parametrize("subsets", [[[], []], [[0.0], []]])
def test_finite_empty_initial_subset_is_a_format_error(subsets):
    fg = FiniteGame((np.array([-1.0, 1.0]),) * 2, (np.eye(2), np.eye(2)))
    with pytest.raises(GameFormatError, match="empty strategy grid"):
        run_adaptive_finite(fg, subsets)


def test_finite_restricted_condition_restores_convergence(table3):
    trace = run_adaptive_finite(table3, [[-1.0], [-1.0]], AdaptiveConfig(max_iter=5))
    assert trace.status == "converged"
    assert len(trace.records) <= 5
    assert trace.final.epsilon <= 1e-6
    assert max_departure_gain(table3, trace.final.distribution) <= 1e-6


def test_finite_start_at_pure_nash(table3):
    trace = run_adaptive_finite(table3, [[0.0], [1.0]], AdaptiveConfig(max_iter=5))
    assert trace.status == "converged"
    assert len(trace.records) == 1
    assert trace.final.epsilon <= 1e-6


@given(
    st.integers(0, 10_000),
    st.one_of(st.permutations([3, 4]), st.permutations([2, 3, 4])),
    st.sampled_from([(0.0, False), (0.5, False), (1.0, True)]),
)
@settings(max_examples=30, deadline=None)
def test_finite_iteration_lp_matches_dense_oracle(seed, shape, mode):
    # distinct strategy-set sizes per axis, so a misplaced opponent axis in
    # the deviation rows changes the LP
    rng = np.random.default_rng(seed)
    grids = tuple(np.linspace(-1, 1, k) for k in shape)
    fg = FiniteGame(grids, tuple(rng.integers(0, 8, size=tuple(shape)).astype(float) for _ in shape))
    subsets = [sorted(rng.choice(k, size=rng.integers(1, k + 1), replace=False)) for k in shape]
    alpha, degenerate = mode
    config = AdaptiveConfig(alpha=alpha, beta=1.0, max_iter=1)
    trace = run_adaptive_finite(fg, [g[idx] for g, idx in zip(grids, subsets)], config)
    expected = dense_finite_iteration_value(fg, subsets, alpha, degenerate)
    assert trace.records[0].epsilon == pytest.approx(expected, abs=1e-7)
