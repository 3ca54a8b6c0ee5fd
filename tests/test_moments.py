import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyce
from polyce import moments
from polyce.adaptive import run_adaptive
from polyce.games import (
    PolynomialGame,
    SupportedDistribution,
    eval_utility,
    gain_coeffs,
    random_polynomial_game,
)
from polyce.moments import (
    PayoffBox,
    RelaxationOrder,
    check_moment_membership,
    deviation_margin,
    moment_validity_margin,
    payoff_bounds,
    payoff_region_sketch,
    required_half_order,
    separating_test_polynomial,
)
from polyce.polynomials import MultiPoly, grlex_monomials, maximize_univariate
from polyce.sos import MomentVector

from oracles import deviation_gain_at, sdp_deviation_margin

UNIQUE_PAYOFF = (
    0.596 + 2.072 - 0.394 + 1.360 - 1.200 + 0.554,
    -0.108 + 1.918 - 1.044 - 1.232 + 0.842 - 1.886,
)


def _point_moments(point, order):
    return MomentVector.from_measure(SupportedDistribution.point_mass(point), len(point), order)


def test_order_bookkeeping(quad_game):
    # degree-2 utilities: entries of the order-d matrices reach degree 2d + 2
    assert required_half_order(quad_game, 0) == 1
    assert required_half_order(quad_game, 2) == 3
    order = RelaxationOrder.auto(quad_game, 1)
    assert (order.d, order.r) == (1, 2)
    with pytest.raises(ValueError, match="express"):
        RelaxationOrder.auto(quad_game, 2, r=2)
    with pytest.raises(ValueError):
        RelaxationOrder(d=-1, r=1)


def test_order_must_be_integers(quad_game):
    # d = 1.5 would give RelaxationOrder(d=1.5, r=3.0)
    with pytest.raises(ValueError, match="integers"):
        RelaxationOrder.auto(quad_game, 1.5)
    with pytest.raises(ValueError, match="integers"):
        RelaxationOrder(d=1, r=2.0)
    assert RelaxationOrder(np.int64(1), np.int64(2)) == RelaxationOrder(1, 2)


def test_payoff_box_validation():
    with pytest.raises(ValueError):
        PayoffBox(((1.0, 0.0),))
    box = PayoffBox(((0.0, 1.0), (-2.0, -1.0)))
    assert box.contains((0.5, -1.5))
    assert not box.contains((2.0, -1.5))
    assert PayoffBox(((0.2, 0.8), (-1.9, -1.2))).nests_inside(box, tol=1e-9)


@pytest.mark.parametrize("bounds", [((float("nan"), 1.0),), ((0.0, float("nan")),)])
def test_payoff_box_rejects_nan(bounds):
    with pytest.raises(ValueError, match="bad box"):
        PayoffBox(bounds)


def test_second_order_relaxation_is_a_point(quad_game):
    box = payoff_bounds(quad_game, RelaxationOrder.auto(quad_game, 2))
    for i in range(2):
        assert box.spread(i) <= 1e-3
        lo, hi = box.bounds[i]
        assert (lo + hi) / 2 == pytest.approx(UNIQUE_PAYOFF[i], abs=1e-3)


def test_boxes_nest_and_contain_the_equilibrium_payoff(quad_game):
    boxes = [payoff_bounds(quad_game, RelaxationOrder.auto(quad_game, d)) for d in (0, 1, 2)]
    for box in boxes:
        assert box.contains(UNIQUE_PAYOFF, tol=1e-5)
    assert boxes[1].nests_inside(boxes[0], tol=1e-5)
    assert boxes[2].nests_inside(boxes[1], tol=1e-5)
    # the low-order relaxation is strictly coarser: proper outer set
    assert boxes[0].spread(0) > 1e-2 > boxes[2].spread(0)


def test_boxes_agree_across_blas_thread_counts():
    # results must agree across BLAS thread counts to a stated tolerance;
    # quad at d = 2 (moves 3.4e-6) is left out for its 12 s at two threads
    code = (
        "import json\n"
        "from polyce.demo_games import quadratic_demo_game\n"
        "from polyce.games import random_polynomial_game\n"
        "from polyce.moments import RelaxationOrder, payoff_bounds\n"
        "games = [quadratic_demo_game(), random_polynomial_game(3, 2, 9)]\n"
        "print(json.dumps([payoff_bounds(g, RelaxationOrder.auto(g, 1)).bounds for g in games]))\n"
    )
    path = os.pathsep.join([str(Path(polyce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    runs = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout))
    assert [np.shape(box) for box in runs[0]] == [(2, 2), (3, 2)]
    for one, two in zip(*runs):
        assert np.abs(np.subtract(one, two)).max() <= 1e-5


def test_constant_game_box_is_the_constant():
    const = PolynomialGame(
        (MultiPoly.constant(2, 3.0), MultiPoly.constant(2, -1.0)), ("x", "y")
    )
    box = payoff_bounds(const, RelaxationOrder(d=0, r=1))
    assert box.bounds[0] == pytest.approx((3.0, 3.0), abs=1e-6)
    assert box.bounds[1] == pytest.approx((-1.0, -1.0), abs=1e-6)


def test_membership_of_the_unique_equilibrium(quad_game):
    order = RelaxationOrder.auto(quad_game, 2)
    mv = _point_moments((1.0, 1.0), 2 * order.r)
    assert check_moment_membership(quad_game, order, mv)


def test_membership_refutes_non_equilibrium(quad_game):
    order = RelaxationOrder.auto(quad_game, 1)
    mv = _point_moments((0.0, 0.0), 2 * order.r)
    assert not check_moment_membership(quad_game, order, mv)
    # the deviation margin equals the best deviation gain for point masses
    assert deviation_margin(quad_game, order, mv) == pytest.approx(1.956, abs=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.integers(1, 4), st.integers(0, 2**16), st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))))
def test_deviation_margin_is_the_best_gain_over_the_players(case):
    # for a point mass at d = 0 each player's matrix is minus the gain
    # polynomial, so the one shared lam is the largest gain of any player
    degree, seed, point = case
    game = random_polynomial_game(len(point), degree, seed)
    order = RelaxationOrder.auto(game, 0)
    dist = SupportedDistribution.point_mass(point)
    best = max(maximize_univariate(gain_coeffs(game, i, dist)[0])[1] for i in range(len(point)))
    mv = MomentVector.from_measure(dist, len(point), 2 * order.r)
    assert deviation_margin(game, order, mv) == pytest.approx(best, abs=1e-6)


@st.composite
def _finite_measures(draw):
    """A random game of 2-3 players and a measure on at most 3 points per
    player, which may repeat or sit on -1, 0 and 1."""
    n = draw(st.integers(2, 3))
    game = random_polynomial_game(n, draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))
    grids = tuple(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))) for _ in range(n))
    shape = tuple(len(g) for g in grids)
    size = int(np.prod(shape))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    return game, SupportedDistribution(grids, (weights / weights.sum()).reshape(shape))


@settings(max_examples=25, deadline=None)
@given(_finite_measures(), st.integers(0, 2))
def test_deviation_margin_matches_the_sdp_and_its_own_witness(case, d):
    game, dist = case
    order = RelaxationOrder.auto(game, d)
    mv = MomentVector.from_measure(dist, game.num_players, 2 * order.r)
    assert deviation_margin(game, order, mv) == pytest.approx(sdp_deviation_margin(game, order, mv), abs=1e-6)
    # the witness (player, t, v) has v'G(t)v equal to the margin, where
    # v'G(t)v is the gain of deviating to t weighted by p(s)^2, p = sum v_k s^k
    margin, player, t, v = moments._worst_deviation(game, order, mv)
    weighted = sum(np.polynomial.polynomial.polyval(s, v) ** 2 * deviation_gain_at(game, dist, player, k, t)
                   for k, s in enumerate(dist.grids[player]))
    assert weighted == pytest.approx(margin, abs=1e-9)


def test_margin_inside_the_interval_past_a_null_direction():
    # at a point mass the gain matrix is g(t) v v' with v = (1, s, .., s^d),
    # so each direction orthogonal to v is an eigenvalue 0 at every t; here
    # g(t) = t - t^3 is 0 at t = -1, 0, 1 and largest, 2/(3 sqrt 3), at 1/sqrt 3
    game = PolynomialGame(
        (MultiPoly(2, {(1, 0): 1.0, (3, 0): -1.0}), MultiPoly(2, {(0, 1): 1.0})), ("x", "y"))
    for d in (1, 2):
        order = RelaxationOrder.auto(game, d)
        mv = _point_moments((0.0, 1.0), 2 * order.r)
        assert deviation_margin(game, order, mv) == pytest.approx(2 / (3 * np.sqrt(3)), abs=1e-12)
        player, t0, _ = separating_test_polynomial(game, order, mv)
        assert (player, t0) == (0, pytest.approx(1 / np.sqrt(3), abs=1e-6))


def test_membership_on_constant_game_accepts_anything():
    const = PolynomialGame(
        (MultiPoly.constant(2, 1.0), MultiPoly.constant(2, 1.0)), ("x", "y")
    )
    order = RelaxationOrder(d=1, r=2)
    grid = np.array([-0.5, 0.5])
    uniform = SupportedDistribution((grid, grid), np.full((2, 2), 0.25))
    mv = MomentVector.from_measure(uniform, 2, 2 * order.r)
    assert check_moment_membership(const, order, mv)


def test_membership_input_validation(quad_game):
    order = RelaxationOrder.auto(quad_game, 1)
    with pytest.raises(ValueError, match="arity"):
        check_moment_membership(quad_game, order, _point_moments((1.0,), 2 * order.r))
    with pytest.raises(ValueError, match="order"):
        check_moment_membership(quad_game, order, _point_moments((1.0, 1.0), 2))


@pytest.mark.parametrize("read", [deviation_margin, separating_test_polynomial])
@pytest.mark.parametrize("point, mv_order, match", [((0.0, 0.0), 2, "order"), ((0.0, 0.0, 0.0), 4, "arity")])
def test_deviation_readers_reject_a_moment_vector_that_does_not_fit(quad_game, read, point, mv_order, match):
    # order d = 1 reads moments up to order 2r = 4 of the game's 2 variables
    order = RelaxationOrder.auto(quad_game, 1)
    with pytest.raises(ValueError, match=match):
        read(quad_game, order, _point_moments(point, mv_order))


def test_moment_validity_margin_rejects_too_low_an_order():
    with pytest.raises(ValueError, match="order 2 < required 4"):
        moment_validity_margin(_point_moments((0.0, 0.0), 2), 2)


def test_separation_and_membership_share_one_threshold(quad_game):
    # scaled by 1e-7 the point mass (0, 0) has deviation margin 1.956e-7, a
    # violation within MEMBERSHIP_SLACK: membership holds, so no witness
    tiny = PolynomialGame(tuple(1e-7 * u for u in quad_game.utilities), quad_game.player_names)
    order = RelaxationOrder.auto(tiny, 1)
    mv = _point_moments((0.0, 0.0), 2 * order.r)
    assert deviation_margin(tiny, order, mv) == pytest.approx(1.956e-7, rel=1e-5)
    assert check_moment_membership(tiny, order, mv)
    assert separating_test_polynomial(tiny, order, mv) is None


def test_membership_refutes_an_invalid_moment_vector(quad_game):
    # mu_20 = 1.5 is no second moment of a measure on [-1,1]^2: the
    # localizing matrix of 1 - s_0^2 is [1 - 1.5]
    values = dict.fromkeys(grlex_monomials(2, 2), 0.0)
    values[(0, 0)], values[(2, 0)] = 1.0, 1.5
    mv = MomentVector(2, 2, values)
    assert moment_validity_margin(mv, 1) == pytest.approx(-0.5)
    assert not check_moment_membership(quad_game, RelaxationOrder(d=0, r=1), mv)


def test_moment_validity_margin_flags_bad_vectors():
    good = _point_moments((0.5,), 4)
    assert moment_validity_margin(good, 2) >= -1e-12
    bad = MomentVector(1, 2, {(0,): 1.0, (1,): 0.0, (2,): 2.0})
    assert moment_validity_margin(bad, 1) < -0.5


def test_separating_polynomial_witnesses_violation(quad_game):
    order = RelaxationOrder.auto(quad_game, 1)
    dist = SupportedDistribution.point_mass((0.0, 0.0))
    mv = MomentVector.from_measure(dist, 2, 2 * order.r)
    found = separating_test_polynomial(quad_game, order, mv)
    assert found is not None
    player, t0, coeffs = found
    # direct integration: int p(s_i)^2 [u_i(t0, s_-i) - u_i(s)] dpi > 0
    total = 0.0
    for point, prob in dist.support():
        dev = list(point)
        dev[player] = t0
        p_val = float(np.polynomial.polynomial.polyval(point[player], coeffs))
        total += prob * p_val**2 * (
            eval_utility(quad_game, player, dev) - eval_utility(quad_game, player, point)
        )
    assert total > 1e-6


def test_no_separation_for_true_equilibrium(quad_game):
    order = RelaxationOrder.auto(quad_game, 2)
    mv = _point_moments((1.0, 1.0), 2 * order.r)
    assert separating_test_polynomial(quad_game, order, mv) is None


def test_region_axis_directions_reproduce_bounds(quad_game):
    order = RelaxationOrder.auto(quad_game, 1)
    box = payoff_bounds(quad_game, order)
    pts = payoff_region_sketch(quad_game, order, 4)
    # directions at angles 0, 90, 180, 270 optimize exactly the box faces
    by_dir = {tuple(np.round(d, 9)): p for d, p in pts}
    assert by_dir[(1.0, 0.0)][0] == pytest.approx(box.bounds[0][1], abs=1e-6)
    assert by_dir[(0.0, 1.0)][1] == pytest.approx(box.bounds[1][1], abs=1e-6)
    assert by_dir[(-1.0, 0.0)][0] == pytest.approx(box.bounds[0][0], abs=1e-6)
    assert by_dir[(0.0, -1.0)][1] == pytest.approx(box.bounds[1][0], abs=1e-6)


def test_region_collapses_at_second_order(quad_game):
    pts = payoff_region_sketch(quad_game, RelaxationOrder.auto(quad_game, 2), 8)
    for _, point in pts:
        assert point == pytest.approx(UNIQUE_PAYOFF, abs=1e-3)


def test_region_nesting_via_support_functions(quad_game):
    low = payoff_region_sketch(quad_game, RelaxationOrder.auto(quad_game, 0), 8)
    high = payoff_region_sketch(quad_game, RelaxationOrder.auto(quad_game, 2), 8)
    for (d_lo, p_lo), (_, p_hi) in zip(low, high):
        assert float(d_lo @ p_lo) >= float(d_lo @ p_hi) - 1e-5


def test_payoff_queries_build_the_relaxation_once(quad_game, monkeypatch):
    builds = []
    real = moments.build_relaxation
    monkeypatch.setattr(moments, "build_relaxation", lambda *a: builds.append(a) or real(*a))
    order = RelaxationOrder.auto(quad_game, 0)
    payoff_bounds(quad_game, order)
    assert len(builds) == 1
    payoff_region_sketch(quad_game, order, 3)
    assert len(builds) == 2


def test_three_player_region_sketch():
    # three players take random unit directions, drawn from the seed
    game = random_polynomial_game(3, 2, 9)
    order = RelaxationOrder.auto(game, 0)
    sketch = payoff_region_sketch(game, order, 5, seed=1)
    again = payoff_region_sketch(game, order, 5, seed=1)
    other = payoff_region_sketch(game, order, 5, seed=2)
    dirs = np.array([d for d, _ in sketch])
    points = np.array([p for _, p in sketch])
    assert np.array_equal(dirs, [d for d, _ in again])
    assert np.array_equal(points, [p for _, p in again])
    assert not np.allclose(dirs, [d for d, _ in other])
    assert not np.allclose(points, [p for _, p in other])
    assert np.linalg.norm(dirs, axis=1) == pytest.approx(np.ones(5), abs=1e-12)
    box = payoff_bounds(game, order)
    assert all(box.contains(p, tol=1e-6) for p in points)
    # each point is the support point of its own direction
    for d, p in sketch:
        assert float(d @ p) >= float((points @ d).max()) - 1e-6


def test_region_requires_three_directions(quad_game):
    with pytest.raises(ValueError, match="directions"):
        payoff_region_sketch(quad_game, RelaxationOrder.auto(quad_game, 0), 2)


def test_adaptive_output_is_inside_every_relaxation(emb_game):
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]])
    assert trace.status == "converged"
    order = RelaxationOrder.auto(emb_game, 1)
    mv = MomentVector.from_measure(trace.final.distribution, 2, 2 * order.r)
    assert check_moment_membership(emb_game, order, mv)


def test_three_player_relaxation_runs():
    game = random_polynomial_game(3, 2, 9)
    box0 = payoff_bounds(game, RelaxationOrder.auto(game, 0))
    box1 = payoff_bounds(game, RelaxationOrder.auto(game, 1))
    assert box1.nests_inside(box0, tol=1e-5)
