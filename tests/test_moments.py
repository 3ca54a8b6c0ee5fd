import numpy as np
import pytest

from polyce import moments
from polyce.adaptive import run_adaptive
from polyce.games import (
    PolynomialGame,
    SupportedDistribution,
    eval_utility,
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
from polyce.polynomials import MultiPoly
from polyce.sos import MomentVector

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


def test_payoff_box_validation():
    with pytest.raises(ValueError):
        PayoffBox(((1.0, 0.0),))
    box = PayoffBox(((0.0, 1.0), (-2.0, -1.0)))
    assert box.contains((0.5, -1.5))
    assert not box.contains((2.0, -1.5))
    assert PayoffBox(((0.2, 0.8), (-1.9, -1.2))).nests_inside(box, tol=1e-9)


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


def test_region_requires_three_directions(quad_game):
    with pytest.raises(ValueError, match="directions"):
        payoff_region_sketch(quad_game, RelaxationOrder.auto(quad_game, 0), 2)


def test_adaptive_output_is_inside_every_relaxation(emb_game):
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]])
    assert trace.status == "converged"
    order = RelaxationOrder.auto(emb_game, 1)
    mv = MomentVector.from_measure(trace.final.distribution, 2, 2 * order.r)
    assert check_moment_membership(emb_game, order, mv, slack=1e-4)


def test_three_player_relaxation_runs():
    game = random_polynomial_game(3, 2, 9)
    box0 = payoff_bounds(game, RelaxationOrder.auto(game, 0))
    box1 = payoff_bounds(game, RelaxationOrder.auto(game, 1))
    assert box1.nests_inside(box0, tol=1e-5)
