import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyce.finite_ce import max_ce_violation, min_epsilon
from polyce.games import (
    FiniteGame,
    GameFormatError,
    SupportedDistribution,
    deviation_gain_poly,
    eval_utility,
    expected_utilities,
    gain_coeffs,
    parse_distribution,
    parse_game,
    player_names,
    random_polynomial_game,
    sample_game,
    serialize_distribution,
    serialize_game,
)
from oracles import deviation_gain_at, max_single_deviation_gain


def test_eval_at_corner_sums_coefficients(quad_game):
    # at (1,1) the utility is just the sum of its six coefficients
    assert eval_utility(quad_game, 0, (1.0, 1.0)) == pytest.approx(
        0.596 + 2.072 - 0.394 + 1.360 - 1.200 + 0.554, abs=1e-12
    )
    assert eval_utility(quad_game, 1, (1.0, 1.0)) == pytest.approx(
        -0.108 + 1.918 - 1.044 - 1.232 + 0.842 - 1.886, abs=1e-12
    )


def test_eval_common_interest_corner(emb_game):
    # both (1-x^2) and (1-y^2) factors vanish at the corner
    assert eval_utility(emb_game, 0, (-1.0, -1.0)) == 0.0


def test_eval_rejects_bad_points(quad_game):
    with pytest.raises(GameFormatError, match="coordinates"):
        eval_utility(quad_game, 0, (0.0,))
    with pytest.raises(GameFormatError, match="outside"):
        eval_utility(quad_game, 0, (1.5, 0.0))


def test_eval_rejects_a_nan_coordinate(quad_game):
    with pytest.raises(GameFormatError, match="outside"):
        eval_utility(quad_game, 0, (float("nan"), 0.0))


def test_deviation_gain_point_mass_origin(quad_game):
    # substituting y=0 into u_x and subtracting u_x(0,0) leaves 0.596t^2+1.36t
    dist = SupportedDistribution.point_mass((0.0, 0.0))
    g = deviation_gain_poly(quad_game, 0, dist, 0.0)
    assert g.terms == pytest.approx({(2,): 0.596, (1,): 1.360})


def test_deviation_gain_common_interest_corner(emb_game):
    # u_x(t,-1) = 2(1-t^2) and u_x(-1,-1) = 0
    dist = SupportedDistribution.point_mass((-1.0, -1.0))
    g = deviation_gain_poly(emb_game, 0, dist, -1.0)
    assert g.terms == pytest.approx({(0,): 2.0, (2,): -2.0})


def test_deviation_gain_unknown_strategy(quad_game):
    dist = SupportedDistribution.point_mass((0.0, 0.0))
    with pytest.raises(GameFormatError, match="not in grid"):
        deviation_gain_poly(quad_game, 0, dist, 0.5)


def test_deviation_gain_rejects_a_nan_strategy(quad_game):
    dist = SupportedDistribution.point_mass((0.0, 0.0))
    with pytest.raises(GameFormatError, match="not in grid"):
        deviation_gain_poly(quad_game, 0, dist, float("nan"))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_deviation_gain_vanishes_at_own_recommendation(seed):
    game = random_polynomial_game(2, 3, seed)
    rng = np.random.default_rng(seed + 1)
    grids = [np.sort(rng.uniform(-1, 1, 3)), np.sort(rng.uniform(-1, 1, 2))]
    probs = rng.random((3, 2))
    dist = SupportedDistribution.from_solver(grids, probs / probs.sum())
    for i in range(2):
        for s in dist.grids[i]:
            g = deviation_gain_poly(game, i, dist, float(s))
            assert abs(g((float(s),))) < 1e-12


def test_deviation_gain_matches_term_by_term_sum(quad_game):
    rng = np.random.default_rng(3)
    grids = [np.array([-0.7, 0.1, 0.9]), np.array([-0.4, 0.6])]
    probs = rng.random((3, 2))
    dist = SupportedDistribution.from_solver(grids, probs / probs.sum())
    for i in range(2):
        for s in dist.grids[i]:
            g = deviation_gain_poly(quad_game, i, dist, float(s))
            for t in (-1.0, -0.25, 0.5, 1.0):
                explicit = 0.0
                for point, p in dist.support():
                    if point[i] != float(s):
                        continue
                    dev = list(point)
                    dev[i] = t
                    explicit += p * (
                        eval_utility(quad_game, i, dev) - eval_utility(quad_game, i, point)
                    )
                assert g((t,)) == pytest.approx(explicit, abs=1e-10)


def test_sample_game_common_interest_block(emb_game):
    fg = sample_game(emb_game, [[-1.0, 0.0], [-1.0, 0.0]])
    assert fg.payoffs[0].tolist() == [[0.0, 2.0], [2.0, 10.0]]
    assert fg.payoffs[1].tolist() == [[0.0, 2.0], [2.0, 10.0]]


def test_sample_game_singleton(quad_game):
    fg = sample_game(quad_game, [[0.25], [-0.5]])
    assert fg.shape == (1, 1)
    assert fg.payoffs[0][0, 0] == pytest.approx(eval_utility(quad_game, 0, (0.25, -0.5)))


def test_sample_game_matches_eval(quad_game):
    fg = sample_game(quad_game, [[-1.0, 1.0], [-1.0, 1.0]])
    for a, x in enumerate((-1.0, 1.0)):
        for b, y in enumerate((-1.0, 1.0)):
            for i in range(2):
                assert fg.payoffs[i][a, b] == eval_utility(quad_game, i, (x, y))


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_scalar_oracles_for_every_player_of_three(seed, degree):
    # distinct grid sizes per axis, so a misplaced axis in the
    # (own strategy x opponent profile) layout changes the numbers
    game = random_polynomial_game(3, degree, seed)
    rng = np.random.default_rng(seed)
    fg = sample_game(game, [rng.uniform(-1, 1, k) for k in rng.permutation([2, 3, 4])])
    probs = rng.random(fg.shape)
    dist = SupportedDistribution(fg.grids, probs / probs.sum())
    for i in range(3):
        for cell in itertools.product(*(range(k) for k in fg.shape)):
            point = [g[k] for g, k in zip(fg.grids, cell)]
            assert fg.payoffs[i][cell] == eval_utility(game, i, point)
        for s_idx, s in enumerate(fg.grids[i]):
            g = deviation_gain_poly(game, i, dist, float(s))
            for t in (-1.0, -0.3, 0.4, 1.0):
                assert g((t,)) == pytest.approx(
                    deviation_gain_at(game, dist, i, s_idx, t), abs=1e-10
                )
    assert max_ce_violation(fg, dist) == pytest.approx(
        max_single_deviation_gain(fg, dist), abs=1e-12
    )


def test_sample_game_rejects_empty_grid(quad_game):
    with pytest.raises(GameFormatError, match="empty"):
        sample_game(quad_game, [[], [0.0]])


def test_distribution_rejects_an_empty_grid():
    with pytest.raises(GameFormatError, match="empty strategy grid"):
        SupportedDistribution((np.array([0.0]), np.array([])), np.zeros((1, 0)))


def test_serialize_parse_roundtrip(quad_game, emb_game):
    for game in (quad_game, emb_game):
        text = serialize_game(game)
        back = parse_game(text)
        assert back.player_names == game.player_names
        for u1, u2 in zip(back.utilities, game.utilities):
            assert u1.terms == u2.terms
        assert serialize_game(back) == text


def test_parse_embedded_eval_origin(emb_game):
    back = parse_game(serialize_game(emb_game))
    assert eval_utility(back, 0, (0.0, 0.0)) == pytest.approx(10.0)


def test_parse_rejects_wrong_exponent_arity():
    doc = {
        "players": ["x", "y"],
        "utilities": [
            {"terms": [{"exp": [1, 0, 2], "coef": 1.0}]},
            {"terms": []},
        ],
    }
    with pytest.raises(GameFormatError, match="exponents"):
        parse_game(json.dumps(doc))


def test_parse_rejects_non_finite_coefficient():
    text = '{"players": ["x"], "utilities": [{"terms": [{"exp": [1], "coef": NaN}]}]}'
    with pytest.raises(GameFormatError, match="non-finite"):
        parse_game(text)


def test_parse_rejects_malformed_documents():
    with pytest.raises(GameFormatError, match="JSON"):
        parse_game("{")
    with pytest.raises(GameFormatError, match="players"):
        parse_game('{"utilities": []}')
    with pytest.raises(GameFormatError, match="expected 2"):
        parse_game('{"players": ["x", "y"], "utilities": [{"terms": []}]}')


@pytest.mark.parametrize("text, message", [
    ('{"players": [], "utilities": []}', "'players' must be a nonempty list"),
    ('{"players": ["x"], "utilities": 5}', "expected 1 utilities"),
    ('{"players": ["x"], "utilities": [[1]]}', "utility 0 must be an object"),
    ('{"players": ["x"], "utilities": [{"terms": 7}]}', "'terms' list"),
    ('{"players": ["x"], "utilities": [{"terms": [5]}]}', "not an object"),
    ('{"players": ["x"], "utilities": [{"terms": [{"exp": [true], "coef": 1}]}]}', "bad exponent"),
    ('{"players": ["x"], "utilities": [{"terms": [{"exp": [1.0], "coef": 1}]}]}', "bad exponent"),
    ('{"players": ["x"], "utilities": [{"terms": [{"exp": [1], "coef": true}]}]}', "coefficient"),
    ('{"players": ["x"], "utilities": [{"terms": [{"exp": [1], "coef": "2"}]}]}', "coefficient"),
])
def test_parse_game_rejects_wrong_json_types(text, message):
    with pytest.raises(GameFormatError, match=message):
        parse_game(text)


@pytest.mark.parametrize("text, message", [
    ("{", "not valid JSON"),
    ("5", "must have 'grids' and 'probs'"),
    ('{"grids": 3, "probs": 1}', "'grids' must be a nonempty list"),
    ('{"grids": [], "probs": 1}', "'grids' must be a nonempty list"),
    # an empty grid is rejected by _check_points: "empty strategy grid: ..."
    ('{"grids": [[]], "probs": []}', "nonempty number lists"),
    ('{"grids": [[[0]]], "probs": [1]}', "nonempty number lists"),
    ('{"grids": [[true]], "probs": [1]}', "finite numbers"),
    ('{"grids": [[NaN]], "probs": [1]}', "finite numbers"),
    ('{"grids": [[0]], "probs": [true]}', "finite numbers"),
    ('{"grids": [[0]], "probs": ["1"]}', "finite numbers"),
    ('{"grids": [[0]], "probs": [1' + "0" * 400 + ']}', "finite numbers"),
    ('{"grids": [[0], [1]], "probs": [[1, 2], 3]}', "not a rectangular array"),
    ('{"grids": [[0], [1]], "probs": [1]}', "shape does not match"),
    # the probabilities are taken as written: no rescaling, no clipping
    ('{"grids": [[1.0], [1.0]], "probs": [[0.6]]}', "sum to 0.6, not 1"),
    ('{"grids": [[0.0, 0.5], [0.0]], "probs": [[1.0000009], [-9e-7]]}', "nonnegative"),
])
def test_parse_distribution_rejects_wrong_json_types(text, message):
    with pytest.raises(GameFormatError, match=message):
        parse_distribution(text)


def test_distribution_validation():
    with pytest.raises(GameFormatError, match="sum"):
        SupportedDistribution((np.array([0.0]),), np.array([0.5]))
    with pytest.raises(GameFormatError, match="negative"):
        SupportedDistribution((np.array([0.0, 1.0]),), np.array([1.5, -0.5]))


def test_distribution_rejects_nan_probability():
    g = np.array([-1.0, 1.0])
    probs = np.array([[0.5, np.nan], [0.25, 0.25]])
    with pytest.raises(GameFormatError, match="nonnegative numbers, got nan"):
        SupportedDistribution((g, g), probs)


@pytest.mark.parametrize("point", [np.nan, np.inf, 2.0])
def test_distribution_rejects_points_outside_the_square(point):
    with pytest.raises(GameFormatError, match="grid points must be numbers in"):
        SupportedDistribution((np.array([point]), np.array([0.0])), np.ones((1, 1)))


@pytest.mark.parametrize("grids, payoffs, message", [
    ([[-1.0, np.nan], [-1.0, 1.0]], [np.eye(2), np.eye(2)], r"grid points must be numbers .*nan"),
    ([[-1.0, 1.0], [-1.0, 1.0]], [np.eye(2), [[1.0, np.nan], [0.0, 1.0]]], "payoffs must be finite"),
    ([[-1.0, 1.0], [-1.0, 1.0]], [np.eye(2)], "1 payoff tensors for 2 players"),
    ([[0.0], []], [np.zeros((1, 0))] * 2, "empty strategy grid"),
])
def test_finite_game_rejects_non_finite_or_missing_data(grids, payoffs, message):
    with pytest.raises(GameFormatError, match=message):
        FiniteGame(tuple(np.array(g) for g in grids), tuple(np.array(p) for p in payoffs))


def test_distribution_roundtrip_and_merge():
    grids = [np.array([-0.5, -0.5 + 1e-12, 0.5]), np.array([0.0, 1.0])]
    probs = np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]])
    text = json.dumps({"grids": [g.tolist() for g in grids], "probs": probs.tolist()})
    dist = parse_distribution(text)
    # the two near-identical points merged and pooled their mass
    assert dist.grids[0].tolist() == [-0.5, 0.5]
    assert dist.probs[0].tolist() == pytest.approx([0.4, 0.3])
    again = parse_distribution(serialize_distribution(dist))
    assert np.allclose(again.probs, dist.probs)


def test_distribution_moment():
    dist = SupportedDistribution(
        (np.array([-1.0, 1.0]),), np.array([0.5, 0.5])
    )
    assert dist.moment((1,)) == pytest.approx(0.0)
    assert dist.moment((2,)) == pytest.approx(1.0)


def test_expected_utilities(quad_game):
    dist = SupportedDistribution.point_mass((1.0, 1.0))
    u = expected_utilities(quad_game, dist)
    assert u[0] == pytest.approx(2.988)
    assert u[1] == pytest.approx(-1.510)


@pytest.mark.parametrize("point", [(0.5,), (0.5, 0.5, 0.5)])
def test_distribution_of_the_wrong_arity_is_a_format_error(quad_game, point):
    dist = SupportedDistribution.point_mass(point)
    for call in (lambda: min_epsilon(quad_game, dist), lambda: gain_coeffs(quad_game, 0, dist),
                 lambda: expected_utilities(quad_game, dist)):
        with pytest.raises(GameFormatError, match="one grid per player required"):
            call()


def test_player_names_past_the_defaults():
    assert player_names(3) == ("x", "y", "z")
    assert player_names(4) == ("s0", "s1", "s2", "s3")


def test_random_game_deterministic_and_bounded_degree():
    g1 = random_polynomial_game(3, 4, 123)
    g2 = random_polynomial_game(3, 4, 123)
    for u1, u2 in zip(g1.utilities, g2.utilities):
        assert u1.terms == u2.terms
    assert all(u.total_degree() <= 4 for u in g1.utilities)
    assert serialize_game(g1) == serialize_game(g2)
    assert serialize_game(random_polynomial_game(3, 4, 124)) != serialize_game(g1)
