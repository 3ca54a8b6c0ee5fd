import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyce.games import conditional_coeffs
from polyce.polynomials import (
    NEAR_TOL,
    MultiPoly,
    PolynomialError,
    _polish_roots,
    maximize_univariate,
    merge_points,
    pick_maximizers,
    poly_eval,
)

from oracles import dense_max_on_interval, polish_root


def test_term_map_normalization():
    p = MultiPoly(2, {(1, 0): 1.0, (0, 0): 0.0, (1, 1): 2.0})
    assert (0, 0) not in p.terms
    assert p.terms == {(1, 0): 1.0, (1, 1): 2.0}


def test_arithmetic_expansion():
    x = MultiPoly.variable(1, 0)
    sq = (x + 1.0) * (x + 1.0)
    assert sq.terms == {(0,): 1.0, (1,): 2.0, (2,): 1.0}
    assert (sq - sq).terms == {}


@pytest.mark.parametrize(
    "terms,err",
    [
        ({(1,): float("nan")}, "non-finite"),
        ({(1, 2): 1.0}, "length"),
        ({(-1,): 1.0}, "negative"),
    ],
)
def test_bad_terms_rejected(terms, err):
    with pytest.raises(PolynomialError, match=err):
        MultiPoly(1, terms)


def test_restrict_matches_direct_eval():
    p = MultiPoly(3, {(2, 1, 0): 1.5, (0, 0, 3): -2.0, (1, 1, 1): 0.25})
    coeffs = conditional_coeffs(p, 0, [None, [0.5], [-0.75]]).ravel()
    for t in (-1.0, -0.3, 0.0, 0.8):
        assert poly_eval(coeffs, t) == pytest.approx(p((t, 0.5, -0.75)), abs=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_maximize_dominates_dense_samples(coeffs):
    t_star, value, maximizers = maximize_univariate(coeffs)
    ts = np.linspace(-1, 1, 501)
    assert value >= poly_eval(coeffs, ts).max() - 1e-9
    # t_star is the smallest maximizer within the near-optimality tolerance
    assert poly_eval(coeffs, t_star) >= value - 1e-6
    assert t_star == maximizers[0]


def test_maximize_monotone():
    assert maximize_univariate([0.0, 1.0])[:2] == (1.0, 1.0)


def test_maximize_interior_peak():
    t_star, value, maximizers = maximize_univariate([2.0, 0.0, -2.0])
    assert (t_star, value) == (0.0, 2.0)
    assert maximizers == [0.0]


def test_maximize_vertex_outside_interval():
    # vertex of 6t - 2t^2 sits at t=1.5; the boundary wins
    t_star, value, _ = maximize_univariate([0.0, 6.0, -2.0])
    assert (t_star, value) == (1.0, 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maximize_rejects_non_finite_coefficients(bad):
    for coeffs in ([bad, 1.0, 3.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(PolynomialError, match="non-finite"):
            maximize_univariate(coeffs)


@given(
    st.lists(st.floats(-1, 1), min_size=2, max_size=9),
    st.floats(-3, 3),
    st.lists(st.floats(-1, 1), max_size=20),
)
@example([0.25, -1.0, 1.0], 0.0, [0.5, 0.0])  # double root at 0.5: zero slope there
@example([1e300, 1e-300], 0.0, [0.0])  # the first step overflows
@settings(max_examples=200, deadline=None)
def test_polish_sweep_matches_scalar_oracle(deriv, log_scale, starts):
    # degrees 1-8, coefficient scales 1e-3 to 1e3, explicit starts at -1 and 1
    deriv = np.array(deriv) * 10.0**log_scale
    starts = [-1.0, 1.0, *starts]
    with np.errstate(all="ignore"):
        expected = np.array([polish_root(deriv, t) for t in starts])
    got = _polish_roots(deriv, starts)
    assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def test_maximize_constant_and_empty():
    assert maximize_univariate([3.5]) == (-1.0, 3.5, [-1.0])
    assert maximize_univariate([]) == (-1.0, 0.0, [-1.0])


def test_maximize_agrees_with_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        coeffs = rng.normal(size=rng.integers(1, 7))
        _, value, _ = maximize_univariate(coeffs)
        _, ref = dense_max_on_interval(coeffs, 20001)
        assert value >= ref - 1e-9
        assert value <= ref + 1e-6


def test_maximize_reports_ties():
    # 1 - t^2 + t^4 peaks at both endpoints and t=0
    _, value, maximizers = maximize_univariate([1.0, 0.0, -1.0, 0.0, 1.0])
    assert value == pytest.approx(1.0)
    assert maximizers == [-1.0, 0.0, 1.0]


def test_pick_maximizers_takes_the_smallest_point_of_a_tie():
    # exact tie
    assert pick_maximizers([-1.0, 0.0, 1.0], [2.0, 2.0, 1.0]) == (-1.0, 2.0, [-1.0, 0.0])
    # near tie: a point within NEAR_TOL below the maximum still leads
    values = [1.0, 1.0 + NEAR_TOL / 2, 1.0 - 2 * NEAR_TOL]
    assert pick_maximizers([-0.5, 0.5, 0.9], values) == (-0.5, values[1], [-0.5, 0.5])


def test_maximize_reports_a_near_tie_by_its_smallest_maximizer():
    # 1 - (t^2 - 1/4)^2 + 5e-7 t peaks near t = 0.5; its peak near t = -0.5
    # is 5e-7 lower, within NEAR_TOL, so t_star sits there, below the maximum
    coeffs = [15 / 16, 5e-7, 0.5, 0.0, -1.0]
    t_star, value, maximizers = maximize_univariate(coeffs)
    assert maximizers == pytest.approx([-0.5, 0.5], abs=1e-6)
    assert t_star == maximizers[0]
    assert value == poly_eval(coeffs, maximizers[1])
    assert value - poly_eval(coeffs, t_star) == pytest.approx(5e-7, rel=1e-3)


def test_merge_points():
    out = merge_points([0.5, -0.5, 0.5 + 1e-12, 0.0], tol=1e-9)
    assert out.tolist() == [-0.5, 0.0, 0.5]
