"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Expected values marked in comments as frozen oracles were
computed from the displayed game coefficients (corner sums, substitution)
or by independent brute force (dense sampling, departure enumeration).
"""

import time

import numpy as np
import pytest

from polyce.adaptive import AdaptiveConfig, run_adaptive, run_adaptive_finite
from polyce.finite_ce import static_discretization
from polyce.games import (
    FiniteGame,
    deviation_gain_poly,
    expected_utilities,
    random_polynomial_game,
)
from polyce.moments import RelaxationOrder, check_moment_membership, payoff_bounds
from polyce.polynomials import poly_eval
from polyce.sos import MomentVector, prove_interval_nonneg, verify_certificate

from oracles import dense_max_on_interval, max_departure_gain

UNIQUE_PAYOFF = (2.988, -1.510)  # corner sums of the displayed coefficients


def _ok(line):
    print(f"\nACCEPTANCE {line}: PASS")


def test_criterion_1_corner_start_trace(emb_game):
    t0 = time.perf_counter()
    trace = run_adaptive(emb_game, [[-1.0], [-1.0]])
    elapsed = time.perf_counter() - t0
    eps = trace.epsilons()
    assert len(eps) == 3
    assert eps[0] == pytest.approx(2.0, abs=1e-4)
    assert eps[1] == pytest.approx(4.0, abs=1e-4)
    assert abs(eps[2]) <= 1e-4
    added_1 = sorted(np.concatenate(trace.records[1].new_strategies).tolist())
    added_2 = sorted(np.concatenate(trace.records[2].new_strategies).tolist())
    assert np.allclose(added_1, [0.0, 0.0], atol=1e-4)
    assert np.allclose(added_2, [1.0, 1.0], atol=1e-4)
    # terminal distribution: 0.4922 / 0.4922 / 0.0156 on the known support
    sup = dict(trace.final.distribution.support(0.0))
    for cell, want in (((0.0, 1.0), 0.4922), ((1.0, 0.0), 0.4922), ((1.0, 1.0), 0.0156)):
        assert sup.get(cell, 0.0) == pytest.approx(want, abs=5e-3), cell
    assert elapsed < 30.0
    _ok(f"1 corner-start trace (2,4,0), terminal atoms, {elapsed:.1f}s")


def test_criterion_2_three_iteration_convergence(quad_game):
    trace = run_adaptive(quad_game, [[0.0], [0.0]])
    assert trace.status == "converged"
    assert len(trace.records) == 3
    assert trace.final.epsilon <= 1e-5
    for g in trace.final.grids:
        assert len(g) == 2
        assert np.allclose(np.sort(g), [0.0, 1.0], atol=1e-4)
    _ok("2 three-iteration convergence to grids {0,1}")


def test_criterion_3_degenerate_mode_fixtures(table3, emb_game):
    cfg = AdaptiveConfig(alpha=1.0, beta=1.0, max_iter=5)

    finite = run_adaptive_finite(table3, [[-1.0], [-1.0]], cfg)
    assert len(finite.records) == 5
    for rec in finite.records:
        assert rec.epsilon == pytest.approx(1.0, abs=1e-6)
    for rec in finite.records[1:]:
        for g in rec.grids:
            assert np.allclose(g, [-1.0, 0.0], atol=1e-9)

    poly = run_adaptive(emb_game, [[-1.0], [-1.0]], cfg)
    assert len(poly.records) == 5
    for rec in poly.records:
        assert rec.epsilon == pytest.approx(2.0, abs=1e-6)
    for rec in poly.records[1:]:
        for g in rec.grids:
            assert np.allclose(g, [-1.0, 0.0], atol=1e-6)
    _ok("3 non-convergence fixtures hold flat at 1 and 2")


def test_criterion_4_static_rate(quad_game):
    products = {}
    for d in (5, 10, 20, 40):
        dist, report = static_discretization(quad_game, d)
        # independent oracle: dense sampling of every deviation-gain polynomial
        oracle = 0.0
        for i in range(2):
            marginal = dist.marginal(i)
            total = 0.0
            for idx, s in enumerate(dist.grids[i]):
                if marginal[idx] <= 1e-12:
                    continue
                g = deviation_gain_poly(quad_game, i, dist, float(s))
                total += max(0.0, dense_max_on_interval(g.univariate_coeffs())[1])
            oracle = max(oracle, total)
        assert report.epsilon == pytest.approx(oracle, abs=1e-5)
        products[d] = report.epsilon * d
    ref = products[5]
    for d, value in products.items():
        assert ref / 3.0 <= value <= 3.0 * ref, (d, value, ref)
    _ok(f"4 static rate: eps*d in {sorted(round(v, 3) for v in products.values())}")


def test_static_rate_holds_at_d80_and_d160(quad_game):
    # criterion 4's band, two doublings past its largest d
    ref = static_discretization(quad_game, 5)[1].epsilon * 5
    eps = {d: static_discretization(quad_game, d)[1].epsilon for d in (80, 160)}
    for d, value in eps.items():
        assert ref / 3.0 <= value * d <= 3.0 * ref, (d, value * d, ref)
    assert eps[160] < eps[80]
    _ok(f"4 static rate extended: eps*d at 80, 160 = {[round(v * d, 3) for d, v in eps.items()]}")


def test_criterion_5_moment_singleton_and_nesting(quad_game):
    boxes = {d: payoff_bounds(quad_game, RelaxationOrder.auto(quad_game, d)) for d in (0, 1, 2)}
    for i in range(2):
        assert boxes[2].spread(i) <= 1e-3
        lo, hi = boxes[2].bounds[i]
        assert (lo + hi) / 2 == pytest.approx(UNIQUE_PAYOFF[i], abs=1e-3)
    assert boxes[1].nests_inside(boxes[0], tol=1e-5)
    assert boxes[2].nests_inside(boxes[1], tol=1e-5)
    _ok("5 second-order relaxation is the singleton (2.988, -1.510)")


def test_criterion_6_sos_layer_bulk():
    rng = np.random.default_rng(2024)
    # 200 interval-nonnegative constructions certified, certificates verified
    for k in range(200):
        a = rng.normal(size=int(rng.integers(1, 4)))
        b = rng.normal(size=int(rng.integers(1, 3)))
        s = np.convolve(a, a)
        t = np.convolve(b, b)
        target = np.zeros(7)
        target[: s.size] += s
        w = np.convolve([1.0, 0.0, -1.0], t)
        target[: w.size] += w
        ok, cert = prove_interval_nonneg(target)
        assert ok, f"construction {k} wrongly refuted"
        good, resid = verify_certificate(cert, target)
        assert good and resid <= 1e-7
    # 200 polynomials with a grid-verified negative value refuted
    grid = np.linspace(-1.0, 1.0, 1001)
    refuted = 0
    while refuted < 200:
        coeffs = rng.normal(size=int(rng.integers(2, 8)))
        if poly_eval(coeffs, grid).min() >= -1e-3:
            continue
        ok, _ = prove_interval_nonneg(coeffs)
        assert not ok, f"negative polynomial {coeffs} wrongly certified"
        refuted += 1
    _ok("6 SOS layer: 200 certified + 200 refuted")


def test_criterion_7_cross_method_consistency():
    # run the loop well past the default threshold: residual epsilon displaces
    # the payoff by a game-dependent multiple, and the 1e-4 comparison against
    # a near-singleton relaxation needs the terminal point essentially exact
    cfg = AdaptiveConfig(eps_stop=1e-8, max_iter=60)
    for seed in range(10):
        game = random_polynomial_game(2, 4, seed)
        trace = run_adaptive(game, [[0.0], [0.0]], cfg)
        assert trace.status == "converged", seed
        dist = trace.final.distribution
        order = RelaxationOrder.auto(game, 1)
        mv = MomentVector.from_measure(dist, 2, 2 * order.r)
        assert check_moment_membership(game, order, mv), seed
        box = payoff_bounds(game, order)
        assert box.contains(expected_utilities(game, dist), tol=1e-4), seed
    _ok("7 adaptive output inside the d=1 relaxation, 10 seeds")


def test_criterion_8_finite_ce_departure_oracle():
    from polyce.finite_ce import ce_lp

    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        grids = (np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))
        payoffs = tuple(rng.integers(0, 8, size=(3, 3)).astype(float) for _ in range(2))
        fg = FiniteGame(grids, payoffs)
        dist = ce_lp(fg)
        assert max_departure_gain(fg, dist) <= 1e-7, seed
    _ok("8 departure-function enumeration on 100 sampled 3x3 games")


def test_random_game_convergence_sweep():
    # stands in for the unpublished three-player trace: seeded random games
    # must all converge under the adaptive loop
    for seed in range(10):
        game = random_polynomial_game(3, 4, seed)
        trace = run_adaptive(game, [[0.0]] * 3, AdaptiveConfig(eps_stop=1e-3, max_iter=50))
        assert trace.status == "converged", seed
        assert trace.final.epsilon <= 1e-3
    _ok("9 (table-2 stand-in) 10 seeded 3-player games converge")
