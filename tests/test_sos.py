import functools
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from numpy.polynomial import polynomial as npoly

import polyce
from polyce.conic import ConicProblem, Status, expr
from polyce.moments import moment_validity_margin
from polyce import sos
from polyce.polynomials import PolynomialError, grlex_monomials, maximize_univariate, poly_eval
from polyce.sos import (
    DECISION_SLACK,
    MomentVector,
    SosCertificate,
    interval_degrees,
    interval_nonneg_constraint,
    interval_terms,
    localizing_entries,
    matrix_psd_on_interval_constraint,
    moment_feasibility_constraint,
    prove_interval_nonneg,
    reconstruct_target,
    verify_certificate,
)

from oracles import atom_localizing_matrices


def _feasible(build):
    p = ConicProblem()
    handles = build(p)
    return p.solve(), handles


def test_grlex_order_frozen():
    assert grlex_monomials(2, 2) == (
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    )


def test_interval_degree_split():
    # even D: deg s = D, deg t = D-2; odd D: deg s = D+1, deg t = D-1; a
    # constant takes the D = 1 layout, so its x^2 row has an s-Gram cell
    assert interval_degrees(0) == (1, 0)
    assert interval_degrees(1) == (1, 0)
    assert interval_degrees(2) == (1, 0)
    assert interval_degrees(3) == (2, 1)
    assert interval_degrees(4) == (2, 1)


@pytest.mark.parametrize("size, hs, ht", [(1, 0, 0), (1, 2, 1), (1, 1, 2), (2, 1, 0), (3, 2, 2)])
def test_interval_terms_match_the_gram_identity(size, hs, ht):
    # for random symmetric Grams, the table's coefficients of M_ab evaluate
    # to Z_s(t)' S Z_s(t) + (1-t^2) Z_t(t)' T Z_t(t), Z_h(t) the basis
    # x_a t^p (p <= h) as a size(h+1) x size matrix
    rng = np.random.default_rng(size + 3 * hs + 7 * ht)
    grams = [rng.normal(size=(size * (h + 1),) * 2) for h in (hs, ht)]
    grams = [g + g.T for g in grams]
    table = interval_terms(size, hs, ht)
    assert [(a, b) for a, b, _ in table] == [(a, b) for a in range(size) for b in range(a, size)]
    for t in (-1.0, -0.3, 0.4, 0.9):
        Z = [np.kron(np.eye(size), t ** np.arange(h + 1)[:, None]) for h in (hs, ht)]
        M = Z[0].T @ grams[0] @ Z[0] + (1 - t * t) * Z[1].T @ grams[1] @ Z[1]
        for a, b, rows in table:
            coeffs = [sum(c * grams[g][i, j] for g, i, j, c in terms) for terms in rows]
            assert poly_eval(coeffs, t) == pytest.approx(M[a, b], abs=1e-9)


def test_interval_weight_polynomial():
    ok, cert = prove_interval_nonneg([1.0, 0.0, -1.0])
    assert ok
    assert np.allclose(cert.gram_s, 0.0, atol=1e-6)
    assert np.allclose(cert.gram_t, [[1.0]], atol=1e-6)


def test_interval_affine_witness():
    # 1 + x = (1+x)^2/2 + (1-x^2)/2 is one exact witness
    witness = SosCertificate(
        gram_s=np.array([[0.5, 0.5], [0.5, 0.5]]), gram_t=np.array([[0.5]]), degree=1
    )
    assert reconstruct_target(witness) == pytest.approx([1.0, 1.0, 0.0])
    ok, cert = prove_interval_nonneg([1.0, 1.0])
    assert ok
    good, resid = verify_certificate(cert, [1.0, 1.0])
    assert good and resid <= 1e-8


def _boundary_targets():
    targets = [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0, -1.0])]
    for a in np.linspace(-1.0, 1.0, 9):
        sq = np.array([a * a, -2.0 * a, 1.0])
        targets.append(sq)
        for factor in ([1.0, 1.0], [1.0, -1.0], [1.0, 0.0, -1.0]):
            targets.append(np.convolve(factor, sq))
    return targets


def test_interval_boundary_roots_certified():
    # nonnegative polynomials with a root on [-1,1] have no strictly feasible
    # exact decomposition; every one of them must still be certified
    for target in _boundary_targets():
        ok, cert = prove_interval_nonneg(target)
        assert ok, target
        good, resid = verify_certificate(cert, target)
        assert good and resid <= 1e-7, target
        # the decision does not depend on the scale of the coefficients
        ok, cert = prove_interval_nonneg(1e3 * target)
        assert ok, target
        good, _ = verify_certificate(cert, 1e3 * target)
        assert good, target


def test_verify_tolerances_grow_with_the_target():
    # 1 + x with an s-Gram 5e-8 off the exact witness is inside the default
    # tolerances; scaling certificate and target together keeps it inside,
    # and keeps a certificate that is off by 10% outside
    gram_s = np.array([[0.5, 0.5], [0.5, 0.5]]) - 5e-8 * np.eye(2)
    gram_t = np.array([[0.5]])
    target = np.array([1.0, 1.0])
    for c in (1.0, 1e3, 1e6):
        good, resid = verify_certificate(SosCertificate(c * gram_s, c * gram_t, 1), c * target)
        assert good and resid == pytest.approx(5e-8 * c, rel=1e-6), c
        bad = SosCertificate(c * (gram_s + [[0.1, 0.0], [0.0, 0.0]]), c * gram_t, 1)
        assert not verify_certificate(bad, c * target)[0], c


def test_interval_negative_poly_refuted():
    ok, cert = prove_interval_nonneg([-2.0, 1.0])  # x - 2
    assert not ok and cert is None


def _no_solve(self, *args, **kwargs):
    raise AssertionError("SDP solved")


def test_negative_poly_refuted_by_witness_without_a_solve(monkeypatch):
    monkeypatch.setattr(ConicProblem, "solve", _no_solve)
    for coeffs in ([-2.0, 1.0], [1.0, 0.0, -1.1], [5e3, -3e4, 1e4], [0.0, 0.0, 0.0, -1e-6]):
        assert prove_interval_nonneg(coeffs) == (False, None)


@pytest.mark.parametrize("coeffs", [
    [-2e-8, 0.0, 1.0],  # x^2 - 2e-8, interior minimum
    [-2e-5, 0.0, 1e3],  # the same times 1e3
    [1.0, 0.0, -1.0 - 4e-8],  # 1 - (1 + 4e-8) x^2, minimum at both endpoints
])
def test_near_zero_minimum_is_certified_without_a_solve(monkeypatch, coeffs):
    scale = max(abs(c) for c in coeffs)
    least = -maximize_univariate(-np.array(coeffs) / scale)[1]
    assert -DECISION_SLACK < least < 0.0
    monkeypatch.setattr(ConicProblem, "solve", _no_solve)
    ok, cert = prove_interval_nonneg(coeffs)
    assert ok and verify_certificate(cert, coeffs)[0]  # accepted within the slack


def test_verification_refutes_what_root_finding_misses(monkeypatch):
    # root finding is only a sufficient test; the roots and the certificate
    # check keep their own refutation
    monkeypatch.setattr(ConicProblem, "solve", _no_solve)
    monkeypatch.setattr(sos, "maximize_univariate", lambda p: (-1.0, 0.0, [-1.0]))
    for coeffs in ([-2.0, 1.0], [1.0, 0.0, -1.1], [-0.25, 0.0, 1.0], [0.1, -1.0, 0.0, 1.0]):
        assert prove_interval_nonneg(coeffs) == (False, None)


def _clustered_products(seed=0, count=100):
    """Products of 5-10 factors that are nonnegative on [-1,1], of degree
    9-19: double roots clustered within 1e-3 of one point of [-1,1], roots at
    -1 or 1, real roots outside [-1,1] and complex pairs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        center = rng.uniform(-1.0, 1.0)
        factors = []
        for _ in range(rng.integers(5, 11)):
            kind = rng.integers(4)
            if kind == 0:
                a = np.clip(center + rng.uniform(-1e-3, 1e-3), -1.0, 1.0)
                factors.append([a * a, -2.0 * a, 1.0])
            elif kind == 1:
                factors.append([1.0, rng.choice([-1.0, 1.0])])
            elif kind == 2:
                root = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
                factors.append(np.sign(-root) * np.array([-root, 1.0]))
            else:
                a, b = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.5)
                factors.append([a * a + b * b, -2.0 * a, 1.0])
        p = functools.reduce(np.convolve, factors)
        if 9 <= p.size - 1 <= 19:
            out.append(p)
    return out


def _certified(monkeypatch, targets):
    monkeypatch.setattr(ConicProblem, "solve", _no_solve)
    for p in targets:
        ok, cert = prove_interval_nonneg(p)
        assert ok, p
        assert verify_certificate(cert, p)[0], p


def test_clustered_double_roots_are_certified_without_a_solve(monkeypatch):
    _certified(monkeypatch, _clustered_products())


@pytest.mark.parametrize("k", range(4, 17))
def test_a_huge_root_keeps_the_root_near_the_boundary_accurate(monkeypatch, k):
    # (1 +- x)(1 +- eps x), eps = 10^-k: the root -+1/eps costs the companion
    # matrix its accuracy on the root near -+1, which the Newton steps restore
    _certified(monkeypatch, [np.convolve([1.0, s1], [1.0, s2 * 10.0 ** -k])
                             for s1, s2 in itertools.product((1.0, -1.0), repeat=2)])


@pytest.mark.parametrize("n", range(11))
def test_chebyshev_touching_polynomials_are_certified_without_a_solve(monkeypatch, n):
    # T_n^2 and 1 - T_n^2 touch 0 at n and n+1 points of [-1,1], 1 +- T_n at
    # about n/2 of them, the endpoints included
    T = chebyshev.cheb2poly([0.0] * n + [1.0])
    polys = (npoly.polymul(T, T), npoly.polysub([1.0], npoly.polymul(T, T)),
             npoly.polyadd([1.0], T), npoly.polysub([1.0], T))
    _certified(monkeypatch, [c * p for p in polys for c in (1e-3, 1.0, 1e3)])


def test_clustered_certificates_agree_across_blas_thread_counts():
    # a certificate is a proof to be stored and re-checked, so its bytes must
    # not depend on how many threads the BLAS runs
    code = (
        "import hashlib\n"
        "from test_sos import _clustered_products\n"
        "from polyce.sos import prove_interval_nonneg\n"
        "for p in _clustered_products():\n"
        "    ok, cert = prove_interval_nonneg(p)\n"
        "    grams = cert.gram_s.tobytes() + cert.gram_t.tobytes() if ok else b''\n"
        "    print(ok, hashlib.sha256(grams).hexdigest())\n"
    )
    path = os.pathsep.join([str(Path(polyce.__file__).parents[1]), str(Path(__file__).parent),
                            os.environ.get("PYTHONPATH", "")])
    runs = []
    for threads in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert out.returncode == 0, out.stderr
        runs.append(out.stdout.splitlines())
    assert len(runs[0]) == 100
    assert runs[0] == runs[1]


def _many_factor_products():
    """T_n^2 for n = 12..30, (1+x^2)^20 and a product of 19 linear factors
    whose roots lie outside [-1,1]."""
    polys = []
    for n in range(12, 31):
        T = chebyshev.cheb2poly([0.0] * n + [1.0])
        polys.append(npoly.polymul(T, T))
    polys.append(functools.reduce(np.convolve, [[1.0, 0.0, 1.0]] * 20))
    rng = np.random.default_rng(19)
    roots = rng.choice([-1.0, 1.0], 19) * rng.uniform(1.0, 3.0, 19)
    polys.append(functools.reduce(np.convolve, [np.sign(-x) * np.array([-x, 1.0]) for x in roots]))
    return polys


def test_many_factors_keep_their_square_lists_short(monkeypatch):
    # a list of squares stays no longer than its vectors, so T_30^2 is proved
    # in milliseconds instead of running out of memory
    times = sos._times

    def spy(f, g):
        out = times(f, g)
        for vectors in out:
            assert len(vectors) <= max((u.size for u in vectors), default=0)
        return out

    monkeypatch.setattr(sos, "_times", spy)
    _certified(monkeypatch, _many_factor_products())


def _bulk_sets():
    """The criterion-6 constructions and negatives of test_acceptance.py and
    the boundary targets: the sos-bulk benchmark jobs of seed 0."""
    rng = np.random.default_rng(2024)
    constructions, negatives = [], []
    for _ in range(200):
        a = rng.normal(size=int(rng.integers(1, 4)))
        b = rng.normal(size=int(rng.integers(1, 3)))
        target = np.zeros(7)
        target[: 2 * a.size - 1] += np.convolve(a, a)
        target[: 2 * b.size + 1] += np.convolve([1.0, 0.0, -1.0], np.convolve(b, b))
        constructions.append(target)
    grid = np.linspace(-1.0, 1.0, 1001)
    while len(negatives) < 200:
        coeffs = rng.normal(size=int(rng.integers(2, 8)))
        if poly_eval(coeffs, grid).min() < -1e-3:
            negatives.append(coeffs)
    return constructions + _boundary_targets(), negatives


def _count_minimizations(monkeypatch):
    calls = []
    maximize = sos.maximize_univariate
    monkeypatch.setattr(sos, "maximize_univariate", lambda p: calls.append(p) or maximize(p))
    return calls


def test_one_root_pass_decides_the_bulk_sets(monkeypatch):
    calls = _count_minimizations(monkeypatch)
    nonneg, negatives = _bulk_sets()
    assert all(prove_interval_nonneg(p)[0] for p in nonneg)
    assert not any(prove_interval_nonneg(p)[0] for p in negatives)
    assert calls == []


@pytest.mark.parametrize("coeffs, ok, minimizations", [
    ([-1e-7, 0.0, 1.0], False, 0),  # refuted by the value at x = 0, between the roots
    ([-3e-8, 0.0, 1.0], True, 1),  # only the least value tells that it is within the slack
    # x^4 - 0.0265 x^3 dips to -5.20e-8 between the interior roots of r, where
    # the midpoint probe misses it: only the least value refutes it
    ([0.0, 0.0, 0.0, -0.0265, 1.0], False, 1),
    ([0.0, 0.0, 0.0, -0.026, 1.0], True, 1),  # least value -4.82e-8, within the slack
])
def test_minimization_settles_only_the_band_below_zero(monkeypatch, coeffs, ok, minimizations):
    calls = _count_minimizations(monkeypatch)
    assert prove_interval_nonneg(coeffs)[0] is ok
    assert len(calls) == minimizations


def _near_touching(draw):
    # (x - a)^2 q + delta with q > 0 on [-1,1], so that p/c dips to about delta/c
    a = draw(st.floats(-1.0, 1.0))
    u = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
    q = np.convolve(u, u)
    q[0] += draw(st.floats(0.1, 2.0))
    delta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -7.0))
    return npoly.polyadd(npoly.polymul([a * a, -2.0 * a, 1.0], q), [delta])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=11).map(np.array),
    st.composite(_near_touching)(),
))
# a negligible top coefficient puts a root near 1e165: the roots of p without it decide
@example(np.array([-1e-7, -3.97168870e-160, 2.0, 2.35401894e-165]))
@example(np.array([-1e-7, 0.0, 2.0, 2.35401894e-165]))  # least value exactly -DECISION_SLACK
def test_decisions_are_those_of_the_least_value(p):
    scale = float(np.abs(p).max()) or 1.0
    least = -maximize_univariate(-p / scale)[1]
    ok, cert = prove_interval_nonneg(p)
    assert ok == (least >= -DECISION_SLACK)
    assert not ok or verify_certificate(cert, p)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prove_rejects_non_finite_coefficients_before_solving(monkeypatch, bad):
    monkeypatch.setattr(ConicProblem, "solve", _no_solve)
    for coeffs in ([1.0, bad], [bad, 0.0, 1.0]):
        with pytest.raises(PolynomialError, match="non-finite"):
            prove_interval_nonneg(coeffs)


def test_matrix_interval_psd_feasible():
    # [[1, t], [t, 1]]: witness (x1 + t x2)^2 + (1-t^2) x2^2
    entries = [[[1.0], [0.0, 1.0]], [None, [1.0]]]
    sol, _ = _feasible(lambda p: matrix_psd_on_interval_constraint(p, entries, 2, 1))
    assert sol.status is Status.OPTIMAL


def test_matrix_interval_psd_refuted():
    sol, _ = _feasible(lambda p: matrix_psd_on_interval_constraint(p, [[[0.0, 1.0]]], 1, 1))
    assert sol.status is Status.INFEASIBLE


def test_matrix_interval_weight_entry():
    sol, _ = _feasible(lambda p: matrix_psd_on_interval_constraint(p, [[[1.0, 0.0, -1.0]]], 1, 2))
    assert sol.status is Status.OPTIMAL


def test_matrix_interval_random_constructions():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, half = 2, 1
        # M(t) = A(t)' A(t) + (1-t^2) B'B is PSD on [-1,1] by construction
        A = rng.normal(size=(m, m, half + 1))
        B = rng.normal(size=(m, m))
        entries = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                conv = np.zeros(2 * half + 3)
                for r in range(m):
                    conv[: 2 * half + 1] += np.convolve(A[r, a], A[r, b])
                w = float(B[:, a] @ B[:, b])
                conv[0] += w
                conv[2] -= w
                entries[a][b] = conv.tolist()
        sol, _ = _feasible(
            lambda p, e=entries: matrix_psd_on_interval_constraint(p, e, m, 2 * half + 2)
        )
        assert sol.status is Status.OPTIMAL


def test_moment_boundary_feasible():
    vals = {(0,): 1.0, (1,): 0.0, (2,): 1.0}
    sol, _ = _feasible(lambda p: moment_feasibility_constraint(p, vals, 1, 2))
    assert sol.status is Status.OPTIMAL


def test_moment_second_moment_too_large():
    vals = {(0,): 1.0, (1,): 0.0, (2,): 2.0}
    sol, _ = _feasible(lambda p: moment_feasibility_constraint(p, vals, 1, 2))
    assert sol.status is Status.INFEASIBLE


def test_moment_point_mass_origin():
    vals = {(0,): 1.0, (1,): 0.0, (2,): 0.0}
    sol, _ = _feasible(lambda p: moment_feasibility_constraint(p, vals, 1, 2))
    assert sol.status is Status.OPTIMAL


def test_moment_rejects_odd_or_tiny_order():
    p = ConicProblem()
    with pytest.raises(Exception, match="order"):
        moment_feasibility_constraint(p, {}, 1, 1)


def test_moments_of_finite_measures_always_feasible():
    rng = np.random.default_rng(7)

    class Measure:
        def __init__(self, pts, w):
            self.pts, self.w = pts, w

        def moment(self, e):
            return float(sum(
                wi * np.prod([x**k for x, k in zip(p, e)]) for p, wi in zip(self.pts, self.w)
            ))

    for n in (1, 2, 3):
        for r in (1, 2, 3):
            pts = rng.uniform(-1, 1, size=(4, n))
            w = rng.random(4)
            w /= w.sum()
            mv = MomentVector.from_measure(Measure(pts, w), n, 2 * r)
            sol, _ = _feasible(
                lambda p, mv=mv, n=n, r=r: moment_feasibility_constraint(p, mv.values, n, 2 * r)
            )
            assert sol.status is Status.OPTIMAL, (n, r)


@pytest.mark.parametrize("n, r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_localizing_table_matches_atom_oracle(n, r):
    # random atoms fill [-1,1]^n, so every localizing weight differs per atom
    rng = np.random.default_rng(11 + 10 * n + r)
    atoms = rng.uniform(-1.0, 1.0, size=(5, n))
    w = rng.random(5)
    w /= w.sum()
    mu = {e: float(sum(wk * np.prod(x ** np.array(e)) for x, wk in zip(atoms, w)))
          for e in grlex_monomials(n, 2 * r)}
    expected = atom_localizing_matrices(atoms, w, r)
    table = localizing_entries(n, r)
    assert len(table) == len(expected) == n + 1
    for (dim, entries), dense in zip(table, expected):
        assert dense.shape == (dim, dim)
        assert len(entries) == dim * (dim + 1) // 2
        for i, j, terms in entries:
            assert sum(sign * mu[e] for e, sign in terms) == pytest.approx(dense[i, j], abs=1e-12)
    worst = min(float(np.linalg.eigvalsh(m)[0]) for m in expected)
    assert moment_validity_margin(MomentVector(n, 2 * r, mu), r) == pytest.approx(worst, abs=1e-12)


def test_moment_vector_validation():
    with pytest.raises(ValueError, match="mu_0"):
        MomentVector(1, 2, {(0,): 0.5, (1,): 0.0, (2,): 0.0})
    with pytest.raises(ValueError, match="arity"):
        MomentVector(2, 2, {(0,): 1.0})


def test_moment_vector_rejects_nan_mass():
    with pytest.raises(ValueError, match="mu_0 = 1, got nan"):
        MomentVector(1, 2, {(0,): float("nan"), (1,): 0.0, (2,): 0.0})


@pytest.mark.parametrize("n, bad", [(1, (2,)), (2, (1, 1))])
def test_moment_vector_rejects_non_finite_moments(n, bad):
    for value in (float("nan"), float("inf")):
        values = {e: 0.0 for e in grlex_monomials(n, 2)}
        values[(0,) * n] = 1.0
        values[bad] = value
        with pytest.raises(ValueError, match=re.escape(f"moment {bad} is {value}, not a finite")):
            MomentVector(n, 2, values)


def test_verify_rejects_perturbed_gram():
    ok, cert = prove_interval_nonneg([1.0, 1.0])
    assert ok
    bad = SosCertificate(cert.gram_s + np.array([[0.1, 0.0], [0.0, 0.0]]),
                         cert.gram_t, cert.degree)
    good, resid = verify_certificate(bad, [1.0, 1.0])
    assert not good and resid > 0.05


def test_verify_zero_certificate():
    cert = SosCertificate(np.zeros((1, 1)), np.zeros((1, 1)), 0)
    good, resid = verify_certificate(cert, [0.0])
    assert good and resid == 0.0
    # the zero polynomial trims to no coefficients and is still certified
    ok, cert = prove_interval_nonneg([0.0])
    assert ok
    good, resid = verify_certificate(cert, [0.0])
    assert good and resid <= 1e-7


def test_verify_rejects_an_indefinite_gram_that_reconstructs_the_target():
    # s = 1 - x^2 and t = -1 give s + (1-x^2) t = 0 exactly, and the zero
    # target passes the grid check: only the PSD test can reject this
    cert = SosCertificate(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[-1.0]]), 2)
    assert not np.any(reconstruct_target(cert))
    assert verify_certificate(cert, [0.0]) == (False, float("inf"))


@pytest.mark.parametrize("c", [0.0, 1.0, 2.5, 1e6])
def test_constant_certificates_are_exact(c):
    # the residual of the x^2 row is absorbed into the s-Gram like any other
    ok, cert = prove_interval_nonneg([c])
    assert ok
    good, resid = verify_certificate(cert, [c])
    assert good and resid <= 1e-15 * max(1.0, abs(c))


def test_certificate_json_roundtrip():
    ok, cert = prove_interval_nonneg([1.0, 1.0])
    back = SosCertificate.from_json(cert.to_json())
    assert np.allclose(back.gram_s, cert.gram_s)
    assert np.allclose(back.gram_t, cert.gram_t)
    assert back.degree == cert.degree


def test_verify_rejects_a_non_symmetric_gram_whose_upper_triangle_fits():
    # (x - 0.01)^2 - 1e-5 is negative at x = 0.01 but nonnegative on the
    # 101-point grid; the upper triangle of gram_s alone reconstructs it,
    # while the symmetric part diag(9e-5, 1), which passes the PSD test,
    # has no x term
    cert = SosCertificate(np.array([[9e-5, -0.01], [0.01, 1.0]]), np.zeros((1, 1)), 2)
    good, resid = verify_certificate(cert, [9e-5, -0.02, 1.0])
    assert not good and resid == pytest.approx(0.02)


@pytest.mark.parametrize("doc", [
    {"degree": 0, "gram_s": [1.0], "gram_s_dim": 1, "gram_t": [], "gram_t_dim": 0},
    {"degree": 0, "gram_s": [1.0], "gram_s_dim": 1, "gram_t": None, "gram_t_dim": 1},
], ids=["empty-gram-t", "null-gram-t"])
def test_certificate_json_needs_non_empty_numeric_grams(doc):
    with pytest.raises(ValueError, match="gram_t"):
        SosCertificate.from_json(json.dumps(doc))


@pytest.mark.parametrize("gram_s, gram_t, name", [
    (np.ones((1, 1)), np.zeros((0, 0)), "gram_t"),
    (np.ones((1, 2)), np.zeros((1, 1)), "gram_s"),
    (np.ones(1), np.zeros((1, 1)), "gram_s"),
    (np.ones((1, 1)), np.full((1, 1), np.inf), "gram_t"),
])
def test_certificate_needs_square_non_empty_finite_grams(gram_s, gram_t, name):
    with pytest.raises(ValueError, match=name):
        SosCertificate(gram_s, gram_t, 0)


def test_soundness_on_random_feasible_polynomials():
    # whenever a certificate comes back, the target really is nonnegative
    rng = np.random.default_rng(21)
    grid = np.linspace(-1, 1, 1001)
    found = 0
    for _ in range(40):
        coeffs = rng.normal(size=rng.integers(1, 7))
        ok, cert = prove_interval_nonneg(coeffs)
        if not ok:
            continue
        found += 1
        good, resid = verify_certificate(cert, coeffs)
        assert good and resid <= 1e-7
        assert poly_eval(coeffs, grid).min() >= -1e-6
    assert found >= 3


def test_completeness_on_constructed_certificates():
    # p = s + (1-x^2) t with random SOS parts is always certified
    rng = np.random.default_rng(22)
    for _ in range(40):
        a = rng.normal(size=3)
        b = rng.normal(size=2)
        s = np.convolve(a, a)
        t = np.convolve(b, b)
        p = np.zeros(6)
        p[: s.size] += s
        w = np.convolve([1.0, 0.0, -1.0], t)
        p[: w.size] += w
        ok, cert = prove_interval_nonneg(p)
        assert ok
        good, resid = verify_certificate(cert, p)
        assert good and resid <= 1e-7


def test_refutation_on_verified_negative_polynomials():
    rng = np.random.default_rng(23)
    grid = np.linspace(-1, 1, 1001)
    refuted = 0
    while refuted < 20:
        coeffs = rng.normal(size=rng.integers(2, 7))
        if poly_eval(coeffs, grid).min() >= -1e-3:
            continue
        ok, _ = prove_interval_nonneg(coeffs)
        assert not ok
        refuted += 1


def test_certificate_extraction_from_handles():
    p = ConicProblem()
    qs, qt = interval_nonneg_constraint(p, [1.0, 0.5], 1)
    tr = expr(0.0)
    for Q in (qs, qt):
        for i in range(Q.dim):
            tr = tr + Q.entry(i, i)
    p.set_objective(tr)
    sol = p.solve()
    assert sol.status is Status.OPTIMAL
    cert = SosCertificate(sol.value(qs), sol.value(qt), 1)
    good, resid = verify_certificate(cert, [1.0, 0.5])
    assert good and resid <= 1e-7
