import numpy as np
import pytest

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
    # even D: deg s = D, deg t = D-2; odd D: deg s = D+1, deg t = D-1
    assert interval_degrees(0) == (0, 0)
    assert interval_degrees(1) == (1, 0)
    assert interval_degrees(2) == (1, 0)
    assert interval_degrees(3) == (2, 1)
    assert interval_degrees(4) == (2, 1)


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


def test_interval_boundary_roots_certified():
    # nonnegative polynomials with a root on [-1,1] have no strictly feasible
    # exact decomposition; every one of them must still be certified
    targets = [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0, -1.0])]
    for a in np.linspace(-1.0, 1.0, 9):
        sq = np.array([a * a, -2.0 * a, 1.0])
        targets.append(sq)
        for factor in ([1.0, 1.0], [1.0, -1.0], [1.0, 0.0, -1.0]):
            targets.append(np.convolve(factor, sq))
    for target in targets:
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
def test_near_zero_minimum_reaches_the_sdp(monkeypatch, coeffs):
    scale = max(abs(c) for c in coeffs)
    least = -maximize_univariate(-np.array(coeffs) / scale)[1]
    assert -DECISION_SLACK < least < 0.0
    calls = []
    solve = ConicProblem.solve

    def spy(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ConicProblem, "solve", spy)
    ok, cert = prove_interval_nonneg(coeffs)
    assert len(calls) == 1
    assert ok and verify_certificate(cert, coeffs)[0]  # the SDP accepts within the slack


def test_sdp_refutes_what_root_finding_misses(monkeypatch):
    # root finding is only a sufficient test; the SDP keeps its own refutation
    monkeypatch.setattr(sos, "maximize_univariate", lambda p: (-1.0, 0.0, [-1.0]))
    for coeffs in ([-2.0, 1.0], [1.0, 0.0, -1.1]):
        assert prove_interval_nonneg(coeffs) == (False, None)


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


def test_certificate_json_roundtrip():
    ok, cert = prove_interval_nonneg([1.0, 1.0])
    back = SosCertificate.from_json(cert.to_json())
    assert np.allclose(back.gram_s, cert.gram_s)
    assert np.allclose(back.gram_t, cert.gram_t)
    assert back.degree == cert.degree


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
