import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from polyce.conic import ConicProblem, LinExpr, SolverError, Status, expr
from polyce.ipm import _cost, compile_problem

import oracles


def brute_force_trace1_min_offdiag(samples=2001):
    """Oracle: scan trace-1 PSD matrices [[a, x],[x, 1-a]] for the least x."""
    best = 0.0
    for a in np.linspace(0.0, 1.0, samples):
        best = min(best, -np.sqrt(a * (1 - a)))
    return best


def test_min_entry_of_1x1_block_is_zero():
    p = ConicProblem()
    b = p.add_psd_block(1)
    p.set_objective(b.entry(0, 0))
    s = p.solve()
    assert s.status is Status.OPTIMAL
    assert s.objective_value == pytest.approx(0.0, abs=1e-7)


def test_trace_one_min_offdiagonal():
    oracle = brute_force_trace1_min_offdiag()
    assert oracle == pytest.approx(-0.5, abs=1e-6)
    p = ConicProblem()
    X = p.add_psd_block(2)
    p.add_equality(X.entry(0, 0) + X.entry(1, 1), 1.0)
    p.set_objective(X.entry(0, 1))
    s = p.solve()
    assert s.status is Status.OPTIMAL
    assert s.objective_value == pytest.approx(-0.5, abs=1e-6)
    assert s.eq_residual <= 1e-7
    assert s.min_block_eig >= -1e-7


def test_pinned_offdiagonal_infeasible():
    # [[1, 2], [2, 1]] has determinant -3
    p = ConicProblem()
    X = p.add_psd_block(2)
    mu = p.add_scalar_var()
    p.add_equality(X.entry(0, 0), 1.0)
    p.add_equality(X.entry(1, 1), 1.0)
    p.add_equality(X.entry(0, 1) - expr(mu), 0.0)
    p.add_equality(expr(mu), 2.0)
    assert p.solve().status is Status.INFEASIBLE


def test_evaluate_names_the_status_of_an_infeasible_solve():
    p = ConicProblem()
    X = p.add_psd_block(2)
    p.add_equality(X.entry(0, 0), 1.0)
    p.add_equality(X.entry(1, 1), 1.0)
    p.add_equality(X.entry(0, 1), 2.0)
    sol = p.solve()
    assert sol.status is Status.INFEASIBLE
    for e in (LinExpr(const=3.0), X.entry(0, 1)):
        with pytest.raises(SolverError, match="status is Infeasible"):
            sol.evaluate(e)


def test_unbounded_direction_detected():
    p = ConicProblem()
    X = p.add_psd_block(2)
    p.add_equality(X.entry(0, 1), 0.0)
    p.set_objective(-1.0 * X.entry(0, 0))
    assert p.solve().status is Status.UNBOUNDED


def test_dual_values_and_weak_duality():
    p = ConicProblem()
    X = p.add_psd_block(2)
    eq = p.add_equality(X.entry(0, 0) + X.entry(1, 1), 1.0)
    p.set_objective(X.entry(0, 1))
    s = p.solve()
    gap = abs(s.objective_value - s.dual_objective)
    assert gap <= 1e-5 * (1 + abs(s.objective_value))
    # the multiplier of the trace constraint equals the optimal value here
    assert s.dual(eq) == pytest.approx(-0.5, abs=1e-5)


def _random_bounded_problem(seed):
    rng = np.random.default_rng(seed)
    p = ConicProblem()
    X = p.add_psd_block(int(rng.integers(2, 5)))
    w = [p.add_nonneg_var() for _ in range(int(rng.integers(1, 4)))]
    f = p.add_scalar_var()
    x0 = rng.normal(size=(X.dim, X.dim))
    x0 = x0 @ x0.T + 0.4 * np.eye(X.dim)
    w0 = rng.uniform(0.5, 1.5, len(w))
    f0 = float(rng.normal())
    for _ in range(int(rng.integers(2, 5))):
        e = LinExpr()
        rhs = 0.0
        for i in range(X.dim):
            for j in range(i, X.dim):
                c = float(rng.normal())
                e = e + c * X.entry(i, j)
                rhs += c * x0[i, j]
        for k, v in enumerate(w):
            c = float(rng.normal())
            e = e + c * expr(v)
            rhs += c * w0[k]
        c = float(rng.normal())
        e = e + c * expr(f)
        rhs += c * f0
        p.add_equality(e, rhs)
    obj = LinExpr()
    C = rng.normal(size=(X.dim, X.dim))
    C = C @ C.T + 0.2 * np.eye(X.dim)
    for i in range(X.dim):
        for j in range(i, X.dim):
            obj = obj + (C[i, j] * (2.0 if i != j else 1.0)) * X.entry(i, j)
    for v in w:
        obj = obj + float(rng.uniform(0.1, 1.0)) * expr(v)
    p.set_objective(obj)
    return p


@pytest.mark.parametrize("seed", range(8))
def test_random_problems_weak_duality_and_invariants(seed):
    p = _random_bounded_problem(seed)
    s = p.solve()
    assert s.status is Status.OPTIMAL
    assert abs(s.objective_value - s.dual_objective) <= 1e-5 * (1 + abs(s.objective_value))
    assert s.eq_residual <= 1e-7 * (1 + 10)
    assert s.min_block_eig >= -1e-7


def test_resolve_is_deterministic():
    a = _random_bounded_problem(3).solve().objective_value
    b = _random_bounded_problem(3).solve().objective_value
    assert abs(a - b) <= 1e-7


def test_cross_check_against_external_ipm():
    cvxopt = pytest.importorskip("cvxopt")
    from polyce.ipm import compile_problem

    cvxopt.solvers.options["show_progress"] = False
    for seed in range(6):
        p = _random_bounded_problem(seed + 100)
        mine = p.solve()
        cp = compile_problem(p)
        c, obj_scale, obj_const = _cost(p.objective, cp.col, cp.scale)
        n = cp.f + cp.cone_dim
        Gl = np.zeros((cp.q, n))
        for i in range(cp.q):
            Gl[i, cp.f + i] = -1.0
        Gs = []
        for dim, off in zip(cp.block_dims, cp.block_offsets):
            Gk = np.zeros((dim * dim, n))
            idx = 0
            for i in range(dim):
                for j in range(i, dim):
                    col = cp.f + cp.q + off + idx
                    if i == j:
                        Gk[i * dim + i, col] = -1.0
                    else:
                        Gk[i * dim + j, col] = -1 / np.sqrt(2)
                        Gk[j * dim + i, col] = -1 / np.sqrt(2)
                    idx += 1
            Gs.append(Gk)
        G = np.vstack([Gl] + Gs)
        ref = cvxopt.solvers.conelp(
            cvxopt.matrix(c), cvxopt.matrix(G), cvxopt.matrix(np.zeros(G.shape[0])),
            {"l": int(cp.q), "q": [], "s": [int(d) for d in cp.block_dims]},
            cvxopt.matrix(cp.A.toarray()), cvxopt.matrix(cp.b),
        )
        if ref["status"] != "optimal":
            continue
        ref_obj = ref["primal objective"] * obj_scale + obj_const
        assert mine.status is Status.OPTIMAL
        assert mine.objective_value == pytest.approx(ref_obj, abs=1e-5, rel=1e-6)


def _random_bounded_lp(seed, infeasible=False):
    """Nonnegative scalars on the simplex, free scalars pinned to affine
    functions of them, and one more random equality: a bounded LP."""
    rng = np.random.default_rng(seed)
    p = ConicProblem()
    w = [p.add_nonneg_var() for _ in range(int(rng.integers(2, 7)))]
    f = [p.add_scalar_var() for _ in range(int(rng.integers(1, 4)))]
    p.add_equality(sum((expr(v) for v in w), LinExpr()), 1.0)
    for v in f:
        p.add_equality(expr(v) - sum(float(rng.normal()) * expr(x) for x in w), float(rng.normal()))
    a = rng.normal(size=len(w))
    # a . w never exceeds max(a) on the simplex
    rhs = np.abs(a).sum() + 1.0 if infeasible else a @ rng.dirichlet(np.ones(len(w)))
    p.add_equality(sum(float(c) * expr(v) for c, v in zip(a, w)), float(rhs))
    obj = sum(float(rng.uniform(1.0, 2.0)) * expr(v) for v in w)
    p.set_objective(obj + sum(float(rng.uniform(-0.1, 0.1)) * expr(v) for v in f))
    return p


def _highs(p):
    cp = compile_problem(p)
    cost = _cost(p.objective, cp.col, cp.scale)
    bounds = [(None, None)] * cp.f + [(0, None)] * cp.q
    return cost, linprog(cost[0], A_eq=cp.A, b_eq=cp.b, bounds=bounds, method="highs")


@pytest.mark.parametrize("seed", range(8))
def test_lp_cross_check_against_highs(seed):
    p = _random_bounded_lp(seed)
    mine = p.solve()
    (_, obj_scale, obj_const), ref = _highs(p)
    assert ref.status == 0 and mine.status is Status.OPTIMAL
    assert mine.objective_value == pytest.approx(ref.fun * obj_scale + obj_const, rel=1e-6)
    infeasible = _random_bounded_lp(seed, infeasible=True)
    assert infeasible.solve().status is Status.INFEASIBLE
    assert _highs(infeasible)[1].status == 2


def test_builder_misuse():
    p = ConicProblem()
    X = p.add_psd_block(2)
    with pytest.raises(SolverError, match="outside"):
        X.entry(0, 2)
    with pytest.raises(SolverError, match="undeclared"):
        p.add_equality(LinExpr({("s", 5): 1.0}), 0.0)
    with pytest.raises(SolverError, match="tol"):
        p.solve(tol=0.5)
    for bad in (0, -3, 2.5):
        with pytest.raises(SolverError, match="max_iter"):
            p.solve(max_iter=bad)
        with pytest.raises(SolverError, match="max_iter"):
            p.solve_many([X.entry(0, 1)], max_iter=bad)
    with pytest.raises(SolverError, match="no variables"):
        ConicProblem().solve()
    # free scalars only: a linear system with no cone for the IPM
    p = ConicProblem()
    t = p.add_scalar_var()
    p.add_equality(expr(t), 1.0)
    p.set_objective(expr(t))
    with pytest.raises(SolverError, match="no variables in a cone"):
        p.solve()


def test_constant_equality_folding():
    p = ConicProblem()
    p.add_nonneg_var()
    p.add_equality(LinExpr(const=2.0), 2.0)  # trivially true, dropped
    assert not p.trivially_infeasible
    p.add_equality(LinExpr(const=1.0), 2.0)  # trivially false
    assert p.trivially_infeasible
    assert p.solve().status is Status.INFEASIBLE


def _declared_problem(kinds, m, seed):
    """Scalars and PSD blocks declared in the order of ``kinds`` ("free",
    "nonneg" or a block dimension), m random equalities over random entries
    (both triangles of a block), and a random objective."""
    rng = np.random.default_rng(seed)
    p = ConicProblem()
    terms = []
    for kind in kinds:
        if kind in ("free", "nonneg"):
            terms.append(expr(p.add_scalar_var(nonneg=kind == "nonneg")))
        else:
            X = p.add_psd_block(kind)
            terms += [X.entry(i, j) for i in range(kind) for j in range(kind)]

    def random_expr():
        picks = rng.choice(len(terms), size=int(rng.integers(1, len(terms) + 1)), replace=False)
        return sum((float(rng.normal()) * terms[k] for k in picks), LinExpr())

    for _ in range(m):
        p.add_equality(random_expr(), float(rng.normal()))
    p.set_objective(random_expr() + float(rng.normal()))
    return p


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["free", "nonneg", 1, 2, 3, 4]), min_size=1, max_size=8),
       m=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
@example(kinds=["nonneg", 3, "free", 1, 2, "free", 1], m=0, seed=0)
@example(kinds=[2, "free", 1, "nonneg", 4, "nonneg", 1, 3], m=4, seed=1)
def test_compile_matches_the_per_variable_oracle(kinds, m, seed):
    p = _declared_problem(kinds, m, seed)
    cp = compile_problem(p)
    cost, cost_scale, _ = _cost(p.objective, cp.col, cp.scale)
    A, b, c, row_scale, obj_scale = oracles.compiled_arrays(p)
    assert np.array_equal(cp.A.toarray(), A)
    assert np.array_equal(cp.b, b) and np.array_equal(cost, c)
    assert np.array_equal(cp.row_scale, row_scale) and cost_scale == obj_scale
