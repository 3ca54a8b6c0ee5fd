"""The IPM's grouped cone kernels against the per-block oracle, concurrent
solves of distinct problems, batched solves against the solves alone, and
how a solve's ending reaches its callers."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyce import ipm
from polyce.adaptive import run_adaptive
from polyce.conic import ConicProblem, ConicSolution, LinExpr, SolverError, Status, expr
from polyce.games import SupportedDistribution
from polyce.moments import (RelaxationOrder, build_relaxation, check_moment_membership, payoff_bounds,
                            payoff_region_sketch)
from polyce.sos import MomentVector

import oracles


def _problem(rng, dims, nonneg, free):
    """PSD blocks of the given dims plus nonneg and free scalars, random
    equalities that a random interior point satisfies, and a cost that is
    positive on the cone: a feasible, bounded problem."""
    p = ConicProblem()
    blocks = [p.add_psd_block(d) for d in dims]
    w = [p.add_nonneg_var() for _ in range(nonneg)]
    f = [p.add_scalar_var() for _ in range(free)]
    x0 = []
    for X in blocks:
        B = rng.normal(size=(X.dim, X.dim))
        x0.append(B @ B.T + 0.4 * np.eye(X.dim))
    w0 = rng.uniform(0.5, 1.5, nonneg)
    f0 = rng.normal(size=free)
    for _ in range(int(rng.integers(1, 7))):
        e, rhs = LinExpr(), 0.0
        for X, X0 in zip(blocks, x0):
            for i in range(X.dim):
                for j in range(i, X.dim):
                    c = float(rng.normal())
                    e = e + c * X.entry(i, j)
                    rhs += c * X0[i, j]
        for v, v0 in zip(w + f, np.concatenate([w0, f0])):
            c = float(rng.normal())
            e = e + c * expr(v)
            rhs += c * v0
        p.add_equality(e, rhs)
    obj = LinExpr()
    for X in blocks:
        C = rng.normal(size=(X.dim, X.dim))
        C = C @ C.T + 0.2 * np.eye(X.dim)
        for i in range(X.dim):
            for j in range(i, X.dim):
                obj = obj + (C[i, j] * (2.0 if i != j else 1.0)) * X.entry(i, j)
    for v in w:
        obj = obj + float(rng.uniform(0.1, 1.0)) * expr(v)
    p.set_objective(obj)
    return p


def _interior(rng, cp):
    """A cone vector strictly inside the cone."""
    v = np.empty(cp.cone_dim)
    v[: cp.q] = rng.uniform(0.1, 2.0, cp.q)
    for dim, off in zip(cp.block_dims, cp.block_offsets):
        B = rng.normal(size=(dim, dim))
        v[cp.q + off : cp.q + off + dim * (dim + 1) // 2] = oracles.svec(B @ B.T + 0.1 * np.eye(dim))
    return v


def _all_equal(mine, theirs):
    return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


def _block_order(cone):
    """(group, index in group) of each PSD block, in the order of their svec
    segments in the cone vector, which is the order of the oracle's blocks."""
    at = [(g.scatter[j, 0], gi, j) for gi, g in enumerate(cone.groups) for j in range(len(g.scatter))]
    return [(gi, j) for _, gi, j in sorted(at)]


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True),
    counts=st.lists(st.integers(1, 3), min_size=5, max_size=5),
    nonneg=st.integers(0, 3),
    free=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[3], counts=[2, 1, 1, 1, 1], nonneg=0, free=0, seed=1)  # q = 0, f = 0
@example(sizes=[1, 2, 3, 4, 5], counts=[1, 2, 3, 1, 2], nonneg=2, free=2, seed=2)
@example(sizes=[1], counts=[3, 1, 1, 1, 1], nonneg=0, free=1, seed=3)  # orthant only
@example(sizes=[2], counts=[1, 1, 1, 1, 1], nonneg=5, free=1, seed=5)  # 5 orthant entries a row
@settings(max_examples=60, deadline=None)
def test_grouped_kernels_match_the_per_block_oracle(sizes, counts, nonneg, free, seed):
    # dim-1 blocks join the orthant, so q = 0 only without them and without
    # nonneg scalars
    rng = np.random.default_rng(seed)
    dims = [d for d, k in zip(sizes, counts) for _ in range(k)]
    rng.shuffle(dims)
    cp = ipm.compile_problem(_problem(rng, dims, nonneg, free))
    cone = ipm._Cone(cp)

    def blocks(stacks):
        return [stacks[gi][j] for gi, j in _block_order(cone)]

    x, z = _interior(rng, cp), _interior(rng, cp)
    u, v = rng.normal(size=cp.cone_dim), rng.normal(size=cp.cone_dim)
    sc, ref = ipm._Scaling(cone, x, z), oracles.BlockScaling(cp, x, z)
    assert np.array_equal(sc.w2, ref.w2) and np.array_equal(sc.lam_orth, ref.lam_orth)
    for mine, theirs in ((sc.R, ref.R), (sc.Rinv, ref.Rinv), (sc.lam, ref.lam)):
        assert _all_equal(blocks(mine), theirs)
    assert _all_equal(blocks(sc.Lam), [np.diag(lam) for lam in ref.lam])

    identity = np.concatenate([np.ones(cp.q)] + [oracles.svec(np.eye(d)) for d in cp.block_dims])
    assert np.array_equal(cone.identity(), identity)
    assert np.array_equal(cone.apply_T(sc, u), oracles.block_apply_T(cp, ref, u))
    sd = {dual: cone.scale_down(sc, u if dual else v, dual) for dual in (False, True)}
    ref_sd = {dual: oracles.block_scale_down(cp, ref, u if dual else v, dual) for dual in (False, True)}
    for dual in (False, True):
        assert np.array_equal(sd[dual][0], ref_sd[dual][0])
        assert _all_equal(blocks(sd[dual][1]), ref_sd[dual][1])
        assert cone.max_step(sc, sd[dual]) == oracles.block_max_step(ref, *ref_sd[dual])
    assert cone.max_step(sc, sd[False], sd[True]) == min(
        oracles.block_max_step(ref, *ref_sd[False]), oracles.block_max_step(ref, *ref_sd[True]))
    alpha = float(rng.uniform(0.0, 1.0))
    assert cone.centrality(sc, sd[False][1], sd[True][1], alpha) == oracles.block_centrality(
        ref, ref_sd[False][1], ref_sd[True][1], alpha)

    smu = float(rng.uniform(0.01, 2.0))
    d_orth, d_mats = cone.targets(sc, sd[False], sd[True], smu)
    ref_orth, ref_mats = oracles.block_targets(ref, ref_sd[False], ref_sd[True], smu)
    assert np.array_equal(d_orth, ref_orth) and _all_equal(blocks(d_mats), ref_mats)
    assert np.array_equal(cone.from_scaled_primal(sc, d_orth, d_mats),
                          oracles.block_from_scaled_primal(cp, ref, ref_orth, ref_mats))

    # the Schur complement and the matvecs in the solver's shape: a batch of one
    A_cone = cp.A[:, cp.f :].tocsr()
    S = ipm._schur(ipm._Scaling(cone, x[None], z[None]), ipm._pairs(cone, A_cone), cp.m, 0)
    ref_S = oracles.block_schur(cp, ref, A_cone)
    # one pair sum adds the terms in another order than the per-block products
    assert np.abs(S - ref_S).max() <= 1e-14 * np.abs(ref_S).max()
    # the solver's matvecs add in scipy.sparse's order, so they match to the bit
    y = rng.normal(size=cp.m)
    assert ipm._matvec(A_cone, 1)(u[None])[0].tobytes() == (A_cone @ u).tobytes()
    assert ipm._matvec(A_cone.T.tocsr(), 1)(y[None])[0].tobytes() == (A_cone.T @ y).tobytes()


def _sparse_problem(rng, nonneg, dims, rows):
    """Nonneg scalars, then PSD blocks of the given dims, and ``rows``
    equalities on 1-4 entries each, off-diagonal ones among them; the last
    block is in no equality."""
    p = ConicProblem()
    w = [expr(p.add_nonneg_var()) for _ in range(nonneg)]
    blocks = [p.add_psd_block(d) for d in dims]
    entries = w + [X.entry(i, j) for X in blocks[:-1] for i in range(X.dim) for j in range(i, X.dim)]
    p.add_equality(sum((X.entry(0, X.dim - 1) for X in blocks[:-1] if X.dim > 1), LinExpr()), 1.0)
    for _ in range(rows):
        picks = rng.choice(len(entries), size=int(rng.integers(1, 5)), replace=False)
        p.add_equality(sum((float(rng.normal()) * entries[k] for k in picks), LinExpr()), 1.0)
    return p


def _dense_schur(cp, sc, i):
    """sum over the blocks of tr(A_j T A_k T) from the dense constraint
    matrices of each block, with T = w on the orthant and R R' per block."""
    A = cp.A[:, cp.f :].toarray()
    S = (A[:, : cp.q] * sc.w[i] ** 2) @ A[:, : cp.q].T
    for (gi, j), (dim, seg) in zip(_block_order(ipm._Cone(cp)), oracles._segments(cp)):
        T = sc.R[gi][i, j] @ sc.RT[gi][i, j]
        mats = [oracles.unsvec(r, dim) @ T for r in A[:, seg]]
        S += [[np.trace(Mj @ Mk) for Mk in mats] for Mj in mats]
    return S


@pytest.mark.parametrize("nonneg, dims", [
    (0, [1]),  # one 1x1 block that no row touches: no pairs at all
    (3, [3, 2, 3, 4, 2]),  # offsets after orthant columns and after blocks of other sizes
    (0, [2, 5, 3, 3]),  # no orthant: the 3x3 blocks start at svec offsets 18 and 24
    (2, [1, 4, 1, 2]),  # 1x1 blocks join the orthant
])
def test_pairs_sum_the_dense_schur_definition(nonneg, dims):
    rng = np.random.default_rng(len(dims) + nonneg)
    if dims == [1]:
        p = ConicProblem()
        p.set_objective(p.add_psd_block(1).entry(0, 0))
    else:
        p = _sparse_problem(rng, nonneg, dims, 12)
    cp = ipm.compile_problem(p)
    cone, A_c = ipm._Cone(cp), cp.A[:, cp.f :].tocsr()
    # two batch rows with scalings of their own, so row 1 cannot be read as row 0
    x, z = np.stack([_interior(rng, cp) for _ in range(2)]), np.stack([_interior(rng, cp) for _ in range(2)])
    sc, pairs = ipm._Scaling(cone, x, z), ipm._pairs(cone, A_c)
    for i in range(2):
        S, ref = ipm._schur(sc, pairs, cp.m, i), _dense_schur(cp, sc, i)
        assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max(initial=0.0)
    if cp.A.nnz:
        assert not np.allclose(ipm._schur(sc, pairs, cp.m, 0), ipm._schur(sc, pairs, cp.m, 1))


def _fingerprint(sol):
    arrays = [a for a in (sol.values, sol.eq_duals) if a is not None]
    return (sol.status, sol.reason, sol.iterations, sol.objective_value.hex(),
            sol.dual_objective.hex(), sol.eq_residual.hex(), sol.min_block_eig.hex(),
            [(a.shape, a.tobytes()) for a in arrays])


def _alone(problem, objectives, **kw):
    """Fingerprints of each objective's solve on its own."""
    out = []
    for obj in objectives:
        problem.set_objective(obj)
        out.append(_fingerprint(problem.solve(**kw)))
    return out


def test_concurrent_solves_match_sequential_solves():
    # distinct problems with mixed block sizes, more threads than cores and
    # frequent thread switches: shared solver state would show as a changed bit
    mixes = ([2, 3, 2], [4, 1, 3, 3], [5, 2], [3, 3, 3, 2, 4], [2, 2, 1, 5], [3, 4])
    problems = [_problem(np.random.default_rng(seed), dims, 2, 1) for seed, dims in enumerate(mixes)]
    sequential = [_fingerprint(p.solve()) for p in problems]
    assert all(fp[0] is Status.OPTIMAL for fp in sequential)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(lambda p: _fingerprint(p.solve()), problems * 3, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == sequential * 3


def _ray_problem():
    """A 2x2 PSD block of trace 1 next to an x >= 0 in no equality: min x is
    optimal, min -x unbounded.  Returns the problem and four objectives."""
    p = ConicProblem()
    X = p.add_psd_block(2)
    x = p.add_nonneg_var()
    p.add_equality(X.entry(0, 0) + X.entry(1, 1), 1.0)
    return p, [expr(x), -1.0 * expr(x), X.entry(0, 1), X.entry(0, 0) - X.entry(1, 1) + expr(x)]


def test_reasons_name_why_each_solve_ended_in_a_batch_as_alone():
    ray, objectives = _ray_problem()
    empty = ConicProblem()
    Y = empty.add_psd_block(2)
    empty.add_equality(Y.entry(0, 0) + Y.entry(1, 1), -1.0)  # no PSD matrix has trace -1
    cases = [
        (ray, objectives, {}, ["optimal", "unbounded", "optimal", "optimal"]),
        (ray, objectives[2:], {"max_iter": 2}, ["max_iter", "max_iter"]),
        # at a tolerance below rounding level the best iterate is taken back
        (ray, objectives, {"tol": 1e-15}, ["optimal", "unbounded", "optimal", "rescued_breakdown"]),
        (ray, objectives[2:], {"tol": 1e-15, "max_iter": 8}, ["rescued_max_iter", "rescued_max_iter"]),
        (empty, [Y.entry(0, 1), Y.entry(0, 0)], {}, ["infeasible", "infeasible"]),
    ]
    for problem, objs, kw, reasons in cases:
        batch = problem.solve_many(objs, **kw)
        assert [sol.reason for sol in batch] == reasons
        assert [_fingerprint(sol) for sol in batch] == _alone(problem, objs, **kw)
    assert [sol.status for sol in ray.solve_many(objectives)] == [
        Status.OPTIMAL, Status.UNBOUNDED, Status.OPTIMAL, Status.OPTIMAL]
    assert ray.solve_many(objectives[2:], max_iter=2)[0].status is Status.NUMERICAL_FAILURE
    assert ray.solve_many(objectives[2:], tol=1e-15, max_iter=8)[0].status is Status.OPTIMAL
    assert [ConicSolution(why).status for why in ("stalled", "rescued_stalled")] == [
        Status.NUMERICAL_FAILURE, Status.OPTIMAL]
    with pytest.raises(KeyError):  # a reason outside the list is never read as a status
        ipm._extract(ray, None, None, "converged", 1, None, 1e-8)
    # a batch of one is the first member's solve alone, and an empty batch is empty
    assert [_fingerprint(sol) for sol in ray.solve_many(objectives[:1])] == _alone(ray, objectives[:1])
    assert ray.solve_many([]) == []


def test_an_inaccurate_optimum_is_a_numerical_failure_that_names_its_reason():
    p = ConicProblem()
    X = p.add_psd_block(2)
    p.add_equality(X.entry(0, 0) + X.entry(1, 1), 1.0)
    p.set_objective(X.entry(0, 1))
    cp = ipm.compile_problem(p)
    cone = ipm._Cone(cp)
    # the iterate 5*I ends "optimal" but misses trace 1 by 9
    iterate = (np.zeros(cp.f), 5.0 * cone.identity(), np.zeros(cp.m), 1.0)
    sol = ipm._extract(p, cone, ipm._cost(p.objective, cp.col, cp.scale), "optimal", 3, iterate, 1e-8)
    assert (sol.status, sol.reason, sol.eq_residual) == (Status.NUMERICAL_FAILURE, "inaccurate", 9.0)
    with pytest.raises(SolverError, match=r"status is NumericalFailure \(inaccurate\)"):
        sol.value(X)


def test_a_stalled_member_returns_the_iterate_max_iter_would(quad_game):
    # on quad d=2 some members find their best iterate early and then no
    # better one; since a best iterate changes only when a better one comes,
    # a run cut just before the stall ending returns the same iterate
    problem, moments = build_relaxation(quad_game, RelaxationOrder.auto(quad_game, 2))
    payoffs = [sum((coef * expr(moments[e]) for e, coef in u.terms.items()), LinExpr())
               for u in quad_game.utilities]
    objectives = [sign * payoff for payoff in payoffs for sign in (-1.0, 1.0)]
    batch = problem.solve_many(objectives)
    stalled = [k for k, sol in enumerate(batch) if sol.reason == "rescued_stalled"]
    assert stalled
    cap = min(batch[k].iterations for k in stalled) - 1
    capped = problem.solve_many(objectives, max_iter=cap)
    for k in stalled:
        a, b = batch[k], capped[k]
        assert b.reason == "rescued_max_iter"
        assert (a.values.tobytes(), a.objective_value.hex(), a.eq_duals.tobytes()) == (
            b.values.tobytes(), b.objective_value.hex(), b.eq_duals.tobytes())
    assert [_fingerprint(sol) for sol in capped] == _alone(problem, objectives, max_iter=cap)


@pytest.mark.parametrize("reason", ["max_iter", "breakdown", "stalled"])
def test_a_failed_solve_reaches_each_method_as_an_error_that_names_its_reason(quad_game, monkeypatch, reason):
    def fail(problem, objectives, tol=1e-8, max_iter=200):
        return [ConicSolution(reason, iterations=max_iter) for _ in objectives]

    monkeypatch.setattr(ipm, "solve_many", fail)
    order = RelaxationOrder.auto(quad_game, 1)
    calls = [
        lambda: run_adaptive(quad_game, [[0.0], [0.0]]),
        lambda: payoff_bounds(quad_game, order),
    ]
    for call in calls:
        with pytest.raises(SolverError, match=rf"status is NumericalFailure \({reason}\)"):
            call()
    # the membership test of concrete moments makes no conic solve, so the
    # game's equilibrium passes it while every solve fails
    equilibrium = MomentVector.from_measure(SupportedDistribution.point_mass((1.0, 1.0)), 2, 2 * order.r)
    assert check_moment_membership(quad_game, order, equilibrium)


def test_a_breakdown_ends_only_its_own_member(monkeypatch):
    ray, objectives = _ray_problem()
    # a NaN cost gives a non-finite step in its first iteration
    objs = [objectives[2], float("nan") * objectives[3], objectives[0]]
    batch = ray.solve_many(objs)
    assert [(sol.status, sol.reason, sol.iterations) for sol in batch[1:2]] == [
        (Status.NUMERICAL_FAILURE, "breakdown", 1)]
    assert [_fingerprint(sol) for sol in batch] == _alone(ray, objs)
    # when a stacked kernel raises, the step is redone row by row, and a row
    # whose own kernel raises ends in a breakdown
    real = ipm._Scaling

    def batch_fails(cone, x, z):
        if len(x) > 1:
            raise np.linalg.LinAlgError("stacked kernel failed")
        return real(cone, x, z)

    def always_fails(cone, x, z):
        raise np.linalg.LinAlgError("kernel failed")

    monkeypatch.setattr(ipm, "_Scaling", batch_fails)
    assert [_fingerprint(sol) for sol in ray.solve_many(objectives)] == _alone(ray, objectives)
    monkeypatch.setattr(ipm, "_Scaling", always_fails)
    assert [(sol.reason, sol.iterations) for sol in ray.solve_many(objectives[2:])] == [
        ("breakdown", 1), ("breakdown", 1)]


@pytest.mark.parametrize("query, d", [("bounds", 0), ("bounds", 1), ("region", 1)])
def test_batched_support_points_match_their_solves_alone(quad_game, monkeypatch, query, d):
    batches = []
    real = ConicProblem.solve_many

    def spy(self, objectives, **kw):
        batches.append((self, objectives, kw, real(self, objectives, **kw)))
        return batches[-1][-1]

    monkeypatch.setattr(ConicProblem, "solve_many", spy)
    order = RelaxationOrder.auto(quad_game, d)
    if query == "bounds":
        payoff_bounds(quad_game, order)
    else:
        payoff_region_sketch(quad_game, order, 8)
    (problem, objectives, kw, sols), = batches
    assert len(sols) == (4 if query == "bounds" else 8)
    assert [_fingerprint(sol) for sol in sols] == _alone(problem, objectives, **kw)
