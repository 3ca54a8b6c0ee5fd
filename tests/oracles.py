"""Brute-force oracles kept independent of the library code paths."""

import itertools
import math

import numpy as np

from polyce.conic import ConicProblem, expr
from polyce.moments import _deviation_matrix_entries
from polyce.sos import matrix_psd_on_interval_constraint


def dense_max_on_interval(coeffs, points=200001):
    """Independent oracle for univariate maximization: dense sampling."""
    ts = np.linspace(-1.0, 1.0, points)
    vals = np.polynomial.polynomial.polyval(ts, np.asarray(coeffs, dtype=float))
    k = int(np.argmax(vals))
    return float(ts[k]), float(vals[k])


def polish_root(deriv, t):
    """One start's Newton polish on the derivative, clamped to [-1,1]: at
    most 12 scalar steps, stopping at a zero slope, a non-finite step or a
    step below 1e-14."""
    d2 = np.polynomial.polynomial.polyder(deriv)
    for _ in range(12):
        slope = np.polynomial.polynomial.polyval(t, d2)
        if slope == 0.0:
            break
        step = np.polynomial.polynomial.polyval(t, deriv) / slope
        if not math.isfinite(step):
            break
        t = min(1.0, max(-1.0, t - step))
        if abs(step) < 1e-14:
            break
    return t


def departure_gain(fg, dist, player, zeta):
    """Total expected gain for one player from the departure map ``zeta``
    (index -> index), enumerated cell by cell."""
    total = 0.0
    shape = fg.shape
    for cell in itertools.product(*(range(s) for s in shape)):
        p = float(dist.probs[cell])
        if p == 0.0:
            continue
        dev = list(cell)
        dev[player] = zeta[cell[player]]
        total += p * float(fg.payoffs[player][tuple(dev)] - fg.payoffs[player][cell])
    return total


def all_departures(size):
    return itertools.product(range(size), repeat=size)


def max_departure_gain(fg, dist):
    """Brute-force oracle over every departure function of every player."""
    worst = 0.0
    for i in range(fg.num_players):
        size = fg.shape[i]
        for zeta in all_departures(size):
            worst = max(worst, departure_gain(fg, dist, i, zeta))
    return worst


def max_single_deviation_gain(fg, dist):
    """Largest gain over every (player, s, t): the departure that moves only
    recommendation s to t."""
    worst = 0.0
    for i in range(fg.num_players):
        size = fg.shape[i]
        for s in range(size):
            for t in range(size):
                zeta = list(range(size))
                zeta[s] = t
                worst = max(worst, departure_gain(fg, dist, i, zeta))
    return worst


def poly_value(u, point):
    """A MultiPoly evaluated term by term."""
    return sum(c * math.prod(x**e for x, e in zip(point, exp)) for exp, c in u.terms.items())


def deviation_gain_at(game, dist, player, s_idx, t):
    """Gain of deviating from recommendation ``s_idx`` to t, summed cell by
    cell with term-by-term utility values."""
    u = game.utilities[player]
    total = 0.0
    for cell in itertools.product(*(range(len(g)) for g in dist.grids)):
        if cell[player] != s_idx:
            continue
        point = [float(g[k]) for g, k in zip(dist.grids, cell)]
        dev = list(point)
        dev[player] = t
        total += float(dist.probs[cell]) * (poly_value(u, dev) - poly_value(u, point))
    return total


def sdp_deviation_margin(game, order, mv):
    """The deviation margin as one SDP through the IPM: the smallest lam such
    that every player's deviation-gain matrix minus lam*I is negative
    semidefinite on [-1,1], written as the interval SOS identity of
    :func:`polyce.sos.matrix_psd_on_interval_constraint`."""
    problem = ConicProblem()
    lam = problem.add_scalar_var()
    for i in range(game.num_players):
        entries, t_deg = _deviation_matrix_entries(game, i, order, mv.__getitem__, expr(lam))
        matrix_psd_on_interval_constraint(problem, entries, order.d + 1, t_deg)
    problem.set_objective(expr(lam))
    return problem.solve(tol=1e-8).value(lam)


def dense_ce_rows(fg):
    """The cells in C order and every CE deviation row over them, written out
    cell by cell."""
    cells = list(itertools.product(*(range(s) for s in fg.shape)))
    rows = []
    for i in range(fg.num_players):
        for s in range(fg.shape[i]):
            for t in range(fg.shape[i]):
                if t == s:
                    continue
                row = np.zeros(len(cells))
                for k, cell in enumerate(cells):
                    if cell[i] == s:
                        dev = list(cell)
                        dev[i] = t
                        row[k] = fg.payoffs[i][tuple(dev)] - fg.payoffs[i][cell]
                rows.append(row)
    return cells, np.array(rows).reshape(-1, len(cells))


def dense_ce_lp_value(fg, objective):
    """Largest value of ``objective`` (cell -> coefficient) over the CE
    polytope, from a dense LP whose rows are written out cell by cell."""
    from scipy.optimize import linprog

    cells, rows = dense_ce_rows(fg)
    c = np.array([-float(objective[cell]) for cell in cells])
    res = linprog(
        c, A_ub=rows, b_ub=np.zeros(len(rows)),
        A_eq=np.ones((1, len(cells))), b_eq=[1.0], bounds=(0, None), method="highs-ipm",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def dense_ce_minmax_level(fg):
    """Smallest possible largest cell probability of a CE: the dense CE rows
    plus p <= t for every cell, minimizing t."""
    from scipy.optimize import linprog

    cells, rows = dense_ce_rows(fg)
    n = len(cells)
    A_ub = np.block([[rows, np.zeros((len(rows), 1))], [np.eye(n), -np.ones((n, 1))]])
    c = np.zeros(n + 1)
    c[n] = 1.0
    A_eq = np.ones((1, n + 1))
    A_eq[0, n] = 0.0
    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq, b_eq=[1.0],
        bounds=(0, None), method="highs-ipm",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def dense_finite_iteration_value(fg, subsets, alpha, degenerate=False):
    """Optimal eps of the adaptive loop's iteration LP on a finite game over
    the strategy index ``subsets``, from a dense LP written out cell by cell:
    gains within the subsets <= alpha * eps (dropped when degenerate), every
    gain to the full strategy set <= ev[i, s], and sum_s ev[i, s] <= eps."""
    from scipy.optimize import linprog

    cells = list(itertools.product(*subsets))
    evs = [(i, s) for i in range(fg.num_players) for s in subsets[i]]
    n = len(cells)
    width = n + 1 + len(evs)

    def gain_row(i, s, t):
        row = np.zeros(width)
        for k, cell in enumerate(cells):
            if cell[i] == s:
                dev = list(cell)
                dev[i] = t
                row[k] = fg.payoffs[i][tuple(dev)] - fg.payoffs[i][cell]
        return row

    rows = []
    for i in range(fg.num_players):
        for s in subsets[i]:
            for t in range(fg.shape[i]):
                if not degenerate and t in subsets[i] and t != s:
                    row = gain_row(i, s, t)
                    row[n] = -alpha
                    rows.append(row)
                row = gain_row(i, s, t)
                row[n + 1 + evs.index((i, s))] = -1.0
                rows.append(row)
        row = np.zeros(width)
        row[n] = -1.0
        for k, (j, _) in enumerate(evs):
            if j == i:
                row[n + 1 + k] = 1.0
        rows.append(row)
    c = np.zeros(width)
    c[n] = 1.0
    A_eq = np.zeros((1, width))
    A_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=A_eq, b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)] * (1 + len(evs)), method="highs-ipm",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def dense_iteration_value(game, grids, alpha, degenerate):
    """Optimal eps of the adaptive loop's iteration problem on a polynomial
    game over the point ``grids``, from a dense LP whose deviations are 2001
    equispaced points of [-1, 1] plus the grid points, written out cell by
    cell with term-by-term utility values: gains within the grids
    <= alpha * eps (dropped when degenerate), every gain to a deviation
    point <= ev[i, s], and sum_s ev[i, s] <= eps.  Solved by HiGHS."""
    from scipy.optimize import linprog

    cells = list(itertools.product(*(range(len(g)) for g in grids)))
    evs = [(i, s) for i in range(len(grids)) for s in range(len(grids[i]))]
    n = len(cells)
    width = n + 1 + len(evs)
    rows = []
    for i, u in enumerate(game.utilities):
        devs = np.concatenate([np.linspace(-1.0, 1.0, 2001), grids[i]])
        for s in range(len(grids[i])):
            gain = np.zeros((len(devs), width))
            for k, cell in enumerate(cells):
                if cell[i] == s:
                    point = [float(g[j]) for g, j in zip(grids, cell)]
                    dev = list(point)
                    dev[i] = devs
                    gain[:, k] = poly_value(u, dev) - poly_value(u, point)
            if not degenerate:
                restricted = gain[2001:][np.arange(len(grids[i])) != s]
                restricted[:, n] = -alpha
                rows.append(restricted)
            gain[:, n + 1 + evs.index((i, s))] = -1.0
            rows.append(gain)
        total = np.zeros((1, width))
        total[0, n] = -1.0
        total[0, [n + 1 + k for k, (j, _) in enumerate(evs) if j == i]] = 1.0
        rows.append(total)
    A_ub = np.vstack(rows)
    c = np.zeros(width)
    c[n] = 1.0
    A_eq = np.zeros((1, width))
    A_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq, b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)] * (1 + len(evs)), method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def atom_localizing_matrices(atoms, weights, r):
    """Moment matrix of half-order r, then the localizing matrix of
    half-order r-1 for each weight 1 - x_v^2, of the measure
    sum_k weights[k] * delta(atoms[k]), each built densely as
    sum_k w_k g(x_k) b(x_k) b(x_k)' over the graded-lex monomial basis b."""
    n = atoms.shape[1]

    def basis(x, half):
        exps = [e for e in itertools.product(range(half + 1), repeat=n) if sum(e) <= half]
        exps.sort(key=lambda e: (sum(e), e))
        return np.array([math.prod(xi**k for xi, k in zip(x, e)) for e in exps])

    mats = [sum(w * np.outer(basis(x, r), basis(x, r)) for x, w in zip(atoms, weights))]
    for v in range(n):
        mats.append(sum(w * (1.0 - x[v] ** 2) * np.outer(basis(x, r - 1), basis(x, r - 1))
                        for x, w in zip(atoms, weights)))
    return mats


# ---------------------------------------------------------------------------
# per-block cone kernels of the conic IPM: one loop iteration per PSD block,
# each block unpacked from and packed into its own svec segment


def _svec_index(dim):
    rows, cols = np.triu_indices(dim)
    return rows, cols, np.where(rows == cols, 1.0, np.sqrt(2.0))


def svec(mat):
    rows, cols, scale = _svec_index(mat.shape[0])
    return mat[rows, cols] * scale


def unsvec(v, dim):
    rows, cols, scale = _svec_index(dim)
    vals = v / scale
    mat = np.empty((dim, dim))
    mat[rows, cols] = vals
    mat[cols, rows] = vals
    return mat


def _segments(cp):
    for dim, off in zip(cp.block_dims, cp.block_offsets):
        yield dim, slice(cp.q + off, cp.q + off + dim * (dim + 1) // 2)


def cone_blocks(cp, v):
    """The PSD blocks of the cone vector v, unpacked one by one."""
    return [unsvec(v[seg], dim) for dim, seg in _segments(cp)]


class BlockScaling:
    """NT scaling per block: X = R Lam R', Z = R^{-T} Lam R^{-1}."""

    def __init__(self, cp, x, z):
        q = cp.q
        self.w2 = x[:q] / z[:q]
        self.lam_orth = np.sqrt(x[:q] * z[:q])
        self.R, self.Rinv, self.lam = [], [], []
        for X, Z in zip(cone_blocks(cp, x), cone_blocks(cp, z)):
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
            U, sv, Vt = np.linalg.svd(Lz.T @ Lx)
            sq = np.sqrt(sv)
            self.R.append(Lx @ Vt.T / sq)
            self.Rinv.append((U.T @ Lz.T) / sq[:, None])
            self.lam.append(sv)


def block_apply_T(cp, sc, u):
    out = np.empty_like(u)
    out[: cp.q] = sc.w2 * u[: cp.q]
    for R, U, (dim, seg) in zip(sc.R, cone_blocks(cp, u), _segments(cp)):
        out[seg] = svec(R @ (R.T @ U @ R) @ R.T)
    return out


def block_scale_down(cp, sc, u, dual):
    w = np.sqrt(sc.w2)
    orth = u[: cp.q] * w if dual else u[: cp.q] / w
    if dual:
        return orth, [R.T @ U @ R for R, U in zip(sc.R, cone_blocks(cp, u))]
    return orth, [Ri @ U @ Ri.T for Ri, U in zip(sc.Rinv, cone_blocks(cp, u))]


def block_from_scaled_primal(cp, sc, orth, mats):
    out = np.zeros(cp.cone_dim)
    out[: cp.q] = orth * np.sqrt(sc.w2)
    for R, M, (dim, seg) in zip(sc.R, mats, _segments(cp)):
        out[seg] = svec(R @ M @ R.T)
    return out


def block_max_step(sc, orth_dir, mat_dirs):
    alpha = np.inf
    neg = orth_dir < 0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-sc.lam_orth[neg] / orth_dir[neg])))
    for lam, D in zip(sc.lam, mat_dirs):
        M = D / np.sqrt(np.outer(lam, lam))
        emin = float(np.linalg.eigvalsh((M + M.T) / 2)[0])
        if emin < 0:
            alpha = min(alpha, 1.0 / (-emin))
    return alpha


def block_centrality(sc, sd_x, sd_z, alpha):
    out = []
    for lam, X, Z in zip(sc.lam, sd_x, sd_z):
        P = (np.diag(lam) + alpha * X) @ (np.diag(lam) + alpha * Z)
        out.append(float(np.linalg.eigvalsh((P + P.T) / 2)[0]))
    return out


def block_targets(sc, sdx, sdz, smu):
    d_orth = (smu - sc.lam_orth**2 - sdx[0] * sdz[0]) / sc.lam_orth
    d_mats = []
    for lam, X, Z in zip(sc.lam, sdx[1], sdz[1]):
        corr = (X @ Z + Z @ X) / 2.0
        N = smu * np.eye(len(lam)) - np.diag(lam**2) - corr
        d_mats.append(2.0 * N / np.add.outer(lam, lam))
    return d_orth, d_mats


def block_schur(cp, sc, A_cone):
    """A T A' with the constraint matrices unpacked block by block."""
    m = cp.m
    A_orth = A_cone[:, : cp.q].tocsr()
    S = (A_orth.multiply(sc.w2[None, :])).dot(A_orth.T).toarray() if cp.q \
        else np.zeros((m, m))
    for R, (dim, seg) in zip(sc.R, _segments(cp)):
        rows = A_cone[:, seg].toarray()
        mats = np.stack([unsvec(r, dim) for r in rows])
        flat = np.matmul(np.matmul(R.T, mats), R).reshape(m, dim * dim)
        S += flat @ flat.T
    return S


# ---------------------------------------------------------------------------
# compilation of a built conic problem, one variable at a time


def compiled_arrays(p):
    """Row-scaled A and b, c over its largest magnitude, and both scales of
    a ConicProblem, mapping each variable to its solver column by a loop:
    free scalars, nonnegative scalars, 1x1 blocks, then the upper triangle of
    each larger block row by row, off-diagonal entries over sqrt 2."""
    def position(e):
        (key,) = e.coeffs
        return key

    column = {}
    for v in [v for v in p.scalars if not v.nonneg] + [v for v in p.scalars if v.nonneg]:
        column[v.index] = (len(column), 1.0)
    for blk in p.blocks:
        if blk.dim == 1:
            column[position(blk.entry(0, 0))] = (len(column), 1.0)
    for blk in p.blocks:
        if blk.dim > 1:
            for i in range(blk.dim):
                for j in range(i, blk.dim):
                    scale = 1.0 if i == j else 1.0 / math.sqrt(2.0)
                    column[position(blk.entry(i, j))] = (len(column), scale)

    m = max(len(p.equalities), 1)
    A, b, c = np.zeros((m, len(column))), np.zeros(m), np.zeros(len(column))
    for r, (coeffs, rhs) in enumerate(p.equalities):
        b[r] = rhs
        for key, coef in coeffs.items():
            k, scale = column[key]
            A[r, k] += coef * scale
    for key, coef in p.objective.coeffs.items():
        k, scale = column[key]
        c[k] += coef * scale
    row_scale = np.maximum(np.maximum(np.abs(A).max(axis=1), np.abs(b)), 1e-8)
    obj_scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    return A * (1.0 / row_scale)[:, None], b / row_scale, c / obj_scale, row_scale, obj_scale
