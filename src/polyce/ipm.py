"""Primal-dual interior-point method for equality-form conic programs.

Solves  min c.x  s.t.  A x = b,  x in K,  where K is a product of a free
subspace, a nonnegative orthant, and PSD matrix cones (svec-packed).  The
algorithm is the homogeneous self-dual embedding with Nesterov-Todd scaling
and a Mehrotra predictor-corrector, which yields clean infeasibility and
unboundedness certificates alongside optimal solutions.  The centering
parameter is sigma = mu_aff / mu clipped to [0, 1] on every solve.

``compile_problem`` maps the builder's variable vector to solver columns
through two arrays made once: ``col`` (variable -> column) and ``scale``
(sqrt 2 on off-diagonal PSD entries, else 1).  Free scalars come first, then
the orthant (nonnegative scalars, then 1x1 blocks), then one svec segment per
larger block.  A coefficient on variable v goes to column ``col[v]`` divided
by ``scale[v]``, and the solution is read back as ``x[col] / scale``.

The cone layer holds the PSD blocks of each dimension d as one (k, d, d)
stack, reached through one gather (svec -> d x d) and one scatter
(d x d -> svec) index per stack, so each cone kernel runs once per block size
with the arithmetic of a per-block loop.  The matvecs A x and A' y are
bincounts that add in scipy's csr_matvec order, so they match scipy.sparse to
the bit.  The Schur complement A T A' is one sum of the element-wise terms of
Fujisawa, Kojima & Nakata (Math. Prog. 1997) over every two nonzeros that two
rows hold in one block, an orthant column being a 1x1 block (``_pairs``).  It
matches the per-block oracle the tests keep to rounding, not to the bit.  Its
40-byte pairs grow as the square of a block's nonzeros: 16k on the quad game's
order-2 moment relaxation (134 equalities), 1.06M in 42 MB at order 5 (995).

``solve_many`` solves one problem under several objectives in lockstep, and
``solve`` is its batch of one.  Iterates carry a leading batch axis, one row
per member still running; a member leaves when it ends, and keeps its own
tau, kappa, mu, sigma, step lengths, centrality backtracking, best iterate
and termination tests, as float64 arrays over the running members that round
as scalars would (a NaN residual ends its member as a breakdown, where a
scalar ``max`` could drop it).  A member ends "optimal", "breakdown",
"infeasible", "unbounded" or, after ``_STALL_WINDOW`` iterations with no new
best iterate, "stalled", the first of these that holds, and at ``max_iter``
it ends "max_iter".  A member that ends other than optimal returns its best
iterate, as "rescued_<reason>", when that iterate met the rescue tolerance.
Each member's Schur complement, K2 and LU factors (LAPACK getrf) are made in
turn.  The batched forms repeat the unbatched arithmetic per row (NumPy
2.2's ``np.vecdot`` and ``np.matvec``, bincount bins offset per row, matmul
and LAPACK on stacks; ``einsum``, ``.sum`` and ``x @ A.T`` round
differently), so a member ends as its solve alone would, and a breakdown
ends only its own.  A problem without a cone has no interior to follow:
``ConicProblem.solve`` rejects it, and linear programs go to HiGHS instead
(``finite_ce.solve_lp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from .conic import _STATUS, ConicProblem, ConicSolution, LinExpr, Status, _triangle

_REG = 1e-10  # static regularization of the KKT system
_STEP_FRAC = 0.98
_NEIGHBORHOOD = 1e-3  # wide-neighborhood centrality floor, min(x.z)/mu
# iterations in a row without a new best iterate that end a member as
# "stalled".  Before an "optimal" ending the longest such stretch is 22 in the
# tests (two BLAS threads) and 2 in the benchmark; the three quad d=2 members
# of seed-0 moments-sdp that stall find their best iterate by iteration 21
_STALL_WINDOW = 60


# ---------------------------------------------------------------------------
# compilation: builder -> standard form


@dataclass
class Compiled:
    m: int                      # equalities
    f: int                      # free scalars
    q: int                      # orthant scalars (incl. 1x1 blocks)
    block_dims: list[int]       # PSD blocks of dim >= 2
    block_offsets: list[int]    # svec offsets within the cone segment
    cone_dim: int               # q + total svec length
    A: sp.csr_matrix            # m x (f + cone_dim)
    b: np.ndarray
    col: np.ndarray             # builder variable -> column
    scale: np.ndarray           # builder variable -> svec scale (1 or sqrt 2)
    row_scale: np.ndarray


def compile_problem(p: ConicProblem) -> Compiled:
    """The constraints of ``p`` in solver columns; objectives go through :func:`_cost`."""
    # groups 0-3: free scalars, nonnegative scalars, 1x1 blocks, larger blocks
    group = np.full(p.num_vars, 3)
    group[[v.index for v in p.scalars]] = [int(v.nonneg) for v in p.scalars]
    group[[blk.start for blk in p.blocks if blk.dim == 1]] = 2
    col = np.empty(p.num_vars, dtype=np.intp)
    col[np.argsort(group, kind="stable")] = np.arange(p.num_vars)
    f = int(np.count_nonzero(group == 0))
    q = int(np.count_nonzero(group < 3)) - f
    psd = [blk for blk in p.blocks if blk.dim > 1]
    scale = np.ones(p.num_vars)
    for blk in psd:
        svec_scale = _triangle(blk.dim)[3]
        scale[blk.start : blk.start + svec_scale.size] = svec_scale

    m = len(p.equalities)
    keys = np.fromiter((k for coeffs, _ in p.equalities for k in coeffs), dtype=np.intp)
    vals = np.fromiter((v for coeffs, _ in p.equalities for v in coeffs.values()), dtype=float)
    rows = np.repeat(np.arange(m), [len(coeffs) for coeffs, _ in p.equalities])
    b = np.zeros(max(m, 1))
    b[:m] = [rhs for _, rhs in p.equalities]
    if m == 0:
        m = 1  # dummy all-zero row keeps the HSD machinery uniform
    A = sp.csr_matrix((vals * (1.0 / scale)[keys], (rows, col[keys])), shape=(m, p.num_vars))

    row_scale = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), np.abs(b))
    row_scale = np.maximum(row_scale, 1e-8)
    A = sp.diags(1.0 / row_scale) @ A
    b = b / row_scale
    return Compiled(
        m=m, f=f, q=q, block_dims=[blk.dim for blk in psd],
        block_offsets=[int(col[blk.start]) - f - q for blk in psd],
        cone_dim=p.num_vars - f, A=A.tocsr(), b=b, col=col, scale=scale,
        row_scale=row_scale,
    )


def _cost(e: LinExpr, col: np.ndarray, scale: np.ndarray) -> tuple:
    """Objective ``e`` in solver columns: (c / obj_scale, obj_scale, const)."""
    c = np.zeros(col.size)
    keys = np.fromiter(e.coeffs, dtype=np.intp)
    c[col[keys]] += np.fromiter(e.coeffs.values(), dtype=float) * (1.0 / scale)[keys]
    obj_scale = max(1.0, np.abs(c).max() if c.size else 1.0)
    return c / obj_scale, obj_scale, e.const


# ---------------------------------------------------------------------------
# cone operations on (k, d, d) stacks, one per PSD block size


class _Group:
    """The PSD blocks ``blocks`` of one dimension, whose svec segments start
    at ``starts`` in the cone vector."""

    def __init__(self, dim: int, blocks: np.ndarray, starts: np.ndarray):
        pos, self.scale_dd, self.flat, self.scale = _triangle(dim)
        self.dim, self.blocks = dim, blocks
        self.gather = starts[:, None, None] + pos  # (k, d, d) -> cone position
        self.scatter = starts[:, None] + np.arange(self.scale.size)  # svec -> cone position

    def unpack(self, v: np.ndarray) -> np.ndarray:
        return v.take(self.gather, axis=-1) / self.scale_dd

    def pack(self, mats: np.ndarray, out: np.ndarray) -> None:
        out[..., self.scatter] = mats.reshape(mats.shape[:-2] + (-1,))[..., self.flat] * self.scale


class _Scaling:
    """NT scaling: w on the orthant and, per group, the stacks R, R^{-1} and
    lam with X = R Lam R', Z = R^{-T} Lam R^{-1} (the transposes are views),
    each with the leading batch axes of x and z."""

    def __init__(self, cone: _Cone, x: np.ndarray, z: np.ndarray):
        q = cone.q
        self.w2 = x[..., :q] / z[..., :q]
        self.w = np.sqrt(self.w2)
        self.lam_orth = np.sqrt(x[..., :q] * z[..., :q])
        self.R, self.Rinv, self.lam = [], [], []
        xz = np.stack([x, z])
        for g in cone.groups:
            Lx, Lz = np.linalg.cholesky(g.unpack(xz))
            U, sv, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Lx)
            sq = np.sqrt(sv)
            self.R.append(Lx @ Vt.swapaxes(-1, -2) / sq[..., None, :])
            self.Rinv.append((U.swapaxes(-1, -2) @ Lz.swapaxes(-1, -2)) / sq[..., :, None])
            self.lam.append(sv)
        self.RT = [R.swapaxes(-1, -2) for R in self.R]
        self.RinvT = [Ri.swapaxes(-1, -2) for Ri in self.Rinv]
        # diagonal stacks; singular values are finite and >= 0, so the
        # off-diagonal entries are +0.0 as in np.diag
        self.Lam = [lam[..., None] * np.eye(lam.shape[-1]) for lam in self.lam]


class _Cone:
    def __init__(self, cp: Compiled):
        self.cp, self.q = cp, cp.q
        self.nu = cp.q + sum(cp.block_dims)
        dims = np.array(cp.block_dims, dtype=int)
        starts = cp.q + np.array(cp.block_offsets, dtype=np.intp)
        self.groups = [_Group(d, np.flatnonzero(dims == d), starts[dims == d])
                       for d in dict.fromkeys(cp.block_dims)]
        # (group, index in group) of each block, in block order
        where = {k: (gi, j) for gi, g in enumerate(self.groups) for j, k in enumerate(g.blocks)}
        self.order = [where[k] for k in range(len(dims))]

    def identity(self) -> np.ndarray:
        e = np.zeros(self.cp.cone_dim)
        e[: self.q] = 1.0
        for g in self.groups:
            g.pack(np.broadcast_to(np.eye(g.dim), g.gather.shape), e)
        return e

    def apply_T(self, sc: _Scaling, u: np.ndarray) -> np.ndarray:
        """T u T with T = R R' per block; w^2 * u on the orthant."""
        out = np.empty_like(u)
        out[..., : self.q] = sc.w2 * u[..., : self.q]
        for g, R, RT in zip(self.groups, sc.R, sc.RT):
            g.pack(R @ (RT @ g.unpack(u) @ R) @ RT, out)
        return out

    def scale_down(self, sc: _Scaling, u: np.ndarray, dual: bool) -> tuple:
        """Scaled-space images: R' u R per block for dual vectors, R^{-1} u
        R^{-T} for primal; orthant entries multiplied/divided by w."""
        orth = u[..., : self.q] * sc.w if dual else u[..., : self.q] / sc.w
        left, right = (sc.RT, sc.R) if dual else (sc.Rinv, sc.RinvT)
        return orth, [L @ g.unpack(u) @ Rt for g, L, Rt in zip(self.groups, left, right)]

    def from_scaled_primal(self, sc: _Scaling, orth: np.ndarray, mats: list) -> np.ndarray:
        out = np.zeros(orth.shape[:-1] + (self.cp.cone_dim,))
        out[..., : self.q] = orth * sc.w
        for g, R, RT, M in zip(self.groups, sc.R, sc.RT, mats):
            g.pack(R @ M @ RT, out)
        return out

    def max_step(self, sc: _Scaling, *dirs: tuple) -> np.ndarray:
        """Per batch row, the largest alpha with lam + alpha*dir staying in
        the cone (scaled space) for each of the scaled directions (orth,
        mats) given."""
        steps = [np.where(d < 0, -sc.lam_orth / d, np.inf).min(-1, initial=np.inf) for d, _ in dirs]
        for gi, lam in enumerate(sc.lam):
            M = np.stack([d[1][gi] for d in dirs]) / np.sqrt(lam[..., :, None] * lam[..., None, :])
            # 1 / -e falls as e does, so the least eigenvalue bounds the step
            emin = np.linalg.eigvalsh((M + M.swapaxes(-1, -2)) / 2)[..., 0].min(axis=(0, -1))
            steps.append(np.where(emin < 0, 1.0 / -emin, np.inf))
        return np.min(steps, axis=0)

    def centrality(self, sc: _Scaling, sd_x: list, sd_z: list, alpha) -> list:
        """Per block, in block order, the smallest eigenvalue of the
        symmetrized (Lam + alpha dx)(Lam + alpha dz) in scaled space, one per
        batch row of alpha."""
        alpha, emins = np.asarray(alpha)[..., None, None, None], []
        for Lam, X, Z in zip(sc.Lam, sd_x, sd_z):
            P = (Lam + alpha * X) @ (Lam + alpha * Z)
            emins.append(np.linalg.eigvalsh((P + P.swapaxes(-1, -2)) / 2)[..., 0])
        return [emins[gi][..., j] for gi, j in self.order]

    def targets(self, sc: _Scaling, sdx: tuple, sdz: tuple, smu: float) -> tuple:
        """Corrector complementarity targets in scaled space: smu - lam^2
        minus the symmetrized second-order term of the predictor (sdx, sdz),
        through the inverse Lyapunov operator of Lam."""
        lam_o, smu = sc.lam_orth, np.asarray(smu)[..., None]
        d_orth = (smu - lam_o**2 - sdx[0] * sdz[0]) / lam_o
        d_mats = []
        for g, lam, Lam, X, Z in zip(self.groups, sc.lam, sc.Lam, sdx[1], sdz[1]):
            corr = (X @ Z + Z @ X) / 2.0
            N = smu[..., None, None] * np.eye(g.dim) - Lam**2 - corr
            d_mats.append(2.0 * N / (lam[..., :, None] + lam[..., None, :]))
        return d_orth, d_mats


# ---------------------------------------------------------------------------
# the solver


def _sums(bins: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The terms of each of n bins added one at a time from 0, in array order
    (a bincount, cast since it returns integers when there are no terms)."""
    return np.bincount(bins, terms, minlength=n).astype(float, copy=False)


def _matvec(A: sp.csr_matrix, batch: int):
    """v -> A v for each of the at most ``batch`` rows of v, as rows, each
    adding its products in stored order from 0, as scipy's csr_matvec does."""
    m, n = A.shape
    bins = np.repeat(np.arange(m), np.diff(A.indptr)) + m * np.arange(batch)[:, None]
    return lambda v: _sums(bins[: v.size // n].ravel(), (A.data * v.take(A.indices, axis=-1)).ravel(),
                           v.size // n * m).reshape(-1, m)


def _pairs(cone: _Cone, A_c: sp.csr_matrix) -> tuple:
    """For every two nonzeros a at (p, q) and b at (r, s) that the symmetric
    matrices of rows i and j of A_c hold in one block: i*m + j, a, b and the
    positions of T[q, r] and T[s, p] in the T of ``_schur``."""
    m, n, offset = cone.cp.m, cone.cp.cone_dim, cone.q
    # per cone column: its block (the column where it starts), the block's
    # offset in T and dim, and the column's (p, q) and 1 / svec scale
    blk, base, dim, inv, (p, q) = np.arange(n), np.arange(n), np.ones(n, int), np.ones(n), np.zeros((2, n), int)
    for g in cone.groups:
        at = g.scatter
        blk[at], base[at] = at[:, :1], offset + g.dim**2 * np.arange(len(at))[:, None]
        dim[at], inv[at], (p[at], q[at]) = g.dim, 1.0 / g.scale, np.triu_indices(g.dim)
        offset += len(at) * g.dim**2
    # row i's matrix holds an off-diagonal svec entry a as a / sqrt 2 at (p, q)
    # and (q, p); sorted stably by block, each entry pairs with all its block's
    A = A_c.tocoo()
    k = np.concatenate([np.arange(A.nnz), np.flatnonzero(p[A.col] != q[A.col])])
    j = np.argsort(blk[A.col[k]], kind="stable")
    c, row, flip = A.col[k[j]], A.row[k[j]].astype(np.intp), j >= A.nnz
    v, pp, qq = A.data[k[j]] * inv[c], np.where(flip, q[c], p[c]), np.where(flip, p[c], q[c])
    lo, hi = np.searchsorted(blk[c], blk[c]), np.searchsorted(blk[c], blk[c], "right")
    e = np.repeat(np.arange(c.size), hi - lo)
    f = np.arange(e.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
    b, d = base[c[e]], dim[c[e]]
    return row[e] * m + row[f], v[e], v[f], b + qq[e] * d + pp[f], b + qq[f] * d + pp[e]


def _by_rows(step, *rows) -> list:
    """``step(*rows)``, redone row by row when a stacked LAPACK kernel
    raises; a row whose own kernel raises gets a NaN step length."""
    try:
        return step(*rows)
    except np.linalg.LinAlgError:
        if len(rows[0]) == 1:
            return [np.full(1, np.nan), *rows[:6]]
    return [np.concatenate(d) for d in zip(*(_by_rows(step, *(v[i : i + 1] for v in rows))
                                             for i in range(len(rows[0]))))]


def _schur(sc: _Scaling, pairs: tuple, m: int, i: int) -> np.ndarray:
    """A T A' of batch row ``i`` of the scaling, with T = w on the orthant and
    R R' per block, flat: the terms a T[q, r] T[s, p] b of ``_pairs`` in order."""
    ij, a, b, t_qr, t_sp = pairs
    T = np.concatenate([sc.w[i], *((R[i] @ RT[i]).ravel() for R, RT in zip(sc.R, sc.RT))])
    return _sums(ij, a * T[t_qr] * T[t_sp] * b, m * m).reshape(m, m)


def solve(problem: ConicProblem, tol: float, max_iter: int) -> ConicSolution:
    """Solve a built problem under its own objective: a batch of one."""
    return solve_many(problem, [problem.objective], tol, max_iter)[0]


@np.errstate(divide="ignore", invalid="ignore")  # non-finite rows end as breakdowns
def solve_many(problem: ConicProblem, objectives: list, tol: float, max_iter: int) -> list[ConicSolution]:
    """Solve a built problem once per objective, all in lockstep, by
    predictor-corrector steps whose centering parameter is
    sigma = min(1, max(0, mu_aff / mu)), with mu_aff the complementarity the
    affine predictor step would reach; the module docstring lists its endings."""
    if problem.trivially_infeasible:
        return [ConicSolution("infeasible") for _ in objectives]
    cp = compile_problem(problem)
    costs = [_cost(e, cp.col, cp.scale) for e in objectives]

    cone = _Cone(cp)
    m, f, b, B, nu1 = cp.m, cp.f, cp.b, len(objectives), cone.nu + 1
    A_free = cp.A[:, :f].toarray() if f else np.zeros((m, 0))
    A_c = cp.A[:, f:].tocsr()
    A_cone, A_coneT = _matvec(A_c, B), _matvec(A_c.T.tocsr(), B)
    pairs = _pairs(cone, A_c)
    norm_b = 1.0 + np.abs(b).max(initial=0.0)
    K2 = np.zeros((m + f, m + f))
    K2[:m, m:], K2[m:, :m], K2[m:, m:] = A_free, A_free.T, -_REG * np.eye(f)
    reg = _REG * np.eye(m)

    def kkt_step(xf, xc, y, z, tau, kappa, C, rp, rd_f, rd_c, rg, mu):
        """Per row, the step length (NaN when the step is not finite) and
        the step (dxf, dxc, dy, dz, dtau, dkap)."""
        c_f, c_c = C[:, :f], C[:, f:]
        sc = _Scaling(cone, xc, z)
        lus = []
        for i in range(len(tau)):
            K2[:m, :m] = _schur(sc, pairs, m, i) + reg
            lus.append(dgetrf(K2)[:2])  # a non-finite K2 or a zero pivot gives a non-finite step

        def lu_solve(rhs):
            return np.array([dgetrs(lu, piv, r)[0] for (lu, piv), r in zip(lus, rhs)])

        Tc = cone.apply_T(sc, c_c)
        qc = A_cone(Tc)
        ec = np.vecdot(c_c, Tc)
        g = np.concatenate([qc - b, c_f], axis=1)
        wt = lu_solve(np.concatenate([qc + b, c_f], axis=1))
        T_rdc = cone.apply_T(sc, rd_c)

        def direction(d_orth, d_mats, dk):
            """Solve the Newton system for complementarity targets
            (d_orth, d_mats) in scaled space and target dk for tau*kappa."""
            rdrt = cone.from_scaled_primal(sc, d_orth, d_mats)
            # h0 = A_c (R D R' + T rd_c T);  e0 = <c_c, same>
            hvec = rdrt + T_rdc
            h0 = A_cone(hvec)
            e0 = np.vecdot(c_c, hvec)
            wr = lu_solve(np.concatenate([-rp - h0, -rd_f], axis=1))
            rhs4 = -rg - e0 - dk / tau
            denom = np.vecdot(g, wt) - ec - kappa / tau
            dtau = (rhs4 - np.vecdot(g, wr)) / denom
            sol = wr + dtau[:, None] * wt
            dy, dxf = sol[:, :m], sol[:, m:]
            dz = -rd_c - A_coneT(dy) + c_c * dtau[:, None]
            dxc = rdrt - cone.apply_T(sc, dz)
            dkap = (dk - kappa * dtau) / tau
            return dxf, dxc, dy, dz, dtau, dkap

        def step_len(dxc, dz, dtau, dkap, centrality: bool = False):
            """Step length and the scaled directions (primal, dual)."""
            sd_x = cone.scale_down(sc, dxc, dual=False)
            sd_z = cone.scale_down(sc, dz, dual=True)
            cap = np.minimum(np.minimum(cone.max_step(sc, sd_x, sd_z), np.where(dtau < 0, -tau / dtau, np.inf)),
                             np.where(dkap < 0, -kappa / dkap, np.inf))
            alpha = np.minimum(1.0, _STEP_FRAC * cap)
            # keep the iterate in a wide neighborhood of the central path so
            # the terminal point stays near-central (and reproducible) even
            # on problems with fat optimal faces
            for _ in range(12 if centrality else 0):
                a = alpha[:, None]
                tk = (tau + alpha * dtau) * (kappa + alpha * dkap)
                no = (sc.lam_orth + a * sd_x[0]) * (sc.lam_orth + a * sd_z[0])
                psd = np.min(cone.centrality(sc, sd_x[1], sd_z[1], alpha), axis=0, initial=np.inf)
                mu_new = (np.vecdot(xc + a * dxc, z + a * dz) + tk) / nu1
                ok = np.minimum(np.minimum(tk, no.min(1, initial=np.inf)), psd) >= _NEIGHBORHOOD * mu_new
                if ok.all():
                    break
                alpha = np.where(ok, alpha, alpha * 0.7)
            return alpha, sd_x, sd_z

        # -- predictor and corrector ---------------------------------------
        aff = direction(-sc.lam_orth, [-Lam for Lam in sc.Lam], -tau * kappa)
        a_aff, sdx, sdz = step_len(aff[1], aff[3], aff[4], aff[5])
        a = a_aff[:, None]
        mu_aff = (np.vecdot(xc + a * aff[1], z + a * aff[3])
                  + (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])) / nu1
        # linear in mu_aff/mu, not Mehrotra's cube: the iterates hug the
        # central path, so on fat optimal faces the terminal point is
        # reproducible rather than an artifact of the predictor endgame
        sigma = np.clip(mu_aff / mu, 0.0, 1.0)

        d_orth, d_mats = cone.targets(sc, sdx, sdz, sigma * mu)
        dk = sigma * mu - tau * kappa - aff[4] * aff[5]
        step = direction(d_orth, d_mats, dk)
        alpha = step_len(step[1], step[3], step[4], step[5], centrality=True)[0]
        finite = np.isfinite(np.column_stack([*aff, *step])).all(1)
        return (np.where(finite, alpha, np.nan), *step)

    C = np.stack([c for c, _, _ in costs])
    norm_c = 1.0 + np.abs(C).max(axis=1, initial=0.0)
    e = cone.identity()
    # one row per running member: xf, xc, y, z, tau, kappa, C and its index
    rows = [np.zeros((B, f)), np.tile(e, (B, 1)), np.zeros((B, m)), np.tile(e, (B, 1)),
            np.ones(B), np.ones(B), C, np.arange(B)]
    # per member: best metric and its (xf, xc, y, tau), as views of rows that no
    # later step writes to; (reason, iterations, iterate) at its end
    best, best_iterate, ends = np.full(B, np.inf), [None] * B, [None] * B
    last_better = np.zeros(B, dtype=int)  # the iteration of each member's best

    def leave(why: np.ndarray, *extra) -> list:
        """End the rows whose reason in ``why`` is not "": drop them from
        ``rows`` and from the arrays ``extra``, which are returned."""
        nonlocal rows
        xf, xc, y, _, tau, _, _, ids = rows
        ended = why != ""
        for i in np.flatnonzero(ended):
            k, reason, iterate = ids[i], str(why[i]), (xf[i], xc[i], y[i], tau[i])
            if reason != "optimal" and best[k] <= max(50 * tol, 1e-7):
                # endgame failure after effective convergence: take the best iterate
                reason, iterate = "rescued_" + reason, best_iterate[k]
            ends[k] = (reason, it, iterate)
        rows = [v[~ended] for v in rows]
        return [v[~ended] for v in extra]

    it = 0
    for it in range(1, max_iter + 1):
        xf, xc, y, z, tau, kappa, C, ids = rows
        c_f, c_c, t = C[:, :f], C[:, f:], tau[:, None]
        Ax = np.matvec(A_free, xf) + A_cone(xc)
        ATy_f, ATy_z = np.matvec(A_free.T, y), A_coneT(y) + z
        cx, by = np.vecdot(c_f, xf) + np.vecdot(c_c, xc), np.vecdot(b, y)
        mu = (np.vecdot(xc, z) + tau * kappa) / nu1
        residuals = [Ax - b * t, ATy_f - c_f * t, ATy_z - c_c * t, cx - by + kappa, mu]

        # -- convergence / certificate tests ---------------------------------
        rp, rdf, rdc, atf, atz, ax = (np.abs(v).max(1, initial=0.0) for v in (*residuals[:3], ATy_f, ATy_z, Ax))
        pobj, dobj = cx / tau, by / tau
        pres = rp / (tau * norm_b)
        dres = np.maximum(rdf, rdc) / (tau * norm_c[ids])
        relgap = np.abs(pobj - dobj) / (1.0 + np.maximum(np.abs(pobj), np.abs(dobj)))
        metric = np.maximum(np.maximum(pres, dres), relgap)
        better = metric < best[ids]  # never for a NaN or inf metric
        best[ids[better]] = metric[better]
        last_better[ids[better]] = it
        for i in np.flatnonzero(better):
            best_iterate[ids[i]] = xf[i], xc[i], y[i], tau[i]
        done = [metric <= tol,  # pres, dres and relgap, as a NaN in any fails it
                ~np.isfinite(metric) | (mu < 1e-16),
                (by > tol) & (np.maximum(atf, atz) / by <= tol * norm_c[ids]),
                (-cx > tol) & (ax / -cx <= tol * norm_b),
                it - last_better[ids] >= _STALL_WINDOW]
        if np.any(done):
            residuals = leave(np.select(done, ["optimal", "breakdown", "infeasible", "unbounded", "stalled"], ""),
                              *residuals)
            if not rows[7].size:
                break

        # -- NT scaling, KKT factorization, predictor and corrector --------
        alpha, *step = _by_rows(kkt_step, *rows[:7], *residuals)
        a = alpha[:, None]
        rows[:6] = [v + (a if v.ndim == 2 else alpha) * d for v, d in zip(rows[:6], step)]
        no_step = ~(alpha >= 1e-10)  # NaN too
        if no_step.any():
            leave(np.where(no_step, "breakdown", ""))
            if not rows[7].size:
                break

    leave(np.full(rows[7].size, "max_iter"))
    return [_extract(problem, cone, cost, *end, tol) for cost, end in zip(costs, ends)]


def _extract(problem, cone: _Cone, cost, reason, iters, iterate, tol) -> ConicSolution:
    if _STATUS[reason] is not Status.OPTIMAL:  # an unknown reason raises
        return ConicSolution(reason, iterations=iters)
    cp = cone.cp
    c, obj_scale, obj_const = cost
    xf, xc, y, tau = iterate
    xf_h, xc_h = xf / tau, xc / tau
    x_h = np.concatenate([xf_h, xc_h])
    y_h = obj_scale * (y / tau / cp.row_scale)

    values = x_h[cp.col] / cp.scale
    ones = [blk.start for blk in problem.blocks if blk.dim == 1]
    eigs = [np.linalg.eigvalsh(g.unpack(xc_h))[:, 0].tolist() for g in cone.groups]
    min_eig = min([0.0, *values[ones].tolist(), *(e for es in eigs for e in es)])

    pobj = obj_scale * float(c[: cp.f] @ xf_h + c[cp.f :] @ xc_h) + obj_const
    dobj = obj_scale * float(cp.b @ (y / tau)) + obj_const
    resid = float(np.abs(cp.row_scale * (cp.A @ x_h - cp.b)).max(initial=0.0))
    scale = 1.0 + np.abs(cp.row_scale * cp.b).max(initial=0.0)
    if resid > max(1e-7, 100 * tol * scale) or min_eig < -max(1e-7, 100 * tol):
        reason = "inaccurate"
    return ConicSolution(
        reason,
        objective_value=pobj,
        dual_objective=dobj,
        values=values,
        eq_duals=y_h[: len(problem.equalities)],
        iterations=iters,
        eq_residual=resid,
        min_block_eig=min_eig,
    )
