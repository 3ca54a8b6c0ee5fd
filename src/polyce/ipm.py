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
(d x d -> svec) index per stack, so each cone kernel runs once per block
size.  A stacked kernel does per matrix the arithmetic of a per-block loop
(the same LAPACK and BLAS calls on the same layouts), and the Schur
complement adds its block terms in block order.  The loop's sparse products
(A x, A' y and the orthant Schur term) are bincounts over index arrays made
once per solve, which add each sum's terms in scipy's csr_matvec and
csr_matmat order.  So every solve is bit-identical to one through the
per-block kernels and scipy.sparse that the tests keep as an oracle, which
matters because a one-ulp change moves iteration counts.  Intended for
desk-scale problems (PSD blocks up to ~60x60, a few thousand equalities).
A problem without a cone has no interior to follow: ``ConicProblem.solve``
rejects it, and linear programs go to HiGHS instead (``finite_ce.solve_lp``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .conic import ConicProblem, ConicSolution, Status, _triangle

_REG = 1e-10  # static regularization of the KKT system
_STEP_FRAC = 0.98
_NEIGHBORHOOD = 1e-3  # wide-neighborhood centrality floor, min(x.z)/mu


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
    c: np.ndarray
    col: np.ndarray             # builder variable -> column
    scale: np.ndarray           # builder variable -> svec scale (1 or sqrt 2)
    row_scale: np.ndarray
    obj_scale: float
    obj_const: float


def compile_problem(p: ConicProblem) -> Compiled:
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
    inv_scale = 1.0 / scale

    m = len(p.equalities)
    keys = np.fromiter((k for coeffs, _ in p.equalities for k in coeffs), dtype=np.intp)
    vals = np.fromiter((v for coeffs, _ in p.equalities for v in coeffs.values()), dtype=float)
    rows = np.repeat(np.arange(m), [len(coeffs) for coeffs, _ in p.equalities])
    b = np.zeros(max(m, 1))
    b[:m] = [rhs for _, rhs in p.equalities]
    if m == 0:
        m = 1  # dummy all-zero row keeps the HSD machinery uniform
    A = sp.csr_matrix((vals * inv_scale[keys], (rows, col[keys])), shape=(m, p.num_vars))

    c = np.zeros(p.num_vars)
    keys = np.fromiter(p.objective.coeffs, dtype=np.intp)
    c[col[keys]] += np.fromiter(p.objective.coeffs.values(), dtype=float) * inv_scale[keys]

    row_scale = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), np.abs(b))
    row_scale = np.maximum(row_scale, 1e-8)
    A = sp.diags(1.0 / row_scale) @ A
    b = b / row_scale
    obj_scale = max(1.0, np.abs(c).max() if c.size else 1.0)
    c = c / obj_scale

    return Compiled(
        m=m, f=f, q=q, block_dims=[blk.dim for blk in psd],
        block_offsets=[int(col[blk.start]) - f - q for blk in psd],
        cone_dim=p.num_vars - f, A=A.tocsr(), b=b, c=c, col=col, scale=scale,
        row_scale=row_scale, obj_scale=obj_scale, obj_const=p.objective.const,
    )


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
        return v[..., self.gather] / self.scale_dd

    def pack(self, mats: np.ndarray, out: np.ndarray) -> None:
        out[self.scatter] = mats.reshape(len(self.blocks), -1)[:, self.flat] * self.scale


class _Scaling:
    """NT scaling: w on the orthant and, per group, the stacks R, R^{-1} and
    lam with X = R Lam R', Z = R^{-T} Lam R^{-1} (the transposes are views)."""

    def __init__(self, cone: _Cone, x: np.ndarray, z: np.ndarray):
        q = cone.q
        self.w2 = x[:q] / z[:q]
        self.w = np.sqrt(self.w2)
        self.lam_orth = np.sqrt(x[:q] * z[:q])
        self.R, self.Rinv, self.lam = [], [], []
        xz = np.stack([x, z])
        for g in cone.groups:
            Lx, Lz = np.linalg.cholesky(g.unpack(xz))
            U, sv, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Lx)
            sq = np.sqrt(sv)
            self.R.append(Lx @ Vt.swapaxes(-1, -2) / sq[:, None, :])
            self.Rinv.append((U.swapaxes(-1, -2) @ Lz.swapaxes(-1, -2)) / sq[:, :, None])
            self.lam.append(sv)
        self.RT = [R.swapaxes(-1, -2) for R in self.R]
        self.RinvT = [Ri.swapaxes(-1, -2) for Ri in self.Rinv]
        # diagonal stacks; singular values are finite and >= 0, so the
        # off-diagonal entries are +0.0 as in np.diag
        self.Lam = [lam[:, :, None] * np.eye(lam.shape[1]) for lam in self.lam]


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

    def constraint_stacks(self, A_cone: sp.csr_matrix) -> list:
        """The rows of A_cone unpacked once per group, as (k, m, d, d) stacks."""
        dense = A_cone.toarray()
        return [np.moveaxis(g.unpack(dense), 0, 1) for g in self.groups]

    def apply_T(self, sc: _Scaling, u: np.ndarray) -> np.ndarray:
        """T u T with T = R R' per block; w^2 * u on the orthant."""
        out = np.empty_like(u)
        out[: self.q] = sc.w2 * u[: self.q]
        for g, R, RT in zip(self.groups, sc.R, sc.RT):
            g.pack(R @ (RT @ g.unpack(u) @ R) @ RT, out)
        return out

    def scale_down(self, sc: _Scaling, u: np.ndarray, dual: bool) -> tuple:
        """Scaled-space images: R' u R per block for dual vectors, R^{-1} u
        R^{-T} for primal; orthant entries multiplied/divided by w."""
        orth = u[: self.q] * sc.w if dual else u[: self.q] / sc.w
        left, right = (sc.RT, sc.R) if dual else (sc.Rinv, sc.RinvT)
        return orth, [L @ g.unpack(u) @ Rt for g, L, Rt in zip(self.groups, left, right)]

    def from_scaled_primal(self, sc: _Scaling, orth: np.ndarray, mats: list) -> np.ndarray:
        out = np.zeros(self.cp.cone_dim)
        out[: self.q] = orth * sc.w
        for g, R, RT, M in zip(self.groups, sc.R, sc.RT, mats):
            g.pack(R @ M @ RT, out)
        return out

    def max_step(self, sc: _Scaling, *dirs: tuple) -> float:
        """Largest alpha with lam + alpha*dir staying in the cone (scaled
        space) for each of the scaled directions (orth, mats) given."""
        alpha = np.inf
        for orth_dir, _ in dirs:
            neg = orth_dir < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-sc.lam_orth[neg] / orth_dir[neg])))
        for gi, lam in enumerate(sc.lam):
            M = np.stack([d[1][gi] for d in dirs]) / np.sqrt(lam[:, :, None] * lam[:, None, :])
            emin = np.linalg.eigvalsh((M + M.swapaxes(-1, -2)) / 2)[..., 0]
            emin = emin[emin < 0]
            if emin.size:
                alpha = min(alpha, float(np.min(1.0 / -emin)))
        return alpha

    def centrality(self, sc: _Scaling, sd_x: list, sd_z: list, alpha: float) -> list:
        """Per block, in block order, the smallest eigenvalue of the
        symmetrized (Lam + alpha dx)(Lam + alpha dz) in scaled space."""
        emins = []
        for Lam, X, Z in zip(sc.Lam, sd_x, sd_z):
            P = (Lam + alpha * X) @ (Lam + alpha * Z)
            emins.append(np.linalg.eigvalsh((P + P.swapaxes(-1, -2)) / 2)[:, 0].tolist())
        return [emins[gi][j] for gi, j in self.order]

    def targets(self, sc: _Scaling, sdx: tuple, sdz: tuple, smu: float) -> tuple:
        """Corrector complementarity targets in scaled space: smu - lam^2
        minus the symmetrized second-order term of the predictor (sdx, sdz),
        through the inverse Lyapunov operator of Lam."""
        lam_o = sc.lam_orth
        d_orth = (smu - lam_o**2 - sdx[0] * sdz[0]) / lam_o
        d_mats = []
        for g, lam, Lam, X, Z in zip(self.groups, sc.lam, sc.Lam, sdx[1], sdz[1]):
            corr = (X @ Z + Z @ X) / 2.0
            N = smu * np.eye(g.dim) - Lam**2 - corr
            d_mats.append(2.0 * N / (lam[:, :, None] + lam[:, None, :]))
        return d_orth, d_mats


# ---------------------------------------------------------------------------
# the solver


def _finite(parts) -> bool:
    return all(np.isfinite(v).all() for v in parts)


def _sums(bins: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The terms of each of n bins added one at a time from 0, in array order
    (a bincount, cast since it returns integers when there are no terms)."""
    return np.bincount(bins, terms, minlength=n).astype(float, copy=False)


def _matvec(A: sp.csr_matrix):
    """v -> A v, each row adding its products in stored order from 0, as
    scipy's csr_matvec does."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return lambda v: _sums(rows, A.data * v[A.indices], A.shape[0])


def _orth_pairs(A_orth: sp.csr_matrix) -> tuple:
    """(i*m + j, a_ik, k, a_jk) for every pair of rows i, j that share orthant
    column k, ordered by i, then by k ascending: the order in which scipy's
    csr_matmat adds the terms of A_orth W A_orth' once it has sorted A_orth."""
    A = A_orth.sorted_indices()
    AT = A.T.tocsr()  # row k lists the entries of column k
    m, cols = A.shape[0], np.diff(AT.indptr)[A.indices]
    entry = np.repeat(np.arange(A.nnz), cols)
    pos = np.repeat(AT.indptr[A.indices] - np.cumsum(cols) + cols, cols) + np.arange(entry.size)
    i = np.repeat(np.arange(m), np.diff(A.indptr))[entry]
    return i * m + AT.indices[pos], A.data[entry], A.indices[entry], AT.data[pos]


def _schur(cone: _Cone, sc: _Scaling, pairs: tuple, blk_mats: list) -> np.ndarray:
    """A T A' from the orthant ``pairs`` (``_orth_pairs``) and from the
    (k, m, d, d) stacks of constraint matrices per group; block terms are
    added in block order."""
    m = cone.cp.m
    ij, a_ik, k, a_jk = pairs
    S = _sums(ij, (a_ik * sc.w2[k]) * a_jk, m * m).reshape(m, m)
    scaled = [np.matmul(np.matmul(RT[:, None], Ab), R[:, None])
              for RT, Ab, R in zip(sc.RT, blk_mats, sc.R)]
    for gi, j in cone.order:
        flat = scaled[gi][j].reshape(m, -1)
        S += flat @ flat.T
    return S


def solve(problem: ConicProblem, tol: float = 1e-8, max_iter: int = 200) -> ConicSolution:
    """Solve a built problem by predictor-corrector steps whose centering
    parameter is sigma = min(1, max(0, mu_aff / mu)), with mu_aff the
    complementarity the affine predictor step would reach."""
    if problem.trivially_infeasible:
        return ConicSolution(status=Status.INFEASIBLE)
    cp = compile_problem(problem)

    cone = _Cone(cp)
    m, f = cp.m, cp.f
    A_free = cp.A[:, :f].toarray() if f else np.zeros((m, 0))
    A_c = cp.A[:, f:].tocsr()
    A_cone, A_coneT = _matvec(A_c), _matvec(A_c.T.tocsr())
    pairs = _orth_pairs(A_c[:, : cp.q].tocsr())
    blk_mats = cone.constraint_stacks(A_c)
    b, c = cp.b, cp.c
    c_f, c_c = c[:f], c[f:]
    norm_b = 1.0 + np.abs(b).max(initial=0.0)
    norm_c = 1.0 + np.abs(c).max(initial=0.0)

    xf = np.zeros(f)
    xc = cone.identity()
    y = np.zeros(m)
    z = cone.identity()
    tau, kappa = 1.0, 1.0
    nu1 = cone.nu + 1

    status = Status.NUMERICAL_FAILURE
    it = 0
    best = None  # (metric, xf, xc, y, tau)
    for it in range(1, max_iter + 1):
        Ax = A_free @ xf + A_cone(xc)
        ATy_f, ATy_z = A_free.T @ y, A_coneT(y) + z
        rp = Ax - b * tau
        rd_f = ATy_f - c_f * tau
        rd_c = ATy_z - c_c * tau
        rg = float(c_f @ xf + c_c @ xc - b @ y + kappa)
        mu = (float(xc @ z) + tau * kappa) / nu1

        # -- convergence / certificate tests -------------------------------
        cx, by = float(c_f @ xf + c_c @ xc), float(b @ y)
        pobj, dobj = cx / tau, by / tau
        pres = np.abs(rp).max(initial=0.0) / (tau * norm_b)
        dres = max(np.abs(rd_f).max(initial=0.0), np.abs(rd_c).max(initial=0.0)) / (tau * norm_c)
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        metric = max(pres, dres, relgap)
        if np.isfinite(metric) and (best is None or metric < best[0]):
            best = (metric, xf.copy(), xc.copy(), y.copy(), tau)
        if pres <= tol and dres <= tol and relgap <= tol:
            status = Status.OPTIMAL
            break
        if not np.isfinite(metric) or mu < 1e-16:
            break
        hres = max(np.abs(ATy_f).max(initial=0.0), np.abs(ATy_z).max(initial=0.0))
        if by > tol and hres / by <= tol * norm_c:
            status = Status.INFEASIBLE
            break
        if -cx > tol and np.abs(Ax).max(initial=0.0) / (-cx) <= tol * norm_b:
            status = Status.UNBOUNDED
            break

        # -- NT scaling and KKT factorization ------------------------------
        try:
            sc = _Scaling(cone, xc, z)
        except np.linalg.LinAlgError:
            break
        S = _schur(cone, sc, pairs, blk_mats)
        K2 = np.zeros((m + f, m + f))
        K2[:m, :m] = S + _REG * np.eye(m)
        if f:
            K2[:m, m:] = A_free
            K2[m:, :m] = A_free.T
            K2[m:, m:] = -_REG * np.eye(f)
        try:
            with warnings.catch_warnings():
                # exact singularity surfaces as inf/nan directions and is
                # handled by the breakdown guards below
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu = sla.lu_factor(K2)
        except (ValueError, sla.LinAlgError):
            break

        Tc = cone.apply_T(sc, c_c)
        qc = A_cone(Tc)
        ec = float(c_c @ Tc)
        g = np.concatenate([qc - b, c_f])
        wt = sla.lu_solve(lu, np.concatenate([qc + b, c_f]))
        T_rdc = cone.apply_T(sc, rd_c)

        def direction(d_orth, d_mats, dk):
            """Solve the Newton system for complementarity targets
            (d_orth, d_mats) in scaled space and target dk for tau*kappa."""
            rdrt = cone.from_scaled_primal(sc, d_orth, d_mats)
            # h0 = A_c (R D R' + T rd_c T);  e0 = <c_c, same>
            hvec = rdrt + T_rdc
            h0 = A_cone(hvec)
            e0 = float(c_c @ hvec)
            wr = sla.lu_solve(lu, np.concatenate([-rp - h0, -rd_f]))
            rhs4 = -rg - e0 - dk / tau
            denom = float(g @ wt) - ec - kappa / tau
            dtau = (rhs4 - float(g @ wr)) / denom
            sol = wr + dtau * wt
            dy, dxf = sol[:m], sol[m:]
            dz = -rd_c - A_coneT(dy) + c_c * dtau
            dxc = rdrt - cone.apply_T(sc, dz)
            dkap = (dk - kappa * dtau) / tau
            return dxf, dxc, dy, dz, dtau, dkap

        def step_len(dxc, dz, dtau, dkap, centrality: bool = False):
            """Step length and the scaled directions (primal, dual)."""
            sd_x = cone.scale_down(sc, dxc, dual=False)
            sd_z = cone.scale_down(sc, dz, dual=True)
            alpha = cone.max_step(sc, sd_x, sd_z)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0:
                alpha = min(alpha, -kappa / dkap)
            alpha = min(1.0, _STEP_FRAC * alpha)
            # keep the iterate in a wide neighborhood of the central path so
            # the terminal point stays near-central (and reproducible) even
            # on problems with fat optimal faces
            for _ in range(12 if centrality else 0):
                prods = [(tau + alpha * dtau) * (kappa + alpha * dkap)]
                no = (sc.lam_orth + alpha * sd_x[0]) * (sc.lam_orth + alpha * sd_z[0])
                prods.extend(no.tolist())
                prods.extend(cone.centrality(sc, sd_x[1], sd_z[1], alpha))
                mu_new = (float((xc + alpha * dxc) @ (z + alpha * dz)) + prods[0]) / nu1
                if min(prods) >= _NEIGHBORHOOD * mu_new:
                    break
                alpha *= 0.7
            return alpha, sd_x, sd_z

        # -- predictor and corrector ---------------------------------------
        # a singular KKT factor surfaces as a non-finite direction or as an
        # eigensolver failure in the step length; both end the loop as a
        # breakdown
        try:
            aff = direction(-sc.lam_orth, [-Lam for Lam in sc.Lam], -tau * kappa)
            if not _finite(aff):
                break
            a_aff, sdx, sdz = step_len(aff[1], aff[3], aff[4], aff[5])
            mu_aff = (
                float((xc + a_aff * aff[1]) @ (z + a_aff * aff[3]))
                + (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])
            ) / nu1
            # linear in mu_aff/mu, not Mehrotra's cube: the iterates hug the
            # central path, so on fat optimal faces the terminal point is
            # reproducible rather than an artifact of the predictor endgame
            sigma = min(1.0, max(0.0, mu_aff / mu))

            d_orth, d_mats = cone.targets(sc, sdx, sdz, sigma * mu)
            dk = sigma * mu - tau * kappa - aff[4] * aff[5]
            dxf, dxc, dy, dz, dtau, dkap = step = direction(d_orth, d_mats, dk)
            if not _finite(step):
                break
            alpha = step_len(dxc, dz, dtau, dkap, centrality=True)[0]
        except (ValueError, sla.LinAlgError):
            break
        if not np.isfinite(alpha) or alpha < 1e-10:
            break

        xf = xf + alpha * dxf
        xc = xc + alpha * dxc
        y = y + alpha * dy
        z = z + alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkap

    if status is not Status.OPTIMAL and best is not None and best[0] <= max(50 * tol, 1e-7):
        # endgame breakdown after effective convergence: take the best iterate
        status = Status.OPTIMAL
        _, xf, xc, y, tau = best
    return _extract(problem, cone, status, xf, xc, y, tau, it, tol)


def _extract(problem, cone: _Cone, status, xf, xc, y, tau, iters, tol) -> ConicSolution:
    if status is not Status.OPTIMAL:
        return ConicSolution(status=status, iterations=iters)
    cp = cone.cp
    xf_h, xc_h = xf / tau, xc / tau
    x_h = np.concatenate([xf_h, xc_h])
    y_h = cp.obj_scale * (y / tau / cp.row_scale)

    values = x_h[cp.col] / cp.scale
    ones = [blk.start for blk in problem.blocks if blk.dim == 1]
    eigs = [np.linalg.eigvalsh(g.unpack(xc_h))[:, 0].tolist() for g in cone.groups]
    min_eig = min([0.0, *values[ones].tolist(), *(e for es in eigs for e in es)])

    pobj = cp.obj_scale * float(cp.c[: cp.f] @ xf_h + cp.c[cp.f :] @ xc_h) + cp.obj_const
    dobj = cp.obj_scale * float(cp.b @ (y / tau)) + cp.obj_const
    resid = float(np.abs(cp.row_scale * (cp.A @ x_h - cp.b)).max(initial=0.0))
    sol = ConicSolution(
        status=Status.OPTIMAL,
        objective_value=pobj,
        dual_objective=dobj,
        values=values,
        eq_duals=y_h[: len(problem.equalities)],
        iterations=iters,
        eq_residual=resid,
        min_block_eig=min_eig,
    )
    scale = 1.0 + np.abs(cp.row_scale * cp.b).max(initial=0.0)
    if resid > max(1e-7, 100 * tol * scale) or min_eig < -max(1e-7, 100 * tol):
        sol.status = Status.NUMERICAL_FAILURE
    return sol
