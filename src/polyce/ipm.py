"""Primal-dual interior-point method for equality-form conic programs.

Solves  min c.x  s.t.  A x = b,  x in K,  where K is a product of a free
subspace, a nonnegative orthant, and PSD matrix cones (svec-packed).  The
algorithm is the homogeneous self-dual embedding with Nesterov-Todd scaling
and a Mehrotra predictor-corrector, which yields clean infeasibility and
unboundedness certificates alongside optimal solutions.  The centering
parameter is sigma = mu_aff / mu clipped to [0, 1] on every solve.  Dense
linear algebra throughout; intended for desk-scale problems (PSD blocks up
to ~60x60, a few thousand equalities).  A problem without a cone has no
interior to follow: ``ConicProblem.solve`` rejects it, and linear programs
go to HiGHS instead (``finite_ce.solve_lp``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .conic import ConicProblem, ConicSolution, Status

_SQRT2 = np.sqrt(2.0)
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
    scal_col: list[int]         # builder scalar -> column
    blk_col: list[tuple]        # builder block -> ("orth", col) | ("psd", k)
    row_scale: np.ndarray
    obj_scale: float
    obj_const: float


@lru_cache(maxsize=None)
def _svec_index(dim: int):
    """(rows, cols, scale) of the upper triangle in svec order, plus the
    inverse scale used when unpacking."""
    rows, cols = np.triu_indices(dim)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    return rows, cols, scale


def svec(mat: np.ndarray) -> np.ndarray:
    rows, cols, scale = _svec_index(mat.shape[0])
    return mat[rows, cols] * scale


def unsvec(v: np.ndarray, dim: int) -> np.ndarray:
    rows, cols, scale = _svec_index(dim)
    vals = v / scale
    mat = np.empty((dim, dim))
    mat[rows, cols] = vals
    mat[cols, rows] = vals
    return mat


def unsvec_batch(V: np.ndarray, dim: int) -> np.ndarray:
    """Rows of V are svec vectors; returns the (len(V), dim, dim) stack."""
    rows, cols, scale = _svec_index(dim)
    vals = V / scale
    out = np.empty((V.shape[0], dim, dim))
    out[:, rows, cols] = vals
    out[:, cols, rows] = vals
    return out


def compile_problem(p: ConicProblem) -> Compiled:
    f = sum(0 if nn else 1 for nn in p.scalar_nonneg)
    q = sum(1 for nn in p.scalar_nonneg if nn)
    scal_col: list[int] = []
    next_free, next_orth = 0, f
    for nn in p.scalar_nonneg:
        if nn:
            scal_col.append(next_orth)
            next_orth += 1
        else:
            scal_col.append(next_free)
            next_free += 1

    blk_col: list[tuple] = []
    block_dims, block_offsets = [], []
    sv_off = 0
    for blk in p.blocks:
        if blk.dim == 1:
            blk_col.append(("orth", next_orth))
            next_orth += 1
            q += 1
        else:
            blk_col.append(("psd", len(block_dims)))
            block_dims.append(blk.dim)
            block_offsets.append(sv_off)
            sv_off += blk.dim * (blk.dim + 1) // 2
    cone_dim = q + sv_off
    n = f + cone_dim

    def column_of(key):
        if key[0] == "s":
            return scal_col[key[1]], 1.0
        _, bidx, i, j = key
        kind = blk_col[bidx]
        if kind[0] == "orth":
            return kind[1], 1.0
        k = kind[1]
        dim = block_dims[k]
        base = f + q + block_offsets[k]
        # svec position of (i, j) within an upper-triangular row-major layout
        pos = i * dim - i * (i - 1) // 2 + (j - i)
        return base + pos, (1.0 if i == j else 1.0 / _SQRT2)

    m = len(p.equalities)
    rows, cols, vals = [], [], []
    b = np.zeros(max(m, 1))
    for k, (coeffs, rhs) in enumerate(p.equalities):
        b[k] = rhs
        for key, coef in coeffs.items():
            col, scale = column_of(key)
            rows.append(k)
            cols.append(col)
            vals.append(coef * scale)
    if m == 0:
        m = 1  # dummy all-zero row keeps the HSD machinery uniform
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))

    c = np.zeros(n)
    for key, coef in p.objective.coeffs.items():
        col, scale = column_of(key)
        c[col] += coef * scale

    row_scale = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), np.abs(b))
    row_scale = np.maximum(row_scale, 1e-8)
    A = sp.diags(1.0 / row_scale) @ A
    b = b / row_scale
    obj_scale = max(1.0, np.abs(c).max() if c.size else 1.0)
    c = c / obj_scale

    return Compiled(
        m=m, f=f, q=q, block_dims=block_dims, block_offsets=block_offsets,
        cone_dim=cone_dim, A=A.tocsr(), b=b, c=c, scal_col=scal_col,
        blk_col=blk_col, row_scale=row_scale, obj_scale=obj_scale,
        obj_const=p.objective.const,
    )


# ---------------------------------------------------------------------------
# cone operations


class _Scaling:
    """NT scaling: per-orthant w, per-block (R, Rinv) with X = R Lam R',
    Z = R^{-T} Lam R^{-1}."""

    def __init__(self, cp: Compiled, x: np.ndarray, z: np.ndarray):
        q = cp.q
        self.w2 = x[:q] / z[:q]
        self.lam_orth = np.sqrt(x[:q] * z[:q])
        self.R, self.Rinv, self.lam_blk = [], [], []
        for dim, off in zip(cp.block_dims, cp.block_offsets):
            X = unsvec(x[q + off : q + off + dim * (dim + 1) // 2], dim)
            Z = unsvec(z[q + off : q + off + dim * (dim + 1) // 2], dim)
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
            U, sv, Vt = np.linalg.svd(Lz.T @ Lx)
            sq = np.sqrt(sv)
            R = Lx @ Vt.T / sq
            Rinv = (U.T @ Lz.T) / sq[:, None]
            self.R.append(R)
            self.Rinv.append(Rinv)
            self.lam_blk.append(sv)


class _Cone:
    def __init__(self, cp: Compiled):
        self.cp = cp
        self.nu = cp.q + sum(cp.block_dims)

    def identity(self) -> np.ndarray:
        cp = self.cp
        e = np.zeros(cp.cone_dim)
        e[: cp.q] = 1.0
        for dim, off in zip(cp.block_dims, cp.block_offsets):
            e[cp.q + off : cp.q + off + dim * (dim + 1) // 2] = svec(np.eye(dim))
        return e

    def blocks(self, v: np.ndarray):
        cp = self.cp
        for dim, off in zip(cp.block_dims, cp.block_offsets):
            yield dim, off, unsvec(v[cp.q + off : cp.q + off + dim * (dim + 1) // 2], dim)

    def apply_T(self, sc: _Scaling, u: np.ndarray) -> np.ndarray:
        """T u T with T = R R' per block; w^2 * u on the orthant."""
        cp = self.cp
        out = np.empty_like(u)
        out[: cp.q] = sc.w2 * u[: cp.q]
        for k, (dim, off, U) in enumerate(self.blocks(u)):
            R = sc.R[k]
            M = R @ (R.T @ U @ R) @ R.T
            out[cp.q + off : cp.q + off + dim * (dim + 1) // 2] = svec(M)
        return out

    def scale_down(self, sc: _Scaling, u: np.ndarray, dual: bool) -> list:
        """Scaled-space images: R' u R per block for dual vectors, R^{-1} u
        R^{-T} for primal; orthant entries divided/multiplied by w."""
        cp = self.cp
        w = np.sqrt(sc.w2)
        orth = u[: cp.q] * w if dual else u[: cp.q] / w
        mats = []
        for k, (dim, off, U) in enumerate(self.blocks(u)):
            if dual:
                mats.append(sc.R[k].T @ U @ sc.R[k])
            else:
                mats.append(sc.Rinv[k] @ U @ sc.Rinv[k].T)
        return [orth, mats]

    def from_scaled_primal(self, sc: _Scaling, orth: np.ndarray, mats: list) -> np.ndarray:
        cp = self.cp
        out = np.zeros(cp.cone_dim)
        out[: cp.q] = orth * np.sqrt(sc.w2)
        for k, (dim, off) in enumerate(zip(cp.block_dims, cp.block_offsets)):
            M = sc.R[k] @ mats[k] @ sc.R[k].T
            out[cp.q + off : cp.q + off + dim * (dim + 1) // 2] = svec(M)
        return out

    def max_step(self, orth_dir: np.ndarray, mat_dirs: list, lam_orth, lam_blk) -> float:
        """Largest alpha with lam + alpha*dir staying in the cone (scaled space)."""
        alpha = np.inf
        neg = orth_dir < 0
        if np.any(neg):
            alpha = min(alpha, float(np.min(-lam_orth[neg] / orth_dir[neg])))
        for k, D in enumerate(mat_dirs):
            lam = lam_blk[k]
            M = D / np.sqrt(np.outer(lam, lam))
            emin = float(np.linalg.eigvalsh((M + M.T) / 2)[0])
            if emin < 0:
                alpha = min(alpha, 1.0 / (-emin))
        return alpha


# ---------------------------------------------------------------------------
# the solver


def _finite(parts) -> bool:
    return all(np.all(np.isfinite(v)) for v in parts)


def _schur(cp: Compiled, sc: _Scaling, A_orth: sp.csr_matrix,
           blk_mats: list[np.ndarray]) -> np.ndarray:
    m = cp.m
    S = (A_orth.multiply(sc.w2[None, :])).dot(A_orth.T).toarray() if cp.q \
        else np.zeros((m, m))
    for k, dim in enumerate(cp.block_dims):
        R = sc.R[k]
        scaled = np.matmul(np.matmul(R.T, blk_mats[k]), R)
        flat = scaled.reshape(m, dim * dim)
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
    m, f, n = cp.m, cp.f, cp.f + cp.cone_dim
    A = cp.A
    A_free = A[:, :f].toarray() if f else np.zeros((m, 0))
    A_cone = A[:, f:].tocsr()
    A_orth = A_cone[:, : cp.q].tocsr()
    # constraint matrices per PSD block, unpacked once
    blk_mats = [
        unsvec_batch(
            A_cone[:, cp.q + off : cp.q + off + dim * (dim + 1) // 2].toarray(), dim
        )
        for dim, off in zip(cp.block_dims, cp.block_offsets)
    ]
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

    def residuals():
        rp = A_free @ xf + A_cone @ xc - b * tau
        rd_f = A_free.T @ y - c_f * tau
        rd_c = A_cone.T @ y + z - c_c * tau
        rg = float(c_f @ xf + c_c @ xc - b @ y + kappa)
        return rp, rd_f, rd_c, rg

    status = Status.NUMERICAL_FAILURE
    it = 0
    mu0 = 1.0
    best = None  # (metric, xf, xc, y, tau)
    for it in range(1, max_iter + 1):
        rp, rd_f, rd_c, rg = residuals()
        mu = (float(xc @ z) + tau * kappa) / nu1

        # -- convergence / certificate tests -------------------------------
        pobj = float(c_f @ xf + c_c @ xc) / tau
        dobj = float(b @ y) / tau
        pres = np.abs(rp).max(initial=0.0) / (tau * norm_b)
        dres = max(np.abs(rd_f).max(initial=0.0), np.abs(rd_c).max(initial=0.0)) / (tau * norm_c)
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        metric = max(pres, dres, relgap)
        if np.isfinite(metric) and (best is None or metric < best[0]):
            best = (metric, xf.copy(), xc.copy(), y.copy(), tau)
        if pres <= tol and dres <= tol and relgap <= tol:
            status = Status.OPTIMAL
            break
        if not np.isfinite(metric) or mu < 1e-16 * mu0:
            break
        by = float(b @ y)
        hres = max(np.abs(A_free.T @ y).max(initial=0.0),
                   np.abs(A_cone.T @ y + z).max(initial=0.0))
        if by > tol and hres / by <= tol * norm_c:
            status = Status.INFEASIBLE
            break
        cx = float(c_f @ xf + c_c @ xc)
        if -cx > tol and np.abs(A_free @ xf + A_cone @ xc).max(initial=0.0) / (-cx) <= tol * norm_b:
            status = Status.UNBOUNDED
            break

        # -- NT scaling and KKT factorization ------------------------------
        try:
            sc = _Scaling(cp, xc, z)
        except np.linalg.LinAlgError:
            break
        S = _schur(cp, sc, A_orth, blk_mats)
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

        qc = A_cone @ cone.apply_T(sc, c_c)
        ec = float(c_c @ cone.apply_T(sc, c_c))
        g = np.concatenate([qc - b, c_f])
        wt = sla.lu_solve(lu, np.concatenate([qc + b, c_f]))

        lam_o, lam_b = sc.lam_orth, sc.lam_blk

        def direction(d_orth, d_mats, dk):
            """Solve the Newton system for complementarity targets
            (d_orth, d_mats) in scaled space and target dk for tau*kappa."""
            rdrt = cone.from_scaled_primal(sc, d_orth, d_mats)
            # h0 = A_c (R D R' + T rd_c T);  e0 = <c_c, same>
            hvec = rdrt + cone.apply_T(sc, rd_c)
            h0 = A_cone @ hvec
            e0 = float(c_c @ hvec)
            wr = sla.lu_solve(lu, np.concatenate([-rp - h0, -rd_f]))
            rhs4 = -rg - e0 - dk / tau
            denom = float(g @ wt) - ec - kappa / tau
            dtau = (rhs4 - float(g @ wr)) / denom
            sol = wr + dtau * wt
            dy, dxf = sol[:m], sol[m:]
            dz = -rd_c - A_cone.T @ dy + c_c * dtau
            dxc = rdrt - cone.apply_T(sc, dz)
            dkap = (dk - kappa * dtau) / tau
            return dxf, dxc, dy, dz, dtau, dkap

        def step_len(dxc, dz, dtau, dkap, centrality: bool = False):
            sd_z = cone.scale_down(sc, dz, dual=True)
            sd_x = cone.scale_down(sc, dxc, dual=False)
            alpha = cone.max_step(sd_x[0], sd_x[1], lam_o, lam_b)
            alpha = min(alpha, cone.max_step(sd_z[0], sd_z[1], lam_o, lam_b))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0:
                alpha = min(alpha, -kappa / dkap)
            alpha = min(1.0, _STEP_FRAC * alpha)
            if not centrality:
                return alpha
            # keep the iterate in a wide neighborhood of the central path so
            # the terminal point stays near-central (and reproducible) even
            # on problems with fat optimal faces
            for _ in range(12):
                prods = [(tau + alpha * dtau) * (kappa + alpha * dkap)]
                no = (lam_o + alpha * sd_x[0]) * (lam_o + alpha * sd_z[0])
                prods.extend(no.tolist())
                for k3, lam in enumerate(lam_b):
                    P = (np.diag(lam) + alpha * sd_x[1][k3]) @ (np.diag(lam) + alpha * sd_z[1][k3])
                    prods.append(float(np.linalg.eigvalsh((P + P.T) / 2)[0]))
                nx = xc + alpha * dxc
                nz = z + alpha * dz
                mu_new = (float(nx @ nz) + prods[0]) / nu1
                if min(prods) >= _NEIGHBORHOOD * mu_new:
                    break
                alpha *= 0.7
            return alpha

        # -- predictor and corrector ---------------------------------------
        # a singular KKT factor surfaces as a non-finite direction or as an
        # eigensolver failure in the step length; both end the loop as a
        # breakdown
        try:
            aff = direction(-lam_o, [-np.diag(lb) for lb in lam_b], -tau * kappa)
            if not _finite(aff):
                break
            a_aff = step_len(aff[1], aff[3], aff[4], aff[5])
            mu_aff = (
                float((xc + a_aff * aff[1]) @ (z + a_aff * aff[3]))
                + (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])
            ) / nu1
            # linear in mu_aff/mu, not Mehrotra's cube: the iterates hug the
            # central path, so on fat optimal faces the terminal point is
            # reproducible rather than an artifact of the predictor endgame
            sigma = min(1.0, max(0.0, mu_aff / mu))

            sdx = cone.scale_down(sc, aff[1], dual=False)
            sdz = cone.scale_down(sc, aff[3], dual=True)
            d_orth = (sigma * mu - lam_o**2 - sdx[0] * sdz[0]) / lam_o
            d_mats = []
            for k2, lam in enumerate(lam_b):
                corr = (sdx[1][k2] @ sdz[1][k2] + sdz[1][k2] @ sdx[1][k2]) / 2.0
                N = sigma * mu * np.eye(len(lam)) - np.diag(lam**2) - corr
                d_mats.append(2.0 * N / np.add.outer(lam, lam))
            dk = sigma * mu - tau * kappa - aff[4] * aff[5]
            dxf, dxc, dy, dz, dtau, dkap = step = direction(d_orth, d_mats, dk)
            if not _finite(step):
                break
            alpha = step_len(dxc, dz, dtau, dkap, centrality=True)
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
    return _extract(problem, cp, status, xf, xc, y, tau, it, tol)


def _extract(problem, cp: Compiled, status, xf, xc, y, tau, iters, tol) -> ConicSolution:
    if status is not Status.OPTIMAL:
        return ConicSolution(status=status, iterations=iters)
    xf_h, xc_h = xf / tau, xc / tau
    y_h = cp.obj_scale * (y / tau / cp.row_scale)

    scal_vals = np.empty(len(cp.scal_col))
    for i, col in enumerate(cp.scal_col):
        scal_vals[i] = xf_h[col] if col < cp.f else xc_h[col - cp.f]
    block_vals = []
    for kind in cp.blk_col:
        if kind[0] == "orth":
            block_vals.append(np.array([[xc_h[kind[1] - cp.f]]]))
        else:
            k = kind[1]
            dim, off = cp.block_dims[k], cp.block_offsets[k]
            block_vals.append(unsvec(xc_h[cp.q + off : cp.q + off + dim * (dim + 1) // 2], dim))

    pobj = cp.obj_scale * float(cp.c[: cp.f] @ xf_h + cp.c[cp.f :] @ xc_h) + cp.obj_const
    dobj = cp.obj_scale * float(cp.b @ (y / tau)) + cp.obj_const
    resid = float(np.abs(cp.row_scale * (cp.A @ np.concatenate([xf_h, xc_h]) - cp.b)).max(initial=0.0))
    min_eig = 0.0
    for bv in block_vals:
        if bv.shape[0] > 1:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(bv)[0]))
        else:
            min_eig = min(min_eig, float(bv[0, 0]))
    sol = ConicSolution(
        status=Status.OPTIMAL,
        objective_value=pobj,
        dual_objective=dobj,
        scalar_values=scal_vals,
        block_values=block_vals,
        eq_duals=y_h[: len(problem.equalities)],
        iterations=iters,
        eq_residual=resid,
        min_block_eig=min_eig,
    )
    scale = 1.0 + np.abs(cp.row_scale * cp.b).max(initial=0.0)
    if resid > max(1e-7, 100 * tol * scale) or min_eig < -max(1e-7, 100 * tol):
        sol.status = Status.NUMERICAL_FAILURE
    return sol

