"""Sum-of-squares and moment constraints as conic building blocks.

Encodes, over a :class:`~polyce.conic.ConicProblem`:

* plain univariate SOS membership (Gram matrix with antidiagonal ties),
* nonnegativity on [-1,1] via the decomposition p = s + (1-x^2) t with s, t
  both SOS; for a concrete p, :func:`prove_interval_nonneg` solves the
  lower-bound program max delta s.t. p - delta = s + (1-x^2) t on p scaled
  to unit largest coefficient, and accepts p when delta* >= -DECISION_SLACK
  (5e-8, below the PSD tolerance of :func:`verify_certificate`, 1e-7 times
  the largest coefficient of p when that exceeds 1),
* PSD-ness of a symmetric polynomial matrix M(t) on [-1,1] via the biform
  identity x'M(t)x = S(x,t) + (1-t^2) T(x,t) with S, T SOS,
* truncated-moment feasibility on [-1,1]^n: moment matrix plus one
  localizing matrix per variable for the weight (1 - s_i^2).

Degree bookkeeping: for a target of degree D the interval decomposition uses
deg s = 2*ceil(D/2) and deg t = 2*floor((D-1)/2) clamped at 0, which is
parity-tight (for odd D the s part runs one degree above D and the spurious
top coefficient is tied to the t part).  Monomial bases are ordered graded
lexicographic throughout and that order is frozen across modules.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conic import ConicProblem, LinExpr, PsdBlock, SolverError, Status, expr
from .polynomials import poly_eval

# prove_interval_nonneg accepts p when min p/max|p_k| on [-1,1] >= -DECISION_SLACK
DECISION_SLACK = 5e-8


@lru_cache(maxsize=None)
def grlex_monomials(num_vars: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= max_degree, graded lex order."""
    monos = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=num_vars)
        if sum(e) <= max_degree
    ]
    monos.sort(key=lambda e: (sum(e), e))
    return tuple(monos)


@dataclass(frozen=True)
class MomentVector:
    """Truncated joint moments: values[exponent] with total degree <= order."""

    num_vars: int
    order: int
    values: dict[tuple[int, ...], float]
    probability: bool = True

    def __post_init__(self):
        zero = (0,) * self.num_vars
        for e in self.values:
            if len(e) != self.num_vars:
                raise ValueError(f"exponent {e} has wrong arity")
            if sum(e) > self.order:
                raise ValueError(f"exponent {e} exceeds order {self.order}")
        if self.probability:
            mu0 = self.values.get(zero)
            if mu0 is None or abs(mu0 - 1.0) > 1e-9:
                raise ValueError(f"probability moment vector needs mu_0 = 1, got {mu0}")

    @staticmethod
    def from_measure(measure, num_vars: int, order: int) -> "MomentVector":
        """Moments of anything exposing ``.moment(exponent) -> float``."""
        values = {e: measure.moment(e) for e in grlex_monomials(num_vars, order)}
        return MomentVector(num_vars, order, values)

    def __getitem__(self, exponent) -> float:
        return self.values[tuple(exponent)]


@dataclass
class SosCertificate:
    """Gram-matrix witness that a univariate polynomial is nonnegative on
    [-1,1]: target = s(x) + (1-x^2) t(x) with s, t read off the Grams by
    antidiagonal sums."""

    gram_s: np.ndarray
    gram_t: np.ndarray | None
    degree: int

    def to_json(self) -> str:
        doc = {
            "degree": self.degree,
            "gram_s": [float(v) for v in self.gram_s.ravel()],
            "gram_s_dim": self.gram_s.shape[0],
            "gram_t": None if self.gram_t is None else [float(v) for v in self.gram_t.ravel()],
            "gram_t_dim": None if self.gram_t is None else self.gram_t.shape[0],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "SosCertificate":
        doc = json.loads(text)
        ds = doc["gram_s_dim"]
        gram_s = np.array(doc["gram_s"]).reshape(ds, ds)
        gram_t = None
        if doc["gram_t"] is not None:
            dt = doc["gram_t_dim"]
            gram_t = np.array(doc["gram_t"]).reshape(dt, dt)
        return SosCertificate(gram_s, gram_t, doc["degree"])


def antidiagonal_sums(gram: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial x'Qx over the basis (1, x, ..., x^d)."""
    d = gram.shape[0] - 1
    out = np.zeros(2 * d + 1)
    for i in range(d + 1):
        for j in range(d + 1):
            out[i + j] += gram[i, j]
    return out


def _as_exprs(coeffs) -> list[LinExpr]:
    return [LinExpr.of(c) for c in coeffs]


def _antidiag_expr(Q: PsdBlock, k: int) -> LinExpr:
    d = Q.dim - 1
    out = LinExpr()
    for i in range(max(0, k - d), min(d, k) + 1):
        j = k - i
        if i > j:
            continue
        out = out + (1.0 if i == j else 2.0) * Q.entry(i, j)
    return out


def interval_degrees(degree: int) -> tuple[int, int]:
    """Half-degrees (hs, ht) of the s and t Grams for a degree-``degree`` target."""
    hs = (degree + 1) // 2
    ht = max((degree - 1) // 2, 0)
    return hs, ht


def interval_nonneg_constraint(
    problem: ConicProblem, poly_coeffs, degree: int
) -> tuple[PsdBlock, PsdBlock]:
    """Constrain a polynomial (affine coefficients, degree <= ``degree``) to be
    nonnegative on [-1,1] by matching it to s(x) + (1-x^2) t(x)."""
    if degree < 0:
        raise SolverError("degree must be nonnegative")
    coeffs = _as_exprs(poly_coeffs)
    if len(coeffs) - 1 > degree:
        raise SolverError(f"got degree {len(coeffs) - 1} coefficients for degree {degree}")
    hs, ht = interval_degrees(degree)
    Qs = problem.add_psd_block(hs + 1)
    Qt = problem.add_psd_block(ht + 1)
    top = max(2 * hs, 2 * ht + 2)
    for k in range(top + 1):
        lhs = _antidiag_expr(Qs, k) + _antidiag_expr(Qt, k) - _antidiag_expr(Qt, k - 2)
        target = coeffs[k] if k < len(coeffs) else LinExpr()
        problem.add_equality(lhs - target, 0.0)
    return Qs, Qt


def matrix_psd_on_interval_constraint(
    problem: ConicProblem, entries, size: int, t_degree: int,
    diag_shift: float = 0.0,
) -> tuple[PsdBlock, PsdBlock]:
    """Constrain a symmetric ``size`` x ``size`` matrix of univariate
    polynomials in t (affine coefficients, only the upper triangle of
    ``entries`` is read) to be PSD for every t in [-1,1].

    Encodes x'M(t)x = S(x,t) + (1-t^2) T(x,t) with S over the basis
    {x_a t^j : j <= ceil(D/2)} and T correspondingly reduced, matching every
    x_a x_b t^k coefficient.  A positive ``diag_shift`` certifies
    M(t) + shift*I instead, which restores a strict interior on problems
    whose exact feasible set has none.
    """
    m, D = int(size), int(t_degree)
    if D < 0:
        raise SolverError("t_degree must be nonnegative")
    hS, hT = interval_degrees(D)
    QS = problem.add_psd_block(m * (hS + 1))
    QT = problem.add_psd_block(m * (hT + 1))

    def pair_sum(Q: PsdBlock, h: int, a: int, b: int, k: int) -> LinExpr:
        # sum over p+q=k of Q[(a,p),(b,q)]; for a == b the ordered double
        # count folds into the usual 1/2 antidiagonal weights
        out = LinExpr()
        for p in range(max(0, k - h), min(h, k) + 1):
            q = k - p
            i, j = a * (h + 1) + p, b * (h + 1) + q
            if a == b and i > j:
                continue
            mult = 1.0 if (a != b or i == j) else 2.0
            out = out + mult * Q.entry(min(i, j), max(i, j))
        return out

    top = max(2 * hS, 2 * hT + 2)
    for a in range(m):
        for b in range(a, m):
            coeffs = _as_exprs(entries[a][b])
            if len(coeffs) - 1 > D:
                raise SolverError(f"entry ({a},{b}) has degree above {D}")
            for k in range(top + 1):
                lhs = pair_sum(QS, hS, a, b, k)
                lhs = lhs + pair_sum(QT, hT, a, b, k) - pair_sum(QT, hT, a, b, k - 2)
                target = coeffs[k] if k < len(coeffs) else LinExpr()
                rhs = diag_shift if (a == b and k == 0) else 0.0
                problem.add_equality(lhs - target, rhs)
    return QS, QT


def moment_feasibility_constraint(
    problem: ConicProblem, values, num_vars: int, order: int,
    diag_shift: float = 0.0,
) -> tuple[PsdBlock, list[PsdBlock]]:
    """Necessary moment conditions for a probability measure on [-1,1]^n at
    truncation ``order`` = 2r: moment matrix of order r PSD, one localizing
    matrix of order r-1 per variable for the weight (1 - s_i^2), mu_0 = 1.

    ``values`` maps exponent tuples of total degree <= 2r to affine
    expressions (or plain numbers).  A positive ``diag_shift`` admits
    matrices down to -shift*I, restoring an interior when the measures
    behind the moments are supported on boundaries or low-dimensional sets.
    """
    if order < 2 or order % 2:
        raise SolverError("order must be an even integer >= 2")
    r = order // 2

    def val(e) -> LinExpr:
        return LinExpr.of(values[tuple(e)])

    basis = grlex_monomials(num_vars, r)
    M = problem.add_psd_block(len(basis))
    for i, ei in enumerate(basis):
        for j in range(i, len(basis)):
            ej = basis[j]
            s = tuple(x + y for x, y in zip(ei, ej))
            problem.add_equality(M.entry(i, j) - val(s), diag_shift if i == j else 0.0)

    loc_blocks = []
    loc_basis = grlex_monomials(num_vars, r - 1)
    for v in range(num_vars):
        L = problem.add_psd_block(len(loc_basis))
        for i, ei in enumerate(loc_basis):
            for j in range(i, len(loc_basis)):
                s = tuple(x + y for x, y in zip(ei, loc_basis[j]))
                s2 = tuple(x + (2 if k == v else 0) for k, x in enumerate(s))
                problem.add_equality(
                    L.entry(i, j) - val(s) + val(s2), diag_shift if i == j else 0.0
                )
        loc_blocks.append(L)

    problem.add_equality(val((0,) * num_vars), 1.0)
    return M, loc_blocks


# ---------------------------------------------------------------------------
# certificate extraction and verification


def certificate_from_solution(solution, qs: PsdBlock, qt: PsdBlock, degree: int) -> SosCertificate:
    return SosCertificate(solution.value(qs), solution.value(qt), degree)


def reconstruct_target(cert: SosCertificate) -> np.ndarray:
    """Coefficients of s(x) + (1-x^2) t(x) read off the certificate."""
    s = antidiagonal_sums(cert.gram_s)
    if cert.gram_t is None:
        return s
    t = antidiagonal_sums(cert.gram_t)
    weighted = np.convolve([1.0, 0.0, -1.0], t)
    n = max(s.size, weighted.size)
    out = np.zeros(n)
    out[: s.size] += s
    out[: weighted.size] += weighted
    return out


def verify_certificate(
    cert: SosCertificate, target_coeffs, psd_tol: float = 1e-7,
    coeff_tol: float = 1e-7, grid_tol: float = 1e-6,
) -> tuple[bool, float]:
    """Soundness check: PSD Grams, coefficient reconstruction within
    ``coeff_tol``, and the target itself nonnegative (>= -grid_tol) on a
    101-point uniform grid.  Every tolerance is multiplied by
    max(1, largest target coefficient magnitude), because a certificate's
    rounding errors grow with its coefficients.  Returns (ok, max
    coefficient residual)."""
    target = np.atleast_1d(np.asarray(target_coeffs, dtype=float))
    scale = max(1.0, float(np.abs(target).max(initial=0.0)))
    for gram in (cert.gram_s, cert.gram_t):
        if gram is None or gram.size == 0:
            continue
        if float(np.linalg.eigvalsh((gram + gram.T) / 2)[0]) < -psd_tol * scale:
            return False, float("inf")
    recon = reconstruct_target(cert)
    n = max(target.size, recon.size)
    diff = np.zeros(n)
    diff[: recon.size] += recon
    diff[: target.size] -= target
    residual = float(np.abs(diff).max(initial=0.0))
    grid_min = float(poly_eval(target, np.linspace(-1.0, 1.0, 101)).min())
    ok = residual <= coeff_tol * scale and grid_min >= -grid_tol * scale
    return ok, residual


def _absorb_residual(cert: SosCertificate, target: np.ndarray) -> SosCertificate:
    """Spread the coefficient residual of a certificate uniformly over the
    matching antidiagonals of the s-Gram, so reconstruction is exact to
    rounding.  The eigenvalue perturbation is bounded by the residual."""
    recon = reconstruct_target(cert)
    n = max(recon.size, target.size)
    delta = np.zeros(n)
    delta[: recon.size] += recon
    delta[: target.size] -= target
    gram = cert.gram_s.copy()
    d = gram.shape[0] - 1
    for k in range(min(n, 2 * d + 1)):
        cells = [(i, k - i) for i in range(max(0, k - d), min(d, k) + 1)]
        if not cells:
            continue
        per = delta[k] / len(cells)
        for i, j in cells:
            gram[i, j] -= per
    return SosCertificate(gram, cert.gram_t, cert.degree)


def prove_interval_nonneg(coeffs, tol: float = 1e-9):
    """Decide whether a concrete polynomial is nonnegative on [-1,1].

    Returns ``(True, certificate)`` or ``(False, None)``.  The check is the
    lower-bound program  max delta  s.t.  p - delta = s + (1-x^2) t  with s, t
    SOS and delta a free scalar.  Its optimum delta* is the minimum of p on
    [-1,1], and both it and its dual have strictly feasible points, so it
    stays well posed when p touches zero on the interval (an exact match
    p = s + (1-x^2) t has no interior there).

    The program is solved for p/c, with c the largest coefficient magnitude
    of p, because the solver's accuracy on delta* is relative to the size of
    the coefficients.  p counts as nonnegative when delta* of p/c is
    >= -DECISION_SLACK (5e-8, ten times the error of delta* at the default
    ``tol`` on polynomials with a root on [-1,1]); otherwise the result is
    ``(False, None)``.  The certificate is c times the one for p/c, with
    c*delta* and the rest of the coefficient residual absorbed into the
    s-Gram, so reconstruction is exact to rounding.  Absorbing a delta* in
    [-DECISION_SLACK, 0) moves an eigenvalue of the s-Gram by at most
    c*|delta*|, which is within the ``psd_tol`` of :func:`verify_certificate`
    (1e-7 times max(1, c)) for every c.  Raises SolverError
    when the solver does not reach an optimum.
    """
    coeffs = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    if coeffs.size == 0:
        coeffs = np.zeros(1)
    degree = coeffs.size - 1
    scale = float(np.abs(coeffs).max()) or 1.0
    problem = ConicProblem()
    delta = problem.add_scalar_var()
    shifted = _as_exprs(coeffs / scale)
    shifted[0] = shifted[0] - delta
    qs, qt = interval_nonneg_constraint(problem, shifted, degree)
    problem.set_objective(-1.0 * expr(delta))
    sol = problem.solve(tol=tol)
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"interval nonnegativity check failed: {sol.status.value}")
    if sol.value(delta) < -DECISION_SLACK:
        return False, None
    cert = SosCertificate(scale * sol.value(qs), scale * sol.value(qt), degree)
    return True, _absorb_residual(cert, coeffs)
