"""Sum-of-squares and moment constraints as conic building blocks.

Encodes two conditions over a :class:`~polyce.conic.ConicProblem`, each
written by one function:

* a symmetric polynomial matrix M(t) is PSD on [-1,1]
  (:func:`matrix_psd_on_interval_constraint`), via the biform identity
  x'M(t)x = S(x,t) + (1-t^2) T(x,t) with S, T SOS.  One polynomial p >= 0
  on [-1,1], p = s + (1-x^2) t with s, t SOS, is its 1x1 case
  (:func:`interval_nonneg_constraint`).  For a concrete p scaled to unit
  largest coefficient, :func:`prove_interval_nonneg` decides in two steps:
  it refutes p when root finding shows a point of [-1,1] where p <
  -DECISION_SLACK, and otherwise solves the lower-bound program max delta
  s.t. p - delta = s + (1-x^2) t and accepts p when delta* >=
  -DECISION_SLACK (5e-8, below the PSD tolerance of
  :func:`verify_certificate`, 1e-7 times the largest coefficient of p when
  that exceeds 1);
* truncated moments on [-1,1]^n are feasible
  (:func:`moment_feasibility_constraint`): the moment matrix and one
  localizing matrix per variable for the weight (1 - s_i^2) are PSD.  One
  table, :func:`localizing_entries`, lists their entries, and
  :func:`polyce.moments.moment_validity_margin` fills it with numbers.

Degree bookkeeping: for a target of degree D the interval decomposition uses
deg s = 2*ceil(D/2) and deg t = 2*floor((D-1)/2) clamped at 0, which is
parity-tight (for odd D the s part runs one degree above D and the spurious
top coefficient is tied to the t part).  Monomial bases are ordered graded
lexicographic throughout (:func:`polyce.polynomials.grlex_monomials`) and
that order is frozen across modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .conic import ConicProblem, LinExpr, PsdBlock, SolverError, Status, expr
from .polynomials import PolynomialError, grlex_monomials, maximize_univariate, poly_eval

# prove_interval_nonneg refutes p when p/max|p_k| < -DECISION_SLACK at a root-found
# point of [-1,1], and otherwise when the SDP's min of p/max|p_k| is below it
DECISION_SLACK = 5e-8


@dataclass(frozen=True)
class MomentVector:
    """Truncated joint moments: values[exponent] with total degree <= order."""

    num_vars: int
    order: int
    values: dict[tuple[int, ...], float]

    def __post_init__(self):
        for e in self.values:
            if len(e) != self.num_vars:
                raise ValueError(f"exponent {e} has wrong arity")
            if sum(e) > self.order:
                raise ValueError(f"exponent {e} exceeds order {self.order}")
        mu0 = self.values.get((0,) * self.num_vars)
        if mu0 is None or not abs(mu0 - 1.0) <= 1e-9:  # rejects nan too
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


def interval_degrees(degree: int) -> tuple[int, int]:
    """Half-degrees (hs, ht) of the s and t Grams for a degree-``degree`` target."""
    hs = (degree + 1) // 2
    ht = max((degree - 1) // 2, 0)
    return hs, ht


def interval_nonneg_constraint(
    problem: ConicProblem, poly_coeffs, degree: int
) -> tuple[PsdBlock, PsdBlock]:
    """Constrain a polynomial (affine coefficients, degree <= ``degree``) to be
    nonnegative on [-1,1] by matching it to s(x) + (1-x^2) t(x): the 1x1 case
    of :func:`matrix_psd_on_interval_constraint`."""
    return matrix_psd_on_interval_constraint(problem, [[poly_coeffs]], 1, degree)


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
        # count folds into the usual 1/2 antidiagonal weights over p <= q
        out = LinExpr()
        last = min(h, k) if a != b else min(h, k // 2)
        for p in range(max(0, k - h), last + 1):
            i, j = a * (h + 1) + p, b * (h + 1) + k - p
            mult = 1.0 if (a != b or i == j) else 2.0
            out = out + mult * Q.entry(i, j)
        return out

    top = max(2 * hS, 2 * hT + 2)
    for a in range(m):
        for b in range(a, m):
            coeffs = [LinExpr.of(c) for c in entries[a][b]]
            if len(coeffs) - 1 > D:
                raise SolverError(f"entry ({a},{b}) has degree above {D}")
            for k in range(top + 1):
                lhs = pair_sum(QS, hS, a, b, k)
                lhs = lhs + pair_sum(QT, hT, a, b, k) - pair_sum(QT, hT, a, b, k - 2)
                target = coeffs[k] if k < len(coeffs) else LinExpr()
                rhs = diag_shift if (a == b and k == 0) else 0.0
                problem.add_equality(lhs - target, rhs)
    return QS, QT


@lru_cache(maxsize=None)
def localizing_entries(num_vars: int, r: int):
    """The moment matrix of half-order r, then for each variable v the
    localizing matrix of half-order r-1 for the weight 1 - s_v^2, as
    ``(dim, entries)`` pairs over the graded-lex basis.  An upper-triangle
    entry ``(i, j, terms)`` is sum(sign * mu[exponent] for exponent, sign in
    terms), the weight times basis[i] * basis[j] integrated."""
    out = []
    for v in [None] + list(range(num_vars)):
        basis = grlex_monomials(num_vars, r if v is None else r - 1)
        entries = []
        for i, ei in enumerate(basis):
            for j in range(i, len(basis)):
                s = tuple(x + y for x, y in zip(ei, basis[j]))
                terms = [(s, 1.0)]
                if v is not None:  # the - s_v^2 part of the weight
                    terms.append((tuple(x + 2 * (k == v) for k, x in enumerate(s)), -1.0))
                entries.append((i, j, tuple(terms)))
        out.append((len(basis), tuple(entries)))
    return tuple(out)


def moment_feasibility_constraint(
    problem: ConicProblem, values, num_vars: int, order: int,
    diag_shift: float = 0.0,
) -> tuple[PsdBlock, list[PsdBlock]]:
    """Necessary moment conditions for a probability measure on [-1,1]^n at
    truncation ``order`` = 2r: every matrix of :func:`localizing_entries`
    PSD, and mu_0 = 1.

    ``values`` maps exponent tuples of total degree <= 2r to affine
    expressions (or plain numbers).  A positive ``diag_shift`` admits
    matrices down to -shift*I, restoring an interior when the measures
    behind the moments are supported on boundaries or low-dimensional sets.
    """
    if order < 2 or order % 2:
        raise SolverError("order must be an even integer >= 2")
    blocks = []
    for dim, entries in localizing_entries(num_vars, order // 2):
        Q = problem.add_psd_block(dim)
        for i, j, terms in entries:
            lhs = Q.entry(i, j)
            for e, sign in terms:
                lhs = lhs - sign * LinExpr.of(values[e])
            problem.add_equality(lhs, diag_shift if i == j else 0.0)
        blocks.append(Q)

    problem.add_equality(LinExpr.of(values[(0,) * num_vars]), 1.0)
    return blocks[0], blocks[1:]


# ---------------------------------------------------------------------------
# certificate extraction and verification


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


def verify_certificate(cert: SosCertificate, target_coeffs) -> tuple[bool, float]:
    """Soundness check: PSD Grams (smallest eigenvalue >= -1e-7),
    coefficient reconstruction within 1e-7, and the target itself
    nonnegative (>= -1e-6) on a 101-point uniform grid.  Every tolerance is
    multiplied by max(1, largest target coefficient magnitude), because a
    certificate's rounding errors grow with its coefficients.  Returns (ok,
    max coefficient residual)."""
    target = np.atleast_1d(np.asarray(target_coeffs, dtype=float))
    scale = max(1.0, float(np.abs(target).max(initial=0.0)))
    for gram in (cert.gram_s, cert.gram_t):
        if gram is None or gram.size == 0:
            continue
        if float(np.linalg.eigvalsh((gram + gram.T) / 2)[0]) < -1e-7 * scale:
            return False, float("inf")
    residual = float(np.abs(npoly.polysub(reconstruct_target(cert), target)).max())
    grid_min = float(poly_eval(target, np.linspace(-1.0, 1.0, 101)).min())
    ok = residual <= 1e-7 * scale and grid_min >= -1e-6 * scale
    return ok, residual


def _absorb_residual(cert: SosCertificate, target: np.ndarray) -> SosCertificate:
    """Spread the coefficient residual of a certificate uniformly over the
    matching antidiagonals of the s-Gram, so reconstruction is exact to
    rounding.  The eigenvalue perturbation is bounded by the residual."""
    delta = npoly.polysub(reconstruct_target(cert), target)  # trailing zeros trimmed
    gram = cert.gram_s.copy()
    d = gram.shape[0] - 1
    for k in range(min(delta.size, 2 * d + 1)):
        cells = [(i, k - i) for i in range(max(0, k - d), min(d, k) + 1)]
        if not cells:
            continue
        per = delta[k] / len(cells)
        for i, j in cells:
            gram[i, j] -= per
    return SosCertificate(gram, cert.gram_t, cert.degree)


def prove_interval_nonneg(coeffs):
    """Decide whether a concrete polynomial is nonnegative on [-1,1].

    Returns ``(True, certificate)`` or ``(False, None)``.  The decision is
    made on p/c, with c the largest coefficient magnitude of p, because the
    solver's accuracy is relative to the size of the coefficients.  First,
    :func:`~polyce.polynomials.maximize_univariate` of -p/c finds the least
    value of p/c over both endpoints and the polished critical points; below
    -DECISION_SLACK it refutes p without an SDP.  Its rounding, about
    deg * 2^-52 times sum|p_k|/c, and the trailing coefficients under 1e-12
    that it trims are far below 5e-8, so that value is negative exactly.
    Root finding can miss a minimum, so otherwise the lower-bound program
    max delta  s.t.  p/c - delta = s + (1-x^2) t  with s, t SOS and delta a
    free scalar decides.  Its optimum delta* is the minimum of p/c on
    [-1,1], and both it and its dual have strictly feasible points, so it
    stays well posed when p touches zero on the interval (an exact match
    p = s + (1-x^2) t has no interior there).

    p counts as nonnegative when delta* >= -DECISION_SLACK (5e-8, ten times
    the error of delta* at the solver tolerance 1e-9 on polynomials with a
    root on [-1,1]); otherwise the result is ``(False, None)``.  The
    certificate is c times the one for p/c, with c*delta* and the rest of
    the coefficient residual absorbed into the s-Gram, so reconstruction is
    exact to rounding.  Absorbing a delta* in [-DECISION_SLACK, 0) moves an
    eigenvalue of the s-Gram by at most c*|delta*|, which is within the PSD
    tolerance of :func:`verify_certificate` (1e-7 times max(1, c)) for every
    c.  Raises PolynomialError on a non-finite coefficient and SolverError
    when the solver does not reach an optimum.
    """
    coeffs = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    if not np.isfinite(coeffs).all():
        raise PolynomialError("non-finite coefficient")
    if coeffs.size == 0:
        coeffs = np.zeros(1)
    degree = coeffs.size - 1
    scale = float(np.abs(coeffs).max()) or 1.0
    if maximize_univariate(-coeffs / scale)[1] > DECISION_SLACK:
        return False, None  # a point where p/c < -DECISION_SLACK
    problem = ConicProblem()
    delta = problem.add_scalar_var()
    shifted = list(coeffs / scale)
    shifted[0] = LinExpr.of(shifted[0]) - delta
    qs, qt = interval_nonneg_constraint(problem, shifted, degree)
    problem.set_objective(-1.0 * expr(delta))
    sol = problem.solve(tol=1e-9)
    if sol.status is not Status.OPTIMAL:
        raise SolverError(f"interval nonnegativity check failed: {sol.status.value}")
    if sol.value(delta) < -DECISION_SLACK:
        return False, None
    cert = SosCertificate(scale * sol.value(qs), scale * sol.value(qt), degree)
    return True, _absorb_residual(cert, coeffs)
