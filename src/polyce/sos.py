"""Sum-of-squares and moment constraints as conic building blocks.

Encodes two conditions over a :class:`~polyce.conic.ConicProblem`, each
written by one function:

* a symmetric polynomial matrix M(t) is PSD on [-1,1]
  (:func:`matrix_psd_on_interval_constraint`), via the biform identity
  x'M(t)x = S(x,t) + (1-t^2) T(x,t) with S, T SOS.  One polynomial p >= 0
  on [-1,1], p = s + (1-x^2) t with s, t SOS, is its 1x1 case
  (:func:`interval_nonneg_constraint`).  One table, :func:`interval_terms`,
  lists the Gram terms of every coefficient of that identity; the conic
  writer, :func:`reconstruct_target` and the residual absorption of
  :func:`prove_interval_nonneg` all read it.  For a concrete p scaled to unit
  largest coefficient, :func:`prove_interval_nonneg` needs no solver: it
  reads s and t off the roots of p + ROOT_LIFT (Markov-Lukacs) and returns
  them once :func:`verify_certificate` accepts; where those roots change
  sign it refutes p at a point of [-1,1] where p < -DECISION_SLACK, and only
  when they show none does the least value of p settle it;
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

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from .conic import ConicProblem, LinExpr, PsdBlock, SolverError
from .polynomials import PolynomialError, _trim_negligible, grlex_monomials, maximize_univariate, poly_eval

# prove_interval_nonneg refutes p when p/max|p_k| < -DECISION_SLACK at a point of
# [-1,1] that the roots of p/max|p_k| + ROOT_LIFT or, failing those, maximize_univariate
# find; a least value in [-DECISION_SLACK, 0) is lifted away before factoring again
DECISION_SLACK = 5e-8
# prove_interval_nonneg factors p/max|p_k| lifted by ROOT_LIFT, which turns the roots
# where p touches 0 into complex pairs and moves roots at +-1 just off the interval.
# The lift absorbed into the s-Gram, at most ROOT_LIFT + DECISION_SLACK times max|p_k|,
# stays under the 1e-7 PSD tolerance of verify_certificate
ROOT_LIFT = 1e-8
_UP, _DOWN, _W = np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0, -1.0])


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
        for e, v in self.values.items():
            if not np.isfinite(v):
                raise ValueError(f"moment {e} is {v}, not a finite number")

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
    [-1,1]: target = s(x) + (1-x^2) t(x), read off the Grams by :func:`interval_terms`."""

    gram_s: np.ndarray
    gram_t: np.ndarray
    degree: int

    def __post_init__(self):
        for name, g in (("gram_s", self.gram_s), ("gram_t", self.gram_t)):
            if np.ndim(g) != 2 or not 0 < len(g) == len(g[0]) or not np.isfinite(g).all():
                raise ValueError(f"{name} must be a non-empty square matrix of finite numbers")

    def to_json(self) -> str:
        doc = {
            "degree": self.degree,
            "gram_s": [float(v) for v in self.gram_s.ravel()],
            "gram_s_dim": self.gram_s.shape[0],
            "gram_t": [float(v) for v in self.gram_t.ravel()],
            "gram_t_dim": self.gram_t.shape[0],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "SosCertificate":
        doc = json.loads(text)
        ds, dt = doc["gram_s_dim"], doc["gram_t_dim"]
        gram_s = np.array(doc["gram_s"], dtype=float).reshape(ds, ds)
        gram_t = np.array(doc["gram_t"], dtype=float).reshape(dt, dt)  # null reads as nan
        return SosCertificate(gram_s, gram_t, doc["degree"])


def interval_degrees(degree: int) -> tuple[int, int]:
    """Half-degrees (hs, ht) of the s and t Grams for a degree-``degree``
    target.  A constant gets the degree-1 layout: with hs = 0 the x^2 term
    of (1-x^2) t would have no s-Gram cell to absorb its residual."""
    return max((degree + 1) // 2, 1), max((degree - 1) // 2, 0)


@lru_cache(maxsize=None)
def interval_terms(size: int, hs: int, ht: int):
    """The identity x'M(t)x = S(x,t) + (1-t^2) T(x,t) for a symmetric
    ``size`` x ``size`` M, with S over the basis {x_a t^p : p <= hs} (Gram
    index a*(hs+1) + p) and T over p <= ht.  For each upper-triangle entry
    of M in row order, ``(a, b, rows)``: rows[k] lists the terms ``(gram,
    i, j, coef)``, gram 0 for S and 1 for T, whose sum of coef * G[i, j] is
    the t^k coefficient of M_ab.  For a == b only i <= j is listed, and an
    off-diagonal Gram entry carries weight 2 for its mirror."""
    out = []
    for a, b in itertools.combinations_with_replacement(range(size), 2):
        rows = [[] for _ in range(max(2 * hs, 2 * ht + 2) + 1)]
        for gram, h, shift, sign in ((0, hs, 0, 1.0), (1, ht, 0, 1.0), (1, ht, 2, -1.0)):
            for p in range(h + 1):
                for q in range(p if a == b else 0, h + 1):
                    coef = sign if a != b or p == q else 2.0 * sign
                    rows[p + q + shift].append((gram, a * (h + 1) + p, b * (h + 1) + q, coef))
        out.append((a, b, tuple(map(tuple, rows))))
    return tuple(out)


def interval_nonneg_constraint(
    problem: ConicProblem, poly_coeffs, degree: int
) -> tuple[PsdBlock, PsdBlock]:
    """Constrain a polynomial (affine coefficients, degree <= ``degree``) to be
    nonnegative on [-1,1] by matching it to s(x) + (1-x^2) t(x): the 1x1 case
    of :func:`matrix_psd_on_interval_constraint`."""
    return matrix_psd_on_interval_constraint(problem, [[poly_coeffs]], 1, degree)


def matrix_psd_on_interval_constraint(
    problem: ConicProblem, entries, size: int, t_degree: int
) -> tuple[PsdBlock, PsdBlock]:
    """Constrain a symmetric ``size`` x ``size`` matrix of univariate
    polynomials in t (affine coefficients, only the upper triangle of
    ``entries`` is read) to be PSD for every t in [-1,1].

    Encodes x'M(t)x = S(x,t) + (1-t^2) T(x,t) with S over the basis
    {x_a t^j : j <= ceil(D/2)} and T correspondingly reduced, matching every
    x_a x_b t^k coefficient as :func:`interval_terms` lists it.  To certify
    M(t) + c*I instead, add c to the constant coefficient of each diagonal
    entry, as the ``shift`` of :func:`polyce.moments._deviation_matrix_entries`
    does.
    """
    m, D = int(size), int(t_degree)
    if D < 0:
        raise SolverError("t_degree must be nonnegative")
    hS, hT = interval_degrees(D)
    Q = (problem.add_psd_block(m * (hS + 1)), problem.add_psd_block(m * (hT + 1)))
    for a, b, rows in interval_terms(m, hS, hT):
        coeffs = entries[a][b]
        if len(coeffs) - 1 > D:
            raise SolverError(f"entry ({a},{b}) has degree above {D}")
        for k, terms in enumerate(rows):
            lhs = sum((coef * Q[g].entry(i, j) for g, i, j, coef in terms), LinExpr())
            problem.add_equality(lhs - (coeffs[k] if k < len(coeffs) else 0.0))
    return Q


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
    """Coefficients of s(x) + (1-x^2) t(x) read off the symmetric parts of
    the Grams, the matrices :func:`verify_certificate` tests for PSD."""
    grams = tuple((G + G.T) / 2 for G in (cert.gram_s, cert.gram_t))
    (_, _, rows), = interval_terms(1, len(cert.gram_s) - 1, len(cert.gram_t) - 1)
    return np.array([sum(coef * grams[g][i, j] for g, i, j, coef in terms) for terms in rows])


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
        if float(np.linalg.eigvalsh((gram + gram.T) / 2)[0]) < -1e-7 * scale:
            return False, float("inf")
    residual = float(np.abs(npoly.polysub(reconstruct_target(cert), target)).max())
    grid_min = float(poly_eval(target, np.linspace(-1.0, 1.0, 101)).min())
    ok = residual <= 1e-7 * scale and grid_min >= -1e-6 * scale
    return ok, residual


def _absorb_residual(cert: SosCertificate, target: np.ndarray) -> SosCertificate:
    """Spread each coefficient's residual uniformly over its s-Gram cells in
    :func:`interval_terms`, so reconstruction is exact to rounding.  The
    eigenvalue perturbation is bounded by the residual."""
    delta = npoly.polysub(reconstruct_target(cert), target)  # trailing zeros trimmed
    gram = cert.gram_s.copy()
    d = gram.shape[0] - 1
    (_, _, rows), = interval_terms(1, d, len(cert.gram_t) - 1)
    for k in range(min(delta.size, 2 * d + 1)):
        cells = [(i, j, coef) for g, i, j, coef in rows[k] if g == 0]
        per = delta[k] / sum(coef for _, _, coef in cells)  # coef counts a cell and its mirror
        for i, j, _ in cells:
            gram[(i, j), (j, i)] -= per  # one cell when i == j
    return SosCertificate(gram, cert.gram_t, cert.degree)


def _gram(vectors, size: int) -> np.ndarray:
    """V'V over the coefficient vectors; one longer than ``size`` raises."""
    v = np.zeros((len(vectors), size))
    for row, u in zip(v, vectors):
        row[: u.size] = u
    return v.T @ v


def _compact(vectors):
    """The same sum of squares in at most as many vectors as the longest one
    has coefficients: the rows sqrt(lambda) u of the positive eigenpairs of
    its Gram.  A list that short already is returned as it is."""
    size = max((u.size for u in vectors), default=0)
    if len(vectors) <= size:
        return vectors
    lam, vecs = np.linalg.eigh(_gram(vectors, size))
    return [np.sqrt(lam[k]) * vecs[:, k] for k in range(size) if lam[k] > 0.0]


def _times(f, g):
    """(s1 + w t1)(s2 + w t2) = (s1 s2 + w^2 t1 t2) + w (s1 t2 + t1 s2), w =
    1-x^2, for s and t given as lists of polynomials whose squares they sum."""
    (s1, t1), (s2, t2) = f, g

    def mul(us, vs):
        return [np.convolve(u, v) for u in us for v in vs]

    return _compact(mul(s1, s2) + mul(mul(t1, t2), [_W])), _compact(mul(s1, t2) + mul(t1, s2))


def _roots(p, lift: float):
    """Factor r = p + lift, less the trailing coefficients under 1e-12 max|r_k|
    (maximize_univariate trims them too; the certificate absorbs them).
    Returns r's leading coefficient, its real roots after 3 Newton steps, its
    roots a + ib with b > 0, and whether r changes sign on [-1,1]: a real root
    in (-1,1), or lead * (-1)^#{real roots >= 1} < 0."""
    r = _trim_negligible(npoly.polyadd(p, [lift]))
    roots, deriv = npoly.polyroots(r), npoly.polyder(r)
    real, pairs = roots.real[roots.imag == 0], roots[roots.imag > 0]
    with np.errstate(all="ignore"):  # a non-finite step keeps its root
        for _ in range(3):
            step = npoly.polyval(real, r) / npoly.polyval(real, deriv)
            real = np.where(np.isfinite(step), real - step, real)
    changes = np.any(np.abs(real) < 1.0) or r[-1] * (-1) ** np.count_nonzero(real >= 1.0) < 0
    return r[-1], real, pairs, changes


def prove_interval_nonneg(coeffs):
    """Decide whether a concrete polynomial is nonnegative on [-1,1].

    Returns ``(True, certificate)`` or ``(False, None)``.  The decision is
    made on p/c, with c the largest coefficient magnitude of p, from the roots
    of r = p/c + ROOT_LIFT (Markov-Lukacs): on [-1,1], r = |lead| prod|x - x_j|
    prod((x-a)^2 + b^2) over its real roots x_j and complex pairs a +- ib,
    unless r changes sign there.  Each |x - x_j| is a(1+x) + b(1-x) with a =
    |x_j - 1|/2 and b = |x_j + 1|/2, and two of them multiply to s + (1-x^2) t
    with s = a1 a2 (1+x)^2 + b1 b2 (1-x)^2 and t = a1 b2 + a2 b1; a leftover
    one pairs with 1 = (1+x)/2 + (1-x)/2.  The real roots get 3 Newton steps,
    because a huge root costs the companion matrix its accuracy on the others.
    The Grams are V'V over the factors' coefficient vectors, times c|lead|,
    with the lift and the rounding residual absorbed into the s-Gram.  The
    certificate is returned only if :func:`verify_certificate` accepts it.

    If r changes sign, p/c is evaluated at +-1, at the real roots in (-1,1)
    and between consecutive ones; a value below -DECISION_SLACK refutes p.
    Only if none is does :func:`~polyce.polynomials.maximize_univariate` of
    -p/c find the least value m of p/c: m < -DECISION_SLACK refutes p, and
    otherwise r is lifted by -m more and refuted if it still changes sign.
    This decides p as taking m first would: a certificate from the first
    roots means p/c > -ROOT_LIFT > -DECISION_SLACK on [-1,1], and a refuting
    value lies at or above m.  Rounding moves a value by about deg * 2^-52
    sum|p_k|/c, far below 5e-8, so p is negative there exactly.  Raises
    PolynomialError on a non-finite coefficient.
    """
    coeffs = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    if not np.isfinite(coeffs).all():
        raise PolynomialError("non-finite coefficient")
    if coeffs.size == 0:
        coeffs = np.zeros(1)
    scale = float(np.abs(coeffs).max()) or 1.0
    p = coeffs / scale
    lead, real, pairs, changes = _roots(p, ROOT_LIFT)
    if changes:
        inner = np.sort(real[np.abs(real) < 1.0])
        points = np.concatenate(([-1.0, 1.0], inner, (inner[1:] + inner[:-1]) / 2))
        if poly_eval(p, points).min() < -DECISION_SLACK:
            return False, None  # a point where p/c < -DECISION_SLACK
        least = -maximize_univariate(-p)[1]
        if least < -DECISION_SLACK:
            return False, None
        lead, real, pairs, changes = _roots(p, ROOT_LIFT - min(0.0, least))
        if changes:
            return False, None
    a, b = np.abs(real - 1.0) / 2, np.abs(real + 1.0) / 2
    if real.size % 2:
        a, b = np.append(a, 0.5), np.append(b, 0.5)
    factors = [([np.array([-z.real, 1.0]), np.array([z.imag])], []) for z in pairs]
    factors += [([np.sqrt(a[k] * a[k + 1]) * _UP, np.sqrt(b[k] * b[k + 1]) * _DOWN],
                 [np.sqrt([a[k] * b[k + 1] + a[k + 1] * b[k]])]) for k in range(0, a.size, 2)]
    s, t = reduce(_times, factors, ([np.ones(1)], []))
    hs, ht = interval_degrees(coeffs.size - 1)
    weight = scale * abs(lead)
    cert = SosCertificate(weight * _gram(s, hs + 1), weight * _gram(t, ht + 1), coeffs.size - 1)
    cert = _absorb_residual(cert, coeffs)
    return (True, cert) if verify_certificate(cert, coeffs)[0] else (False, None)
