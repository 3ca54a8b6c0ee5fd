"""Sparse multivariate polynomials and univariate maximization utilities.

Polynomials are stored as a map from exponent tuples to coefficients
(doubles throughout; no exact rationals).  Dense univariate coefficient
arrays are used only where hot loops or root finding need them.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

NEAR_TOL = 1e-6  # a candidate this close to the maximum counts as a maximizer
MERGE_TOL = 1e-9  # strategy points this close count as one point


class PolynomialError(ValueError):
    pass


def is_number(x) -> bool:
    """A real number other than a bool whose magnitude a float holds: not NaN, inf or a huge int."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class MultiPoly:
    """Multivariate polynomial: ``terms[(e1,...,en)] = coefficient``, also
    accepted as (exponents, coefficient) pairs whose repeats add up in order.
    Exponents are ``num_vars`` nonnegative integers and coefficients finite
    real numbers, none a bool; zero coefficients are never stored."""

    num_vars: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 1:
            raise PolynomialError("num_vars must be a positive integer")
        clean = {}
        for exp, coef in self.terms.items() if isinstance(self.terms, dict) else self.terms:
            if len(exp) != self.num_vars:
                raise PolynomialError(f"exponents {exp} have length {len(exp)}, expected {self.num_vars}")
            if not all(isinstance(e, numbers.Integral) and not isinstance(e, bool) for e in exp):
                raise PolynomialError(f"bad exponent in {exp}: exponents must be integers")
            if any(e < 0 for e in exp):
                raise PolynomialError(f"negative exponent in {exp}")
            if not is_number(coef):
                raise PolynomialError(f"non-finite or non-numeric coefficient {coef!r} for {exp}")
            key = tuple(int(e) for e in exp)
            clean[key] = clean.get(key, 0.0) + float(coef)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0.0})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(num_vars: int, c: float) -> "MultiPoly":
        return MultiPoly(num_vars, {(0,) * num_vars: c})

    @staticmethod
    def variable(num_vars: int, index: int) -> "MultiPoly":
        exp = [0] * num_vars
        exp[index] = 1
        return MultiPoly(num_vars, {tuple(exp): 1.0})

    @staticmethod
    def univariate(coeffs) -> "MultiPoly":
        """Build a one-variable polynomial from ascending coefficients."""
        return MultiPoly(1, {(k,): float(c) for k, c in enumerate(coeffs)})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = MultiPoly.constant(self.num_vars, other)
        if other.num_vars != self.num_vars:
            raise PolynomialError("mixed-arity addition")
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0.0) + coef
        return MultiPoly(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)  # __add__ takes numbers too

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return MultiPoly(self.num_vars, {e: c * other for e, c in self.terms.items()})
        if other.num_vars != self.num_vars:
            raise PolynomialError("mixed-arity multiplication")
        terms: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return MultiPoly(self.num_vars, terms)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=0)

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.num_vars,):
            raise PolynomialError(
                f"point has shape {point.shape}, expected ({self.num_vars},)"
            )
        total = 0.0
        for exp, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exp):
                if e:
                    v *= x**e
            total += v
        return total

    def univariate_coeffs(self) -> np.ndarray:
        """Ascending coefficient array; only valid when ``num_vars == 1``."""
        if self.num_vars != 1:
            raise PolynomialError("not a univariate polynomial")
        coeffs = np.zeros(self.total_degree() + 1)
        for (k,), c in self.terms.items():
            coeffs[k] = c
        return coeffs


@lru_cache(maxsize=None)
def grlex_monomials(num_vars: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= max_degree, graded lex order:
    the one monomial basis of moment vectors, moment matrices and games."""
    monos = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=num_vars)
        if sum(e) <= max_degree
    ]
    monos.sort(key=lambda e: (sum(e), e))
    return tuple(monos)


def poly_eval(coeffs, x):
    """Evaluate an ascending-coefficient univariate polynomial."""
    return npoly.polyval(x, np.asarray(coeffs, dtype=float))


def _trim_negligible(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients below 1e-12 times the largest magnitude;
    they move values on [-1,1] by less than any tolerance in this package
    but wreck the conditioning of the companion matrix."""
    if coeffs.size == 0:
        return coeffs
    floor = 1e-12 * float(np.abs(coeffs).max())
    n = coeffs.size
    while n > 0 and abs(coeffs[n - 1]) <= floor:
        n -= 1
    return coeffs[:n]


def _polish_roots(deriv: np.ndarray, starts) -> np.ndarray:
    """At most 12 Newton steps on the derivative from every start at once,
    clamped to [-1,1].  A start stops on its own at a zero slope, a
    non-finite step, a step below 1e-14 or a step that leaves it in place
    (every later step would repeat it)."""
    # one Horner pass for deriv and its derivative (k * c_k as in polyder);
    # the zero top coefficient of the latter leaves every value's bits alone
    d2 = np.append(np.arange(1, deriv.size) * deriv[1:], 0.0)
    both = np.stack([deriv, d2], axis=1)
    t = np.array(starts, dtype=float)
    live = np.arange(t.size)
    with np.errstate(all="ignore"):  # every non-finite step stops its start
        for _ in range(12):
            value, slope = npoly.polyval(t[live], both)
            step = value / slope
            live, step = live[np.isfinite(step)], step[np.isfinite(step)]
            moved = np.clip(t[live] - step, -1.0, 1.0)
            go_on = (np.abs(step) >= 1e-14) & (moved != t[live])
            t[live] = moved
            live = live[go_on]
            if not live.size:
                break
    return t


def maximize_univariate(p):
    """Global maximum over [-1, 1] of the univariate polynomial with
    ascending coefficients ``p``.

    Candidate points are the real roots of the derivative (companion-matrix
    eigenvalues, via ``numpy.polynomial.polyroots``) and a 17-point net,
    each polished by its own Newton steps on the derivative, plus both
    endpoints.
    Returns :func:`pick_maximizers` of the candidates, ``(t_star, value,
    maximizers)``: ``maximizers`` lists every candidate within ``NEAR_TOL``
    of the maximum ``value``, ascending, and ``t_star`` is the smallest, so
    p(t_star) can sit up to ``NEAR_TOL`` below ``value``.

    Constant polynomials return ``(-1.0, constant, [-1.0])``.  Raises
    PolynomialError on a non-finite coefficient.
    """
    coeffs = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.isfinite(coeffs).all():
        raise PolynomialError("non-finite coefficient")
    coeffs = _trim_negligible(coeffs)
    if coeffs.size <= 1:
        return pick_maximizers([-1.0], [coeffs[0] if coeffs.size else 0.0])

    deriv = _trim_negligible(npoly.polyder(coeffs))
    roots = npoly.polyroots(deriv)
    real = roots.real[(abs(roots.imag) < 1e-7) & (abs(roots.real) <= 1.0 + 1e-9)]
    # the 17-point net is a coarse safety net against any missed critical point
    starts = np.concatenate([np.clip(real, -1.0, 1.0), np.linspace(-1.0, 1.0, 17)])
    merged = merge_points([-1.0, 1.0, *_polish_roots(deriv, starts).tolist()])
    return pick_maximizers(merged, poly_eval(coeffs, merged))


def pick_maximizers(points, values):
    """The maximizer rule, for ``values`` at ascending ``points``: the largest
    value, the points within ``NEAR_TOL`` of it and t_star the first of them,
    returned as ``(t_star, value, maximizers)``."""
    values = np.asarray(values, dtype=float)
    best = float(values.max())
    maximizers = np.asarray(points, dtype=float)[values >= best - NEAR_TOL].tolist()
    return maximizers[0], best, maximizers


def merge_points(points, tol: float = MERGE_TOL) -> np.ndarray:
    """Sort and deduplicate strategy points, merging any within ``tol``."""
    pts = sorted(float(p) for p in points)
    merged: list[float] = []
    for p in pts:
        if merged and p - merged[-1] <= tol:
            continue
        merged.append(p)
    return np.array(merged)
