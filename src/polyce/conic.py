"""Solver-agnostic conic problem builder.

A :class:`ConicProblem` has free scalar variables, nonnegative scalar
variables, PSD matrix blocks, linear equality constraints, and a linear
objective (always minimized).  ``add_leq`` writes an inequality as an
equality with a fresh nonnegative slack; 1x1 PSD blocks are routed to the
nonnegative orthant internally.

Every variable has one position in one variable vector, fixed when it is
declared: a scalar at ``ScalarVar.index``, a dim x dim PSD block at the
dim(dim+1)/2 positions from ``PsdBlock.start``, in the solver's svec order
(upper triangle row by row, defined once by :func:`_triangle`).  ``LinExpr``
keys and ``ConicSolution.values`` use this numbering.

``solve`` hands the built problem to the interior-point method in
:mod:`polyce.ipm` and returns a :class:`ConicSolution` with primal values,
equality multipliers and the reason the solve ended, from which its status
in {Optimal, Infeasible, Unbounded, NumericalFailure} is read.
``solve_many`` solves the same constraints under several objectives in one
batched IPM run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class SolverError(RuntimeError):
    """Builder misuse or an unexpected solver breakdown."""


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    NUMERICAL_FAILURE = "NumericalFailure"


# why a solve ended -> its status: the IPM's six endings, each non-optimal one
# prefixed "rescued_" when the best iterate met the looser rescue tolerance and
# was returned, and "inaccurate" for an optimum whose equality residual or
# smallest block eigenvalue misses the accuracy check
_ENDINGS = {"optimal": Status.OPTIMAL, "infeasible": Status.INFEASIBLE, "unbounded": Status.UNBOUNDED,
            "max_iter": Status.NUMERICAL_FAILURE, "breakdown": Status.NUMERICAL_FAILURE,
            "stalled": Status.NUMERICAL_FAILURE}
_STATUS = {**_ENDINGS, **{"rescued_" + why: Status.OPTIMAL for why in _ENDINGS if why != "optimal"},
           "inaccurate": Status.NUMERICAL_FAILURE}

SOLVER_TOL = 1e-8  # the tolerance of static and moment solves, and the cap of adaptive ones
SOLVER_MAX_ITER = 200  # the default iteration cap of every IPM solve


@lru_cache(maxsize=None)
def _triangle(dim: int):
    """Index tables of the svec layout (upper triangle row by row, off-diagonal
    entries times sqrt 2): the svec position and scale of every (i, j), and
    the flat position and scale of every svec entry.  Shared, so read-only."""
    rows, cols = np.triu_indices(dim)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    pos = np.empty((dim, dim), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    tables = (pos, scale[pos], rows * dim + cols, scale)
    for t in tables:
        t.flags.writeable = False
    return tables


@dataclass(frozen=True)
class ScalarVar:
    index: int  # position in the variable vector
    nonneg: bool = False


@dataclass(frozen=True)
class PsdBlock:
    start: int  # position of entry (0, 0) in the variable vector
    dim: int

    def entry(self, i: int, j: int) -> "LinExpr":
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise SolverError(f"entry ({i},{j}) outside {self.dim}x{self.dim} block")
        return LinExpr({self.start + int(_triangle(self.dim)[0][i, j]): 1.0})


@dataclass(frozen=True)
class EqConstraint:
    index: int


class LinExpr:
    """Affine expression over problem variables: ``coeffs . vars + const``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const: float = 0.0):
        self.coeffs: dict = dict(coeffs) if coeffs else {}
        self.const = float(const)

    @staticmethod
    def of(x) -> "LinExpr":
        if isinstance(x, LinExpr):
            return x
        if isinstance(x, ScalarVar):
            return LinExpr({x.index: 1.0})
        if isinstance(x, (int, float, np.floating, np.integer)):
            return LinExpr(const=float(x))
        raise SolverError(f"cannot interpret {x!r} as a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.const)

    def add_term(self, key, coef: float) -> None:
        if coef == 0.0:
            return
        self.coeffs[key] = self.coeffs.get(key, 0.0) + coef

    def __add__(self, other):
        other = LinExpr.of(other)
        out = self.copy()
        out.const += other.const
        for k, v in other.coeffs.items():
            out.add_term(k, v)
        return out

    __radd__ = __add__

    def __neg__(self):
        return LinExpr({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-LinExpr.of(other))

    def __rsub__(self, other):
        return LinExpr.of(other) + (-self)

    def __mul__(self, a):
        a = float(a)
        return LinExpr({k: a * v for k, v in self.coeffs.items()}, a * self.const)

    __rmul__ = __mul__


def expr(x) -> LinExpr:
    return LinExpr.of(x)


class ConicProblem:
    """Builder for minimize c.x subject to linear equalities and cone
    membership.  Construction is single-owner; ``solve`` is a pure function
    of the built data, so distinct problems solve concurrently."""

    def __init__(self):
        self.num_vars = 0  # length of the variable vector
        self.scalars: list[ScalarVar] = []
        self.blocks: list[PsdBlock] = []
        self.equalities: list[tuple[dict, float]] = []  # (coeffs, rhs)
        self.objective: LinExpr = LinExpr()
        self.trivially_infeasible = False

    @property
    def num_scalars(self) -> int:
        return len(self.scalars)

    @property
    def scalar_nonneg(self) -> list[bool]:
        return [v.nonneg for v in self.scalars]

    # -- builder ops -------------------------------------------------------

    def add_scalar_var(self, nonneg: bool = False) -> ScalarVar:
        v = ScalarVar(self.num_vars, nonneg)
        self.num_vars += 1
        self.scalars.append(v)
        return v

    def add_nonneg_var(self) -> ScalarVar:
        return self.add_scalar_var(nonneg=True)

    def add_psd_block(self, dim: int) -> PsdBlock:
        if dim < 1:
            raise SolverError("PSD block dimension must be >= 1")
        blk = PsdBlock(self.num_vars, int(dim))
        self.num_vars += blk.dim * (blk.dim + 1) // 2
        self.blocks.append(blk)
        return blk

    def _check_expr(self, e: LinExpr) -> None:
        for key in e.coeffs:
            if not (isinstance(key, int) and 0 <= key < self.num_vars):
                raise SolverError(f"undeclared variable {key!r}")

    def add_equality(self, e, rhs: float = 0.0) -> EqConstraint:
        e = LinExpr.of(e)
        self._check_expr(e)
        rhs = float(rhs) - e.const
        coeffs = {k: v for k, v in e.coeffs.items() if v != 0.0}
        if not coeffs:
            if abs(rhs) > 1e-12:
                self.trivially_infeasible = True
            return EqConstraint(-1)
        self.equalities.append((coeffs, rhs))
        return EqConstraint(len(self.equalities) - 1)

    def add_leq(self, e, rhs: float = 0.0) -> ScalarVar:
        """Add ``e <= rhs`` via an explicit nonnegative slack; returns the slack."""
        slack = self.add_nonneg_var()
        self.add_equality(LinExpr.of(e) + LinExpr.of(slack), rhs)
        return slack

    def set_objective(self, e) -> None:
        e = LinExpr.of(e)
        self._check_expr(e)
        self.objective = e

    def _solver(self, tol: float, max_iter: int):
        """The IPM module, once the problem, ``tol`` and ``max_iter`` pass its checks."""
        if not (0 < tol <= 1e-2):
            raise SolverError("tol must lie in (0, 1e-2]")
        if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
            raise SolverError("max_iter must be an integer >= 1")
        # the IPM needs a cone; linear programs go to finite_ce.solve_lp
        if not any(self.scalar_nonneg) and not self.blocks:
            raise SolverError("problem has no variables in a cone")
        from . import ipm

        return ipm

    def solve(self, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER) -> "ConicSolution":
        return self._solver(tol, max_iter).solve(self, tol=tol, max_iter=max_iter)

    def solve_many(self, objectives, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER) -> list:
        """One solution per objective, as ``solve`` would give after
        ``set_objective``; the objectives share one compile and one IPM run."""
        objectives = [LinExpr.of(e) for e in objectives]
        for e in objectives:
            self._check_expr(e)
        ipm = self._solver(tol, max_iter)
        return ipm.solve_many(self, objectives, tol=tol, max_iter=max_iter) if objectives else []


@dataclass
class ConicSolution:
    """Primal/dual solution of a built conic problem."""

    reason: str  # why the solve ended: a key of _STATUS
    objective_value: float = float("nan")
    dual_objective: float = float("nan")
    values: np.ndarray | None = None  # the variable vector
    eq_duals: np.ndarray | None = None
    iterations: int = 0
    eq_residual: float = float("nan")
    min_block_eig: float = float("nan")

    @property
    def status(self) -> Status:
        return _STATUS[self.reason]  # an unknown reason raises

    def _require_optimal(self, what: str) -> None:
        if self.status is not Status.OPTIMAL:
            raise SolverError(f"no {what}: status is {self.status.value} ({self.reason})")

    def value(self, handle):
        self._require_optimal("primal values")
        if isinstance(handle, ScalarVar):
            return float(self.values[handle.index])
        if isinstance(handle, PsdBlock):
            return self.values[handle.start + _triangle(handle.dim)[0]]
        raise SolverError(f"cannot look up {handle!r}")

    def evaluate(self, e: LinExpr) -> float:
        self._require_optimal("primal values")
        total = e.const
        for key, coef in e.coeffs.items():
            total += coef * float(self.values[key])
        return total

    def dual(self, eq: EqConstraint) -> float:
        self._require_optimal("duals")
        if eq.index < 0:
            return 0.0
        return float(self.eq_duals[eq.index])

