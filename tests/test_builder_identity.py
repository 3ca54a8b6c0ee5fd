"""Pinned bytes of the compiled problem for one small problem per writer.

The interior-point method's iteration counts move with last-bit changes of
the problem data, so a builder refactor must leave ``compile_problem``'s
output byte-identical unless it means to change it.  Each digest covers the
CSR arrays of ``A`` (data, indices, indptr), ``b``, the cost ``c`` from
``ipm._cost`` and ``row_scale``.
Compilation is plain numpy/scipy index arithmetic without BLAS, so the bytes
are stable for pinned numpy and scipy versions: the digests were taken with
the versions in ``PINNED_VERSIONS`` (the ones CI installs), and the test
skips under any other.  If a change moves one of these on purpose, re-pin it
and say why in the change log.
"""

import hashlib

import numpy as np
import pytest
import scipy

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

from polyce.adaptive import build_iteration_sdp
from polyce.conic import ConicProblem, LinExpr, expr
from polyce.demo_games import quadratic_demo_game
from polyce.ipm import _cost, compile_problem
from polyce.moments import RelaxationOrder, build_relaxation
from polyce.polynomials import grlex_monomials
from polyce.sos import (
    interval_nonneg_constraint,
    matrix_psd_on_interval_constraint,
    moment_feasibility_constraint,
)


def _iteration_sdp():
    grids = (np.array([-1.0, 0.0, 1.0]), np.array([-0.5, 1.0]))
    return build_iteration_sdp(quadratic_demo_game(), grids, 0.5)[0]


def _relaxation():
    return build_relaxation(quadratic_demo_game(), RelaxationOrder(d=1, r=2))[0]


def _interval_degree_4():
    problem = ConicProblem()
    delta = problem.add_scalar_var()
    coeffs = [LinExpr.of(0.9) - delta, 0.3, -0.7, 0.2, 0.5]
    interval_nonneg_constraint(problem, coeffs, 4)
    problem.set_objective(-1.0 * expr(delta))
    return problem


def _matrix_2x2():
    problem = ConicProblem()
    v = problem.add_scalar_var()
    entries = [[[1.0, 0.5, LinExpr.of(v)], [0.1, -0.3]], [None, [2.0, -0.4, 0.6]]]
    matrix_psd_on_interval_constraint(problem, entries, 2, 2)
    problem.set_objective(expr(v))
    return problem


def _moment_feasibility():
    problem = ConicProblem()
    values = {e: problem.add_scalar_var() for e in grlex_monomials(2, 4)}
    moment_feasibility_constraint(problem, values, 2, 4, diag_shift=1e-7)
    problem.set_objective(expr(values[(2, 0)]))
    return problem


PINNED = [
    (_iteration_sdp, "7dd3919c54ad05714448553fa7a5086bbd11f140dce313bd187bbe89c74719ba"),
    (_relaxation, "ea3319d70a008ae8831114cf09e2c9dde4102748e8e862332bbab0c4dff6efcb"),
    (_interval_degree_4, "fffcf1c031118f14a64e5f847bbea50c4030b44acd539b0213943b096cfc9dc2"),
    (_matrix_2x2, "f0fbd04a569074e48f2f7b7a074f94c2671328dcc0a074f5de24913102d53c84"),
    (_moment_feasibility, "5a75eedc62ccd6938ba8722bc70fd9ace0df19e3ef47d58ba24ad6879a6f940f"),
]


def _digest(problem) -> str:
    cp = compile_problem(problem)
    c = _cost(problem.objective, cp.col, cp.scale)[0]
    h = hashlib.sha256()
    for arr in (cp.A.data, cp.A.indices, cp.A.indptr, cp.b, c, cp.row_scale):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("build, digest", PINNED, ids=[b.__name__.strip("_") for b, _ in PINNED])
def test_compiled_bytes_are_pinned(build, digest):
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != PINNED_VERSIONS:
        pytest.skip(f"digests were taken with {PINNED_VERSIONS}, installed {installed}")
    assert _digest(build()) == digest
