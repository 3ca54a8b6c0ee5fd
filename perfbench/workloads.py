"""The four benchmark workloads: inputs from a seed, one pass over a fixed
job list, and an output check per job.

Every workload is a closed loop with one caller: each job starts when the
previous one has returned.  A job calls the program's public API, and only
that call is timed; the checks that follow use the benchmark's own
arithmetic (NumPy on public result fields), never the program's checkers.

A job ends in one of three outcomes:

* ``ok``     -- the answer arrived and passed its checks;
* ``missed`` -- no answer (an exception such as ``SolverError`` or a raw
  ``LinAlgError``), or an answer that misses a precision or status check;
* ``wrong``  -- an answer that contradicts a known truth: a certified
  negative polynomial, a refuted nonnegative one, a CE that violates its
  constraints, or a payoff box that misses the known equilibrium payoff.

A missed job is a shortfall of the program that the benchmark measures
(``ok_frac``, ``fail_frac``); ``sos-bulk`` misses some of its boundary
proofs on purpose, as they are the known defect it tracks.  Only a wrong
answer makes the run incorrect.

Why these workloads:

* ``static-lp``    dense LP path of the IPM (large KKT factorizations) and
  the three ``ce_lp`` branches (lexicographic, min-max, feasibility);
* ``adaptive-sdp`` many small SDPs with many tiny Gram blocks, plus the
  exact-epsilon audit; no solve reaches ``max_iter``;
* ``moments-sdp``  few solves with larger PSD blocks, where IPM stalls and
  iteration counts dominate;
* ``sos-bulk``     hundreds of tiny SOS solves, where per-solve fixed
  overhead dominates, and the only workload on the public SOS API.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

import polyce.ipm  # noqa: F401  -- loads scipy.linalg now, not in the first solve
from polyce import adaptive, demo_games, finite_ce, games, moments, sos

OK, MISSED, WRONG = "ok", "missed", "wrong"

STATIC_DS = (5, 15, 30)
ADAPTIVE_GAMES = 10
ADAPTIVE_3P_CONFIG = adaptive.AdaptiveConfig(eps_stop=1e-3, max_iter=50)
QUAD_ORDERS = (0, 1, 2)
RANDOM_MOMENT_ORDERS = (0, 1)
# the unique CE of the quad demo game is the point mass at (1, 1); its
# payoff is the corner sum of the displayed coefficients
QUAD_CE_PAYOFF = (2.988, -1.510)
SOS_COUNT = 200
BOUNDARY_ROOTS = np.linspace(-1.0, 1.0, 9)
# the speed probe: chunks of fixed work, about 5% of the job time, and the
# nominal time of one chunk that defines a reference second
REF_ORDER = 500
REF_SHARE = 0.05
REF_CHUNK_S = 0.013


class SpeedProbe:
    """Measures how fast the host runs right now, with work that does not
    depend on the program.

    On a shared host the speed drifts by a third and more within minutes,
    and a slow spell slows a pass and the probe alike.  A chunk of probe
    work mixes, in about equal thirds, the kinds of work the passes are made
    of: a dense LU factorization (like the KKT solves of ``static-lp``),
    NumPy calls on 3x3 matrices (like the IPM's work per PSD block) and a
    pure-Python dict loop (like building problems).  ``scale()`` turns the
    seconds measured since ``reset()`` into reference seconds: seconds on a
    host where one chunk takes ``REF_CHUNK_S``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._lu = rng.normal(size=(REF_ORDER, REF_ORDER)) + REF_ORDER * np.eye(REF_ORDER)
        self._small = [rng.normal(size=(3, 3)) for _ in range(20)]
        self.reset()
        self.chunk()  # first-touch and BLAS start-up stay out of the samples
        self.reset()

    def reset(self) -> None:
        self.time = 0.0
        self.count = 0
        self._due = 0.0

    def chunk(self) -> None:
        t0 = time.perf_counter()
        scipy.linalg.lu_factor(self._lu, check_finite=False)
        for _ in range(16):
            for m in self._small:
                np.linalg.cholesky(m @ m.T + np.eye(3))
        table = {}
        for k in range(12000):
            table[k % 97] = table.get(k % 97, 0.0) + k / (k + 1)
        self.time += time.perf_counter() - t0
        self.count += 1

    def after_job(self, seconds: float) -> None:
        """Pay the probe's share of a job that took ``seconds``, so the
        samples spread over a pass in proportion to its jobs' time."""
        self._due += REF_SHARE * seconds
        while self._due > 0.0:
            before = self.time
            self.chunk()
            self._due -= self.time - before

    def sample(self, count: int) -> float:
        """Run ``count`` chunks now and return ``scale()`` over them."""
        self.reset()
        for _ in range(count):
            self.chunk()
        return self.scale()

    def scale(self) -> float:
        """Reference seconds per measured second since ``reset()``."""
        return REF_CHUNK_S * self.count / self.time


class JobRunner:
    """Times each job's program call and tallies outcomes for one process.

    ``tracer`` (optional) is told which job is running, so its spans carry
    the job id.  ``probe`` takes its speed samples between jobs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.latencies: list[float] = []
        self.counts = {OK: 0, MISSED: 0, WRONG: 0}
        self.notes: list[str] = []
        self._next_id = 0

    def call(self, label, fn):
        """Run ``fn()`` as one job.  Returns its value, or None when it
        raised; an exception counts as a missed job."""
        self._next_id += 1
        if self.tracer is not None:
            self.tracer.job_id = self._next_id
        t0 = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # a missed job must not stop the run
            value, error = None, exc
        finally:
            if self.tracer is not None:
                self.tracer.job_id = None
        seconds = time.perf_counter() - t0
        self.latencies.append(seconds)
        self.probe.after_job(seconds)
        if error is not None:
            self.record(label, MISSED, f"{type(error).__name__}: {error}")
        return value

    def record(self, label, outcome, why=""):
        self.counts[outcome] += 1
        if outcome != OK:
            self.notes.append(f"{label}: {outcome} {why}".rstrip())


# ---------------------------------------------------------------------------
# independent checks


def _payoff_tensors(game, grids):
    """Utilities sampled on a product grid, straight from the monomials."""
    mesh = np.meshgrid(*grids, indexing="ij")
    tensors = []
    for u in game.utilities:
        t = np.zeros(mesh[0].shape)
        for exp, coef in u.terms.items():
            term = np.full(t.shape, coef)
            for x, e in zip(mesh, exp):
                term = term * x**e
            t += term
        tensors.append(t)
    return tensors


def ce_violation(game, dist) -> float:
    """Largest gain sum_{s_-i} pi(s) [u_i(t, s_-i) - u_i(s)] over every
    player, recommendation s_i and deviation t_i on the distribution's grid."""
    probs = dist.probs
    worst = 0.0
    for i, u in enumerate(_payoff_tensors(game, dist.grids)):
        p = np.moveaxis(probs, i, 0).reshape(probs.shape[i], -1)
        v = np.moveaxis(u, i, 0).reshape(probs.shape[i], -1)
        gains = p @ v.T - np.sum(p * v, axis=1)[:, None]  # [s_i, t_i]
        worst = max(worst, float(gains.max()))
    return worst


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs made once from the seed; ``run_pass`` runs every job once.
    ``quality`` holds the last pass's figures of merit."""

    def __init__(self, seed: int):
        self.quality: dict[str, float] = {}

    def run_pass(self, runner: JobRunner) -> None:
        raise NotImplementedError


class StaticLP(Workload):
    """The quad demo game at d = 5, 15, 30: 25 cells take the lexicographic
    branch of ``ce_lp``, 225 the min-max one and 900 the feasibility one."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.game = demo_games.quadratic_demo_game()

    def run_pass(self, runner):
        worst = 0.0
        for d in STATIC_DS:
            label = f"static d={d}"
            out = runner.call(label, lambda: finite_ce.static_discretization(self.game, d))
            if out is None:
                continue
            dist, report = out
            viol = ce_violation(self.game, dist)
            eps = report.epsilon
            if not viol <= 1e-7:
                runner.record(label, WRONG, f"CE violation {viol:.3g}")
            elif not (np.isfinite(eps) and eps >= 0.0):
                runner.record(label, MISSED, f"epsilon {eps!r}")
            else:
                runner.record(label, OK)
                worst = max(worst, d * eps)
        self.quality = {"eps_x_d": worst}


class AdaptiveSDP(Workload):
    """The adaptive loop from grid {0} on ten 2-player and ten 3-player
    random degree-4 games (seeds 0-9)."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = [(f"2p game {k}", games.random_polynomial_game(2, 4, k), None)
                     for k in range(ADAPTIVE_GAMES)]
        self.jobs += [(f"3p game {k}", games.random_polynomial_game(3, 4, k), ADAPTIVE_3P_CONFIG)
                      for k in range(ADAPTIVE_GAMES)]

    def run_pass(self, runner):
        for label, game, config in self.jobs:
            start = [[0.0]] * game.num_players
            trace = runner.call(label, lambda: adaptive.run_adaptive(game, start, config))
            if trace is None:
                continue
            if trace.status == "converged":
                runner.record(label, OK)
            else:
                runner.record(label, MISSED, f"status {trace.status}")


class MomentsSDP(Workload):
    """Payoff boxes of the quad game at d = 0, 1, 2 and of the 3-player
    quadratic game of seed 9 at d = 0, 1."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.jobs = [("quad", demo_games.quadratic_demo_game(), QUAD_ORDERS, QUAD_CE_PAYOFF),
                     ("3p game 9", games.random_polynomial_game(3, 2, 9),
                      RANDOM_MOMENT_ORDERS, None)]

    def run_pass(self, runner):
        width = 0.0
        for name, game, orders, truth in self.jobs:
            prev = box = None
            for d in orders:
                label = f"{name} d={d}"
                order = moments.RelaxationOrder.auto(game, d)
                box = runner.call(label, lambda: moments.payoff_bounds(game, order))
                if box is None:
                    continue
                runner.record(label, *self._check(box, prev, d == orders[-1], truth))
                prev = box
            if box is not None:
                width += max(box.spread(i) for i in range(game.num_players))
        self.quality = {"box_width": width}

    @staticmethod
    def _check(box, prev, highest, truth):
        if truth is not None and not box.contains(truth, tol=1e-3):
            return WRONG, f"box {box.bounds} misses the CE payoff {truth}"
        if prev is not None and not box.nests_inside(prev, tol=1e-5):
            return MISSED, "box does not nest inside the lower order's"
        if truth is not None and highest:
            spread = max(box.spread(i) for i in range(len(truth)))
            if spread > 1e-3:
                return MISSED, f"spread {spread:.3g} > 1e-3"
        return OK, ""


def criterion6_sets(rng, count: int = SOS_COUNT):
    """``count`` interval-nonnegative constructions s + (1-x^2) t, then
    ``count`` polynomials with a value below -1e-3 on a 1001-point grid."""
    constructions = []
    for _ in range(count):
        a = rng.normal(size=int(rng.integers(1, 4)))
        b = rng.normal(size=int(rng.integers(1, 3)))
        target = np.zeros(7)
        s = np.convolve(a, a)
        target[: s.size] += s
        w = np.convolve([1.0, 0.0, -1.0], np.convolve(b, b))
        target[: w.size] += w
        constructions.append(target)
    grid = np.linspace(-1.0, 1.0, 1001)
    negatives = []
    while len(negatives) < count:
        coeffs = rng.normal(size=int(rng.integers(2, 8)))
        if np.polynomial.polynomial.polyval(grid, coeffs).min() < -1e-3:
            negatives.append(coeffs)
    return constructions, negatives


def boundary_set():
    """Nonnegative polynomials with roots on [-1, 1]: (x-a)^2 times 1, 1+x,
    1-x and 1-x^2 for each boundary root a, plus 1+x, 1-x and 1-x^2."""
    polys = []
    for a in BOUNDARY_ROOTS:
        sq = np.array([a * a, -2.0 * a, 1.0])
        polys += [sq] + [np.convolve(f, sq) for f in ([1.0, 1.0], [1.0, -1.0], [1.0, 0.0, -1.0])]
    polys += [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0, -1.0])]
    return polys


class SosBulk(Workload):
    """Prove-and-verify on the criterion-6 sets drawn from seed 2024 + seed,
    then on the fixed boundary set."""

    def __init__(self, seed: int):
        super().__init__(seed)
        constructions, negatives = criterion6_sets(np.random.default_rng(2024 + seed))
        self.jobs = [(f"construction {k}", c, True) for k, c in enumerate(constructions)]
        self.jobs += [(f"negative {k}", c, False) for k, c in enumerate(negatives)]
        self.jobs += [(f"boundary {k}", c, True) for k, c in enumerate(boundary_set())]

    def run_pass(self, runner):
        first = len(runner.latencies)
        for label, coeffs, nonneg in self.jobs:
            out = runner.call(label, lambda: self._prove_and_verify(coeffs))
            if out is None:
                continue
            certified, verified = out
            if certified != nonneg:
                runner.record(label, WRONG, "certified" if certified else "refuted")
            elif certified and not verified:
                runner.record(label, MISSED, "certificate does not verify")
            else:
                runner.record(label, OK)
        latency_ms = 1e3 * np.array(runner.latencies[first:])
        self.quality = {"proof_p50_ms": float(np.percentile(latency_ms, 50)),
                        "proof_p95_ms": float(np.percentile(latency_ms, 95))}

    @staticmethod
    def _prove_and_verify(coeffs):
        certified, cert = sos.prove_interval_nonneg(coeffs)
        if not certified:
            return False, False
        good, resid = sos.verify_certificate(cert, coeffs)
        return True, bool(good and resid <= 1e-7)


WORKLOADS = {
    "static-lp": StaticLP,
    "adaptive-sdp": AdaptiveSDP,
    "moments-sdp": MomentsSDP,
    "sos-bulk": SosBulk,
}
