"""Command-line interface.

Subcommands map one-to-one onto the solvers and emit figures/tables as data:

* ``static``   - sampled-game LP sweep; CSV rows (d, epsilon, u1..un)
* ``adaptive`` - support-growing SDP loop; trace table + JSON
* ``moments``  - payoff bounds (JSON) and support-function region (CSV)
* ``randgame`` - seeded random polynomial game file
* ``audit``    - recompute the exact epsilon of any emitted distribution

Exit codes: 0 success, 1 input error, 2 solver failure.  All commands are
deterministic given their flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adaptive import AdaptiveConfig, run_adaptive
from .conic import SolverError
from .finite_ce import min_epsilon, static_discretization
from .games import (
    GameFormatError,
    expected_utilities,
    parse_distribution,
    parse_game,
    random_polynomial_game,
    serialize_distribution,
    serialize_game,
)
from .moments import RelaxationOrder, payoff_bounds, payoff_region_sketch

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise GameFormatError(f"cannot read {what} file {path}: {exc}") from exc


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def _parse_list(spec: str, kind) -> list:
    """A comma-separated list of ``kind`` values; empty items are skipped."""
    items = [kind(part) for part in spec.split(",") if part.strip()]
    if not items:
        raise GameFormatError(f"empty list: {spec!r}")
    return items


# ---------------------------------------------------------------------------
# subcommands


def cmd_static(args) -> int:
    game = parse_game(_read(args.game, "game"))
    sizes = _parse_list(args.grid, int)
    if min(sizes) < 1:
        raise GameFormatError(f"grid sizes must be positive: {args.grid!r}")
    n = game.num_players
    rows = ["d,epsilon," + ",".join(f"u{i+1}" for i in range(n))]
    for d in sizes:
        dist, report = static_discretization(game, d)
        utils = expected_utilities(game, dist)
        rows.append(f"{d},{report.epsilon!r}," + ",".join(repr(float(u)) for u in utils))
        if args.dump_dist:
            ddir = Path(args.dump_dist)
            ddir.mkdir(parents=True, exist_ok=True)
            (ddir / f"dist-d{d}.json").write_text(serialize_distribution(dist))
        print(f"d={d:4d}  epsilon={report.epsilon:.8f}", file=sys.stderr)
    _write_or_print("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _trace_table(trace, names) -> str:
    header = ["k", "epsilon"] + [f"added_{nm}" for nm in names]
    lines = ["  ".join(f"{h:>12s}" for h in header)]
    for r in trace.records:
        added = [",".join(f"{v:g}" for v in a) if a else "-" for a in r.new_strategies]
        cells = [f"{r.k:>12d}", f"{r.epsilon:>12.8f}"] + [f"{a:>12s}" for a in added]
        lines.append("  ".join(cells))
    lines.append(f"status: {trace.status}")
    return "\n".join(lines)


def cmd_adaptive(args) -> int:
    game = parse_game(_read(args.game, "game"))
    pts = _parse_list(args.grid, float)
    config = AdaptiveConfig(alpha=args.alpha, beta=args.beta, eps_stop=args.tol, max_iter=args.max_iter)
    trace = run_adaptive(game, [pts] * game.num_players, config)
    print(_trace_table(trace, game.player_names))
    if args.out:
        Path(args.out).write_text(trace.to_json(game.player_names))
    return EXIT_OK


def cmd_moments(args) -> int:
    game = parse_game(_read(args.game, "game"))
    order = RelaxationOrder.auto(game, args.d, args.r)
    # both are computed before anything is written, so a rejected --directions leaves no output
    given = {k: v for k, v in vars(args).items() if k in ("directions", "seed")}
    pts = payoff_region_sketch(game, order, **given) if args.region_csv else None
    box = payoff_bounds(game, order)
    _write_or_print(box.to_json(game.player_names), args.out)
    if args.region_csv:
        n = game.num_players
        rows = [",".join([f"dir{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)])]
        for direction, point in pts:
            rows.append(",".join(repr(float(v)) for v in list(direction) + list(point)))
        Path(args.region_csv).write_text("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_randgame(args) -> int:
    game = random_polynomial_game(args.players, args.degree, args.seed)
    _write_or_print(serialize_game(game), args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    game = parse_game(_read(args.game, "game"))
    doc = json.loads(_read(args.dist, "distribution"))
    if isinstance(doc, dict) and "final_distribution" in doc:  # adaptive trace
        doc = doc["final_distribution"]
    dist = parse_distribution(json.dumps(doc))
    report = min_epsilon(game, dist)
    _write_or_print(report.to_json(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polyce",
                                description="correlated equilibria of polynomial games")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("static", help="sampled-game LP sweep (CSV)")
    ps.add_argument("--game", required=True)
    ps.add_argument("--grid", required=True,
                    help="comma-separated grid sizes, e.g. 5,10,20,40")
    ps.add_argument("--out", help="CSV output path (default: stdout)")
    ps.add_argument("--dump-dist", help="directory for per-d distribution JSON files")
    ps.set_defaults(func=cmd_static)

    pa = sub.add_parser("adaptive", help="support-growing SDP loop")
    pa.add_argument("--game", required=True)
    pa.add_argument("--grid", required=True,
                    help="comma-separated initial strategy points, e.g. -1 or 0,0.5")
    pa.add_argument("--alpha", type=float, default=AdaptiveConfig.alpha)
    pa.add_argument("--beta", type=float, default=AdaptiveConfig.beta)
    pa.add_argument("--tol", type=float, default=AdaptiveConfig.eps_stop, help="epsilon stopping threshold, "
                    "at least 1e-9; each iteration solve runs to a tenth of it, at most 1e-8")
    pa.add_argument("--max-iter", type=int, default=AdaptiveConfig.max_iter)
    pa.add_argument("--out", help="JSON trace output path")
    pa.set_defaults(func=cmd_adaptive)

    pm = sub.add_parser("moments", help="moment-relaxation payoff bounds and region")
    pm.add_argument("--game", required=True)
    pm.add_argument("--d", type=int, default=1, help="squared-test half-degree")
    pm.add_argument("--r", type=int, default=None, help="moment half-order (default: minimal)")
    # absent flags stay absent, so payoff_region_sketch's own defaults apply
    pm.add_argument("--directions", type=int, default=argparse.SUPPRESS)
    pm.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="direction sampling seed (3+ players)")
    pm.add_argument("--out", help="PayoffBox JSON output path (default: stdout)")
    pm.add_argument("--region-csv", help="support-function region CSV output path")
    pm.set_defaults(func=cmd_moments)

    pr = sub.add_parser("randgame", help="generate a seeded random polynomial game")
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--players", type=int, default=3)
    pr.add_argument("--degree", type=int, default=4)
    pr.add_argument("--out", help="game JSON output path (default: stdout)")
    pr.set_defaults(func=cmd_randgame)

    pd = sub.add_parser("audit", help="recompute exact epsilon of an emitted distribution")
    pd.add_argument("--game", required=True)
    pd.add_argument("--dist", required=True,
                    help="distribution JSON or adaptive trace JSON")
    pd.add_argument("--out", help="EpsilonReport JSON output path (default: stdout)")
    pd.set_defaults(func=cmd_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GameFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
