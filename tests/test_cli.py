import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyce
from polyce.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from polyce.demo_games import common_interest_demo_game, quadratic_demo_game
from polyce.games import parse_game, serialize_game


@pytest.fixture()
def quad_path(tmp_path):
    p = tmp_path / "quad.json"
    p.write_text(serialize_game(quadratic_demo_game()))
    return str(p)


@pytest.fixture()
def emb_path(tmp_path):
    p = tmp_path / "emb.json"
    p.write_text(serialize_game(common_interest_demo_game()))
    return str(p)


def test_randgame_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["randgame", "--seed", "5", "--out", str(a)]) == EXIT_OK
    assert main(["randgame", "--seed", "5", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    game = parse_game(a.read_text())
    assert game.num_players == 3
    assert all(u.total_degree() <= 4 for u in game.utilities)


def test_randgame_output_parses_and_evaluates(tmp_path):
    out = tmp_path / "g.json"
    assert main(["randgame", "--seed", "9", "--players", "2", "--degree", "3",
                 "--out", str(out)]) == EXIT_OK
    game = parse_game(out.read_text())
    from polyce.games import eval_utility

    val = eval_utility(game, 0, (0.3, -0.4))
    assert np.isfinite(val)


def test_static_csv_columns_and_values(quad_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    dists = tmp_path / "dists"
    code = main(["static", "--game", quad_path, "--grid", "1,2",
                 "--out", str(out), "--dump-dist", str(dists)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["d"] for r in rows] == ["1", "2"]
    assert float(rows[0]["epsilon"]) == pytest.approx(1.956, abs=1e-9)
    assert set(rows[0]) == {"d", "epsilon", "u1", "u2"}
    # emitted distributions re-parse through the audit subcommand
    code = main(["audit", "--game", quad_path, "--dist", str(dists / "dist-d1.json"),
                 "--out", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["epsilon"] == pytest.approx(1.956, abs=1e-6)


def test_static_constant_game(tmp_path, capsys):
    from polyce.games import PolynomialGame
    from polyce.polynomials import MultiPoly

    path = tmp_path / "const.json"
    path.write_text(serialize_game(PolynomialGame(
        (MultiPoly.constant(2, 1.0), MultiPoly.constant(2, 1.0)), ("x", "y")
    )))
    assert main(["static", "--game", str(path), "--grid", "1,3"]) == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert all(float(r["epsilon"]) <= 1e-12 for r in rows)


def test_malformed_game_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": ["x", "y"], "utilities": '
                   '[{"terms": [{"exp": [1, 0, 0], "coef": 1.0}]}, {"terms": []}]}')
    assert main(["static", "--game", str(bad), "--grid", "2"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "exponents" in err and "[1, 0, 0]" in err


@pytest.mark.parametrize("command, game_text, dist_text", [
    ("audit", None, "5"),
    ("audit", None, '{"final_distribution": {"grids": [[0], [0]], "probs": [[true]]}}'),
    ("audit", None, '{"grids": [[2.0], [0.0]], "probs": [[1.0]]}'),
    ("audit", None, '{"grids": [[0.5]], "probs": [1.0]}'),
    ("audit", None, '{"grids": [[0.5], [0.5], [0.5]], "probs": [[[1.0]]]}'),
    ("audit", None, '{"grids": [[0.5], [0.5]]'),  # not JSON
    ("audit", None, '{"grids": [[1.0], [1.0]], "probs": [[0.6]]}'),
    ("audit", None, '{"grids": [[0.0, 0.5], [0.0]], "probs": [[1.0000009], [-9e-7]]}'),
    ("static", '{"players": ["x"], "utilities": [[1]]}', None),
    ("static", '{"players": ["x"], "utilities": [{"terms": [{"exp": [true], "coef": 1}]}]}', None),
])
def test_wrongly_typed_json_exits_1(quad_path, tmp_path, capsys, command, game_text, dist_text):
    game = quad_path
    if game_text is not None:
        game = tmp_path / "game.json"
        game.write_text(game_text)
    args = [command, "--game", str(game)]
    if dist_text is not None:
        dist = tmp_path / "dist.json"
        dist.write_text(dist_text)
        args += ["--dist", str(dist)]
    else:
        args += ["--grid", "2"]
    assert main(args) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_file_exits_1(quad_path, tmp_path, capsys):
    assert main(["static", "--game", "/nonexistent.json", "--grid", "2"]) == EXIT_INPUT
    assert main(["audit", "--game", quad_path, "--dist", str(tmp_path / "absent.json")]) == EXIT_INPUT
    assert "cannot read distribution file" in capsys.readouterr().err


def test_adaptive_trace_table_and_json(emb_path, tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["adaptive", "--game", emb_path, "--grid", "-1", "--out", str(out)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    lines = [ln for ln in table.splitlines() if ln.strip()]
    assert lines[0].split() == ["k", "epsilon", "added_x", "added_y"]
    assert lines[1].split()[1].startswith("2.0000")
    assert lines[2].split()[1].startswith("4.0000")
    assert "status: converged" in table
    doc = json.loads(out.read_text())
    assert doc["status"] == "converged"
    assert [row["epsilon"] for row in doc["iterations"]][0] == pytest.approx(2.0, abs=1e-6)


def test_adaptive_degenerate_stalls(emb_path, capsys):
    code = main(["adaptive", "--game", emb_path, "--grid", "-1",
                 "--alpha", "1", "--beta", "1", "--max-iter", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "status: stalled" in out
    eps_col = [ln.split()[1] for ln in out.splitlines()[1:6]]
    assert all(v.startswith("2.0000") for v in eps_col)


def test_audit_accepts_adaptive_trace(emb_path, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["adaptive", "--game", emb_path, "--grid", "-1",
                 "--out", str(trace)]) == EXIT_OK
    report_path = tmp_path / "audit.json"
    assert main(["audit", "--game", emb_path, "--dist", str(trace),
                 "--out", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["epsilon"] <= 1e-5
    # the trace's final distribution, dumped on its own, audits the same
    dist = tmp_path / "final.json"
    dist.write_text(json.dumps(json.loads(trace.read_text())["final_distribution"]))
    capsys.readouterr()
    printed = []
    for path in (trace, dist):
        assert main(["audit", "--game", emb_path, "--dist", str(path)]) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == report_path.read_text() + "\n"


def test_moments_outputs(quad_path, tmp_path):
    box_path = tmp_path / "box.json"
    region_path = tmp_path / "region.csv"
    code = main(["moments", "--game", quad_path, "--d", "1",
                 "--out", str(box_path), "--region-csv", str(region_path),
                 "--directions", "4"])
    assert code == EXIT_OK
    box = json.loads(box_path.read_text())
    assert [row["player"] for row in box["bounds"]] == ["x", "y"]
    assert box["bounds"][0]["min"] <= 2.988 <= box["bounds"][0]["max"] + 1e-6
    rows = list(csv.DictReader(region_path.read_text().splitlines()))
    assert len(rows) == 4
    assert set(rows[0]) == {"dir1", "dir2", "p1", "p2"}


def test_moments_rejects_bad_order(quad_path, capsys):
    assert main(["moments", "--game", quad_path, "--d", "2", "--r", "1"]) == EXIT_INPUT
    assert "express" in capsys.readouterr().err


def test_solver_failure_exits_2(quad_path, monkeypatch, capsys):
    from polyce import cli
    from polyce.conic import SolverError

    def boom(*a, **k):
        raise SolverError("injected failure")

    monkeypatch.setattr(cli, "static_discretization", boom)
    assert main(["static", "--game", quad_path, "--grid", "2"]) == EXIT_SOLVER
    assert "injected" in capsys.readouterr().err


def test_static_nan_tol_exits_2(quad_path):
    # its own process: a nan tolerance that reached HiGHS would kill the
    # interpreter instead of raising, and one below 1e-10 would only warn
    path = os.pathsep.join([str(Path(polyce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    for tol in ("nan", "1e-12"):
        out = subprocess.run(
            [sys.executable, "-m", "polyce.cli", "static", "--game", quad_path, "--grid", "2",
             "--tol", tol],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == EXIT_SOLVER, out.stderr
        assert "tol must lie in [1e-10, 1e-2]" in out.stderr


def test_bad_flags_exit_1(quad_path, capsys):
    assert main(["static", "--game", quad_path, "--grid", "0"]) == EXIT_INPUT
    assert main(["adaptive", "--game", quad_path, "--grid", "2.0"]) == EXIT_INPUT
    assert main(["adaptive", "--game", quad_path, "--grid", "nan"]) == EXIT_INPUT
    assert main(["nonsense"]) == EXIT_INPUT
    assert main(["adaptive", "--game", quad_path, "--grid", ","]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith("error: empty list: ','\n")


def test_grid_points_get_the_library_range_check(quad_path):
    # the library allows a coordinate 1e-12 past the interval, and so does the CLI
    assert main(["adaptive", "--game", quad_path, "--grid", "1.0000000000001",
                 "--max-iter", "1"]) == EXIT_OK


def test_randgame_games_converge_under_adaptive(tmp_path):
    # spot-check of the seeded-game convergence property at reduced scale;
    # the full ten-seed sweep lives in the acceptance suite
    from polyce.adaptive import AdaptiveConfig, run_adaptive
    from polyce.games import random_polynomial_game

    for seed in (1, 2):
        game = random_polynomial_game(3, 4, seed)
        trace = run_adaptive(game, [[0.0]] * 3,
                             AdaptiveConfig(eps_stop=1e-3, max_iter=50))
        assert trace.status == "converged"
