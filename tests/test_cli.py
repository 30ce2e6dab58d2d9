import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stogame.cli
import stogame.pipeline
from stogame.cli import COMMANDS, build_parser, main
from stogame.game import game_to_dict, save_game
from stogame.generators import sorin_game
from test_pipeline import STALLED_ERROR, stalled_induction_game


def run(argv):
    return main(argv)


def test_validate_builtin_ok(tmp_path):
    assert run(["validate", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["ok"] is True


def test_validate_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["validate", "--game", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["validate", "--game", str(missing), "--out", str(tmp_path)]) == 2


def test_validate_violations_exit_1(tmp_path):
    doc = game_to_dict(sorin_game())
    doc["transitions"]["s0"]["T/L"]["s0"] = 0.9
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert run(["validate", "--game", str(broken), "--out", str(tmp_path)]) == 1


def test_solve_writes_values(tmp_path, capsys):
    assert run(["solve", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve.json").read_text())
    v1 = doc["players"][0]["extrapolated"]
    assert v1[0] == pytest.approx(2 / 3, abs=1e-6)
    out = capsys.readouterr().out
    assert "adversary mode" in out


def test_solve_prints_each_players_method_and_bracket(tmp_path, capsys):
    # random2p_a's curves close in the direct solve; Sorin's need the
    # schedule, and its stationary bracket stays wide.
    for game, method, outcome in (("random2p_a", "direct", "closed"),
                                  ("sorin", "schedule", "stalled")):
        assert run(["solve", "--game", f"builtin:{game}", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count(f"method {method}; direct solve: {outcome}, ") == 2
        doc = json.loads((tmp_path / "solve.json").read_text())
        assert [d["outcome"] for d in doc["direct"]] == [outcome] * 2
        for direct, player in zip(doc["direct"], doc["players"]):
            assert all(lo <= hi for lo, hi in zip(direct["lower"], direct["upper"]))
            assert (player == direct) == (method == "direct")


def test_decompose_and_build(tmp_path):
    assert run(["decompose", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "decompose.json").read_text())
    assert [c["kind"] for c in doc["classifications"]] == ["B", "A", "A"]
    assert run(["build", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    build = json.loads((tmp_path / "build.json").read_text())
    assert build["acceptability"]["ok"] is True
    assert (tmp_path / "automaton.json").exists()


def test_build_summary_judges_both_variants(tmp_path):
    assert run(["build", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "build.json").read_text())["summary"]
    assert summary["profile_acceptable"] is True
    assert summary["correlated_acceptable"] is True
    assert summary["ok"] is True


def test_decompose_stops_after_classification(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("decompose built a profile")

    monkeypatch.setattr(stogame.pipeline, "assemble_profile", no_build)
    monkeypatch.setattr(stogame.pipeline, "build_correlated_stationary", no_build)
    assert run(["decompose", "--game", "builtin:sorin", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "decompose.json").read_text())
    assert [c["kind"] for c in doc["classifications"]] == ["B", "A", "A"]
    assert doc["errors"] == []


def test_decompose_reports_an_invalid_game(tmp_path, capsys):
    doc = game_to_dict(sorin_game())
    doc["payoffs"]["s0"]["T/L"][0] = 5.0  # beyond the declared bound 2.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert run(["decompose", "--game", str(broken), "--out", str(tmp_path)]) == 1
    out = json.loads((tmp_path / "decompose.json").read_text())
    assert out["classifications"] == []
    assert len(out["errors"]) == 1 and out["errors"][0].startswith("invalid game")
    assert f"error: {out['errors'][0]}" in capsys.readouterr().out
    assert run(["build", "--game", str(broken), "--out", str(tmp_path)]) == 1


def test_a_stalled_decomposition_exits_1_with_an_artifact(tmp_path, capsys):
    path = tmp_path / "stalled.json"
    save_game(stalled_induction_game(), path)
    common = ["--game", str(path), "--schedule-depth", "8", "--out", str(tmp_path)]
    assert run(["decompose"] + common) == 1
    doc = json.loads((tmp_path / "decompose.json").read_text())
    assert doc["decomposition"] is None and doc["classifications"] == []
    assert doc["errors"] == [STALLED_ERROR]
    assert f"error: {STALLED_ERROR}" in capsys.readouterr().out.splitlines()
    assert run(["verify"] + common) == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["summary"]["errors"] == [STALLED_ERROR] and doc["summary"]["sets"] is None
    assert f"error: {STALLED_ERROR}" in capsys.readouterr().out.splitlines()
    sim_out = tmp_path / "simulate"
    assert run(["simulate"] + common[:-1] + [str(sim_out)]) == 1
    doc = json.loads((sim_out / "simulate.json").read_text())
    assert doc == {"lam": 0.99, "errors": [STALLED_ERROR]}
    assert f"build failed: {STALLED_ERROR}" in capsys.readouterr().out.splitlines()


def test_build_correlated(tmp_path):
    assert run(["build-correlated", "--game", "builtin:sorin",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "correlated.json").read_text())
    assert doc["acceptability"]["ok"] is True
    assert doc["size_audit"]["bound"] == 3


def test_verify_mdp3(tmp_path):
    assert run(["verify", "--game", "builtin:mdp3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["summary"]["ok"] is True


def test_demo_sorin(tmp_path, capsys):
    assert run(["demo-sorin", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "player 1 = 0.666667" in out
    assert "acceptable: False" in out      # the fixed-discount equilibrium
    assert "acceptable at eps=0.05: True" in out
    doc = json.loads((tmp_path / "demo_sorin.json").read_text())
    assert doc["fixed_profile_player2_limit"] == pytest.approx(1 / 3, abs=1e-6)


def test_simulate_command(tmp_path):
    assert run(["simulate", "--game", "builtin:mdp3", "--out", str(tmp_path),
                "--replications", "200", "--lam", "0.9", "--seed", "4"]) == 0
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["lam"] == 0.9
    assert set(doc["results"]) == {"low", "mid", "high"}


_PIPELINE_FLAGS = {"--game", "--epsilon", "--lambda-grid", "--schedule-depth", "--out",
                   "--tol-v", "--eq-tol"}
# The flags each command reads, and so takes.
READS = {
    "validate": {"--game", "--out"},
    "solve": {"--game", "--schedule-depth", "--out"},
    "decompose": {"--game", "--epsilon", "--schedule-depth", "--out", "--tol-v",
                  "--eq-tol"},
    "build": _PIPELINE_FLAGS,
    "build-correlated": _PIPELINE_FLAGS,
    "verify": _PIPELINE_FLAGS,
    "simulate": _PIPELINE_FLAGS | {"--lam", "--replications", "--seed"},
    "demo-sorin": {"--epsilon", "--lambda-grid", "--schedule-depth", "--out"},
}
# A value for each flag, and the value it parses to.
FLAG_VALUES = {
    "--game": ("builtin:mdp3", "builtin:mdp3"),
    "--epsilon": ("0.1", 0.1),
    "--lambda-grid": ("0.9,0.99", "0.9,0.99"),
    "--schedule-depth": ("7", 7),
    "--out": ("elsewhere", "elsewhere"),
    "--tol-v": ("0.001", 0.001),
    "--eq-tol": ("1e-8", 1e-8),
    "--lam": ("0.5", 0.5),
    "--replications": ("30", 30),
    "--seed": ("3", 3),
}


def test_seed_is_a_simulate_flag_only():
    # Only `simulate` draws random numbers; every other command is
    # deterministic and rejects the flag.  The same holds for every flag:
    # each command takes exactly the flags it reads.  An abbreviation does
    # not pass either (`--lam` for `--lambda-grid`).
    assert build_parser().parse_args(["simulate", "--seed", "3"]).seed == 3
    assert set(READS) == set(COMMANDS)
    assert sum(len(flags) for flags in READS.values()) == 46
    for command, reads in READS.items():
        for flag, (text, value) in FLAG_VALUES.items():
            argv = [command, flag, text]
            if flag in reads:
                args = build_parser().parse_args(argv)
                assert getattr(args, flag[2:].replace("-", "_")) == value, argv
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--schedule", "7"])


def test_artifacts_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run(["verify", "--game", "builtin:random2p_b", "--out", str(out)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_lambda_grid_flag_validation(tmp_path):
    # `solve` does not read the grid, so it rejects the flag itself.
    with pytest.raises(SystemExit):
        run(["solve", "--game", "builtin:sorin", "--out", str(tmp_path),
             "--lambda-grid", "0.9,0.99"])
    # A grid must be strictly increasing; the commands that read it reject
    # a decreasing one.
    assert run(["verify", "--game", "builtin:mdp3", "--out", str(tmp_path),
                "--lambda-grid", "0.9,0.5"]) == 2
    assert run(["demo-sorin", "--out", str(tmp_path), "--lambda-grid", "0.9,0.5"]) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--schedule-depth", "0", "--game", "builtin:sorin"],
    ["decompose", "--schedule-depth", "-3", "--game", "builtin:sorin"],
    ["demo-sorin", "--schedule-depth", "0"],
    ["simulate", "--lam", "1.5", "--game", "builtin:sorin"],
    ["simulate", "--lam", "-0.1", "--game", "builtin:sorin"],
    ["demo-sorin", "--epsilon", "0"],
    ["demo-sorin", "--epsilon", "nan"],
    ["verify", "--epsilon", "nan", "--game", "builtin:sorin"],
    ["decompose", "--epsilon", "inf", "--game", "builtin:sorin"],
    ["decompose", "--eq-tol", "-1", "--game", "builtin:sorin"],
    ["decompose", "--eq-tol", "nan", "--game", "builtin:sorin"],
    ["decompose", "--tol-v", "-1", "--game", "builtin:sorin"],
    ["build", "--tol-v", "inf", "--game", "builtin:sorin"],
    ["simulate", "--seed", "-1", "--game", "builtin:sorin"],
    ["simulate", "--replications", "-1", "--game", "builtin:sorin"],
    ["simulate", "--replications", "0", "--game", "builtin:sorin"],
])
def test_degenerate_solver_flags_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were checked")

    monkeypatch.setattr(stogame.cli, "run_pipeline", no_solve)
    monkeypatch.setattr(stogame.cli, "classify_game", no_solve)
    monkeypatch.setattr(stogame.cli, "solve_uniform_minmax", no_solve)
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[1]} must")


def test_solve_artifact_keeps_solver_facts_and_is_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["solve", "--game", "builtin:random2p_b", "--out", str(out)]) == 0
    assert (outs[0] / "solve.json").read_bytes() == (outs[1] / "solve.json").read_bytes()
    player = json.loads((outs[0] / "solve.json").read_text())["players"][0]
    n = len(player["schedule"])
    assert len(player["rounds"]) == len(player["certified_gaps"]) == len(player["stalled"]) == n
    assert len(player["extrapolation_points"]) == 3


def test_verify_artifacts_are_byte_identical_across_processes(tmp_path):
    # Two fresh interpreters, one BLAS thread each, under different hash
    # seeds: set and dict iteration order must not reach an artifact.
    src = str(Path(stogame.cli.__file__).resolve().parent.parent)
    seen = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed,
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "stogame.cli", "verify", "--game", "builtin:random2p_b",
             "--out", str(out)],
            capture_output=True, check=True, timeout=300, cwd=tmp_path, env=env)
        seen.append((done.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert "verify.json" in seen[0][1]
    assert seen[0] == seen[1]


def test_decompose_and_verify_print_and_write_minmax_warnings(tmp_path, capsys):
    from stogame.generators import random_banded_exit_game

    path = tmp_path / "banded.json"
    save_game(random_banded_exit_game(4001), str(path))
    common = ["--game", str(path), "--schedule-depth", "30", "--out", str(tmp_path)]
    assert run(["decompose", *common]) == 0
    warnings = json.loads((tmp_path / "decompose.json").read_text())["warnings"]
    assert len(warnings) == 2 and all("stalled" in w for w in warnings)
    assert run(["verify", *common]) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["summary"]["warnings"] == warnings
    out = capsys.readouterr().out
    for w in warnings:
        assert out.count(f"warning: {w}") == 2
