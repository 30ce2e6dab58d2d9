import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stogame.cli
import stogame.pipeline
from stogame.cli import COMMANDS, FLAGS, build_parser, main
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
    v1 = doc["curves"][0]["v1"]
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
        assert sorted(doc) == ["adversary_mode", "curves"]
        for curve in doc["curves"]:
            # Each curve is written once and says its method: a closed curve
            # is its own try, and a schedule curve carries its try under
            # `direct`.
            assert curve["method"] == method
            assert ("schedule" in curve) == ("direct" in curve) == (method == "schedule")
            direct = curve if method == "direct" else curve["direct"]
            assert direct["method"] == "direct" and "direct" not in direct
            assert direct["outcome"] == outcome
            assert all(lo <= hi for lo, hi in zip(direct["lower"], direct["upper"]))
            assert 0 <= direct["newton_steps"] < direct["iterations"]
            assert (f"{direct['iterations']} iterations "
                    f"({direct['newton_steps']} Newton), ") in out


@pytest.mark.parametrize("depth", [1, 2])
def test_a_schedule_too_short_to_extrapolate_keeps_its_last_point(tmp_path, depth):
    # Aitken's extrapolation needs three points: with one or two, a
    # schedule curve's v1 is its last point's values, clipped to the payoff
    # bound.
    argv = ["solve", "--game", "builtin:sorin", "--schedule-depth", str(depth)]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solve.json").read_text())
    bound = sorin_game().payoff_bound
    for curve in doc["curves"]:
        assert curve["schedule"] == [1.0 - 0.5**k for k in range(1, depth + 1)]
        assert len(curve["values"]) == depth and curve["extrapolation_points"] is None
        assert curve["v1"] == np.clip(curve["values"][-1], -bound, bound).tolist()


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


def test_simulate_lam_defaults_to_its_flag_value(tmp_path):
    # The default is stated once, in `FLAGS`, and the artifact records it.
    assert FLAGS["--lam"]["default"] == 0.99
    assert build_parser().parse_args(["simulate"]).lam == 0.99
    assert run(["simulate", "--game", "builtin:mdp3", "--out", str(tmp_path),
                "--replications", "20"]) == 0
    assert json.loads((tmp_path / "simulate.json").read_text())["lam"] == 0.99


_PIPELINE_FLAGS = {"--game", "--epsilon", "--lambda-grid", "--schedule-depth", "--out"}
# The flags each command reads, and so takes.
READS = {
    "validate": {"--game", "--out"},
    "solve": {"--game", "--schedule-depth", "--out"},
    "decompose": {"--game", "--epsilon", "--schedule-depth", "--out"},
    "build": _PIPELINE_FLAGS,
    "build-correlated": _PIPELINE_FLAGS,
    "verify": _PIPELINE_FLAGS,
    "simulate": _PIPELINE_FLAGS | {"--lam", "--replications", "--seed"},
    "demo-sorin": {"--epsilon", "--lambda-grid", "--schedule-depth", "--out"},
}
# A value for each flag, and the value it parses to.  `--tol-v` and
# `--eq-tol` are no flags any more: every command rejects them.
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
    assert sum(len(flags) for flags in READS.values()) == 36
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
    ["build", "--schedule-depth", "0", "--game", "builtin:sorin"],
    ["build-correlated", "--epsilon", "-1", "--game", "builtin:sorin"],
    ["simulate", "--lam", "1", "--game", "builtin:sorin"],
    ["simulate", "--lam", "nan", "--game", "builtin:sorin"],
    ["simulate", "--seed", "-1", "--game", "builtin:sorin"],
    ["simulate", "--replications", "-1", "--game", "builtin:sorin"],
    ["simulate", "--replications", "0", "--game", "builtin:sorin"],
    ["solve", "--schedule-depth", "54", "--game", "builtin:sorin"],
    ["demo-sorin", "--schedule-depth", "54"],
])
def test_degenerate_solver_flags_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were checked")

    monkeypatch.setattr(stogame.cli, "run_pipeline", no_solve)
    monkeypatch.setattr(stogame.cli, "classify_game", no_solve)
    monkeypatch.setattr(stogame.cli, "solve_uniform_minmax", no_solve)
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[1]} must")


@pytest.mark.parametrize("command", ["validate", "solve", "verify"])
def test_non_finite_game_file_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, command):
    # A NaN payoff used to validate clean and end `verify` in a traceback.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a game with a NaN payoff")

    monkeypatch.setattr(stogame.cli, "run_pipeline", no_solve)
    monkeypatch.setattr(stogame.cli, "classify_game", no_solve)
    monkeypatch.setattr(stogame.cli, "solve_uniform_minmax", no_solve)
    wild = tmp_path / "wild.json"
    wild.write_text(json.dumps(game_to_dict(sorin_game())).replace("[1.0, 0.0]", "[NaN, 0.0]", 1))
    assert run([command, "--game", str(wild), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite payoff at ('s0', 'T/L')")
    assert not (tmp_path / "out").exists()


def _malformed(edit):
    """Sorin's game file with one edit applied to its document."""
    doc = game_to_dict(sorin_game())
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_malformed(lambda d: d.update(payoffs=[])), "'payoffs' must be a JSON object"),
    (_malformed(lambda d: d.update(payoffs={"s0": 5})),
     "payoffs of state 's0' must be a JSON object"),
    (_malformed(lambda d: d["transitions"]["s0"].update({"T/L": [["s0", 1.0]]})),
     "transition row at ('s0', 'T/L') must be a JSON object"),
    (_malformed(lambda d: d["payoffs"]["s0"].update({"T/L": 1.0})),
     "payoff at ('s0', 'T/L') must be a JSON array"),
    (_malformed(lambda d: d["states"].append("abs_0_1")), "duplicate state name: 'abs_0_1'"),
    (_malformed(lambda d: d["actions"][1].__setitem__(1, "L")),
     "duplicate action name of player 1: 'L'"),
])
def test_malformed_game_file_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, doc,
                                                      message):
    # Each document used to end in a traceback, or, with a duplicate name,
    # to load a game whose lost rows validated as "transition mass 0.0".
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a malformed game")

    monkeypatch.setattr(stogame.cli, "run_pipeline", no_solve)
    monkeypatch.setattr(stogame.cli, "solve_uniform_minmax", no_solve)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "--game", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_solve_artifact_keeps_solver_facts_and_is_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["solve", "--game", "builtin:random2p_b", "--out", str(out)]) == 0
    assert (outs[0] / "solve.json").read_bytes() == (outs[1] / "solve.json").read_bytes()
    player = json.loads((outs[0] / "solve.json").read_text())["curves"][0]
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
