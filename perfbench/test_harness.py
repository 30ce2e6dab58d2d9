"""Tests of the benchmark harness.  Run: python3 -m pytest perfbench"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from env import ROOT, pin_environment  # noqa: E402

pin_environment()

import numpy as np  # noqa: E402
import stogame.minmax  # noqa: E402
import stogame.pipeline  # noqa: E402
import stogame.verify  # noqa: E402
from stogame.builder import Classification  # noqa: E402
from stogame.generators import acceptance_suite, mdp3_game, sorin_game  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SCHEDULE_DEPTH, suite52  # noqa: E402


@pytest.fixture(scope="module")
def sorin_traced():
    game = sorin_game()
    with Tracer() as tracer:
        outcome = harness.run_game(game, 0, tracer)
    return game, outcome, tracer


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],     # overlaps a: coverage is the union [1, 5]
        ["c", 8.0, 12.0, 0, 0],    # clipped to the parent: [8, 10]
        ["d", 2.5, 2.7, 1, 0],
    ]
    own = tracer.self_times()
    assert own["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["a"] == pytest.approx(2.0 - 0.2)
    assert own["d"] == pytest.approx(0.2)
    assert tracer.busy()["root"] == pytest.approx(10.0)


def test_traced_sorin_counts_and_self_time(sorin_traced):
    game, outcome, tracer = sorin_traced
    assert outcome.failure is None and outcome.summary["ok"]
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    metrics = harness.layer_metrics(tracer)
    assert metrics["minmax.discounted_solves"] == game.n_players * SCHEDULE_DEPTH
    assert metrics["matrixgame.calls"] == (metrics["matrixgame.closed_form"]
                                           + metrics["matrixgame.lp"]
                                           + metrics["matrixgame.pure"])
    assert metrics["minmax.self_s"] == pytest.approx(
        metrics["minmax.busy_s"] - metrics["matrixgame.busy_s"], abs=1e-9)
    stage_busy = sum(v for k, v in metrics.items()
                     if k.endswith(".busy_s") and k not in ("matrixgame.busy_s", "frequencies.busy_s"))
    assert metrics["pipeline.self_s"] == pytest.approx(
        tracer.busy()["pipeline"] - stage_busy, abs=1e-9)
    assert metrics["pipeline.self_s"] >= 0.0


def test_tracer_restores_the_original_names(sorin_traced):
    assert stogame.pipeline.solve_uniform_minmax.__module__ == "stogame.minmax"
    assert not hasattr(stogame.pipeline.solve_uniform_minmax, "__wrapped__")
    assert not hasattr(stogame.minmax.solve_matrix_game, "__wrapped__")


def test_missing_hook_is_listed(monkeypatch):
    monkeypatch.delattr(stogame.verify, "build_product_model")
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["stogame.verify.build_product_model"]


def test_measure_runs_the_fixed_pass_count(monkeypatch):
    monkeypatch.setattr(harness, "run_game", lambda game, k, tracer=None: k)
    gaps = []
    plain = harness.measure(["g0", "g1"], passes=3, seconds=60.0, trace=False,
                            between=lambda: gaps.append(1))
    assert [(p.traced, p.outcomes) for p in plain] == [(False, [0, 1])] * 3
    assert len(gaps) == 4     # before each pass and after the last
    traced = harness.measure(["g0"], passes=3, seconds=60.0, trace=True)
    assert [p.traced for p in traced] == [False, True, False]
    # An exhausted time limit stops new passes but keeps one of each kind.
    assert len(harness.measure(["g0"], passes=3, seconds=0.0, trace=False)) == 1
    assert [p.traced for p in harness.measure(["g0"], passes=3, seconds=0.0, trace=True)] == [
        False, True]


def test_percentile_90_leaves_ten_samples_above():
    samples = [float(x) for x in range(1, 101)]
    random.Random(0).shuffle(samples)
    p90 = harness.percentile_90(samples)
    assert sum(x > p90 for x in samples) == 10


def test_end_to_end_metrics_pool_untraced_passes():
    ok = harness.Outcome(3, 0.5, {})
    bad = harness.Outcome(5, 1.5, {}, failure={"stage": "minmax"})
    slow_ok = harness.Outcome(3, 0.9, {})
    fast_bad = harness.Outcome(5, 0.6, {}, failure={"stage": "minmax"})
    passes = [harness.Pass(False, 2.0, [ok, bad], rss_mb=80.0),
              harness.Pass(True, 0.1, [ok, fast_bad], rss_mb=90.0),
              harness.Pass(False, 4.0, [slow_ok, fast_bad], rss_mb=95.0)]
    ev = harness.Evaluation(attempted=6, failed=3, verified_states=[3, 3, 3])
    m = harness.end_to_end_metrics(passes, ev, setup_s=0.7)
    # Each game's fastest untraced time: 0.5 (first pass) + 0.6 (third pass).
    assert m["pass_s"] == pytest.approx(1.1)
    assert m["verified_games_per_s"] == pytest.approx(1 / 1.1)
    assert m["game_s_p50"] == pytest.approx(0.75)
    assert m["verified_share"] == pytest.approx(0.5)
    assert m["max_verified_states"] == 3
    assert m["peak_rss_mb"] == 80.0


def test_exception_is_a_failure_with_its_stage(monkeypatch):
    def broken(M):
        raise RuntimeError("matrix game LP duality gap -1.6e-07 exceeds tolerance")

    monkeypatch.setattr(stogame.minmax, "solve_matrix_game", broken)
    game = mdp3_game()
    out = harness.run_game(game, 0)
    assert out.failure == {"stage": "minmax", "type": "RuntimeError",
                           "message": "matrix game LP duality gap -1.6e-07 exceeds tolerance"}
    assert out.summary == {"exception": "RuntimeError"}
    ev = harness.evaluate([harness.Pass(False, 1.0, [out]), harness.Pass(False, 1.0, [out])],
                          [game], reference=None)
    # With no reference nothing was checked, so the run does not read correct.
    assert (ev.attempted, ev.failed, ev.games, ev.checked, ev.correct) == (2, 2, 1, 0, False)
    assert ev.failures["mdp3"]["states"] == 3
    ref = {"mdp3": {"fingerprint": harness.fingerprint(game), "exception": "RuntimeError"}}
    ev = harness.evaluate([harness.Pass(False, 1.0, [out])], [game], reference=ref)
    assert (ev.failed, ev.checked, ev.correct) == (1, 1, True)


def test_unclassifiable_set_is_a_failure(monkeypatch):
    monkeypatch.setattr(stogame.pipeline, "classify_set",
                        lambda *a, **k: Classification("unclassifiable",
                                                       diagnostics={"note": "forced"}))
    out = harness.run_game(mdp3_game(), 0)
    assert out.failure == {"stage": "builder.classify", "type": "unclassifiable",
                           "message": "forced"}
    assert out.summary["ok"] is False


def test_reference_comparison(sorin_traced):
    game, outcome, _ = sorin_traced
    fp = harness.fingerprint(game)
    ref = {"fingerprint": fp, **json.loads(json.dumps(outcome.summary))}
    assert harness.compare(ref, outcome.summary, fp) == []
    assert harness.compare(ref, outcome.summary, "0" * 16) != []
    shifted = {**ref, "v1": (np.asarray(ref["v1"]) + 2e-6).tolist()}
    assert harness.compare(shifted, outcome.summary, fp) != []
    assert harness.compare({**ref, "v1": (np.asarray(ref["v1"]) + 5e-7).tolist()},
                           outcome.summary, fp) == []
    other_kinds = {**ref, "kinds": ["A", "A", "A"]}
    assert harness.compare(other_kinds, outcome.summary, fp) != []
    # A game that failed in the reference may start to verify.
    assert harness.compare({**other_kinds, "ok": False}, outcome.summary, fp) == []
    assert harness.compare({"fingerprint": fp, "exception": "RuntimeError"},
                           outcome.summary, fp) == []
    assert harness.compare(ref, {"exception": "RuntimeError"}, fp) != []

    ev = harness.evaluate([harness.Pass(False, 1.0, [outcome])], [game],
                          reference={game.name: shifted})
    assert (ev.attempted, ev.failed, ev.correct, ev.checked) == (1, 1, False, 1)
    assert ev.failures[game.name]["stage"] == "reference"


def test_every_seed_maps_to_a_recorded_slot():
    for workload, count in (("suite52", 64), ("dense-ladder", 64)):
        assert harness.load_reference(workload, 0)[0] == 0
        slot, ref = harness.load_reference(workload, 687497781)
        assert slot == 687497781 % count and ref is not None
    assert harness.load_reference("no-such-workload", 5) == (5, None)


def test_suite52_default_seed_is_the_acceptance_suite():
    ours, theirs = suite52(0), acceptance_suite()
    assert [g.name for g in ours] == [g.name for g in theirs]
    assert [harness.fingerprint(g) for g in ours] == [harness.fingerprint(g) for g in theirs]
    assert {g.name for g in suite52(1)}.isdisjoint(g.name for g in ours)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in harness.PER_LAYER]
    from workloads import WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
