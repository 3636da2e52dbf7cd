"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

workloads.import_optshare()

from optshare import harness, verification  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),  # overlaps a: together they cover [1, 6]
        Span("leaf", 2.0, 3.0, 1, None),
        Span("late", 9.0, 12.0, 0, None),  # only [9, 10] lies inside root
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_span_metrics_calls_busy_and_percentiles():
    tree = [Span("x", float(i), i + (i + 1) * 1e-6, -1, None) for i in range(1000)]
    tree.append(Span("y", 0.0, 2.0, -1, None))
    tree.append(Span("y", 1.0, 3.0, -1, None))  # overlapping: busy is the union
    m = spans.span_metrics(tree, names=("x", "y"))
    assert m["x.calls"] == 1000
    assert m["x.p50_us"] == pytest.approx(500, abs=1e-3)
    assert m["x.p99_us"] == pytest.approx(990, abs=1e-3)
    assert m["y.calls"] == 2 and m["y.busy_s"] == pytest.approx(3.0)
    assert m["y.p50_us"] == m["y.p99_us"] == pytest.approx(2e6)
    assert spans.span_metrics(tree, names=("z",))["z.p99_us"] == 0.0  # never ran


def _site_attributes():
    return [vars(spans._owner(owner))[attr] for _, owner, attr, _ in spans.SITES]


def test_wrappers_are_restored_so_untraced_runs_are_uninstrumented():
    originals = _site_attributes()
    plan = workloads.load_plan("sweep_additive")
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        assert all(a is not b for a, b in zip(_site_attributes(), originals))
        assert plan.round(0, 0)[0].run() is None
    assert all(a is b for a, b in zip(_site_attributes(), originals))
    traced = len(recorder.spans)
    assert traced > 0
    assert plan.round(0, 1)[0].run() is None
    assert len(recorder.spans) == traced

    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Recorder()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_site_attributes(), originals))


def test_tampered_digest_fails_the_run(tmp_path):
    recorded = workloads.load_digests()
    recorded["collab_small"]["sha256"][0] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(recorded))
    plan = workloads.load_plan("sweep_additive", digests_path=path)
    tally = run.Tally()
    games = run.run_round(plan, 0, 0, tally).games
    assert (tally.attempted, tally.failed) == (2, 1)
    assert games == plan.configs[1][0].scenario.trials * len(plan.configs[1][0].cost_sweep)
    assert not run.result({}, run.END_TO_END, tally, True)["correct"]


def test_no_check_passes_on_zero_work(monkeypatch, tmp_path):
    assert not run.result({}, {}, run.Tally(), True)["correct"]  # nothing attempted

    def empty_csv(config, out_dir, workers=None):
        path = tmp_path / "empty.csv"
        path.write_text("")
        return [str(path)]

    monkeypatch.setattr(harness, "run_experiment", empty_csv)
    assert workloads.load_plan("sweep_additive").round(0, 0)[0].run() is not None

    monkeypatch.setattr(verification, "run_suite", lambda *a, **k: [])
    control = [op for op in workloads.load_plan("verify_suites").round(0, 0) if "naive_pay_bid" in op.label]
    assert control and control[0].run() is not None


def test_deviation_searches_must_equal_bids_across_truthfulness_games():
    plan = workloads.load_plan("verify_suites")
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        run.run_round(plan, 0, 0, run.Tally())
    lines, failures = run.count_checks(plan, recorder.spans, recorder, 1)
    assert len(lines) == 4 and not failures
    game = next(iter(recorder.game_bids))
    recorder.game_bids[game] += 1  # one bid the search never visited
    _, failures = run.count_checks(plan, recorder.spans, recorder, 1)
    assert len(failures) == 1 and game[0] in failures[0]


def test_held_out_seed_reproduces_recorded_digests():
    for name, recorded in workloads.load_digests().items():
        config = harness.load_config(workloads.CONFIGS / f"{name}.json")
        seeded = workloads.with_seed(config, config.scenario.seed + workloads.HELD_OUT_OFFSET)
        op = workloads.sweep_op(seeded, 1, recorded["held_out"], "test-held-out")
        assert op.run() is None, name


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_each_workload(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    if trace:
        assert out["metrics"]["trace.games"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep_additive", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
