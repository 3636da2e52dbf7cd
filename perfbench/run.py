#!/usr/bin/env python3
"""optshare benchmark: one workload in one fresh process, closed loop, exact
outputs checked, end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload sweep_additive --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20     # every workload, untraced then traced

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation (one config's CSV, or one suite
call) fails on a digest mismatch, on an unexpected violation or on an
exception, so ``failed / attempted`` is the fail rate; any failure makes the
exit code 1.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "games_per_s": "1/s",
    "cpu_per_game_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

POOL_SPAN = "harness.pool.start"
# Root and glue spans run a handful of times per operation and get no
# percentiles; every other span reaches at least 1000 calls in a traced run
# of the workload it is meant to move (see BASELINE.json).
FEW_CALLS = ("harness.run_experiment", "harness.sweep", "harness.cells_to_csv", "verification.run_suite")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        if name == POOL_SPAN:
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name not in FEW_CALLS:
            units[f"{name}.p50_us"] = "us"
            units[f"{name}.p99_us"] = "us"
    units["harness.pool.starts"] = "count"
    units["harness.pool.start_s"] = "s"
    units["scenarios.generate.useful_ratio"] = "ratio"
    units["unscaled.games_per_s"] = "1/s"
    units["unscaled.cpu_per_game_ms"] = "ms"
    units["trace.games"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()

SETUP_REPEATS = 15
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.import_optshare(); workloads.load_plan(sys.argv[2])"
)
BARE_INTERPRETER = ("-c", "pass")
MAX_REPORTED_FAILURES = 5


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> bool:
        self.attempted += 1
        try:
            message = op.run()
        except Exception:  # any exception fails the operation, and the run
            message = f"{op.label}: {traceback.format_exc()}"
        if message is None:
            return True
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {message}", file=sys.stderr)
        return False


def cpu_seconds() -> float:
    """User+sys CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# A shared virtual machine can change speed by 20-40% within seconds (seen on
# a 2-vCPU Xeon VM), in CPU time as much as in wall time, which swamps
# run-to-run comparison.  A fixed pure-Python loop, timed before and after
# every operation, measures that speed.  An operation's wall time is scaled
# by the loop's wall time and its CPU time by the loop's CPU time, to the
# speed at which the loop takes REFERENCE_LOOP_S (its typical time on that
# VM), so both read as reference-speed seconds.  Scaling CPU by CPU keeps
# time stolen by the hypervisor, which is not charged to the process, out of
# the CPU figure.
REFERENCE_LOOP_S = 0.011


def reference_loop() -> tuple[float, float]:
    """(wall, CPU) seconds of a fixed integer loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0, time.process_time() - c0


class Round(NamedTuple):
    """One round: games completed, then wall and CPU seconds, each both
    scaled to the reference speed and as measured."""

    games: int
    wall: float
    cpu: float
    raw_wall: float
    raw_cpu: float


def run_round(plan, seed: int, r: int, tally: Tally) -> Round:
    games, wall, cpu, raw_wall, raw_cpu = 0, 0.0, 0.0, 0.0, 0.0
    before = reference_loop()
    for op in plan.round(seed, r):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        if tally.run(op):
            games += op.games
        op_wall, op_cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        after = reference_loop()
        wall += op_wall * 2 * REFERENCE_LOOP_S / (before[0] + after[0])
        cpu += op_cpu * 2 * REFERENCE_LOOP_S / (before[1] + after[1])
        raw_wall += op_wall
        raw_cpu += op_cpu
        before = after
    return Round(games, wall, cpu, raw_wall, raw_cpu)


def rates(rounds, scaled: bool = True) -> tuple[float, float]:
    """Medians over rounds of games per second and CPU milliseconds per game."""
    rounds = [r for r in rounds if r.games]
    per_s = statistics.median(r.games / (r.wall if scaled else r.raw_wall) for r in rounds)
    cpu_ms = statistics.median(1000 * (r.cpu if scaled else r.raw_cpu) / r.games for r in rounds)
    return per_s, cpu_ms


def closed_loop(plan, seed: int, seconds: float, tally: Tally) -> list[Round]:
    """Whole rounds, back to back, until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(plan, seed, len(rounds), tally))
    return rounds


def warm_up(plan, seed: int, tally: Tally) -> None:
    """Run one operation on an input the measured rounds do not use, so lazy
    imports and first-call costs land outside the timed region."""
    tally.run(plan.round(seed, -1)[0])


# Starting any interpreter costs from 40 to over 80 ms on the VM above,
# moving with the machine's load; setup_s is therefore scaled by a bare
# interpreter started right after each probe, to the speed at which that
# start takes REFERENCE_START_S.
REFERENCE_START_S = 0.05


def interpreter_wall(args) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, cwd=workloads.ROOT)
    return time.perf_counter() - t0


def measure_setup(name: str) -> float:
    """Median wall time of fresh interpreters that import optshare and load
    and validate the workload's configs, in reference-speed seconds.  The
    first probe, which byte-compiles the sources, is not counted."""
    probe = ("-c", SETUP_PROBE, str(workloads.BENCH), name)
    interpreter_wall(probe)
    probes, bare = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(interpreter_wall(probe))
        bare.append(interpreter_wall(BARE_INTERPRETER))
    return statistics.median(probes) * REFERENCE_START_S / statistics.median(bare)


def untraced(plan, args) -> tuple[dict, Tally, bool]:
    setup = measure_setup(plan.name)
    tally = Tally()
    warm_up(plan, args.seed, tally)
    rounds = [r for r in closed_loop(plan, args.seed, args.seconds, tally) if r.games]
    if not rounds:
        return {}, tally, False
    games_per_s, cpu_per_game_ms = rates(rounds)
    raw = rates(rounds, scaled=False)
    print(f"unscaled.games_per_s = {raw[0]!r} 1/s", file=sys.stderr)
    print(f"unscaled.cpu_per_game_ms = {raw[1]!r} ms", file=sys.stderr)
    metrics = {
        "games_per_s": games_per_s,
        "cpu_per_game_ms": cpu_per_game_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    return metrics, tally, True


def root_of(all_spans, i: int) -> int:
    while all_spans[i].parent >= 0:
        i = all_spans[i].parent
    return i


def count_checks(plan, all_spans, recorder, rounds: int) -> tuple[list[str], list[str]]:
    """Exact counts against arithmetic.  Returns (report lines, failures).

    Deviation searches = bids across the truthfulness games is a property
    of the suite and gates the run.  Generate calls = trials x cost points
    and pool starts = cost points describe the sweep as it is at the
    commit that defined this benchmark; they are reported, not enforced.
    """
    from optshare.verification import TRUTHFUL_MECHANISMS

    lines, failures = [], []
    if plan.suites:
        searched: dict[str, int] = {}
        for s in all_spans:
            if s.name == "analysis.deviation_search":
                searched[s.game[0]] = searched.get(s.game[0], 0) + 1
        for mechanism in TRUTHFUL_MECHANISMS:
            bids = sum(n for (m, _), n in recorder.game_bids.items() if m == mechanism)
            games = sum(1 for m, _ in recorder.game_bids if m == mechanism)
            want_games = rounds * sum(
                g for s, g, m in plan.suites if s == "truthfulness" and m in (None, mechanism)
            )
            if not want_games:
                continue
            got = searched.get(mechanism, 0)
            lines.append(f"deviation searches {mechanism}: {got}, bids across {games} games: {bids}")
            if got != bids or games != want_games or not got:
                failures.append(
                    f"deviation searches {mechanism}: {got} searches over {games} games "
                    f"with {bids} bids; expected {want_games} games, one search per bid"
                )
        return lines, failures
    points = sum(len(c.cost_sweep) for c, _ in plan.configs) * rounds
    games = sum(c.scenario.trials * len(c.cost_sweep) for c, _ in plan.configs) * rounds
    if plan.workers > 1:
        starts = sum(1 for s in all_spans if s.name == POOL_SPAN)
        lines.append(f"pool starts: {starts}, cost points: {points}")
    else:
        calls = sum(1 for s in all_spans if s.name == "scenarios.generate")
        lines.append(f"generate calls: {calls}, trials x cost points: {games}")
    return lines, failures


def useful_ratio(all_spans) -> float:
    """Distinct (seed, trial) games over generate calls, within each operation."""
    distinct: set = set()
    calls = 0
    for i, s in enumerate(all_spans):
        if s.name == "scenarios.generate":
            calls += 1
            distinct.add((root_of(all_spans, i), s.game[0], s.game[1]))
    return len(distinct) / calls if calls else 0.0


def traced(plan, args) -> tuple[dict, Tally, bool]:
    """Untraced rounds for a third of the time, then the same rounds traced.
    The two walls give the tracing overhead; the spans give the layers."""
    tally = Tally()
    warm_up(plan, args.seed, tally)
    plain = closed_loop(plan, args.seed, args.seconds / 3, tally)
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        traced_rounds = [run_round(plan, args.seed, r, tally) for r in range(len(plain))]
    all_spans = recorder.spans
    layer = spans.span_metrics(all_spans)
    metrics = {name: layer[name] for name in PER_LAYER if name in layer}
    metrics["harness.pool.starts"] = layer[f"{POOL_SPAN}.calls"]
    metrics["harness.pool.start_s"] = layer[f"{POOL_SPAN}.busy_s"]
    metrics["scenarios.generate.useful_ratio"] = useful_ratio(all_spans)
    if any(r.games for r in plain):
        metrics["unscaled.games_per_s"], metrics["unscaled.cpu_per_game_ms"] = rates(plain, scaled=False)
    metrics["trace.games"] = sum(r.games for r in traced_rounds)
    metrics["trace.overhead_pct"] = 100 * (sum(r.wall for r in traced_rounds) / sum(r.wall for r in plain) - 1)
    lines, failures = count_checks(plan, all_spans, recorder, len(traced_rounds))
    for line in lines:
        print(f"count {line}", file=sys.stderr)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    workloads.OUT.mkdir(exist_ok=True)
    out = workloads.OUT / f"spans-{plan.name}.tsv"
    spans.write_spans(all_spans, out)
    print(f"spans: {len(all_spans)} written to {out}", file=sys.stderr)
    return metrics, tally, not failures and metrics["trace.games"] > 0


def result(metrics: dict, units: dict, tally: Tally, ok: bool) -> dict:
    correct = ok and tally.attempted >= 1 and tally.failed == 0 and set(metrics) == set(units)
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def run_one(args) -> int:
    workloads.import_optshare()
    plan = workloads.load_plan(args.workload)
    if args.trace:
        metrics, tally, ok = traced(plan, args)
        out = result(metrics, PER_LAYER, tally, ok)
    else:
        metrics, tally, ok = untraced(plan, args)
        out = result(metrics, END_TO_END, tally, ok)
    if not args.trace:
        for name, m in out["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"fail_rate = {tally.failed}/{tally.attempted}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; one table."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                if not lines:
                    continue
            out = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={out['correct']} fail_rate={out['failed']}/{out['attempted']}")
            for metric, m in out["metrics"].items():
                print(f"  {metric:44} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
