"""Acceptance suite.

Four criterion families, each printing a PASS line (run with ``pytest -s``
to watch them stream):

1. golden traces, exact rational equality, < 1 s;
2. bulk invariant suites (cost recovery, truthfulness with the pay-your-bid
   positive control, degenerations, oracle dominance) at their stated scales;
3. qualitative reproduction of the simulated comparison trends at >= 10^4
   trials per cost point with fixed seeds;
4. byte-identical CSV output on reruns.
"""

import time
from fractions import Fraction

import pytest

from optshare.experiments import (
    SKEW_COST,
    arrival_skew_config,
    large_group_config,
    selectivity_config,
    small_group_config,
)
from optshare.harness import run_experiment, sweep
from optshare.verification import run_suite

F = Fraction

# Mean regret balance is exactly <= 0 per game and strictly negative in
# expectation at every positive cost (rare draws leave the trigger without
# future buyers), so "the balance curve goes negative" needs a materiality
# level: losses below a thousandth of the unit value scale are the
# always-present background, not the systematic loss the comparison is about.
LOSS_EPS = F(1, 1000)

TREND_SECONDS: dict[str, float] = {}


def _cells(config):
    t0 = time.perf_counter()
    cells = sweep(config.scenario, config.mechanisms, config.cost_sweep)
    TREND_SECONDS[config.output] = time.perf_counter() - t0
    return cells


def report(line: str):
    print(f"PASS {line}", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: golden traces


def test_criterion1_golden_traces():
    t0 = time.perf_counter()
    violations = run_suite("golden_examples")
    elapsed = time.perf_counter() - t0
    assert violations == [], [v.message for v in violations]
    assert elapsed < 1.0
    report(f"criterion 1: golden traces replay exactly ({elapsed*1000:.0f} ms)")


# ---------------------------------------------------------------------------
# Criterion 2: invariant suites


@pytest.mark.slow
def test_criterion2_cost_recovery_bulk():
    t0 = time.perf_counter()
    violations = run_suite("cost_recovery", seed=11, games=10_000)
    elapsed = time.perf_counter() - t0
    assert violations == [], [v.message for v in violations[:3]]
    assert elapsed < 60
    report(
        "criterion 2: cost recovery exact on 10^4 games per family, "
        f"balance never negative ({elapsed:.1f} s)"
    )


@pytest.mark.slow
def test_criterion2_truthfulness_deviation_search():
    t0 = time.perf_counter()
    violations = run_suite("truthfulness", seed=12, games=250)  # 250 x 4 mechanisms
    elapsed = time.perf_counter() - t0
    assert violations == [], [v.message for v in violations[:3]]
    assert elapsed < 300
    report(
        "criterion 2: zero profitable deviations across 10^3 games on 21-level grids, "
        f"positive control caught ({elapsed:.1f} s)"
    )


def test_criterion2_naive_control_visibly_fails():
    violations = run_suite("truthfulness", seed=12, games=30, mechanism="naive_pay_bid")
    assert violations, "the pay-your-bid control should produce profitable underbids"
    assert any("profits by deviating" in v.message for v in violations)
    report("criterion 2: injected pay-your-bid mechanism reported as gameable")


def test_criterion2_degenerations():
    violations = run_suite("degeneration", seed=13, games=1_000)
    assert violations == [], [v.message for v in violations[:3]]
    report("criterion 2: online/offline and substitutable/additive degenerations exact on 10^3 instances")


def test_criterion2_oracle_dominance():
    violations = run_suite("oracle_dominance", seed=14, games=1_000)
    assert violations == [], [v.message for v in violations[:3]]
    report("criterion 2: enumeration oracle dominates mechanism utility on every instance")


# ---------------------------------------------------------------------------
# Criterion 3: trend reproduction (fixed seeds, >= 10^4 trials per cost point)


@pytest.fixture(scope="module")
def small_group():
    config = small_group_config()
    return config, _cells(config)


@pytest.fixture(scope="module")
def large_group():
    config = large_group_config()
    return config, _cells(config)


@pytest.mark.slow
def test_criterion3_small_group_additive(small_group):
    config, cells = small_group
    points = config.cost_sweep

    for c in points:
        a = cells[("add_on", c)]
        assert a.mean_balance >= 0, f"online additive lost money at cost {c}"
        assert a.mean_utility >= 0, f"online additive negative utility at cost {c}"

    crossing = [c for c in points if cells[("regret", c)].mean_balance < -LOSS_EPS]
    assert crossing, "regret balance never went materially negative"
    assert F(10, 100) <= crossing[0] <= F(30, 100), f"crossing at {crossing[0]}"

    negative = [c for c in points if cells[("regret", c)].mean_utility < 0]
    assert negative, "regret utility never went negative"
    assert negative[0] > crossing[0]

    positive = [c for c in points if cells[("regret", c)].mean_utility > 0]
    ratio = sum((cells[("add_on", c)].mean_utility for c in positive), F(0)) / sum(
        (cells[("regret", c)].mean_utility for c in positive), F(0)
    )
    assert F(12, 10) <= ratio <= F(168, 100), f"utility ratio {float(ratio):.3f}"
    report(
        "criterion 3: small group: regret loss from cost "
        f"{float(crossing[0]):.2f}, utility ratio {float(ratio):.2f}, online additive never loses"
    )


@pytest.mark.slow
def test_criterion3_large_group_additive(large_group):
    config, cells = large_group
    points = config.cost_sweep
    better = [c for c in points if cells[("regret", c)].mean_utility > cells[("add_on", c)].mean_utility]
    assert better, "no cost range where regret beats the online mechanism"

    positive = [c for c in points if cells[("regret", c)].mean_utility > 0]
    no_loss_and_better = [
        c for c in better if cells[("regret", c)].mean_balance == 0 and cells[("regret", c)].mean_utility > 0
    ]
    fraction = F(len(no_loss_and_better), len(positive))
    assert fraction < F(15, 100), f"no-loss-and-better region is {float(fraction):.0%}"
    report(
        "criterion 3: large group: regret wins on "
        f"{len(better)} cost points but with no loss on only {float(fraction):.0%} of its positive range"
    )


@pytest.fixture(scope="module")
def skew_cells():
    out = {}
    for skew in ("uniform", "early", "late"):
        config = arrival_skew_config(skew)
        out[skew] = _cells(config)
    return out


@pytest.mark.slow
def test_criterion3_arrival_skew(skew_cells):
    addon = {skew: cells[("add_on", SKEW_COST)].mean_utility for skew, cells in skew_cells.items()}
    regret = {skew: cells[("regret", SKEW_COST)].mean_utility for skew, cells in skew_cells.items()}
    assert addon["early"] > addon["late"] > addon["uniform"]
    assert regret["early"] < regret["uniform"]
    report(
        "criterion 3: arrival skew helps the online mechanism "
        f"(early {float(addon['early']):.2f} > late {float(addon['late']):.2f} > uniform {float(addon['uniform']):.2f}) "
        f"and hurts regret (early {float(regret['early']):.2f} < uniform {float(regret['uniform']):.2f})"
    )


@pytest.fixture(scope="module")
def selectivity_cells():
    out = {}
    for n in (4, 12):
        config = selectivity_config(n)
        out[n] = (config, _cells(config))
    return out


@pytest.mark.slow
def test_criterion3_selectivity(selectivity_cells):
    matched = F(36, 100)
    sub4 = selectivity_cells[4][1][("subst_on", matched)].mean_utility
    sub12 = selectivity_cells[12][1][("subst_on", matched)].mean_utility
    reg4 = selectivity_cells[4][1][("regret", matched)].mean_utility
    reg12 = selectivity_cells[12][1][("regret", matched)].mean_utility
    assert sub12 < sub4, "more selective substitutes should lower online utility"
    assert reg12 < reg4, "more selective substitutes should lower regret utility"
    for n, (config, cells) in selectivity_cells.items():
        positive = [c for c in config.cost_sweep if cells[("regret", c)].mean_utility > 0]
        assert positive
        mean_sub = sum((cells[("subst_on", c)].mean_utility for c in positive), F(0)) / len(positive)
        mean_reg = sum((cells[("regret", c)].mean_utility for c in positive), F(0)) / len(positive)
        assert mean_sub >= mean_reg, f"3-of-{n}: substitutable online under regret"
    report(
        "criterion 3: selectivity 3-of-12 under 3-of-4 for both mechanisms "
        f"(online {float(sub12):.2f} < {float(sub4):.2f}, regret {float(reg12):.2f} < {float(reg4):.2f}), "
        "substitutable online beats regret over its positive range"
    )


@pytest.mark.slow
def test_criterion3_runtime_budget(small_group, large_group, skew_cells, selectivity_cells):
    total = sum(TREND_SECONDS.values())
    assert total < 900, f"trend suite took {total:.0f} s"
    report(f"criterion 3: full trend suite ran in {total:.0f} s (< 15 min)")


# ---------------------------------------------------------------------------
# Criterion 4: determinism


def test_criterion4_byte_identical_csv(tmp_path):
    config = arrival_skew_config("uniform", trials=1_000)
    first = run_experiment(config, tmp_path / "run1")
    second = run_experiment(config, tmp_path / "run2")
    a = open(first[0], "rb").read()
    b = open(second[0], "rb").read()
    assert a == b
    report("criterion 4: identical config and seed give byte-identical CSV")
