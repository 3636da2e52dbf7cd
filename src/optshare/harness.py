"""Experiment engine: run mechanism-vs-baseline sweeps over seeded Monte
Carlo scenarios and emit deterministic CSV summaries.

Sweeps run trial-major: each trial's game is generated once, re-costed for
every cost point and fed to each requested mechanism, serially or in one
process pool per sweep.  Utilities and balances aggregate as exact
rationals, so scheduling and arrival order cannot change a single output
byte.  Files are written to a temp path and atomically renamed.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .additive_online import add_on
from .analysis import score_additive_online, score_subst_online
from .core import (
    AdditiveOnlineMultiGame,
    OnlineAdditiveGame,
    SubstOnlineGame,
)
from .money import ZERO, Money, parse_money, render_decimal, render_decimal_sqrt, render_exact
from .regret import regret_run
from .scenarios import ScenarioError, ScenarioSpec, generate, recost
from .substitutable import subst_on

MECHANISMS = ("add_off", "add_on", "subst_off", "subst_on", "regret")

FAMILY_MECHANISMS = {
    "collab_size": {"add_on", "regret"},
    "overlap_slots": {"add_on", "regret"},
    "duration_spread": {"add_on", "regret"},
    "arrival_skew": {"add_on", "regret"},
    "usecase_shape": {"add_on", "regret"},
    "selectivity": {"subst_on", "regret"},
}

# Every cost point runs every trial; the shipped configs use 25 points.
MAX_COST_POINTS = 1000

# Trials a pool worker takes at a time.  Of 1, 2, 4 and 8, 4 was fastest on a
# 256-trial, 25-point sweep with two workers on a 2-vCPU VM; single trials
# cost more in messages than they gain in balance.
TRIALS_PER_TASK = 4

CSV_HEADER = (
    "mechanism,cost,trials,mean_total_utility,sd_total_utility,"
    "mean_cloud_balance,sd_cloud_balance,implemented_rate"
)


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    mechanisms: tuple[str, ...]
    cost_sweep: tuple[Money, ...]
    output: str = "experiment"
    details: bool = False

    def __post_init__(self):
        if not self.mechanisms:
            raise ConfigError("mechanisms: at least one required")
        allowed = FAMILY_MECHANISMS[self.scenario.family]
        for i, m in enumerate(self.mechanisms):
            if m not in MECHANISMS:
                raise ConfigError(f"mechanisms[{i}]: unknown mechanism {m!r}")
            if m not in allowed:
                raise ConfigError(
                    f"mechanisms[{i}]: {m!r} incompatible with scenario family "
                    f"{self.scenario.family!r} (allowed: {sorted(allowed)})"
                )
        if not self.cost_sweep:
            raise ConfigError("cost_sweep: at least one cost point required")
        if len(self.cost_sweep) > MAX_COST_POINTS:
            raise ConfigError(f"cost_sweep: {len(self.cost_sweep)} points (at most {MAX_COST_POINTS})")
        for i, c in enumerate(self.cost_sweep):
            if c <= 0:
                raise ConfigError(f"cost_sweep[{i}]: cost must be positive")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    if data.get("schema") != 1:
        raise ConfigError("schema: expected 1")
    if "scenario" not in data:
        raise ConfigError("scenario: missing")
    try:
        scenario = ScenarioSpec.from_dict(data["scenario"])
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = []
    raw_sweep = data.get("cost_sweep", [])
    if isinstance(raw_sweep, dict):
        start, stop, step = (_range_bound(raw_sweep, key) for key in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError("cost_sweep.step: must be positive")
        points = (stop - start) // step + 1 if start <= stop else 0
        if points > MAX_COST_POINTS:
            raise ConfigError(f"cost_sweep: range expands to {points} points (at most {MAX_COST_POINTS})")
        sweep = [start + i * step for i in range(points)]
    elif not isinstance(raw_sweep, list):
        raise ConfigError("cost_sweep: expected a list or a {start, stop, step} object")
    else:
        for i, c in enumerate(raw_sweep):
            try:
                sweep.append(parse_money(c))
            except ValueError as exc:
                raise ConfigError(f"cost_sweep[{i}]: {exc}") from exc
    if not sweep:
        sweep = [scenario.cost]
    mechanisms = tuple(data.get("mechanisms", ()))
    output = data.get("output", "experiment")
    details = bool(data.get("details", False))
    try:
        return ExperimentConfig(scenario, mechanisms, tuple(sweep), output, details)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc


def _range_bound(raw_sweep: dict, key: str) -> Money:
    if key not in raw_sweep:
        raise ConfigError(f"cost_sweep.{key}: missing")
    try:
        return parse_money(raw_sweep[key])
    except ValueError as exc:
        raise ConfigError(f"cost_sweep.{key}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Running


def run_mechanism(mechanism: str, game) -> tuple[Money, Money, bool]:
    """Run one mechanism on one game; returns (total utility, cloud balance,
    implemented anything)."""
    if mechanism == "regret":
        if isinstance(game, OnlineAdditiveGame):
            trace = regret_run((game.optimization,), game.horizon, game.bids)
        elif isinstance(game, (AdditiveOnlineMultiGame, SubstOnlineGame)):
            trace = regret_run(game.catalog, game.horizon, game.bids)
        else:
            raise ConfigError(f"regret cannot run on {type(game).__name__}")
        return trace.total_utility, trace.cloud_balance, bool(trace.implement_slot)
    if mechanism == "add_on":
        if isinstance(game, OnlineAdditiveGame):
            games = [game]
        elif isinstance(game, AdditiveOnlineMultiGame):
            games = game.per_opt_games()
        else:
            raise ConfigError(f"add_on cannot run on {type(game).__name__}")
        utility = balance = ZERO
        implemented = False
        for g in games:
            metrics = score_additive_online(g, add_on(g))
            utility += metrics.total_utility
            balance += metrics.cloud_balance
            implemented = implemented or metrics.total_cost > 0
        return utility, balance, implemented
    if mechanism == "subst_on":
        if not isinstance(game, SubstOnlineGame):
            raise ConfigError(f"subst_on cannot run on {type(game).__name__}")
        trace = subst_on(game.catalog, game.horizon, game.bids)
        metrics = score_subst_online(game, trace)
        return metrics.total_utility, metrics.cloud_balance, bool(trace.implemented)
    raise ConfigError(f"mechanism {mechanism!r} is not runnable in experiments")


@dataclass
class CellStats:
    """Exact running aggregates for one (mechanism, cost) cell."""

    n: int = 0
    sum_u: Fraction = ZERO
    sum_u2: Fraction = ZERO
    sum_b: Fraction = ZERO
    sum_b2: Fraction = ZERO
    implemented: int = 0

    def add(self, utility: Money, balance: Money, implemented: bool):
        self.n += 1
        self.sum_u += utility
        self.sum_u2 += utility * utility
        self.sum_b += balance
        self.sum_b2 += balance * balance
        self.implemented += bool(implemented)

    @property
    def mean_utility(self) -> Fraction:
        return self.sum_u / self.n

    @property
    def var_utility(self) -> Fraction:
        return self.sum_u2 / self.n - self.mean_utility**2

    @property
    def mean_balance(self) -> Fraction:
        return self.sum_b / self.n

    @property
    def var_balance(self) -> Fraction:
        return self.sum_b2 / self.n - self.mean_balance**2

    @property
    def implemented_rate(self) -> Fraction:
        return Fraction(self.implemented, self.n)


def _trial_results(spec: ScenarioSpec, mechanisms, cost_points, trial: int):
    """One trial at every cost point: ``(trial, rows)`` with one row per cost
    point, each holding (utility, balance, implemented) per mechanism.  The
    game is generated once and re-costed per point."""
    game = generate(spec, trial)
    rows = []
    for cost in cost_points:
        game_at = recost(game, spec, cost)
        rows.append([run_mechanism(m, game_at) for m in mechanisms])
    return trial, rows


def default_workers() -> int:
    env = os.environ.get("OPTSHARE_WORKERS", "")
    if not env.strip():
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ConfigError(f"OPTSHARE_WORKERS: not an integer ({env!r})") from None
    if workers < 1:
        raise ConfigError(f"OPTSHARE_WORKERS: must be >= 1 (got {workers})")
    return workers


def sweep(
    spec: ScenarioSpec,
    mechanisms,
    cost_points,
    trials: int | None = None,
    workers: int | None = None,
    detail_sink=None,
) -> dict[tuple[str, Money], CellStats]:
    """Run trials x cost points x mechanisms; exact aggregation per cell.

    Trial-major: each trial's game is generated once, re-costed for every
    cost point (``scenarios.recost``) and run through every mechanism.  With
    more than one worker, one process pool of at most
    ``min(workers, os.cpu_count(), trials)`` processes serves the whole
    sweep, one job per trial.  Serial or pooled, each trial's results are
    folded into the cells as they arrive; exact sums do not depend on arrival
    order.  Detail records are buffered per cost point and handed to
    ``detail_sink`` in (cost, trial, mechanism) order.
    """
    trials = trials if trials is not None else spec.trials
    workers = workers if workers is not None else default_workers()
    mechanisms, cost_points = tuple(mechanisms), tuple(cost_points)
    cells = {(m, cost): CellStats() for m in mechanisms for cost in cost_points}
    details = [[] for _ in cost_points] if detail_sink is not None else None
    job = partial(_trial_results, spec, mechanisms, cost_points)
    processes = min(workers, os.cpu_count() or 1, trials)
    if processes > 1:
        import multiprocessing as mp  # imported here: most runs never start a pool
    with mp.Pool(processes) if processes > 1 else nullcontext() as pool:
        results = pool.imap_unordered(job, range(trials), TRIALS_PER_TASK) if pool else map(job, range(trials))
        for trial, rows in results:
            for point, (cost, row) in enumerate(zip(cost_points, rows)):
                for mechanism, (utility, balance, implemented) in zip(mechanisms, row):
                    cells[(mechanism, cost)].add(utility, balance, implemented)
                    if details is not None:
                        record = {
                            "mechanism": mechanism,
                            "cost": render_exact(cost),
                            "trial": trial,
                            "total_utility": render_exact(utility),
                            "cloud_balance": render_exact(balance),
                            "implemented": bool(implemented),
                        }
                        details[point].append((trial, record))
    for records in details or ():
        records.sort(key=itemgetter(0))  # stable: a trial's mechanisms keep their order
        for _, record in records:
            detail_sink(record)
    return cells


def cells_to_csv(mechanisms, cost_points, cells, trials: int) -> str:
    lines = [CSV_HEADER]
    for mechanism in mechanisms:
        for cost in cost_points:
            c = cells[(mechanism, cost)]
            lines.append(
                ",".join(
                    (
                        mechanism,
                        render_decimal(cost),
                        str(trials),
                        render_decimal(c.mean_utility),
                        render_decimal_sqrt(c.var_utility),
                        render_decimal(c.mean_balance),
                        render_decimal_sqrt(c.var_balance),
                        render_decimal(c.implemented_rate),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def atomic_write(path, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_experiment(config: ExperimentConfig, out_dir, workers: int | None = None) -> list[str]:
    """Execute a config; returns the written file paths (CSV first)."""
    os.makedirs(out_dir, exist_ok=True)
    details: list[dict] = []
    sink = details.append if config.details else None
    cells = sweep(
        config.scenario,
        config.mechanisms,
        config.cost_sweep,
        trials=config.scenario.trials,
        workers=workers,
        detail_sink=sink,
    )
    csv_path = os.path.join(out_dir, f"{config.output}.csv")
    atomic_write(csv_path, cells_to_csv(config.mechanisms, config.cost_sweep, cells, config.scenario.trials))
    written = [csv_path]
    if config.details:
        detail_path = os.path.join(out_dir, f"{config.output}_details.jsonl")
        atomic_write(detail_path, "".join(json.dumps(d, sort_keys=True) + "\n" for d in details))
        written.append(detail_path)
    return written
