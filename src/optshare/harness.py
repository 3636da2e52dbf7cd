"""Experiment engine: run mechanism-vs-baseline sweeps over seeded Monte
Carlo scenarios and emit deterministic CSV summaries.

Sweeps run trial-major: each trial's game is generated once and rescaled
once to integers (``scaled.ScaledGame``), with one integer cost per cost
point, and every requested mechanism's integer kernel runs on it at each
point.  Utility and balance come straight from the kernels' join slots,
counts and prices as integers over one denominator, and fold into integer
cells; ``Fraction``s appear only when a cell's mean or variance is read.
Sums are exact, so scheduling and arrival order cannot change a single
output byte.  Trials run serially or in one process pool per sweep, whose
workers fold chunks of trials into partial cells that the parent merges.
Files are written to a temp path and atomically renamed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .additive_online import serve
from .money import Money, parse_money, render_decimal, render_decimal_sqrt, render_exact
from .regret import trigger
from .scaled import ScaledGame
from .scenarios import ScenarioError, ScenarioSpec, generate
from .substitutable import grant

# Bound here only for perfbench/spans.py, whose traced run wraps each of
# these names on this module; the sweep runs the integer kernels above.
from .additive_online import add_on  # noqa: F401
from .analysis import score_additive_online, score_subst_online  # noqa: F401
from .regret import regret_run  # noqa: F401
from .substitutable import subst_on  # noqa: F401

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

# Trials in one pool job, which the worker folds into partial cells.  On a
# 256-trial, 25-point sweep with two workers on a 2-vCPU VM, 16 to 64 were
# about a fifth faster than 4 and twice as fast as 1 (each job returns a
# full set of cells); 16 still leaves 625 jobs to balance a shipped
# 10000-trial sweep.
TRIALS_PER_TASK = 16

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


def run_mechanism(mechanism: str, game: ScaledGame, point: int = 0) -> tuple[int, int, int, bool]:
    """Run one mechanism's kernel on a scaled game at cost point ``point``;
    returns (total utility, cloud balance, their common denominator,
    implemented anything)."""
    costs = game.costs[point]
    realized = spent = 0
    payments = []  # (numerator, denominator, payers): payers each pay num/den
    if mechanism == "add_on" and game.additive:
        for j, cost in costs.items():
            joined, count = serve(game, j, cost)
            if joined:
                spent += cost
            payers = {}  # share denominator k -> payers
            for i, t in joined.items():
                realized += game.suffix[i][t - game.starts[i]]
                k = count[game.ends[i]]
                payers[k] = payers.get(k, 0) + 1
            payments.extend((cost, k, n) for k, n in payers.items())
    elif mechanism == "subst_on" and not game.additive:
        granted, joined, count, _ = grant(game, costs)
        payers = {}  # (opt, share denominator k) -> payers
        for i, j in granted.items():
            realized += game.suffix[i][joined[i] - game.starts[i]]
            key = (j, count[j][game.ends[i]])
            payers[key] = payers.get(key, 0) + 1
        spent = sum(costs[j] for j in count)
        payments.extend((costs[j], k, n) for (j, k), n in payers.items())
    elif mechanism == "regret":
        run = trigger(game, costs)
        realized = run.realized
        spent = sum(costs[j] for j in run.implement_slot)
        payments.extend((*run.price[j], len(buyers)) for j, buyers in run.buyers.items())
    else:
        kind = "additive" if game.additive else "substitutable"
        raise ConfigError(f"{mechanism} cannot run on {kind} games")
    lcm = math.lcm(*[den for _, den, _ in payments])
    paid = sum(n * num * (lcm // den) for num, den, n in payments)
    return (realized - spent) * lcm, paid - spent * lcm, game.scale * lcm, spent > 0


@dataclass
class CellStats:
    """Exact running aggregates for one (mechanism, cost) cell.

    Sums are integers over the common denominator ``den`` (sums of squares
    over ``den**2``).  ``den`` grows to the lcm of every denominator added or
    merged, which does not depend on arrival order, so neither do the sums.
    """

    n: int = 0
    den: int = 1
    sum_u: int = 0
    sum_u2: int = 0
    sum_b: int = 0
    sum_b2: int = 0
    implemented: int = 0

    def add(self, utility: int, balance: int, den: int, implemented: bool):
        """Add one trial: utility/den and balance/den."""
        f = self._widen(den)
        utility *= f
        balance *= f
        self.n += 1
        self.sum_u += utility
        self.sum_u2 += utility * utility
        self.sum_b += balance
        self.sum_b2 += balance * balance
        self.implemented += bool(implemented)

    def merge(self, other: "CellStats"):
        """Add every trial ``other`` holds."""
        f = self._widen(other.den)
        self.n += other.n
        self.sum_u += other.sum_u * f
        self.sum_u2 += other.sum_u2 * f * f
        self.sum_b += other.sum_b * f
        self.sum_b2 += other.sum_b2 * f * f
        self.implemented += other.implemented

    def _widen(self, den: int) -> int:
        """Grow ``self.den`` to a multiple of ``den``; returns the factor
        that brings a value over ``den`` onto it."""
        if self.den % den:
            f = den // math.gcd(self.den, den)
            self.den *= f
            self.sum_u *= f
            self.sum_b *= f
            self.sum_u2 *= f * f
            self.sum_b2 *= f * f
        return self.den // den

    @property
    def mean_utility(self) -> Fraction:
        return Fraction(self.sum_u, self.den * self.n)

    @property
    def var_utility(self) -> Fraction:
        return Fraction(self.sum_u2, self.den * self.den * self.n) - self.mean_utility**2

    @property
    def mean_balance(self) -> Fraction:
        return Fraction(self.sum_b, self.den * self.n)

    @property
    def var_balance(self) -> Fraction:
        return Fraction(self.sum_b2, self.den * self.den * self.n) - self.mean_balance**2

    @property
    def implemented_rate(self) -> Fraction:
        return Fraction(self.implemented, self.n)


def _trial_results(spec: ScenarioSpec, mechanisms, factors, trial: int):
    """One trial at every cost point: one row per point, each holding
    ``run_mechanism``'s result per mechanism.  The game is generated and
    scaled once; cost point p costs ``factors[p]`` times the generated
    catalog (see ``scenarios.recost``)."""
    game = ScaledGame(generate(spec, trial), factors)
    return [[run_mechanism(m, game, p) for m in mechanisms] for p in range(len(factors))]


def _fold_trials(spec: ScenarioSpec, mechanisms, cost_points, details: bool, trials):
    """Run ``trials`` and fold them into fresh cells; returns the cells and,
    if ``details``, the detail records per cost point as (trial, record)."""
    factors = [cost / spec.cost for cost in cost_points]
    cells = {(m, cost): CellStats() for m in mechanisms for cost in cost_points}
    records = [[] for _ in cost_points] if details else None
    for trial in trials:
        for point, row in enumerate(_trial_results(spec, mechanisms, factors, trial)):
            cost = cost_points[point]
            for mechanism, (utility, balance, den, implemented) in zip(mechanisms, row):
                cells[(mechanism, cost)].add(utility, balance, den, implemented)
                if records is not None:
                    record = {
                        "mechanism": mechanism,
                        "cost": render_exact(cost),
                        "trial": trial,
                        "total_utility": render_exact(Fraction(utility, den)),
                        "cloud_balance": render_exact(Fraction(balance, den)),
                        "implemented": bool(implemented),
                    }
                    records[point].append((trial, record))
    return cells, records


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

    Trial-major: each trial's game is generated and scaled to integers once
    and every mechanism's kernel runs on it at every cost point.  With more
    than one worker, one process pool of at most
    ``min(workers, os.cpu_count(), trials)`` processes serves the whole
    sweep; a job is a chunk of ``TRIALS_PER_TASK`` trials, which the worker
    folds into partial cells (and detail records, if asked for) for the
    parent to merge.  Serial runs fold every trial through the same
    function.  Exact sums do not depend on arrival order.  Detail records are
    handed to ``detail_sink`` in (cost, trial, mechanism) order.
    """
    trials = trials if trials is not None else spec.trials
    workers = workers if workers is not None else default_workers()
    mechanisms, cost_points = tuple(mechanisms), tuple(cost_points)
    fold = partial(_fold_trials, spec, mechanisms, cost_points, detail_sink is not None)
    processes = min(workers, os.cpu_count() or 1, trials)
    if processes <= 1:
        cells, details = fold(range(trials))
    else:
        import multiprocessing as mp  # imported here: most runs never start a pool

        cells = {(m, cost): CellStats() for m in mechanisms for cost in cost_points}
        details = [[] for _ in cost_points] if detail_sink is not None else None
        chunks = [range(lo, min(lo + TRIALS_PER_TASK, trials)) for lo in range(0, trials, TRIALS_PER_TASK)]
        with mp.Pool(processes) as pool:
            for part, records in pool.imap_unordered(fold, chunks):
                for key, cell in part.items():
                    cells[key].merge(cell)
                for point, point_records in enumerate(records or ()):
                    details[point].extend(point_records)
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
