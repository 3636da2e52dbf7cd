"""Experiment engine: run mechanism-vs-baseline sweeps over seeded Monte
Carlo scenarios and emit deterministic CSV summaries.

Sweeps run trial-major: each trial's draws, read in Python from its PCG64
stream at every skew (``scenarios.draw``), go straight into the integer rows
of a ``scaled.ScaledGame`` (``scenarios.ScaledTrials``), on one scale for
the sweep, with one integer cost per cost point, and each requested
mechanism settles every point of it in one ``run_mechanism`` call.  The
points share work.  Every cost of a point is its unit times a base cost, so
no share comparison depends on the point, and each settlement reports the
ceilings up to which it holds.  One walk up the sorted points
(``scaled.settle_points``) settles the cheapest point not yet settled and
fills every dearer point within the ceilings: ``serve``, ``grant`` and the
substitutable ``trigger`` run once per distinct outcome, and on additive
games the regret baseline settles once per distinct (trigger slot, buyer
count) outcome, finding both by bisection.  The walk returns one run per
settle step, from which utility and balance at each point it covers follow
by the point's unit, as integers over one denominator.  Each run is added
once to its mechanism's integer moment sums, kept on a difference array
over the sorted points (``RunSums``); after a slice's last trial, prefix
sums give each cell its integer sums, and each CSV cell is rendered from
them (``CellStats.columns``), so no ``Fraction`` is made between the
config and the CSV text.  Sums are exact, so neither the scale,
scheduling nor arrival order can change a single output byte.  Trials are
split into contiguous slices, one per process: the parent folds the first
slice itself and one helper process folds each other slice into partial
cells that the parent merges, so a serial sweep is the one-slice case of
the same code.  Files are written to a temp path and atomically renamed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate

from .additive_online import serve
from .analysis import MECHANISMS
from .core import AdditiveOnlineGame, SubstOnlineGame
from .money import Money, parse_money, render_decimal, render_exact, render_ratio, render_ratio_sqrt
from .regret import trigger, trigger_points
from .scaled import Factors, ScaledGame, SettleRun, kernel_step, point_rows, settle_points
from .scenarios import FAMILIES, ScaledTrials, ScenarioError, ScenarioSpec
from .substitutable import grant

# Bound here only for perfbench/spans.py, whose traced run wraps each of
# these names on this module; the sweep runs the integer kernels above and
# draws its games through ``ScaledTrials``.  Both score names are the one
# scorer, ``analysis.score``.
from .additive_online import add_on  # noqa: F401
from .analysis import score as score_additive_online, score as score_subst_online  # noqa: F401
from .regret import regret_run  # noqa: F401
from .scenarios import generate  # noqa: F401
from .substitutable import subst_on  # noqa: F401

# The mechanisms that run on each family's games: those whose kinds hold
# its game type, ``SubstOnlineGame`` for selectivity, else ``AdditiveOnlineGame``.
FAMILY_MECHANISMS = {
    family: {m for m, (kinds, _) in MECHANISMS.items() if game_type in kinds}
    for family in FAMILIES
    for game_type in [SubstOnlineGame if family == "selectivity" else AdditiveOnlineGame]
}

# Every cost point runs every trial; the shipped configs use 25 points.
MAX_COST_POINTS = 1000

# The longest file written is ``<output>_details.jsonl.tmp.<pid>``, 26 bytes
# more than ``output`` at a 7-digit pid; most file systems allow 255.
MAX_OUTPUT_BYTES = 200

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
        if self.output in (".", "..") or any(c in self.output for c in "/\\\0"):
            raise ConfigError(f"output: expected a plain file name, got {self.output!r}")
        try:
            size = len(os.fsencode(self.output))
        except UnicodeEncodeError:
            raise ConfigError(f"output: not encodable as a file name: {self.output!r}") from None
        if size > MAX_OUTPUT_BYTES:
            raise ConfigError(f"output: at most {MAX_OUTPUT_BYTES} bytes as a file name (got {size})")
        if not self.mechanisms:
            raise ConfigError("mechanisms: at least one required")
        allowed = FAMILY_MECHANISMS[self.scenario.family]
        for i, m in enumerate(self.mechanisms):
            if m not in MECHANISMS:
                raise ConfigError(f"mechanisms[{i}]: unknown mechanism {m!r}")
            if m in self.mechanisms[:i]:
                raise ConfigError(f"mechanisms[{i}]: {m!r} listed twice")
            if m not in allowed:
                raise ConfigError(
                    f"mechanisms[{i}]: {m!r} incompatible with scenario family "
                    f"{self.scenario.family!r} (allowed: {sorted(allowed)})"
                )
        if not self.cost_sweep:
            raise ConfigError("cost_sweep: at least one cost point required")
        if len(self.cost_sweep) > MAX_COST_POINTS:
            raise ConfigError(f"cost_sweep: {len(self.cost_sweep)} points (at most {MAX_COST_POINTS})")
        seen = set()
        for i, c in enumerate(self.cost_sweep):
            if c <= 0:
                raise ConfigError(f"cost_sweep[{i}]: cost must be positive")
            if c in seen:
                raise ConfigError(f"cost_sweep[{i}]: cost point {c} listed twice")
            seen.add(c)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    _known(data, ("schema", "scenario", "mechanisms", "cost_sweep", "output", "details"))
    schema = data.get("schema")
    if type(schema) is not int or schema != 1:  # not True or 1.0, which equal 1
        raise ConfigError(f"schema: expected the integer 1, got {schema!r}")
    if "scenario" not in data:
        raise ConfigError("scenario: missing")
    try:
        scenario = ScenarioSpec.from_dict(data["scenario"])
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = []
    raw_sweep = data.get("cost_sweep")
    if "cost_sweep" not in data:  # an empty list is no sweep, and ExperimentConfig rejects it
        sweep = [scenario.cost]
    elif isinstance(raw_sweep, dict):
        _known(raw_sweep, ("start", "stop", "step"), "cost_sweep.")
        start, stop, step = (_range_bound(raw_sweep, key) for key in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError("cost_sweep.step: must be positive")
        if start > stop:
            raise ConfigError(f"cost_sweep: start {start} exceeds stop {stop}")
        points = (stop - start) // step + 1
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
    mechanisms = data.get("mechanisms", [])
    if not isinstance(mechanisms, list) or not all(isinstance(m, str) for m in mechanisms):
        raise ConfigError(f"mechanisms: expected a list of strings, got {mechanisms!r}")
    output = data.get("output", "experiment")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"output: expected a non-empty string, got {output!r}")
    details = data.get("details", False)
    if not isinstance(details, bool):
        raise ConfigError(f"details: expected true or false, got {details!r}")
    try:
        return ExperimentConfig(scenario, tuple(mechanisms), tuple(sweep), output, details)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc


def _known(obj: dict, keys, prefix: str = ""):
    """Raise a ``ConfigError`` naming the first key of ``obj`` outside ``keys``."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}: unknown key")


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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer past 4300 digits, deep nesting
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Running


# What settles every cost point of a game at once, by (mechanism, whether the
# game is additive): each takes the game and its points by rising cost and
# returns the runs of the one ceiling walk ``scaled.settle_points``, one per
# settle step: a kernel's step runs it once per distinct outcome, and
# ``trigger_points``' step settles the additive regret once per distinct
# (trigger slot, buyer count) outcome by bisection.
SETTLERS = {
    ("add_on", True): partial(settle_points, partial(kernel_step, serve)),
    ("subst_on", False): partial(settle_points, partial(kernel_step, grant)),
    ("regret", True): trigger_points,
    ("regret", False): partial(settle_points, partial(kernel_step, trigger)),
}


def run_mechanism(mechanism: str, game: ScaledGame, order=None) -> list[SettleRun]:
    """Run one mechanism on a scaled game at every one of its cost points;
    returns the runs of its settle steps (``scaled.SettleRun``), each with
    the first position in ``order`` it covers and the integers that give
    total utility and cloud balance at every point it covers from the
    point's unit.  ``order`` lists the points by rising cost; the sweep
    sorts them once, and they are sorted here if it is not given.
    ``scaled.point_rows`` expands the runs to one row per point.

    Every mechanism settles the cheapest point not yet settled and covers
    every dearer point within that settlement's ceilings without it
    (``scaled.settle_points``): ``add_on``, ``subst_on`` and the regret
    baseline on substitutable games run ``serve``, ``grant`` or ``trigger``,
    and on additive games the baseline finds the trigger slots and posted
    prices by bisection (``regret.trigger_points``).
    """
    settle = SETTLERS.get((mechanism, game.additive))
    if settle is None:
        kind = "additive" if game.additive else "substitutable"
        raise ConfigError(f"{mechanism} cannot run on {kind} games")
    if order is None:
        order = sorted(range(len(game.units)), key=game.units.__getitem__)
    return settle(game, order)


@dataclass
class CellStats:
    """Exact running aggregates for one (mechanism, cost) cell.

    Sums are integers over the common denominator ``den`` (sums of squares
    over ``den**2``).  ``den`` grows to the lcm of every denominator added or
    merged, which does not depend on arrival order, so neither do the sums.
    A sweep builds each cell once from its :class:`RunSums`; :meth:`add`
    adds one trial's row.  :meth:`columns` renders the cell from the sums;
    the ``Fraction`` properties are for callers that compare cells.
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

    def columns(self) -> tuple[str, str, str, str, str]:
        """The CSV columns: mean and sd of utility, of balance, and the
        implemented rate.  A mean is ``sum / (den * n)`` and an sd
        ``sqrt(n * sum2 - sum**2) / (den * n)``."""
        n, over = self.n, self.den * self.n
        return (
            render_ratio(self.sum_u, over),
            render_ratio_sqrt(n * self.sum_u2 - self.sum_u * self.sum_u, over * over),
            render_ratio(self.sum_b, over),
            render_ratio_sqrt(n * self.sum_b2 - self.sum_b * self.sum_b, over * over),
            render_ratio(self.implemented, n),
        )

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


class RunSums:
    """Exact moment sums of one mechanism's settle runs over the trials of a
    slice, from which every cell of the mechanism is built once.

    The cost points are taken by rising cost, as the runs' positions are.
    A run covering the positions from ``first`` up to the next run's start
    gives, at a point of unit ``u``, utility ``(a - s * u) / den`` and
    balance ``(p * u + f) / den``.  So a point's sums of utility, balance
    and their squares over all trials follow from its unit and 11 sums
    over the runs covering it: of ``a``, ``s``, ``a**2``, ``a * s``,
    ``s**2``, ``p``, ``f``, ``p**2``, ``p * f``, ``f**2`` and
    ``implemented``.  Those sums are kept on a difference array over the
    positions (``sums[c][k]`` holds sum ``c``'s change at position ``k``),
    so a run costs one update per sum, not one per point it covers.  Every
    value is over one denominator ``den``, squares over ``den**2``; ``den``
    grows to the lcm of every run's, as :meth:`CellStats._widen` grows a
    cell's, so the cells' values, and so their columns, do not depend on
    which trials a slice holds.
    """

    def __init__(self, positions: int):
        self.n = 0
        self.den = 1
        self.sums = [[0] * positions for _ in range(11)]
        self.factors: dict[int, int] = {}  # run den -> den // run den

    def add(self, runs):
        """Add one trial's runs, in position order, starting at position 0."""
        factors = self.factors
        for run in runs:  # widen first, so no value below is on an old den
            if run[5] not in factors:
                self._widen(run[5])
        A, S, AA, AS, SS, P, F, PP, PF, FF, I = self.sums
        self.n += 1
        # each sum's value over the positions of the previous run
        a0 = s0 = aa0 = as0 = ss0 = p0 = f0 = pp0 = pf0 = ff0 = i0 = 0
        for k, a, s, p, f, den, implemented in runs:
            m = factors[den]
            if m != 1:
                a, s, p, f = a * m, s * m, p * m, f * m
            A[k] += a - a0
            S[k] += s - s0
            x = a * a
            AA[k] += x - aa0
            aa0 = x
            x = a * s
            AS[k] += x - as0
            as0 = x
            x = s * s
            SS[k] += x - ss0
            ss0 = x
            P[k] += p - p0
            F[k] += f - f0
            x = p * p
            PP[k] += x - pp0
            pp0 = x
            x = p * f
            PF[k] += x - pf0
            pf0 = x
            x = f * f
            FF[k] += x - ff0
            ff0 = x
            I[k] += implemented - i0
            a0, s0, p0, f0, i0 = a, s, p, f, implemented

    def _widen(self, den: int):
        """Grow ``self.den`` to a multiple of ``den`` and record the factor
        that brings a value over ``den`` onto it."""
        if self.den % den:
            g = den // math.gcd(self.den, den)
            self.den *= g
            for c, sums in enumerate(self.sums[:10]):
                by = g * g if c in (2, 3, 4, 7, 8, 9) else g  # squares and products are over den**2
                sums[:] = [x * by for x in sums]
            for d in self.factors:
                self.factors[d] *= g
        self.factors[den] = self.den // den

    def cells(self, units) -> list[CellStats]:
        """The cell of each position, whose point's unit is ``units[k]``."""
        A, S, AA, AS, SS, P, F, PP, PF, FF, I = map(accumulate, self.sums)
        n, den = self.n, self.den
        return [
            CellStats(n, den, a - s * u, aa - 2 * u * as_ + u * u * ss, p * u + f, pp * u * u + 2 * u * pf + ff, i)
            for u, a, s, aa, as_, ss, p, f, pp, pf, ff, i in zip(units, A, S, AA, AS, SS, P, F, PP, PF, FF, I)
        ]


def _fold_trials(spec: ScenarioSpec, mechanisms, cost_points, factors: Factors, details: bool, trials):
    """Run ``trials`` and fold them into fresh cells; returns the cells and,
    if ``details``, the detail records per cost point in trial order.
    Each trial's game is drawn into integer rows once; cost point p costs
    the catalog at ``cost_points[p]`` as factor p, ``cost_points[p] /
    spec.cost``, since every family's catalog costs are proportional to
    ``spec.cost``, and each mechanism settles every point of it in one
    ``run_mechanism`` call, whose runs are added to the mechanism's
    :class:`RunSums`.  Each cell is built once, after the last trial."""
    order = sorted(range(len(factors.nums)), key=factors.nums.__getitem__)
    games = ScaledTrials(spec, factors)
    sums = {m: RunSums(len(order)) for m in mechanisms}
    records = [[] for _ in cost_points] if details else None
    for trial in trials:
        game = games.game(trial)
        for mechanism in mechanisms:
            runs = run_mechanism(mechanism, game, order)
            sums[mechanism].add(runs)
            if records is not None:
                for point, (utility, balance, den, implemented) in enumerate(point_rows(runs, game.units, order)):
                    record = {
                        "mechanism": mechanism,
                        "cost": render_exact(cost_points[point]),
                        "trial": trial,
                        "total_utility": render_exact(Fraction(utility, den)),
                        "cloud_balance": render_exact(Fraction(balance, den)),
                        "implemented": bool(implemented),
                    }
                    records[point].append(record)
    units = [games.units[p] for p in order]
    position = sorted(range(len(order)), key=order.__getitem__)  # each point's position in order
    cells = {}
    for mechanism in mechanisms:
        by_position = sums[mechanism].cells(units)
        for cost, k in zip(cost_points, position):
            cells[mechanism, cost] = by_position[k]
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


def _workers(workers) -> int:
    """``workers``, or ``default_workers()`` if it is None; anything but an
    integer >= 1 is a ``ConfigError``."""
    if workers is None:
        return default_workers()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers: expected an integer >= 1, got {workers!r}")
    return workers


class HelperTraceback(Exception):
    """The text of a traceback in a sweep helper; the parent raises the
    helper's exception from it."""


def _fold_slice(fold, trials, sender):
    """A helper process's body: fold one slice of trials and send back the
    cells and records, or the exception the fold raised, which carries its
    traceback as text (a traceback object does not pickle)."""
    try:
        result = fold(trials)
    except Exception as exc:
        import traceback  # imported here: only a failing helper needs it

        exc.helper_traceback = traceback.format_exc()
        result = exc
    sender.send(result)
    sender.close()


def _start_helper(fold, trials):
    """Start a helper process that folds ``trials``; returns it and the
    receiving end of its one-way pipe.  The parent's copy of the sending end
    is closed, so ``recv`` raises ``EOFError`` if the helper dies unsent."""
    import multiprocessing as mp  # imported here: most runs start no helper

    receiver, sender = mp.Pipe(duplex=False)
    helper = mp.Process(target=_fold_slice, args=(fold, trials, sender))
    helper.start()
    sender.close()
    return helper, receiver


def sweep(
    spec: ScenarioSpec,
    mechanisms,
    cost_points,
    workers: int | None = None,
    detail_sink=None,
) -> dict[tuple[str, Money], CellStats]:
    """Run trials x cost points x mechanisms; exact aggregation per cell.

    Trial-major: each trial's game is drawn into integer rows once and every
    mechanism's kernel runs on it at every cost point.  The spec's trials
    are split into ``min(workers, os.cpu_count(), spec.trials)`` contiguous
    slices.  One helper process is started for each slice after the first,
    and the parent folds the first slice itself while they run;
    then it receives each helper's partial cells (and detail records, if
    asked for) in slice order and merges them into its own.  With one slice
    no helper is started, so a serial sweep runs the same code.  Exact
    sums do not depend on how the trials are split.  Detail records are
    handed to ``detail_sink`` in (cost, trial, mechanism) order.  No helper
    outlives the call, whether it returns or raises, in a helper or in the
    parent.
    """
    trials = spec.trials
    workers = _workers(workers)
    mechanisms, cost_points = tuple(mechanisms), tuple(cost_points)
    factors = Factors([cost / spec.cost for cost in cost_points])
    fold = partial(_fold_trials, spec, mechanisms, cost_points, factors, detail_sink is not None)
    processes = min(workers, os.cpu_count() or 1, trials)
    bounds = [trials * k // processes for k in range(processes + 1)]
    first, *rest = (range(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    helpers = []
    try:
        for part in rest:
            helpers.append(_start_helper(fold, part))
        cells, details = fold(first)
        # Receive before join: a helper blocks on a full pipe until its
        # result is read.
        for part, (helper, receiver) in zip(rest, helpers):
            try:
                received = receiver.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(
                    f"sweep: the helper for trials {part.start}..{part.stop - 1} exited with "
                    f"code {helper.exitcode} before sending its cells"
                ) from None
            if isinstance(received, Exception):
                raise received from HelperTraceback(received.helper_traceback)
            part_cells, records = received
            for key, cell in part_cells.items():
                cells[key].merge(cell)
            for point, point_records in enumerate(records or ()):
                details[point].extend(point_records)
            helper.join()
    finally:
        for helper, receiver in helpers:
            if helper.is_alive():
                helper.terminate()
            helper.join()
            receiver.close()
    for records in details or ():
        for record in records:
            detail_sink(record)
    return cells


def cells_to_csv(mechanisms, cost_points, cells, trials: int) -> str:
    lines = [CSV_HEADER]
    for mechanism in mechanisms:
        for cost in cost_points:
            lines.append(",".join((mechanism, render_decimal(cost), str(trials), *cells[(mechanism, cost)].columns())))
    return "\n".join(lines) + "\n"


def atomic_write(path, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_experiment(config: ExperimentConfig, out_dir, workers: int | None = None) -> list[str]:
    """Execute a config; returns the written file paths (CSV first)."""
    workers = _workers(workers)
    os.makedirs(out_dir, exist_ok=True)
    details: list[dict] = []
    sink = details.append if config.details else None
    cells = sweep(
        config.scenario,
        config.mechanisms,
        config.cost_sweep,
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
