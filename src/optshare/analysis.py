"""Settlements, the mechanism registry and scoring; the efficiency oracle; the strategy lab.

Utilities are always computed against *true* values, even when the bids fed
to a mechanism were deviations; payments are whatever the mechanism charged.
The strategy lab searches bid/timing/set misreports on a finite grid, each
one on an integer kernel (fractions are built only for the report), and
identity splits through the registry, with the deliberately gameable
pay-your-bid mechanism as a positive control.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .additive_online import OnlineTrace, add_on, serve
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    EnumerationGuard,
    GameError,
    OnlineAdditiveGame,
    OnlineBid,
    OptId,
    Optimization,
    Outcome,
    PaymentLedger,
    Slot,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    UserId,
)
from .money import ZERO, Money
from .regret import RegretTrace, regret_run
from .scaled import ScaledGame, _fixed_point, common_scale
from .shapley import add_off
from .substitutable import SubstOffResult, SubstOnlineTrace, grant, subst_off, subst_on

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; the strategy lab runs the equal share on ``_fixed_point``.
from .shapley import shapley  # noqa: F401


@dataclass(frozen=True)
class Metrics:
    total_value: Money  # true value realized over serviced user-slots/grants
    total_cost: Money
    total_utility: Money  # total_value - total_cost
    cloud_balance: Money  # payments - costs
    per_user_utility: dict[UserId, Money]


# ---------------------------------------------------------------------------
# Pay-your-bid mechanism: the motivating broken design, kept as a positive
# control for the deviation search (underbidding must be caught as profitable).


def naive_pay_your_bid(
    catalog: Iterable[Optimization], bids: Iterable[AdditiveOfflineBid]
) -> tuple[Outcome, PaymentLedger]:
    game = AdditiveOfflineGame(tuple(catalog), tuple(bids))
    implemented, grants, entries = set(), set(), {}
    for opt in game.catalog:
        column = {b.user: b.value_for(opt.id) for b in game.bids if b.value_for(opt.id) > 0}
        if column and sum(column.values(), ZERO) >= opt.cost:
            implemented.add(opt.id)
            for user, bid in column.items():
                grants.add((user, opt.id))
                entries[(user, opt.id)] = bid
    return Outcome(frozenset(implemented), frozenset(grants)), PaymentLedger(entries)


# ---------------------------------------------------------------------------
# Settlements, the mechanism registry, and scoring


class Settlement(NamedTuple):
    """What one mechanism run settled, whatever its result type: the users
    served each optimization in each slot (offline results use slot 1, the
    paper's one-slot degeneration), each user's total payment, and the
    implemented optimizations."""

    served: Mapping[tuple[OptId, Slot], frozenset[UserId]]
    payments: Mapping[UserId, Money]  # users absent from the map pay 0
    implemented: frozenset[OptId]


def settle(result) -> Settlement:
    """The settlement of any mechanism's result: an offline ``(Outcome,
    PaymentLedger)`` pair, a :class:`SubstOffResult`, or an online trace
    (:class:`OnlineTrace`, :class:`SubstOnlineTrace`, :class:`RegretTrace`).
    Online traces lend their own dicts, which are read, never written."""
    if isinstance(result, OnlineTrace):
        served = result.schedule.served
        return Settlement(served, result.payments, frozenset([j for j, _ in served]))
    if isinstance(result, SubstOnlineTrace):
        return Settlement(result.schedule.served, result.payments, result.implemented)
    if isinstance(result, RegretTrace):
        return Settlement(result.serviced.served, result.payments, frozenset(result.implement_slot))
    outcome, ledger = (result.outcome, result.payments) if isinstance(result, SubstOffResult) else result
    served = {(j, 1): frozenset(u for u, o in outcome.grants if o == j) for j in outcome.implemented}
    return Settlement(served, {u: ledger.total_for(u) for u, _ in ledger.entries}, outcome.implemented)


def realized(bid, ids: AbstractSet[UserId], settlement: Settlement) -> Money:
    """True value ``bid`` realizes when served to any identity in ``ids``:
    in each slot of its window, additive bids realize their value per
    optimization, substitutable ones once for any served substitute."""
    served = settlement.served
    if isinstance(bid, OnlineBid):
        wanted = (bid.opt,) if isinstance(bid, AdditiveOnlineBid) else bid.substitutes
        value = ZERO
        for t, v in enumerate(bid.per_slot, bid.start):
            for j in wanted:
                if not ids.isdisjoint(served.get((j, t), ())):
                    value += v
                    break
        return value
    if isinstance(bid, AdditiveOfflineBid):
        return sum((v for j, v in bid.values.items() if not ids.isdisjoint(served.get((j, 1), ()))), ZERO)
    hit = any(not ids.isdisjoint(served.get((j, 1), ())) for j in bid.substitutes)
    return bid.value if hit else ZERO


# Every mechanism by name: (the game kinds it runs on, runner(game, bids)),
# where ``bids`` replace the game's own.
MECHANISMS = {
    "add_off": ((AdditiveOfflineGame,), lambda game, bids: add_off(game.catalog, bids)),
    "add_on": (
        (OnlineAdditiveGame,),
        lambda game, bids: add_on(OnlineAdditiveGame(game.optimization, game.horizon, tuple(bids))),
    ),
    "subst_off": ((SubstOfflineGame,), lambda game, bids: subst_off(game.catalog, bids)),
    "subst_on": ((SubstOnlineGame,), lambda game, bids: subst_on(game.catalog, game.horizon, bids)),
    "regret": (
        (OnlineAdditiveGame, AdditiveOnlineMultiGame, SubstOnlineGame),
        lambda game, bids: regret_run(game.catalog, game.horizon, bids),
    ),
}


# The mechanisms the paper proves truthful; the regret baseline is not one (it
# trusts bids to be true values).
TRUTHFUL_MECHANISMS = ("add_off", "add_on", "subst_off", "subst_on")


def score(game, result, truth: Mapping[UserId, object] | None = None) -> Metrics:
    """Score any mechanism's result on ``game``.

    Every bid realizes its true value from what the run served its user;
    ``truth`` replaces the game's bids user by user."""
    settlement = settle(result)
    bids = game.bids if truth is None else truth.values()
    per_user: dict[UserId, Money] = {}
    for bid in bids:
        per_user[bid.user] = per_user.get(bid.user, ZERO) + realized(bid, {bid.user}, settlement)
    unknown = set().union(*settlement.served.values()) - per_user.keys()
    if unknown:
        raise GameError(f"schedule references unknown users {sorted(unknown)}")
    total_value = sum(per_user.values(), ZERO)
    for user in per_user:
        per_user[user] -= settlement.payments.get(user, ZERO)
    total_cost = sum((o.cost for o in game.catalog if o.id in settlement.implemented), ZERO)
    paid = sum(settlement.payments.values(), ZERO)
    return Metrics(total_value, total_cost, total_value - total_cost, paid - total_cost, per_user)


# ---------------------------------------------------------------------------
# Brute-force efficient outcome (the benchmark the mechanisms trade away)


def efficient_outcome(catalog: Iterable[Optimization], bids) -> tuple[Outcome, Money]:
    """Exhaustively find the outcome maximizing declared value minus cost.

    Works on additive or substitutable offline bids.  Guarded to small
    instances (|users| x |optimizations| <= 20 grant pairs).
    """
    catalog = tuple(catalog)
    bids = tuple(bids)
    if len(catalog) * len(bids) > 20:
        raise EnumerationGuard("instance too large to enumerate")
    substitutable = bool(bids) and isinstance(bids[0], SubstitutableOfflineBid)
    best: tuple[Money, Outcome] | None = None
    for r in range(len(catalog) + 1):
        for chosen in itertools.combinations(catalog, r):
            implemented = frozenset(o.id for o in chosen)
            cost = sum((o.cost for o in chosen), ZERO)
            grants: set[tuple[UserId, OptId]] = set()
            value = ZERO
            for bid in bids:
                if substitutable:
                    usable = sorted(bid.substitutes & implemented)
                    if usable:
                        grants.add((bid.user, usable[0]))
                        value += bid.value
                else:
                    for j in implemented:
                        v = bid.value_for(j)
                        if v > 0:
                            grants.add((bid.user, j))
                            value += v
            utility = value - cost
            if best is None or utility > best[0]:
                best = (utility, Outcome(implemented, frozenset(grants)))
    assert best is not None
    return best[1], best[0]


# ---------------------------------------------------------------------------
# Deviation search (truthfulness on a grid)


# The finite misreport grid: 21 value scales k/10 spanning [0, 2x truth]
# (the lab reads scale k as the integer k over ten), and every substitute
# subset of catalogs up to SUBSET_CATALOG_LIMIT in size.
GRID_SCALES = tuple(Fraction(k, 10) for k in range(21))
SUBSET_CATALOG_LIMIT = 3


@dataclass(frozen=True)
class DeviationReport:
    mechanism: str
    deviator: UserId
    truthful_utility: Money
    best_utility: Money
    best_deviation: str | None
    profitable: bool


def deviation_search(mechanism: str, game, deviator: UserId) -> DeviationReport:
    """Grid search for a profitable unilateral misreport.

    Offline mechanisms compare each grid bid against truth on the full game.
    Online mechanisms are evaluated in the worst-case continuation: for every
    placement slot, only bids already arrived by then are present and no
    future bids arrive.  The kernel runs once per cell of grid scales that
    the deviator's offers cannot tell apart (see :class:`_Lab`).
    """
    if mechanism in ("add_off", "shapley", "naive_pay_bid"):
        return _search_additive_offline(mechanism, game, deviator)
    _lab_runner(mechanism)  # unknown and non-truthful mechanisms raise
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]
    window, own = (1, 1), getattr(true_bid, "substitutes", None)  # None: additive
    if isinstance(true_bid, OnlineBid):
        # Worst-case continuation for a bid placed at the deviator's arrival:
        # whoever has arrived by then is known, nobody else ever shows up.
        # (Placement cannot be earlier, and evaluating later placements
        # against later arrivals would hand the deviator knowledge of the
        # future, which the worst-case truthfulness notion denies her.)
        others = [b for b in others if b.start <= true_bid.start]
        window = (true_bid.start, true_bid.end)
    lab = _Lab(mechanism, game, others, true_bid)
    utility, scale = lab.utility, lab.scale
    truthful = best = utility(window, own, 10)
    best_at = None
    for misreport in _misreports(game, true_bid):
        u = utility(*misreport)
        if u[0] * best[1] > best[0] * u[1]:
            best, best_at = u, misreport
    best_note = None if best_at is None else _note(isinstance(true_bid, OnlineBid), *best_at)
    truthful_u, best_u = (Fraction(n, c * scale) for n, c in (truthful, best))
    return DeviationReport(mechanism, deviator, truthful_u, best_u, best_note, best_u > truthful_u)


def _lab_runner(mechanism: str):
    """Registry runner of a truthful mechanism (``shapley`` names
    ``add_off``), the strategy lab's subjects."""
    name = "add_off" if mechanism == "shapley" else mechanism
    if name not in TRUTHFUL_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return MECHANISMS[name][1]


class _Lab:
    """The deviator's strategy lab (``subst_off`` runs as the one-slot
    ``subst_on`` it degenerates to) and its scale: :meth:`utility` is her
    true utility, ``n / (c * scale)`` as ``(n, c)``, declaring ``subset``
    (None: her one optimization) over ``window`` at her true values times
    ``k/10``.  The truthful profile is checked and rescaled once, as a run
    of it would be; at ten times its scale each declaration is k times an
    integer row, merged into the others' per-slot offers, and the
    mechanism's kernel settles it (:meth:`run`).  Served ``j`` from slot
    ``t``, she realizes her true value from ``t`` to her declared end if
    ``j`` is a true substitute, and pays her entry's charge.

    The kernel runs once per :meth:`cell` of scales.  For ``k >= 1`` her
    offer in slot ``t`` is ``k * r_t`` (``r_t`` her true value from ``t`` to
    her declared end), and a kernel reads it only in the equal-share fixed
    point, as ``k * r_t * c >= cost_j`` for ``j`` she declares and a head
    count ``c`` of at most every bidder; the bids kept are exactly those
    that cover the final share, so her rank among equal offers does not
    matter.  The run, and her realized value, are therefore the same for
    every ``k`` between two breakpoints ``ceil(cost_j / (c * r_t))``;
    ``k = 0`` makes no offer and is a cell of its own."""

    def __init__(self, mechanism: str, game, others, true_bid):
        scaled = ScaledGame(replace(game, bids=(*others, true_bid)))
        self.kernel = serve if mechanism == "add_on" else grant
        self.n = n = len(others)
        self.own = scaled.interest[n]
        self.costs = {j: 10 * c for j, c in scaled.costs[0].items()}
        # the others' offers per slot, highest first, and their negations to bisect
        self.offers = [[(10 * v, i) for v, i in slot if i != n] for slot in scaled.offers]
        self.negated = [[-v for v, _ in slot] for slot in self.offers]
        # the deviator's true value through each slot, at a tenth of the scale
        start, suffix = scaled.starts[n], scaled.suffix[n]
        row = [v - w for v, w in zip(suffix, suffix[1:])]
        self.prefix = list(accumulate([0] * start + row + [0] * (scaled.z - scaled.ends[n])))
        # what a kernel reads of a ScaledGame; each run merges her row in
        self.merged = SimpleNamespace(z=scaled.z, offers=None, interest=list(scaled.interest), ends=list(scaled.ends))
        self.scale = 10 * scaled.scale
        self.breakpoints: dict = {}  # (window, subset) -> sorted breakpoints
        self.settled: dict = {}  # (window, subset, cell) -> utility

    def utility(self, window, subset, k) -> tuple[int, int]:
        """:meth:`run`, once per cell."""
        key = (window, subset, self.cell(window, subset, k))
        u = self.settled.get(key)
        if u is None:
            u = self.settled[key] = self.run(window, subset, k)
        return u

    def cell(self, window, subset, k) -> int:
        """The cell of scale ``k``: -1 for 0, else how many breakpoints of
        the declaration are at most ``k``."""
        if not k:
            return -1
        breaks = self.breakpoints.get((window, subset))
        if breaks is None:
            s, e = window
            rows = {self.prefix[e] - self.prefix[t - 1] for t in range(s, e + 1)} - {0}
            costs = [self.costs[j] for j in subset or self.own]
            breaks = sorted({-(-cost // (c * r)) for cost in costs for r in rows for c in range(1, self.n + 2)})
            self.breakpoints[window, subset] = breaks
        return bisect_right(breaks, k)

    def run(self, window, subset, k) -> tuple[int, int]:
        """Her utility at scale ``k``, from one run of the kernel."""
        s, e = window
        offers, prefix, n, lab = self.offers, self.prefix, self.n, self.merged
        lab.offers = merged = offers[:]
        for t in range(s, e + 1):
            v = k * (prefix[e] - prefix[t - 1])
            if v:
                p = bisect_right(self.negated[t], -v)  # after the equal offers
                merged[t] = [*offers[t][:p], (v, n), *offers[t][p:]]
        lab.interest[n], lab.ends[n] = subset or self.own, e
        entry = self.kernel(lab, self.costs)[0].get(n)
        if entry is None:
            return 0, 1
        j, t, _, num, den = entry
        return (10 * (prefix[e] - prefix[t - 1]) if j in self.own else 0) * den - num, den


def _search_additive_offline(mechanism, game: AdditiveOfflineGame, deviator) -> DeviationReport:
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]

    # The per-optimization runs are independent, so the best joint misreport is the best per-column
    # misreport, searched column by column in integers at ten times the column's common denominator.
    truthful = best_total = ZERO
    notes = []
    for opt in game.catalog:
        v = true_bid.value_for(opt.id)
        column = [w for w in (b.value_for(opt.id) for b in others) if w > 0]
        scale = 10 * common_scale([opt.cost, v, *column])
        cost, true_s, *rest = (x.numerator * (scale // x.denominator) for x in (opt.cost, v, *column))
        rest.sort(reverse=True)
        column_best = None
        for k in range(len(GRID_SCALES)):
            u = _column_utility(mechanism, cost, rest, true_s, k * true_s // 10)
            if k == 10:
                truthful += Fraction(u[0], u[1] * scale)
            if column_best is None or u[0] * column_best[1] > column_best[0] * u[1]:
                column_best, best_k = u, k
        best_total += Fraction(column_best[0], column_best[1] * scale)
        if best_k != 10:
            notes.append(f"opt {opt.id} x{GRID_SCALES[best_k]}")
    return DeviationReport(mechanism, deviator, truthful, best_total, ", ".join(notes) or None, best_total > truthful)


def _column_utility(mechanism, cost: int, rest: list[int], true_value: int, declared: int) -> tuple[int, int]:
    """The deviator's true utility, ``n / c`` at the column's scale as ``(n, c)``,
    declaring ``declared`` against the others' positive bids ``rest``, highest first."""
    if declared and mechanism == "naive_pay_bid":
        return (true_value - declared, 1) if sum(rest) + declared >= cost else (0, 1)
    p = sum(1 for w in rest if w >= declared)  # after the equal bids
    kept = _fixed_point(cost, [(w, 0) for w in (*rest[:p], declared, *rest[p:])], 0) if declared else 0
    return (true_value * kept - cost, kept) if p < kept else (0, 1)


def _subset_options(catalog, true_set: frozenset[OptId]) -> list[frozenset[OptId]]:
    pool = sorted(o.id for o in catalog)
    if len(pool) > SUBSET_CATALOG_LIMIT:
        pool = sorted(true_set)  # large catalogs: vary within the true set only
    return [frozenset(c) for r in range(1, len(pool) + 1) for c in itertools.combinations(pool, r)]


def _misreports(game, bid):
    """Every grid misreport of a substitutable or online ``bid`` as (window,
    substitute set, k), declaring its true values times
    ``GRID_SCALES[k]`` over the window: window by window, then substitute
    set by set, then scale by scale.  An online bid may declare any window
    that opens at its arrival or later (the set is None for an additive
    one); an offline one declares the window (1, 1).  A declaration with no
    positive value withdraws a substitutable bid: offline that is tried once
    (k = 0 with the true set), online not at all."""
    online = isinstance(bid, OnlineBid)
    windows = [(1, 1)]
    if online:
        windows = [(s, e) for s in range(bid.start, game.horizon.z + 1) for e in range(s, game.horizon.z + 1)]
    subsets = [None] if isinstance(bid, AdditiveOnlineBid) else _subset_options(game.catalog, bid.substitutes)
    for s, e in windows:
        positive = not online or any(bid.value_at(t) for t in range(s, e + 1))
        for subset in subsets:
            withdraws = not online and subset == bid.substitutes
            for k in range(len(GRID_SCALES)):
                if subset is None or (k and positive) or withdraws:
                    yield (s, e), subset, k


def _note(online: bool, window, subset, k: int) -> str:
    """How a report names the misreport (window, subset, k) of
    :func:`_misreports`."""
    note = "" if subset is None else f"set {sorted(subset)} "
    if online:
        note += f"window [{window[0]},{window[1]}] "
    return f"{note}x{GRID_SCALES[k]}"


# ---------------------------------------------------------------------------
# Multiple-identity probe


@dataclass(frozen=True)
class SplitOutcome:
    levels: tuple[Fraction, ...]
    splitter_utility: Money
    other_deltas: dict[UserId, Money]

    @property
    def harmed(self) -> tuple[UserId, ...]:
        return tuple(sorted(u for u, d in self.other_deltas.items() if d < 0))


@dataclass(frozen=True)
class ProbeReport:
    mechanism: str
    splitter: UserId
    identities: int
    baseline_utility: Money
    baseline_others: dict[UserId, Money]
    splits: tuple[SplitOutcome, ...]

    @property
    def beneficial_harmful(self) -> tuple[SplitOutcome, ...]:
        """Splits that raise the splitter's utility yet harm someone else;
        the additive mechanisms must never produce one."""
        return tuple(
            s for s in self.splits if s.splitter_utility > self.baseline_utility and s.harmed
        )


DEFAULT_SPLIT_LEVELS = tuple(Fraction(k, 4) for k in range(0, 9))  # 0, 1/4, ..., 2


def multi_identity_probe(
    mechanism: str,
    game,
    splitter: UserId,
    identities: int = 2,
    split_levels: Sequence[Fraction] = DEFAULT_SPLIT_LEVELS,
) -> ProbeReport:
    """Re-run a game with the splitter's bid divided among fresh identities.

    Each identity bids the true bid scaled by a grid level (level 0 = the
    identity stays out).  The splitter realizes her value once if any
    identity is serviced, and pays for all of them.  Other users' utilities
    are tracked so harm is observable; for the additive mechanisms a split
    that benefits the splitter must never harm anyone else, while the
    substitutable mechanisms are probed in demonstrate-only mode.
    """
    run = _lab_runner(mechanism)
    true_bid = {b.user: b for b in game.bids}[splitter]
    others = [b for b in game.bids if b.user != splitter]
    fresh = [max(b.user for b in game.bids) + 1 + k for k in range(identities)]

    def utilities(bids, ids):
        settlement = settle(run(game, others + bids))
        paid = settlement.payments
        mine = realized(true_bid, ids, settlement) - sum((paid.get(i, ZERO) for i in ids), ZERO)
        return mine, {b.user: realized(b, {b.user}, settlement) - paid.get(b.user, ZERO) for b in others}

    base_mine, base_others = utilities([true_bid], {splitter})
    splits = []
    for levels in itertools.product(split_levels, repeat=identities):
        split = [(i, lv) for i, lv in zip(fresh, levels) if lv > 0]
        mine, others_util = utilities([_scaled_bid(true_bid, i, lv) for i, lv in split], {i for i, _ in split})
        deltas = {u: others_util[u] - base_others[u] for u in base_others}
        splits.append(SplitOutcome(levels, mine, deltas))
    return ProbeReport(mechanism, splitter, identities, base_mine, base_others, tuple(splits))


def _scaled_bid(bid, user: UserId, level: Fraction):
    """``bid`` declared by identity ``user`` with every value times ``level``."""
    if isinstance(bid, AdditiveOfflineBid):
        return replace(bid, user=user, values={j: v * level for j, v in bid.values.items()})
    if isinstance(bid, SubstitutableOfflineBid):
        return replace(bid, user=user, value=bid.value * level)
    return replace(bid, user=user, per_slot=tuple(v * level for v in bid.per_slot))
