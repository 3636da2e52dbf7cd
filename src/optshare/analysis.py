"""Settlements, the mechanism registry and scoring; the efficiency oracle; the strategy lab.

Utilities are always computed against *true* values, even when the bids fed
to a mechanism were deviations; payments are whatever the mechanism charged.
The strategy lab searches bid/timing/set misreports on a finite grid and
identity splits, with the deliberately gameable pay-your-bid mechanism as a
positive control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .additive_online import OnlineTrace, add_on
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
from .shapley import add_off, shapley
from .substitutable import SubstOffResult, SubstOnlineTrace, subst_off, subst_on


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
    if isinstance(result, SubstOffResult):
        phases = result.phases
        payments = {u: p.share for p in phases for u in p.serviced}
        return Settlement({(p.opt, 1): p.serviced for p in phases}, payments, result.outcome.implemented)
    outcome, ledger = result
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


@dataclass(frozen=True)
class GridSpec:
    """Finite misreport grid: value levels span [0, 2x truth]."""

    levels: int = 21
    subset_catalog_limit: int = 3  # enumerate all substitute subsets up to this size

    def scales(self) -> list[Fraction]:
        return [Fraction(2 * k, self.levels - 1) for k in range(self.levels)]


@dataclass(frozen=True)
class DeviationReport:
    mechanism: str
    deviator: UserId
    truthful_utility: Money
    best_utility: Money
    best_deviation: str | None
    profitable: bool


def deviation_search(mechanism: str, game, deviator: UserId, grid: GridSpec = GridSpec()) -> DeviationReport:
    """Grid search for a profitable unilateral misreport.

    Offline mechanisms compare each grid bid against truth on the full game.
    Online mechanisms are evaluated in the worst-case continuation: for every
    placement slot, only bids already arrived by then are present and no
    future bids arrive.
    """
    if mechanism in ("add_off", "shapley", "naive_pay_bid"):
        return _search_additive_offline(mechanism, game, deviator, grid)
    run = _lab_runner(mechanism)
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]
    if isinstance(true_bid, OnlineBid):
        # Worst-case continuation for a bid placed at the deviator's arrival:
        # whoever has arrived by then is known, nobody else ever shows up.
        # (Placement cannot be earlier, and evaluating later placements
        # against later arrivals would hand the deviator knowledge of the
        # future, which the worst-case truthfulness notion denies her.)
        others = [b for b in others if b.start <= true_bid.start]
    ids = {deviator}

    def utility(bid) -> Money:
        settlement = settle(run(game, others if bid is None else others + [bid]))
        return realized(true_bid, ids, settlement) - settlement.payments.get(deviator, ZERO)

    truthful = utility(true_bid)
    best, best_note = truthful, None
    for bid, note in _misreports(game, true_bid, grid):
        u = utility(bid)
        if u > best:
            best, best_note = u, note
    return DeviationReport(mechanism, deviator, truthful, best, best_note, best > truthful)


def _lab_runner(mechanism: str):
    """Registry runner of a truthful mechanism (``shapley`` names
    ``add_off``), the strategy lab's subjects."""
    name = "add_off" if mechanism == "shapley" else mechanism
    if name not in TRUTHFUL_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return MECHANISMS[name][1]


def _search_additive_offline(mechanism, game: AdditiveOfflineGame, deviator, grid) -> DeviationReport:
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]

    # The per-optimization runs are independent, so the best joint misreport
    # is the best per-column misreport, searched column by column.
    truthful = ZERO
    best_total = ZERO
    notes = []
    for opt in game.catalog:
        v = true_bid.value_for(opt.id)
        truthful += _column_utility(mechanism, others, deviator, true_bid, opt, v)
        column_best = None
        for scale in grid.scales():
            u = _column_utility(mechanism, others, deviator, true_bid, opt, v * scale)
            if column_best is None or u > column_best[0]:
                column_best = (u, scale)
        best_total += column_best[0]
        if column_best[1] != 1:
            notes.append(f"opt {opt.id} x{column_best[1]}")
    best_deviation = ", ".join(notes) if notes else None
    return DeviationReport(
        mechanism, deviator, truthful, best_total, best_deviation, best_total > truthful
    )


def _column_utility(mechanism, others, deviator, true_bid, opt, declared) -> Money:
    column = {b.user: b.value_for(opt.id) for b in others if b.value_for(opt.id) > 0}
    if declared > 0:
        column[deviator] = declared
    if mechanism == "naive_pay_bid":
        if column and sum(column.values(), ZERO) >= opt.cost and deviator in column:
            return true_bid.value_for(opt.id) - declared
        return ZERO
    result = shapley(opt.cost, column)
    if deviator in result.serviced:
        return true_bid.value_for(opt.id) - result.share
    return ZERO


def _subset_options(catalog, true_set: frozenset[OptId], grid) -> list[frozenset[OptId]]:
    ids = sorted(o.id for o in catalog)
    if len(ids) <= grid.subset_catalog_limit:
        pool = ids
    else:
        pool = sorted(true_set)  # large catalogs: vary within the true set only
    subsets = []
    for r in range(1, len(pool) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(pool, r))
    return subsets


def _misreports(game, bid, grid: GridSpec):
    """Every grid misreport of a substitutable or online ``bid`` as (declared
    bid, note), window by window, then substitute set by set, then scale by
    scale.  An online bid may declare any window that opens at its arrival or
    later, with its true per-slot values scaled.  A declaration with no
    positive value withdraws a substitutable bid: offline that is tried once
    (as None), online not at all."""
    online = isinstance(bid, OnlineBid)
    windows = [(1, 1)]
    if online:
        z = game.horizon.z
        windows = [(s, e) for s in range(bid.start, z + 1) for e in range(s, z + 1)]
    subsets = [None] if isinstance(bid, AdditiveOnlineBid) else _subset_options(game.catalog, bid.substitutes, grid)
    scales = grid.scales()
    for s, e in windows:
        true_values = [bid.value_at(t) for t in range(s, e + 1)] if online else [bid.value]
        declared = [(f"x{scale}", tuple(v * scale for v in true_values)) for scale in scales]
        for subset in subsets:
            if subset is None:
                fields, note = {"user": bid.user, "opt": bid.opt}, ""
            else:
                fields, note = {"user": bid.user, "substitutes": subset}, f"set {sorted(subset)} "
            if online:
                fields.update(start=s, end=e)
                note += f"window [{s},{e}] "
            for tag, values in declared:
                if online:
                    fields["per_slot"] = values
                else:
                    fields["value"] = values[0]
                if subset is None or any(values):  # values are >= 0
                    yield type(bid)(**fields), note + tag
                elif not online and subset == bid.substitutes:
                    yield None, note + tag  # withdrawing is one deviation, not one per subset


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
