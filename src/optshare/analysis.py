"""Scoring, the brute-force efficiency oracle, and the strategy lab.

Utilities are always computed against *true* values, even when the bids fed
to a mechanism were deviations; payments are whatever the mechanism charged.
The strategy lab searches bid/timing/set misreports on a finite grid and
identity splits, with the deliberately gameable pay-your-bid mechanism as a
positive control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .additive_online import OnlineTrace, add_on
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    EnumerationGuard,
    GameError,
    OnlineAdditiveGame,
    OptId,
    Optimization,
    Outcome,
    PaymentLedger,
    Slot,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    UserId,
)
from .money import ZERO, Money
from .regret import RegretTrace
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
# Scoring


def _true_online_value(bid, serviced_slots: Iterable[Slot]) -> Money:
    return sum((bid.value_at(t) for t in serviced_slots), ZERO)


def score_additive_offline(
    game: AdditiveOfflineGame,
    outcome: Outcome,
    ledger: PaymentLedger,
    truth: Mapping[UserId, AdditiveOfflineBid] | None = None,
) -> Metrics:
    truth = truth if truth is not None else {b.user: b for b in game.bids}
    per_user: dict[UserId, Money] = {}
    total_value = ZERO
    for user, bid in truth.items():
        value = sum((bid.value_for(j) for u, j in outcome.grants if u == user), ZERO)
        total_value += value
        per_user[user] = value - ledger.total_for(user)
    _check_known_users(outcome.grants, truth)
    total_cost = sum((o.cost for o in game.catalog if o.id in outcome.implemented), ZERO)
    return Metrics(total_value, total_cost, total_value - total_cost, ledger.grand_total() - total_cost, per_user)


def score_additive_online(
    game: OnlineAdditiveGame,
    trace: OnlineTrace,
    truth: Mapping[UserId, AdditiveOnlineBid] | None = None,
) -> Metrics:
    truth = truth if truth is not None else {b.user: b for b in game.bids}
    opt = game.optimization.id
    serviced_users = set()
    slots_of: dict[UserId, list[Slot]] = {}
    for (j, t), users in trace.schedule.served.items():
        for u in users:
            serviced_users.add(u)
            if u in truth:
                slots_of.setdefault(u, []).append(t)
    if not serviced_users <= set(truth) | {b.user for b in game.bids}:
        raise GameError("schedule references unknown users")
    per_user: dict[UserId, Money] = {}
    total_value = ZERO
    for user, bid in truth.items():
        value = _true_online_value(bid, slots_of.get(user, ()))
        total_value += value
        per_user[user] = value - trace.payments.get(user, ZERO)
    implemented = trace.schedule.cumulative_at(opt, game.horizon.z)
    total_cost = game.optimization.cost if implemented else ZERO
    paid = sum(trace.payments.values(), ZERO)
    return Metrics(total_value, total_cost, total_value - total_cost, paid - total_cost, per_user)


def score_subst_offline(
    game: SubstOfflineGame,
    result: SubstOffResult,
    truth: Mapping[UserId, SubstitutableOfflineBid] | None = None,
) -> Metrics:
    truth = truth if truth is not None else {b.user: b for b in game.bids}
    _check_known_users(result.outcome.grants, truth)
    per_user: dict[UserId, Money] = {}
    total_value = ZERO
    for user, bid in truth.items():
        granted = result.outcome.grants_for(user)
        value = bid.value if granted & bid.substitutes else ZERO
        total_value += value
        per_user[user] = value - result.payments.total_for(user)
    total_cost = sum((o.cost for o in game.catalog if o.id in result.outcome.implemented), ZERO)
    return Metrics(
        total_value,
        total_cost,
        total_value - total_cost,
        result.payments.grand_total() - total_cost,
        per_user,
    )


def score_subst_online(
    game: SubstOnlineGame,
    trace: SubstOnlineTrace,
    truth: Mapping[UserId, SubstitutableOnlineBid] | None = None,
) -> Metrics:
    truth = truth if truth is not None else {b.user: b for b in game.bids}
    per_user: dict[UserId, Money] = {}
    total_value = ZERO
    slots_of: dict[UserId, list[tuple[OptId, Slot]]] = {}
    for (j, t), users in trace.schedule.served.items():
        unknown = users - truth.keys()
        if unknown:
            raise GameError(f"schedule references unknown users {sorted(unknown)}")
        for u in users:
            slots_of.setdefault(u, []).append((j, t))
    for user, bid in truth.items():
        value = sum(
            (bid.value_at(t) for j, t in slots_of.get(user, ()) if j in bid.substitutes), ZERO
        )
        total_value += value
        per_user[user] = value - trace.payments.get(user, ZERO)
    total_cost = sum((o.cost for o in game.catalog if o.id in trace.implemented), ZERO)
    paid = sum(trace.payments.values(), ZERO)
    return Metrics(total_value, total_cost, total_value - total_cost, paid - total_cost, per_user)


def score_regret(game, trace: RegretTrace, truth=None) -> Metrics:
    """Recompute metrics for a baseline run from its serviced schedule.

    Every bid is scored, so a user with additive bids on several
    optimizations realizes each of them; ``truth`` replaces the bids user by
    user."""
    bids = list(truth.values()) if truth is not None else list(game.bids)
    users = {b.user for b in bids}
    per_user: dict[UserId, Money] = {}
    total_value = ZERO
    slots_of: dict[UserId, set[tuple[OptId, Slot]]] = {}
    for (j, t), served in trace.serviced.served.items():
        for u in served:
            if u not in users:
                raise GameError("schedule references unknown users")
            slots_of.setdefault(u, set()).add((j, t))
    for bid in bids:
        pairs = slots_of.get(bid.user, ())
        wanted = (bid.opt,) if isinstance(bid, AdditiveOnlineBid) else bid.substitutes
        value = sum((bid.value_at(t) for j, t in pairs if j in wanted), ZERO)
        total_value += value
        per_user[bid.user] = per_user.get(bid.user, ZERO) + value
    for user in per_user:
        per_user[user] -= trace.payments.get(user, ZERO)
    return Metrics(
        total_value,
        trace.total_cost,
        total_value - trace.total_cost,
        trace.cloud_balance,
        per_user,
    )


def score(game, result, truth=None) -> Metrics:
    """Mechanism-agnostic scoring: dispatch on the game/result pair."""
    if isinstance(result, RegretTrace):
        return score_regret(game, result, truth)
    if isinstance(game, AdditiveOfflineGame):
        outcome, ledger = result
        return score_additive_offline(game, outcome, ledger, truth)
    if isinstance(game, OnlineAdditiveGame):
        return score_additive_online(game, result, truth)
    if isinstance(game, SubstOfflineGame):
        return score_subst_offline(game, result, truth)
    if isinstance(game, SubstOnlineGame):
        return score_subst_online(game, result, truth)
    raise TypeError(f"cannot score {type(game).__name__}")


def _check_known_users(grants, truth):
    unknown = {u for u, _ in grants} - set(truth)
    if unknown:
        raise GameError(f"schedule references unknown users {sorted(unknown)}")


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
    if mechanism == "subst_off":
        return _search_subst_offline(game, deviator, grid)
    if mechanism == "add_on":
        return _search_additive_online(game, deviator, grid)
    if mechanism == "subst_on":
        return _search_subst_online(game, deviator, grid)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _search_additive_offline(mechanism, game: AdditiveOfflineGame, deviator, grid) -> DeviationReport:
    truth = {b.user: b for b in game.bids}
    true_bid = truth[deviator]
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


def _search_subst_offline(game: SubstOfflineGame, deviator, grid) -> DeviationReport:
    truth = {b.user: b for b in game.bids}
    true_bid = truth[deviator]
    others = [b for b in game.bids if b.user != deviator]

    def utility(bid: SubstitutableOfflineBid | None) -> Money:
        bids = others + ([bid] if bid is not None else [])
        result = subst_off(game.catalog, bids)
        granted = result.outcome.grants_for(deviator)
        value = true_bid.value if granted & true_bid.substitutes else ZERO
        return value - result.payments.total_for(deviator)

    truthful = utility(true_bid)
    best, best_note = truthful, None
    for subset in _subset_options(game.catalog, true_bid.substitutes, grid):
        for scale in grid.scales():
            declared = true_bid.value * scale
            bid = (
                SubstitutableOfflineBid(deviator, subset, declared) if declared > 0 else None
            )
            if bid is None and subset != true_bid.substitutes:
                continue  # withdrawing is one deviation, not one per subset
            u = utility(bid)
            if u > best:
                best, best_note = u, f"set {sorted(subset)} x{scale}"
    return DeviationReport("subst_off", deviator, truthful, best, best_note, best > truthful)


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


def _window_options(z: Slot, earliest: Slot) -> list[tuple[Slot, Slot]]:
    return [(s, e) for s in range(earliest, z + 1) for e in range(s, z + 1)]


def _shifted_values(bid, s: Slot, e: Slot, scale: Fraction) -> tuple[Money, ...]:
    return tuple(bid.value_at(t) * scale for t in range(s, e + 1))


def _search_additive_online(game: OnlineAdditiveGame, deviator, grid) -> DeviationReport:
    truth = {b.user: b for b in game.bids}
    true_bid = truth[deviator]
    z = game.horizon.z
    # Worst-case continuation for a bid placed at the deviator's arrival:
    # whoever has arrived by then is known, nobody else ever shows up.
    # (Placement cannot be earlier, and evaluating later placements against
    # later arrivals would hand the deviator knowledge of the future, which
    # the worst-case truthfulness notion denies her.)
    prefix = [b for b in game.bids if b.user != deviator and b.start <= true_bid.start]

    def utility(bids: list[AdditiveOnlineBid]) -> Money:
        trace = add_on(OnlineAdditiveGame(game.optimization, game.horizon, tuple(bids)))
        opt = game.optimization.id
        value = sum(
            (
                true_bid.value_at(t)
                for t in game.horizon.slots()
                if deviator in trace.schedule.serviced_at(opt, t)
            ),
            ZERO,
        )
        return value - trace.payments.get(deviator, ZERO)

    truthful = utility(prefix + [true_bid])
    best, best_note = truthful, None
    for s, e in _window_options(z, true_bid.start):
        for scale in grid.scales():
            dev = AdditiveOnlineBid(
                deviator, true_bid.opt, s, e, _shifted_values(true_bid, s, e, scale)
            )
            u = utility(prefix + [dev])
            if u > best:
                best, best_note = u, f"window [{s},{e}] x{scale}"
    return DeviationReport("add_on", deviator, truthful, best, best_note, best > truthful)


def _search_subst_online(game: SubstOnlineGame, deviator, grid) -> DeviationReport:
    truth = {b.user: b for b in game.bids}
    true_bid = truth[deviator]
    z = game.horizon.z
    prefix = [b for b in game.bids if b.user != deviator and b.start <= true_bid.start]

    def utility(bids: list[SubstitutableOnlineBid]) -> Money:
        trace = subst_on(game.catalog, game.horizon, bids)
        value = sum(
            (
                true_bid.value_at(t)
                for (j, t), users in trace.schedule.served.items()
                if deviator in users and j in true_bid.substitutes
            ),
            ZERO,
        )
        return value - trace.payments.get(deviator, ZERO)

    truthful = utility(prefix + [true_bid])
    best, best_note = truthful, None
    subsets = _subset_options(game.catalog, true_bid.substitutes, grid)
    for s, e in _window_options(z, true_bid.start):
        for subset in subsets:
            for scale in grid.scales():
                values = _shifted_values(true_bid, s, e, scale)
                if not any(v > 0 for v in values):
                    continue
                dev = SubstitutableOnlineBid(deviator, subset, s, e, values)
                u = utility(prefix + [dev])
                if u > best:
                    best, best_note = u, f"set {sorted(subset)} window [{s},{e}] x{scale}"
    return DeviationReport("subst_on", deviator, truthful, best, best_note, best > truthful)


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

    @property
    def any_harm(self) -> tuple[SplitOutcome, ...]:
        return tuple(s for s in self.splits if s.harmed)

    @property
    def best_split(self) -> SplitOutcome:
        return max(self.splits, key=lambda s: s.splitter_utility)


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
    runner = _PROBE_RUNNERS.get(mechanism)
    if runner is None:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    base_mine, base_others = runner(game, splitter, None)
    splits = []
    for levels in itertools.product(split_levels, repeat=identities):
        mine, others = runner(game, splitter, levels)
        deltas = {u: others[u] - base_others[u] for u in base_others}
        splits.append(SplitOutcome(levels, mine, deltas))
    return ProbeReport(mechanism, splitter, identities, base_mine, base_others, tuple(splits))


def _identity_ids(game, splitter, n) -> list[UserId]:
    top = max(b.user for b in game.bids)
    return [top + 1 + k for k in range(n)]


def _probe_add_off(game: AdditiveOfflineGame, splitter, levels):
    truth = {b.user: b for b in game.bids}
    true_bid = truth[splitter]
    others = [b for b in game.bids if b.user != splitter]
    if levels is None:
        bids, ids = others + [true_bid], [splitter]
    else:
        ids = _identity_ids(game, splitter, len(levels))
        bids = others + [
            AdditiveOfflineBid(i, {j: v * lv for j, v in true_bid.values.items()})
            for i, lv in zip(ids, levels)
            if lv > 0
        ]
        ids = [i for i, lv in zip(ids, levels) if lv > 0]
    outcome, ledger = add_off(game.catalog, bids)
    granted = {j for u, j in outcome.grants if u in ids}
    mine = sum((true_bid.value_for(j) for j in granted), ZERO) - sum(
        (ledger.total_for(i) for i in ids), ZERO
    )
    others_util = {}
    for b in others:
        value = sum((b.value_for(j) for u, j in outcome.grants if u == b.user), ZERO)
        others_util[b.user] = value - ledger.total_for(b.user)
    return mine, others_util


def _probe_add_on(game: OnlineAdditiveGame, splitter, levels):
    truth = {b.user: b for b in game.bids}
    true_bid = truth[splitter]
    others = [b for b in game.bids if b.user != splitter]
    if levels is None:
        bids, ids = others + [true_bid], [splitter]
    else:
        ids = _identity_ids(game, splitter, len(levels))
        bids = others + [
            AdditiveOnlineBid(
                i, true_bid.opt, true_bid.start, true_bid.end, tuple(v * lv for v in true_bid.per_slot)
            )
            for i, lv in zip(ids, levels)
            if lv > 0
        ]
        ids = [i for i, lv in zip(ids, levels) if lv > 0]
    trace = add_on(OnlineAdditiveGame(game.optimization, game.horizon, tuple(bids)))
    opt = game.optimization.id
    mine = sum(
        (
            true_bid.value_at(t)
            for t in game.horizon.slots()
            if trace.schedule.serviced_at(opt, t) & set(ids)
        ),
        ZERO,
    ) - sum((trace.payments.get(i, ZERO) for i in ids), ZERO)
    others_util = {}
    for b in others:
        value = sum(
            (b.value_at(t) for t in game.horizon.slots() if b.user in trace.schedule.serviced_at(opt, t)),
            ZERO,
        )
        others_util[b.user] = value - trace.payments.get(b.user, ZERO)
    return mine, others_util


def _probe_subst_off(game: SubstOfflineGame, splitter, levels):
    truth = {b.user: b for b in game.bids}
    true_bid = truth[splitter]
    others = [b for b in game.bids if b.user != splitter]
    if levels is None:
        bids, ids = others + [true_bid], [splitter]
    else:
        ids = _identity_ids(game, splitter, len(levels))
        bids = others + [
            SubstitutableOfflineBid(i, true_bid.substitutes, true_bid.value * lv)
            for i, lv in zip(ids, levels)
            if lv > 0
        ]
        ids = [i for i, lv in zip(ids, levels) if lv > 0]
    result = subst_off(game.catalog, bids)
    granted = {j for u, j in result.outcome.grants if u in ids}
    mine = (true_bid.value if granted & true_bid.substitutes else ZERO) - sum(
        (result.payments.total_for(i) for i in ids), ZERO
    )
    others_util = {}
    for b in others:
        got = result.outcome.grants_for(b.user)
        value = b.value if got & b.substitutes else ZERO
        others_util[b.user] = value - result.payments.total_for(b.user)
    return mine, others_util


def _probe_subst_on(game: SubstOnlineGame, splitter, levels):
    truth = {b.user: b for b in game.bids}
    true_bid = truth[splitter]
    others = [b for b in game.bids if b.user != splitter]
    if levels is None:
        bids, ids = others + [true_bid], [splitter]
    else:
        ids = _identity_ids(game, splitter, len(levels))
        bids = others + [
            SubstitutableOnlineBid(
                i,
                true_bid.substitutes,
                true_bid.start,
                true_bid.end,
                tuple(v * lv for v in true_bid.per_slot),
            )
            for i, lv in zip(ids, levels)
            if lv > 0
        ]
        ids = [i for i, lv in zip(ids, levels) if lv > 0]
    trace = subst_on(game.catalog, game.horizon, bids)
    mine_value = ZERO
    for t in game.horizon.slots():
        for j in true_bid.substitutes:
            if trace.schedule.serviced_at(j, t) & set(ids):
                mine_value += true_bid.value_at(t)
                break
    mine = mine_value - sum((trace.payments.get(i, ZERO) for i in ids), ZERO)
    others_util = {}
    for b in others:
        value = ZERO
        for t in game.horizon.slots():
            for j in b.substitutes:
                if b.user in trace.schedule.serviced_at(j, t):
                    value += b.value_at(t)
                    break
        others_util[b.user] = value - trace.payments.get(b.user, ZERO)
    return mine, others_util


_PROBE_RUNNERS = {
    "add_off": _probe_add_off,
    "shapley": _probe_add_off,
    "add_on": _probe_add_on,
    "subst_off": _probe_subst_off,
    "subst_on": _probe_subst_on,
}
