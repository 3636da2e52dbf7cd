"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's internals: serviced sets come from
all-subsets enumeration, online traces from a literal slot-by-slot replay,
and posted prices from exhaustive candidate evaluation plus a fine grid.
The reference scorer (``reference_score``) reads a result's public fields
through ``settle``, which dispatches on the four result shapes, and walks
each bid slot by slot in ``Fraction``s (``realized``): the path that the
kernel settlement's integer fold replaces.  The reference deviation search
and identity-split probe run every misreport or split as bids through the
public mechanisms of the registry and score them the same way, the path
the integer strategy lab replaces; the deviation search settles each
additive offline column by subset enumeration.  The reference online
kernels keep the slot loops the integer kernels shortcut: every
pinned bid in every phase loop of ``grant``, and every open optimization
checked and logged in every slot of ``trigger``.  ``each_point`` settles a
sweep's cost points with one kernel run per point and builds each point's
cell row from its totals, the path the harness's ceiling walk
(``scaled.settle_points``) replaces.  The scenario oracles
draw every number with its own scalar numpy call, either as a trial's
integer draws (``reference_draw``, the path ``scenarios.draw`` reads in
Python from the same PCG64 stream) or as a game in ``Fraction``s
(``reference_generate``), and re-cost a generated game by rebuilding its
catalog (``recost``).  The renderers' oracles round in
``Fraction`` arithmetic.  The suite draw oracles build every drawn value
and cost as a fresh ``Fraction`` and sum them in ``Fraction`` arithmetic.
The lowering oracles build a ``ScaledGame`` of every game kind from one
bid list assembled slot by slot (``reference_scaled_game``), and run
``shapley`` through the game types it was once built from
(``reference_shapley``), the paths the one-pass lowering replaces.

Helpers that only tests read live here too: the pay-your-bid control
mechanism (``naive_pay_your_bid``, whose result ``score`` folds like any
other), readers of the library's types and money text that no command
uses, and the shipped trend configs (``trend_config``) and example game
files (``EXAMPLE_GAMES``).
"""

import itertools
import math
import pathlib
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from optshare.additive_online import OnlineTrace, serve
from optshare.analysis import (
    DEFAULT_SPLIT_LEVELS,
    GRID_SCALES,
    MECHANISMS,
    TRUTHFUL_MECHANISMS,
    DeviationReport,
    Metrics,
    ProbeReport,
    SplitOutcome,
    _subset_options,
)
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    CatalogMismatch,
    GameError,
    OnlineBid,
    Optimization,
    SlotHorizon,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    SubstOfflineGame,
    SubstOnlineGame,
)
from optshare.harness import load_config
from optshare.money import is_infinite, render_ratio_sqrt
from optshare.regret import RegretTrace, _posted_price, _price_curve, _riders
from optshare.scaled import ONE, Factors, ScaledGame, cost_rows, outcome_and_ledger, totals
from optshare.shapley import ShapleyResult
from optshare.substitutable import SubstOffResult, SubstOnlineTrace
from optshare.scenarios import (
    GRID,
    USECASE_HEADLINE_CENTS,
    USECASE_OTHER_CENTS,
    USECASE_STRIDES,
    Draws,
)
from optshare.scaled import _fixed_point
from optshare.verification import example_files, examples_dir

ZERO = Fraction(0)


def maximal_feasible_set(cost, bids):
    """Largest set of bidders that can all cover an equal split of the cost.

    Feasible sets are closed under union, so the maximum-size feasible set is
    unique; enumeration is fine for <= ~12 bidders.
    """
    best = frozenset()
    users = list(bids)
    for r in range(1, len(users) + 1):
        for combo in itertools.combinations(users, r):
            share = cost / len(combo)
            if all(bids[u] >= share for u in combo):
                if len(combo) > len(best):
                    best = frozenset(combo)
    return best


def equal_share_payments(cost, bids):
    serviced = maximal_feasible_set(cost, bids)
    share = cost / len(serviced) if serviced else None
    return serviced, share, {u: (share if u in serviced else ZERO) for u in bids}


def replay_online_additive(cost, z, bids):
    """Literal slot-by-slot replay of the online additive rules.

    bids: list of (user, start, end, per-slot tuple).  Members of the
    cumulative set are pinned with a finite stand-in bid larger than any
    amount in the game, which acts as infinity here.
    """
    top = (sum((sum(vs, ZERO) for _, _, _, vs in bids), ZERO) + cost + 1) * 2
    cs = set()
    payments = {u: ZERO for u, *_ in bids}
    serviced_by_slot = {}
    for t in range(1, z + 1):
        column = {}
        for user, start, end, values in bids:
            if user in cs:
                column[user] = top
            elif start <= t:
                residual = sum((values[i] for i in range(max(t, start) - start, end - start + 1)), ZERO) if t <= end else ZERO
                column[user] = residual
        cs = set(maximal_feasible_set(cost, column))
        share = cost / len(cs) if cs else None
        serviced_by_slot[t] = {u for u, s, e, _ in bids if u in cs and t <= e}
        for user, start, end, values in bids:
            if end == t:
                payments[user] = share if user in cs else ZERO
    return cs, payments, serviced_by_slot


def posted_price_search(cost, residuals, grid_steps=500):
    """Exhaustive candidate evaluation (0, residuals, cost/k, fine grid)."""
    residuals = [r for r in residuals if r > 0]
    candidates = {ZERO}
    candidates.update(residuals)
    candidates.update(cost / k for k in range(1, len(residuals) + 1))
    if residuals:
        top = max(residuals)
        candidates.update(top * Fraction(i, grid_steps) for i in range(1, grid_steps + 1))
    best_price = best_loss = None
    for price in sorted(candidates):
        buyers = sum(1 for r in residuals if r >= price)
        loss = max(cost - price * buyers, ZERO)
        if best_loss is None or loss < best_loss:
            best_price, best_loss = price, loss
    return best_price, best_loss


def efficient_enumeration_additive(costs, values):
    """Best achievable declared-value-minus-cost over all implement subsets.

    costs: {opt: cost}; values: {user: {opt: value}}.
    """
    best = ZERO
    opts = list(costs)
    for r in range(len(opts) + 1):
        for chosen in itertools.combinations(opts, r):
            total = -sum((costs[j] for j in chosen), ZERO)
            for user_values in values.values():
                total += sum((user_values.get(j, ZERO) for j in chosen), ZERO)
            best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# Scoring and the identity-split probe on the registry path


class Settlement(NamedTuple):
    """What one mechanism run settled, whatever its result type: the users
    served each optimization in each slot (offline results use slot 1, the
    paper's one-slot degeneration), each user's total payment, and the
    implemented optimizations."""

    served: dict
    payments: dict  # users absent from the map pay 0
    implemented: frozenset


def settle(result) -> Settlement:
    """The settlement of any mechanism's result, read from its public
    fields: an offline ``(Outcome, PaymentLedger)`` pair, a
    :class:`SubstOffResult`, or an online trace."""
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


def realized(bid, ids, settlement):
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


def reference_score(game, result, truth=None):
    """``analysis.score`` through ``settle`` and ``realized``."""
    settlement = settle(result)
    bids = game.bids if truth is None else truth.values()
    per_user = {}
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


def reference_multi_identity_probe(mechanism, game, splitter, identities=2, split_levels=DEFAULT_SPLIT_LEVELS):
    """``analysis.multi_identity_probe`` on the registry path: per split, a
    bid per identity, a run, a settlement and realized sums."""
    name = "add_off" if mechanism == "shapley" else mechanism
    if name not in TRUTHFUL_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    run = MECHANISMS[name][1]
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


def _scaled_bid(bid, user, level):
    """``bid`` declared by identity ``user`` with every value times ``level``."""
    if isinstance(bid, AdditiveOfflineBid):
        return replace(bid, user=user, values={j: v * level for j, v in bid.values.items()})
    if isinstance(bid, SubstitutableOfflineBid):
        return replace(bid, user=user, value=bid.value * level)
    return replace(bid, user=user, per_slot=tuple(v * level for v in bid.per_slot))


def naive_pay_your_bid(catalog, bids):
    """The pay-your-bid mechanism, the motivating broken design, kept as a
    positive control for the deviation search (underbidding must be caught
    as profitable): an optimization is implemented iff its positive bids
    cover its cost, and each of them pays its bid.  Built as a one-slot
    settlement (each served bid charged its own scaled value), so ``score``
    folds it like any mechanism's result."""
    game = ScaledGame(AdditiveOfflineGame(tuple(catalog), tuple(bids)))
    entries, implemented = {}, []
    for j, cost in game.costs[0].items():
        column = game.by_opt[j]
        if column and sum(game.suffix[i][0] for i in column) >= cost:
            implemented.append(j)
            for i in column:
                entries[i] = (j, 1, 1, game.suffix[i][0], 1)
    return outcome_and_ledger(game, (entries, implemented, None))


# ---------------------------------------------------------------------------
# Readers that only tests use


def value_of_outcome(bid, outcome):
    """Total declared value one user derives from her grants (additive)."""
    return sum((bid.value_for(opt) for user, opt in outcome.grants if user == bid.user), ZERO)


def cost_of_outcome(catalog, outcome):
    """Summed cost of the implemented optimizations."""
    costs = {o.id: o.cost for o in catalog}
    missing = outcome.implemented - costs.keys()
    if missing:
        raise CatalogMismatch(f"outcome implements unknown optimizations {sorted(missing)}")
    return sum((costs[j] for j in outcome.implemented), ZERO)


def residual_from(bid, t):
    """Declared value of an online bid remaining from slot t on (0 once the
    window is past)."""
    return sum(bid.per_slot[max(t - bid.start, 0) :], ZERO) if t <= bid.end else ZERO


def grand_total(ledger):
    """Every payment of a ledger."""
    return sum(ledger.entries.values(), ZERO)


def schedule_opts(schedule):
    """The optimizations a schedule serves in some slot."""
    return frozenset(o for o, _ in schedule.served)


def per_opt_games(game):
    """An additive online game as one single-optimization game per
    optimization of its catalog, each with the bids on it."""
    return [AdditiveOnlineGame((opt,), game.horizon, tuple(b for b in game.bids if b.opt == opt.id)) for opt in game.catalog]


def parse_exact(text):
    """The inverse of ``money.render_exact``."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def render_decimal_sqrt(value, digits=9):
    """``money.render_ratio_sqrt`` of a Fraction."""
    return render_ratio_sqrt(value.numerator, value.denominator, digits)


def reference_deviation_search(mechanism, game, deviator):
    """``analysis.deviation_search`` on the registry path: a bid, a game, a
    run, a settlement and a realized sum per misreport."""
    if mechanism in ("add_off", "shapley", "naive_pay_bid"):
        return _reference_additive_offline(mechanism, game, deviator)
    if mechanism not in TRUTHFUL_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    run = MECHANISMS[mechanism][1]
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]
    if isinstance(true_bid, OnlineBid):
        others = [b for b in others if b.start <= true_bid.start]

    def utility(bid):
        settlement = settle(run(game, others if bid is None else others + [bid]))
        return realized(true_bid, {deviator}, settlement) - settlement.payments.get(deviator, ZERO)

    truthful = utility(true_bid)
    best, best_note = truthful, None
    for bid, note in reference_misreports(game, true_bid):
        u = utility(bid)
        if u > best:
            best, best_note = u, note
    return DeviationReport(mechanism, deviator, truthful, best, best_note, best > truthful)


def _reference_additive_offline(mechanism, game, deviator):
    true_bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]
    truthful = best_total = ZERO
    notes = []
    for opt in game.catalog:
        v = true_bid.value_for(opt.id)
        truthful += _reference_column(mechanism, others, deviator, v, opt, v)
        column_best = None
        for scale in GRID_SCALES:
            u = _reference_column(mechanism, others, deviator, v, opt, v * scale)
            if column_best is None or u > column_best[0]:
                column_best = (u, scale)
        best_total += column_best[0]
        if column_best[1] != 1:
            notes.append(f"opt {opt.id} x{column_best[1]}")
    best_deviation = ", ".join(notes) if notes else None
    return DeviationReport(mechanism, deviator, truthful, best_total, best_deviation, best_total > truthful)


def _reference_column(mechanism, others, deviator, true_value, opt, declared):
    column = {b.user: b.value_for(opt.id) for b in others if b.value_for(opt.id) > 0}
    if declared > 0:
        column[deviator] = declared
    if mechanism == "naive_pay_bid":
        if column and sum(column.values(), ZERO) >= opt.cost and deviator in column:
            return true_value - declared
        return ZERO
    serviced, share, _ = equal_share_payments(opt.cost, column)
    return true_value - share if deviator in serviced else ZERO


def reference_misreports(game, bid):
    """Every grid misreport of a substitutable or online ``bid`` as (declared
    bid or None for a withdrawal, note), in the lab's order."""
    online = isinstance(bid, OnlineBid)
    windows = [(1, 1)]
    if online:
        z = game.horizon.z
        windows = [(s, e) for s in range(bid.start, z + 1) for e in range(s, z + 1)]
    subsets = [None] if isinstance(bid, AdditiveOnlineBid) else _subset_options(game.catalog, bid.substitutes)
    for s, e in windows:
        true_values = [bid.value_at(t) for t in range(s, e + 1)] if online else [bid.value]
        declared = [(f"x{scale}", tuple(v * scale for v in true_values)) for scale in GRID_SCALES]
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
                if subset is None or any(values):
                    yield type(bid)(**fields), note + tag
                elif not online and subset == bid.substitutes:
                    yield None, note + tag


def _reference_phases(costs, offers, interest, pinned):
    """The phase loop over a pinned-bid map: ``pinned`` maps each pinned
    bidder to its optimization, and every phase lists all it serves, pins
    included, as (opt, serviced, ties)."""
    unserved = {key for _, key in offers} | set(pinned)
    pins_by_opt, bidders_by_opt = {}, {}
    for key, opt in pinned.items():
        pins_by_opt.setdefault(opt, []).append(key)
    for offer in offers:
        for j in interest[offer[1]]:
            bidders_by_opt.setdefault(j, []).append(offer)
    remaining = sorted(pins_by_opt.keys() | bidders_by_opt.keys())
    phases = []
    while remaining and unserved:
        best, candidates = None, {}
        for j in remaining:
            pins = [u for u in pins_by_opt.get(j, ()) if u in unserved]
            finite = [o for o in bidders_by_opt.get(j, ()) if o[1] in unserved]
            kept = _fixed_point(costs[j], finite, len(pins))
            count = len(pins) + kept
            if count == 0:
                continue
            candidates[j] = (pins, finite, kept, count)
            if best is None or costs[j] * best[1] < best[0] * count:
                best = (costs[j], count, j)
        if best is None:
            break
        best_cost, best_count, best_opt = best
        ties = tuple(j for j, c in candidates.items() if j != best_opt and costs[j] * best_count == best_cost * c[3])
        pins, finite, kept, _ = candidates[best_opt]
        serviced = pins + [key for _, key in finite[:kept]]
        phases.append((best_opt, serviced, ties))
        unserved.difference_update(serviced)
        remaining.remove(best_opt)
    return phases


def reference_grant(game, costs):
    """``substitutable.grant`` as a literal slot loop: each slot with a new
    offer plays every optimization, with every bid granted before it pinned
    in the map.  Returns the settlement with each slot's phases as its log
    (empty in a slot without a new offer)."""
    granted, joined, tally, tallies, slot_phases = {}, {}, {}, [{}], [[]]
    for t in range(1, game.z + 1):
        offers = [o for o in game.offers[t] if o[1] not in granted]
        phases = _reference_phases(costs, offers, game.interest, granted) if offers else []
        for opt, serviced, _ in phases:
            for i in serviced:
                if i not in granted:
                    granted[i], joined[i] = opt, t
                    tally[opt] = tally.get(opt, 0) + 1
        tallies.append(tally.copy())
        slot_phases.append(phases)
    entries = {}
    for i, t in joined.items():
        j, end = granted[i], game.ends[i]
        entries[i] = (j, t, end, costs[j], tallies[end][j])
    return entries, tally, slot_phases


def reference_trigger(game, costs):
    """``regret.trigger`` as a dense slot loop on any scaled game: in every
    slot, log every open optimization's regret and check each for its
    trigger, in ascending id.  Bids add their value in a slot to each open
    optimization they name until they are served.  Returns the settlement's
    entries and trigger slots, and the trace's ``(price, loss, series)``:
    each implemented optimization's posted price as a (numerator,
    denominator) pair and its loss, and every (optimization, slot)'s regret
    through the trigger, all on the game's scale."""
    opt_ids = sorted(costs)
    regret = dict.fromkeys(opt_ids, 0)
    entries, implement_slot, price, loss, series = {}, {}, {}, {}, {}
    for t in range(1, game.z + 1):
        for j in opt_ids:
            if j not in implement_slot:
                series[(j, t)] = regret[j]
        for j in opt_ids:
            if j not in implement_slot and regret[j] >= costs[j]:
                implement_slot[j] = t
                riders, future, _, descending = _riders(game, j, t, entries)
                num, den, loss[j], _ = _posted_price(costs[j], _price_curve(descending))
                price[j] = (num, den)
                for i in riders:
                    entries[i] = (j, t, t, 0, 1)
                for i, r, first in future:
                    if r * den >= num:
                        entries[i] = (j, first, game.ends[i], num, den)
        for i, v in game.values[t]:
            if i not in entries:
                for j in game.interest[i]:
                    if j not in implement_slot:
                        regret[j] += v
    return entries, implement_slot, (price, loss, series)


def each_point(kernel, game):
    """The cell row ``(utility, balance, den, implemented)`` of ``kernel``
    run at every cost point of ``game``, in point order, built from its
    ``scaled.totals`` there as ``scaled.point_rows`` expands the runs
    ``harness.run_mechanism`` reports."""
    rows = []
    for costs in game.costs:
        realized, spent, paid, lcm = totals(game, kernel(game, costs), costs)
        rows.append(((realized - spent) * lcm, paid - spent * lcm, game.scale * lcm, spent > 0))
    return rows


# ---------------------------------------------------------------------------
# Scenarios


def numpy_rng(seed, trial):
    """numpy's ``Generator`` for one trial: ``PCG64(SeedSequence((seed, trial)))``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def reference_start_slot(rng, z, skew):
    """A user's slot on 1..z by numpy's calls: uniform, or an exponential
    offset of mean 1.2 from the first slot (early) or the last (late),
    rounded and clamped."""
    if skew == "uniform":
        return int(rng.integers(1, z, endpoint=True))
    offset = rng.exponential(1.2)
    raw = 1 + offset if skew == "early" else z - offset
    return min(max(int(round(raw)), 1), z)


def reference_draw(spec, trial):
    """``scenarios.draw`` by numpy's calls for the families whose slots read
    the skew (collab_size, overlap_slots, arrival_skew and selectivity):
    per user one slot and its value; selectivity draws its catalog first
    and each user's substitute set after the value."""
    rng = numpy_rng(spec.seed, trial)
    if spec.family != "selectivity":
        slots, values = [], []
        for _ in range(spec.users):
            slots.append(reference_start_slot(rng, spec.slots, spec.skew))
            values.append(int(rng.integers(0, GRID, endpoint=True)))
        return Draws(slots, slots, values)
    catalog = rng.integers(1, GRID, size=spec.opt_count, endpoint=True).tolist()
    slots, values, picks = [], [], []
    for _ in range(spec.users):
        slots.append(reference_start_slot(rng, spec.slots, spec.skew))
        values.append(int(rng.integers(0, GRID, endpoint=True)) or 1)
        chosen = rng.choice(spec.opt_count, size=spec.substitutes_per_user, replace=False).tolist()
        picks.append(frozenset(p + 1 for p in chosen))
    return Draws(slots, slots, values, catalog, picks)


def reference_generate(spec, trial):
    """``scenarios.generate`` with one scalar numpy call per number, in the
    order the families define: per user its slot (or window), then its
    value, then (selectivity) its substitutes; selectivity's catalog first."""
    rng = numpy_rng(spec.seed, trial)
    horizon = SlotHorizon(spec.slots)
    z = spec.slots

    def grid_value():
        return Fraction(int(rng.integers(0, GRID, endpoint=True)), GRID)

    bids = []
    if spec.family == "selectivity":
        catalog = []
        for j in range(1, spec.opt_count + 1):
            k = int(rng.integers(1, GRID, endpoint=True))
            catalog.append(Optimization(j, 2 * spec.cost * Fraction(k, GRID)))
        for user in range(1, spec.users + 1):
            slot = reference_start_slot(rng, z, spec.skew)
            value = grid_value()
            picks = rng.choice(spec.opt_count, size=spec.substitutes_per_user, replace=False)
            substitutes = frozenset(int(p) + 1 for p in picks)
            if value == 0:
                value = Fraction(1, GRID)
            bids.append(SubstitutableOnlineBid(user, substitutes, slot, slot, (value,)))
        return SubstOnlineGame(tuple(catalog), horizon, tuple(bids))
    if spec.family == "usecase_shape":
        catalog = tuple(Optimization(j, spec.cost) for j in range(1, spec.opt_count + 1))
        windows = [(s, e) for s in horizon.slots() for e in range(s, z + 1)]
        for user in range(1, spec.users + 1):
            start, end = windows[int(rng.integers(0, len(windows)))]
            headline = USECASE_HEADLINE_CENTS[(user - 1) % len(USECASE_HEADLINE_CENTS)]
            stride = USECASE_STRIDES[(user - 1) % len(USECASE_STRIDES)]
            for opt in catalog:
                if opt.id == 1:
                    cents = headline
                elif (opt.id - 1) % stride == 0:
                    cents = USECASE_OTHER_CENTS
                else:
                    continue
                per_slot = Fraction(cents * spec.executions_per_slot, 100)
                bids.append(AdditiveOnlineBid(user, opt.id, start, end, (per_slot,) * (end - start + 1)))
        return AdditiveOnlineGame(catalog, horizon, tuple(bids))
    for user in range(1, spec.users + 1):
        if spec.family == "duration_spread":
            start = int(rng.integers(1, z, endpoint=True))
            end = min(start + spec.duration - 1, z)
            per_slot = grid_value() / spec.duration
        else:
            start = end = reference_start_slot(rng, z, spec.skew)
            per_slot = grid_value()
        bids.append(AdditiveOnlineBid(user, 1, start, end, (per_slot,) * (end - start + 1)))
    return AdditiveOnlineGame((Optimization(1, spec.cost),), horizon, tuple(bids))


def recost(game, spec, cost):
    """The game ``generate(replace(spec, cost=cost), trial)`` builds, made from the
    one ``generate(spec, trial)`` built.  Cost enters a game only through its
    catalog and draws no random numbers, so only the catalog changes."""
    if spec.family == "selectivity":
        scale = cost / spec.cost  # catalog costs are proportional to spec.cost
        catalog = tuple(Optimization(o.id, o.cost * scale) for o in game.catalog)
        return SubstOnlineGame(catalog, game.horizon, game.bids)
    if spec.family == "usecase_shape":
        catalog = tuple(Optimization(o.id, cost) for o in game.catalog)
        return AdditiveOnlineGame(catalog, game.horizon, game.bids)
    return AdditiveOnlineGame((Optimization(game.catalog[0].id, cost),), game.horizon, game.bids)


# ---------------------------------------------------------------------------
# Lowering a game: ``ScaledGame`` built as one bid list for every kind


def reference_scaled_game(game, factors=ONE):
    """``ScaledGame(game, factors)`` built the way the one-pass lowering
    replaced: every kind of game as one list of (user, interest, start, end,
    per-slot values) bids, the values' numerators and denominators read
    through ``Fraction``'s properties, a duplicate bid found with one set,
    and every game, the one-slot ones too, assembled slot by slot by
    ``ScaledGame.from_rows``."""
    factors = factors if isinstance(factors, Factors) else Factors(factors)
    catalog = game.catalog
    additive = not isinstance(game, (SubstOnlineGame, SubstOfflineGame))
    z = 1
    if isinstance(game, AdditiveOfflineGame):
        bids = [(b.user, (j,), 1, 1, (v,)) for b in game.bids for j, v in b.values.items() if v]
    elif isinstance(game, SubstOfflineGame):
        bids = [(b.user, b.substitutes, 1, 1, (b.value,)) for b in game.bids]
    else:
        z = game.horizon.z
        bids = [(b.user, (b.opt,) if additive else b.substitutes, b.start, b.end, b.per_slot) for b in game.bids]
    cost_lcm = math.lcm(*[o.cost.denominator for o in catalog])
    scale, units = factors.scale(cost_lcm, math.lcm(*[v.denominator for *_, row in bids for v in row]))
    base = {o.id: o.cost.numerator * (cost_lcm // o.cost.denominator) for o in catalog}
    users, starts, ends, interest, rows = [], [], [], [], []
    seen = set()
    for user, opts, start, end, row in bids:
        key = (user, opts) if additive else user
        if key in seen:
            if additive:
                raise GameError(f"duplicate bid for user {user}, optimization {opts[0]}")
            raise GameError("one bid per user per game")
        seen.add(key)
        users.append(user)
        starts.append(start)
        ends.append(end)
        interest.append(opts)
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return ScaledGame.from_rows(additive, z, scale, units, cost_rows(base, units), users, starts, ends, interest, rows)


def reference_shapley(cost, bids):
    """``shapley.shapley`` through the game types: the finite bids become
    ``AdditiveOfflineBid``s of one ``AdditiveOfflineGame``, whose
    constructors check them, lowered by ``reference_scaled_game``; the
    infinite ones are the kernel's pinned count."""
    if cost <= 0:
        raise GameError("optimization cost must be positive")
    pinned = [u for u, bid in bids.items() if is_infinite(bid)]
    finite = tuple(AdditiveOfflineBid(u, {0: bid}) for u, bid in bids.items() if not is_infinite(bid))
    game = reference_scaled_game(AdditiveOfflineGame((Optimization(0, cost),), finite))
    entries, _, _ = serve(game, game.costs[0], len(pinned))
    serviced = frozenset([*pinned, *(game.users[i] for i in entries)])
    share = cost / len(serviced) if serviced else None
    return ShapleyResult(serviced, share, {u: (share if u in serviced else ZERO) for u in bids})


# ---------------------------------------------------------------------------
# Suite draws: the ``verification`` generators in Fraction arithmetic


def reference_rand_money(rng, lo=0, hi=200):
    return Fraction(rng.randint(lo, hi), 100)


def _reference_cost_near(rng, total, lo_pct=5, hi_pct=130):
    cost = total * Fraction(rng.randint(lo_pct, hi_pct), 100)
    return cost if cost > 0 else Fraction(rng.randint(1, 100), 100)


def reference_rand_additive_offline(rng, max_users=5, max_opts=3, hi_pct=130):
    m, n = rng.randint(1, max_users), rng.randint(1, max_opts)
    bids = []
    for u in range(1, m + 1):
        values = {j: reference_rand_money(rng) for j in range(1, n + 1) if rng.random() < 0.85}
        bids.append(AdditiveOfflineBid(u, values))
    catalog = []
    for j in range(1, n + 1):
        column = sum((b.value_for(j) for b in bids), ZERO)
        catalog.append(Optimization(j, _reference_cost_near(rng, column, hi_pct=hi_pct)))
    return AdditiveOfflineGame(tuple(catalog), tuple(bids))


def reference_rand_additive_online(rng, max_users=5, max_slots=4):
    m, z = rng.randint(1, max_users), rng.randint(1, max_slots)
    bids = []
    for u in range(1, m + 1):
        s = rng.randint(1, z)
        e = rng.randint(s, z)
        bids.append(AdditiveOnlineBid(u, 1, s, e, tuple(reference_rand_money(rng) for _ in range(e - s + 1))))
    total = sum((residual_from(b, 1) for b in bids), ZERO)
    return AdditiveOnlineGame((Optimization(1, _reference_cost_near(rng, total)),), SlotHorizon(z), tuple(bids))


def reference_rand_subst_offline(rng, max_users=5, max_opts=3):
    m, n = rng.randint(1, max_users), rng.randint(1, max_opts)
    bids = []
    for u in range(1, m + 1):
        k = rng.randint(1, n)
        subs = frozenset(rng.sample(range(1, n + 1), k))
        bids.append(SubstitutableOfflineBid(u, subs, reference_rand_money(rng, 1)))
    total = sum((b.value for b in bids), ZERO)
    catalog = tuple(
        Optimization(j, _reference_cost_near(rng, total * Fraction(1, max(1, n)))) for j in range(1, n + 1)
    )
    return SubstOfflineGame(catalog, tuple(bids))


def reference_rand_subst_online(rng, max_users=5, max_opts=3, max_slots=4):
    m, n, z = rng.randint(1, max_users), rng.randint(1, max_opts), rng.randint(1, max_slots)
    bids = []
    for u in range(1, m + 1):
        k = rng.randint(1, n)
        subs = frozenset(rng.sample(range(1, n + 1), k))
        s = rng.randint(1, z)
        e = rng.randint(s, z)
        bids.append(
            SubstitutableOnlineBid(u, subs, s, e, tuple(reference_rand_money(rng) for _ in range(e - s + 1)))
        )
    total = sum((residual_from(b, 1) for b in bids), ZERO)
    catalog = tuple(
        Optimization(j, _reference_cost_near(rng, total * Fraction(1, max(1, n)))) for j in range(1, n + 1)
    )
    return SubstOnlineGame(catalog, SlotHorizon(z), tuple(bids))


def reference_rand_naive_game(rng):
    m = rng.randint(2, 4)
    bids = [AdditiveOfflineBid(u, {1: reference_rand_money(rng, 1)}) for u in range(1, m + 1)]
    total = sum((b.value_for(1) for b in bids), ZERO)
    cost = total * Fraction(rng.randint(10, 80), 100)
    return AdditiveOfflineGame((Optimization(1, cost),), tuple(bids))


# ---------------------------------------------------------------------------
# Rendering


def reference_render_decimal(value, digits=9):
    """``money.render_decimal`` in Fraction arithmetic."""
    scale = 10**digits
    sign = "-" if value < 0 else ""
    scaled_value = abs(value) * scale
    q, r = divmod(scaled_value.numerator, scaled_value.denominator)
    if 2 * r > scaled_value.denominator or (2 * r == scaled_value.denominator and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def reference_render_decimal_sqrt(value, digits=9):
    """``money.render_decimal_sqrt`` by exact Fraction comparisons against
    the squares of the half-way points."""
    scale = 10**digits
    target = value * scale * scale
    y = math.isqrt(target.numerator // target.denominator)
    while Fraction(2 * y + 1, 2) ** 2 < target:
        y += 1
    while y > 0 and Fraction(2 * y - 1, 2) ** 2 > target:
        y -= 1
    if Fraction(2 * y - 1, 2) ** 2 == target and (y % 2 == 1):
        y -= 1
    elif Fraction(2 * y + 1, 2) ** 2 == target and (y % 2 == 1):
        y += 1
    whole, frac = divmod(y, scale)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"
EXAMPLES = examples_dir()
EXAMPLE_GAMES = sorted(example_files(EXAMPLES).values())  # the packaged game files, by name


def trend_config(name, trials=None):
    """The shipped trend config ``scripts/configs/<name>.json``, at
    ``trials`` trials per cost point if given, as ``scripts/run_trends.py
    --trials`` runs it."""
    config = load_config(CONFIG_DIR / f"{name}.json")
    return config if trials is None else replace(config, scenario=replace(config.scenario, trials=trials))
