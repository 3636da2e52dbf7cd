"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's internals: serviced sets come from
all-subsets enumeration, online traces from a literal slot-by-slot replay,
and posted prices from exhaustive candidate evaluation plus a fine grid.
The reference deviation search runs every misreport as a bid through the
public mechanisms of the registry and scores it with ``settle`` and
``realized``, the path the integer strategy lab replaces; it settles each
additive offline column by subset enumeration.  The reference online
kernels keep the slot loops the integer kernels shortcut: every
pinned bid in every phase loop of ``grant``, and every open optimization
checked and logged in every slot of ``trigger``.  The scenario oracles
draw every number with its own scalar numpy call and build each game in
``Fraction``s (``reference_generate``), and re-cost a generated game by
rebuilding its catalog (``recost``).  The renderers' oracles round in
``Fraction`` arithmetic.
"""

import itertools
import math
from fractions import Fraction

from optshare.analysis import (
    GRID_SCALES,
    MECHANISMS,
    TRUTHFUL_MECHANISMS,
    DeviationReport,
    _subset_options,
    realized,
    settle,
)
from optshare.core import (
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    OnlineAdditiveGame,
    OnlineBid,
    Optimization,
    SlotHorizon,
    SubstitutableOnlineBid,
    SubstOnlineGame,
)
from optshare.regret import _implement
from optshare.scenarios import (
    GRID,
    USECASE_HEADLINE_CENTS,
    USECASE_OTHER_CENTS,
    USECASE_STRIDES,
    _start_slot,
    _trial_rng,
)
from optshare.scaled import _fixed_point

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
    optimization they name until they are served.  The log's series holds
    every (optimization, slot) through the trigger."""
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
                _implement(game, j, t, costs[j], entries, price, loss)
        for i, v in game.values[t]:
            if i not in entries:
                for j in game.interest[i]:
                    if j not in implement_slot:
                        regret[j] += v
    return entries, implement_slot, (price, loss, series)


# ---------------------------------------------------------------------------
# Scenarios


def reference_generate(spec, trial):
    """``scenarios.generate`` with one scalar numpy call per number, in the
    order the families define: per user its slot (or window), then its
    value, then (selectivity) its substitutes; selectivity's catalog first."""
    rng = _trial_rng(spec, trial)
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
            slot = _start_slot(rng, z, spec.skew)
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
        return AdditiveOnlineMultiGame(catalog, horizon, tuple(bids))
    for user in range(1, spec.users + 1):
        if spec.family == "duration_spread":
            start = int(rng.integers(1, z, endpoint=True))
            end = min(start + spec.duration - 1, z)
            per_slot = grid_value() / spec.duration
        else:
            start = end = _start_slot(rng, z, spec.skew)
            per_slot = grid_value()
        bids.append(AdditiveOnlineBid(user, 1, start, end, (per_slot,) * (end - start + 1)))
    return OnlineAdditiveGame(Optimization(1, spec.cost), horizon, tuple(bids))


def recost(game, spec, cost):
    """The game ``generate(spec.with_cost(cost), trial)`` builds, made from the
    one ``generate(spec, trial)`` built.  Cost enters a game only through its
    catalog and draws no random numbers, so only the catalog changes."""
    if spec.family == "selectivity":
        scale = cost / spec.cost  # catalog costs are proportional to spec.cost
        catalog = tuple(Optimization(o.id, o.cost * scale) for o in game.catalog)
        return SubstOnlineGame(catalog, game.horizon, game.bids)
    if spec.family == "usecase_shape":
        catalog = tuple(Optimization(o.id, cost) for o in game.catalog)
        return AdditiveOnlineMultiGame(catalog, game.horizon, game.bids)
    return OnlineAdditiveGame(Optimization(game.optimization.id, cost), game.horizon, game.bids)


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
