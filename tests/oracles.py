"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's internals: serviced sets come from
all-subsets enumeration, online traces from a literal slot-by-slot replay,
and posted prices from exhaustive candidate evaluation plus a fine grid.
The reference deviation search runs every misreport as a bid through the
public mechanisms of the registry and scores it with ``settle`` and
``realized``, the path the integer strategy lab replaces.
"""

import itertools
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
from optshare.core import AdditiveOnlineBid, OnlineBid
from optshare.shapley import shapley

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
    result = shapley(opt.cost, column)
    return true_value - result.share if deviator in result.serviced else ZERO


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
