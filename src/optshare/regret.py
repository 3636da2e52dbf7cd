"""Regret-accumulation baseline with an oracle posted price.

The comparator implements an optimization greedily once the value it *would*
have delivered so far (its regret) covers the cost.  Value accrued while
regret builds up is wasted: users are only serviced from the trigger slot
on.  Users active in the trigger slot ride free; later access is sold at a
single posted price chosen, with perfect knowledge of future values, to
minimize the provider's loss (so the baseline is evaluated at its best).

The baseline trusts bids to be true values; the simulator always feeds it
the truth.

The baseline itself is one integer kernel, :func:`trigger`, over a
:class:`~optshare.scaled.ScaledGame`; :func:`regret_run` builds the full
trace from its settlement.  On additive games the regret before each slot
does not depend on the cost, so an optimization's trigger slot is a
bisection of that prefix, and :func:`trigger_points` settles every cost
point of a game from one prefix per optimization.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    GameError,
    OptId,
    Optimization,
    ServiceSchedule,
    Slot,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
    UserId,
)
from .money import ZERO, Money
from .scaled import ScaledGame, ScaledSettlement, _fixed_point, common_scale, served_and_paid, totals


def optimal_posted_price(cost: Money, future_residuals: Sequence[Money]) -> tuple[Money, Money]:
    """Price minimizing max(cost - price * buyers, 0); smallest price on ties.

    Buyers at price p are the residuals >= p.  See :func:`_posted_price`,
    which this runs on the residuals and cost scaled to integers.
    """
    if any(r < 0 for r in future_residuals):
        raise GameError("residuals must be >= 0")
    scale = common_scale([cost, *future_residuals])
    num, den, loss, _ = _posted_price(
        cost.numerator * (scale // cost.denominator),
        _descending(r.numerator * (scale // r.denominator) for r in future_residuals if r > 0),
    )
    return Fraction(num, den * scale), Fraction(loss, scale)


def _descending(residuals: Iterable[int]) -> list[tuple[int, None]]:
    """``residuals`` as the (residual, key) pairs of :func:`_posted_price`."""
    return sorted(((r, None) for r in residuals), key=itemgetter(0), reverse=True)


def _posted_price(cost: int, descending: Sequence[tuple[int, object]]) -> tuple[int, int, int, int]:
    """Integer form of :func:`optimal_posted_price` on positive residuals,
    given as (residual, key) pairs, highest first: (price numerator, price
    denominator, loss, buyers), all on the residuals' scale; the buyers are
    the leading residuals, each at least the price.

    Prices with k buyers are (r_{k+1}, r_k], so cost recovery is possible
    iff k * r_k >= cost for some k, and the smallest recovering price is
    cost/k for the largest such k, which is the equal-share fixed point with
    nobody pinned.  If no price recovers the cost, revenue p * buyers is
    maximized at some residual value; the smallest maximizer wins the tie,
    and it is the last of its equal residuals, which all buy.
    """
    recovering = _fixed_point(cost, descending, 0)
    if recovering:
        return cost, recovering, 0, recovering
    best_price, best_revenue, buyers = 0, 0, 0
    for k, (r, _) in enumerate(descending, start=1):
        revenue = r * k
        if revenue > best_revenue or (revenue == best_revenue and r < best_price):
            best_price, best_revenue, buyers = r, revenue, k
    return best_price, 1, cost - best_revenue, buyers


@dataclass(frozen=True)
class RegretTrace:
    implement_slot: dict[OptId, Slot]
    posted_price: dict[OptId, Money]
    price_loss: dict[OptId, Money]
    serviced: ServiceSchedule
    payments: dict[UserId, Money]
    cloud_balance: Money  # total payments minus implemented costs (< 0 = loss)
    realized_value: Money
    total_cost: Money
    _series_scaled: dict[tuple[OptId, Slot], int]
    _scale: int

    @cached_property
    def regret_series(self) -> dict[tuple[OptId, Slot], Money]:
        return {k: Fraction(v, self._scale) for k, v in self._series_scaled.items()}

    @property
    def total_utility(self) -> Money:
        return self.realized_value - self.total_cost


def trigger(game: ScaledGame, costs: Mapping[OptId, int]) -> ScaledSettlement:
    """Run the baseline at scaled costs ``costs``.

    Additive bids contribute to every optimization they name, independently,
    so each optimization's trigger slot is the first slot its regret before
    the slot covers its cost: a bisection of :func:`_regret_before`.
    Substitutable bids contribute their value to every optimization in the
    substitute set until the user is first serviced by one of them, at which
    point she stops benefiting from (and stops accruing regret for) the rest;
    those games are played slot by slot.  Bids active in the trigger slot
    ride free in it (charged 0/1); buyers are served from the trigger slot if
    they ride, else from their start, through their end, at the posted price
    ``price[j]``, a (numerator, denominator) pair.  The implemented
    optimizations map to their trigger slots, and the log is ``(price, loss,
    series)``: the price, its shortfall on j's cost, and j's regret before
    slot t at ``(j, t)``, on the game's scale, for the slots through its
    trigger where it differs from the regret before t - 1 (0 before slot 1);
    :func:`regret_run` expands it to every slot.

    Regret rises only in slots with values, and costs are positive, so an
    optimization can trigger only in the slot right after its regret rose;
    the slot loop checks just those, in ascending id.
    """
    opt_ids = sorted(costs)
    price: dict[OptId, tuple[int, int]] = {}
    loss: dict[OptId, int] = {}
    entries: dict[int, tuple[OptId, Slot, Slot, int, int]] = {}  # a substitutable bid in here is closed to the rest
    if game.additive:
        before = _regret_before(game, opt_ids)
        slots = {j: bisect_left(before[j], costs[j]) for j in opt_ids}
        implement_slot = {j: t for t, j in sorted((t, j) for j, t in slots.items() if t <= game.z)}
        for j, t in implement_slot.items():
            _implement(game, j, t, costs[j], entries, price, loss)
        rows = {j: before[j][: min(slots[j], game.z) + 1] for j in opt_ids}
        series = {(j, t): row[t] for j, row in rows.items() for t in range(1, len(row)) if row[t] != row[t - 1]}
        return entries, implement_slot, (price, loss, series)

    interest, values = game.interest, game.values
    regret = dict.fromkeys(opt_ids, 0)
    series = {}
    implement_slot = {}
    rose: set[OptId] = set()  # the optimizations whose regret rose in slot t - 1
    for t in range(1, game.z + 1):
        # greedy trigger, lowest optimization id first
        for j in sorted(rose):
            series[(j, t)] = regret[j]
            if regret[j] >= costs[j]:
                implement_slot[j] = t
                _implement(game, j, t, costs[j], entries, price, loss)
        if len(implement_slot) == len(opt_ids):
            break  # nothing left to accrue regret for
        # accumulate regret for still-unimplemented optimizations
        rose = set()
        for i, v in values[t]:
            if i not in entries:
                for j in interest[i]:
                    if j not in implement_slot:
                        regret[j] += v
                        rose.add(j)
    return entries, implement_slot, (price, loss, series)


def _implement(game: ScaledGame, j: OptId, t: Slot, cost: int, entries: dict, price: dict, loss: dict) -> None:
    """Implement ``j`` in slot ``t`` at scaled cost ``cost``: its riders ride
    free in ``t`` and the buyers pay one posted price, which go into
    ``entries`` (whose bids are closed to ``j``), ``price`` and ``loss``."""
    riders, future, _, descending = _riders(game, j, t, entries)
    num, den, loss[j], _ = _posted_price(cost, descending)
    price[j] = (num, den)
    for i in riders:
        entries[i] = (j, t, t, 0, 1)
    for i, r, first in future:
        if r * den >= num:
            entries[i] = (j, first, game.ends[i], num, den)


def trigger_points(game: ScaledGame) -> list[tuple[int, int, int, int]]:
    """:func:`~optshare.scaled.totals` of :func:`trigger` at every cost point
    of an additive ``game``, in point order, without building a settlement.

    The regret before each slot does not depend on the cost, so it is summed
    once, and each point's trigger slots are bisections of it.  The riders
    and future residuals of an (optimization, trigger slot) are gathered
    once, with the prefix sums of the residuals, highest first; per point
    only the posted price and its buyer count remain, and the buyers'
    realized value is a prefix sum.
    """
    opt_ids = sorted(game.costs[0])
    before = _regret_before(game, opt_ids)
    plans: dict[tuple[OptId, Slot], tuple] = {}
    out = []
    for costs in game.costs:
        realized = spent = 0
        charges: dict[int, int] = {}  # denominator -> sum of numerators
        for j in opt_ids:
            cost = costs[j]
            t = bisect_left(before[j], cost)
            if t > game.z:
                continue
            plan = plans.get((j, t))
            if plan is None:
                _, _, ride, descending = _riders(game, j, t, ())
                plan = plans[j, t] = (ride, descending, list(accumulate((r for r, _ in descending), initial=0)))
            ride, descending, tops = plan
            num, den, _, buyers = _posted_price(cost, descending)
            realized += ride + tops[buyers]
            spent += cost
            if buyers:
                charges[den] = charges.get(den, 0) + num * buyers
        lcm = math.lcm(*charges)
        out.append((realized, spent, sum(num * (lcm // den) for den, num in charges.items()), lcm))
    return out


def _regret_before(game: ScaledGame, opt_ids: Sequence[OptId]) -> dict[OptId, list[int]]:
    """Each optimization's regret before each slot 0..z of an additive game:
    the value its bids hold in the earlier slots, non-decreasing."""
    z = game.z
    before = {j: [0] * (z + 1) for j in opt_ids}
    for (j,), start, suffix in zip(game.interest, game.starts, game.suffix):
        row = before[j]
        for t in range(start + 1, min(start + len(suffix) - 1, z) + 1):
            row[t] += suffix[t - 1 - start] - suffix[t - start]
    for row in before.values():
        for t in range(1, z + 1):
            row[t] += row[t - 1]
    return before


def _riders(game: ScaledGame, j: OptId, t: Slot, closed: Collection[int]):
    """Who ``j`` implemented in slot ``t`` may serve, leaving out the bids in
    ``closed``: ``(riders, future, ride, descending)``.  ``riders`` are the
    bids active in ``t``, in bid order, and ``ride`` their value in ``t``;
    ``future`` holds ``(bid, residual, first served slot)`` of every bid
    with value after ``t``, in bid order, and ``descending`` those residuals
    as :func:`_posted_price` reads them."""
    starts, ends, suffix = game.starts, game.ends, game.suffix
    riders, future, ride = [], [], 0
    for i in game.by_opt[j]:
        first = starts[i]
        if i in closed or t > ends[i]:
            continue
        if first <= t:
            riders.append(i)
            r = suffix[i][t + 1 - first]
            ride += suffix[i][t - first] - r
            first = t
        else:
            r = suffix[i][0]
        if r:
            future.append((i, r, first))
    return riders, future, ride, _descending(r for _, r, _ in future)


def regret_run(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    values: Sequence[AdditiveOnlineBid] | Sequence[SubstitutableOnlineBid],
) -> RegretTrace:
    """Run the baseline on truthful per-slot values (see :func:`trigger`).
    ``regret_series`` holds each optimization's regret before every slot
    through its trigger, slot by slot in ascending id, expanded from
    :func:`trigger`'s log of the slots where it changed."""
    catalog = tuple(catalog)
    bids = tuple(values)
    if not bids:
        return RegretTrace({}, {}, {}, ServiceSchedule({}), {}, ZERO, ZERO, ZERO, {}, 1)
    additive = isinstance(bids[0], AdditiveOnlineBid)
    if any(isinstance(b, AdditiveOnlineBid) != additive for b in bids):
        raise GameError("cannot mix additive and substitutable bids")
    game = AdditiveOnlineMultiGame(catalog, horizon, bids) if additive else SubstOnlineGame(catalog, horizon, bids)
    scaled = ScaledGame(game)
    run = trigger(scaled, scaled.costs[0])
    _, implement_slot, (price, loss, changes) = run
    level = dict.fromkeys(sorted(scaled.costs[0]), 0)
    series = {}  # every open optimization's regret before each slot
    for t in horizon.slots():
        for j in level:
            if implement_slot.get(j, t) >= t:
                level[j] = series[j, t] = changes.get((j, t), level[j])
    scale = scaled.scale
    realized, spent, paid, lcm = totals(scaled, run, scaled.costs[0])
    schedule, payments = served_and_paid(scaled, run, horizon.z)
    return RegretTrace(
        implement_slot,
        {j: Fraction(num, den * scale) for j, (num, den) in price.items()},
        {j: Fraction(short, scale) for j, short in loss.items()},
        schedule,
        payments,
        Fraction(paid - spent * lcm, lcm * scale),
        Fraction(realized, scale),
        Fraction(spent, scale),
        series,
        scale,
    )
