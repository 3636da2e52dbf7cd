"""Regret-accumulation baseline with an oracle posted price.

The comparator implements an optimization greedily once the value it *would*
have delivered so far (its regret) covers the cost.  Value accrued while
regret builds up is wasted: users are only serviced from the trigger slot
on.  Users active in the trigger slot ride free; later access is sold at a
single posted price chosen, with perfect knowledge of future values, to
minimize the provider's loss (so the baseline is evaluated at its best).

The baseline trusts bids to be true values; the simulator always feeds it
the truth.

The baseline itself is one integer kernel, :func:`trigger`, a slot loop
over a :class:`~optshare.scaled.ScaledGame` of either bid kind.  Like
every kernel it returns its served bids, its implemented optimizations (here
mapped to their trigger slots) and its ceilings; :func:`regret_run` returns
that settlement as a :class:`~optshare.scaled.Settlement`, whose views read
the posted prices, losses and regret series from it.  Every posted price is a
bisection of a price curve (:func:`_price_curve`), the buyer counts whose
revenue no larger count reaches.  The sweep walks its cost points by the
baseline's ceilings (:func:`~optshare.scaled.settle_points`).  On
substitutable games it runs :func:`trigger` once per distinct outcome.  On
additive games it builds no settlement: the regret before each slot does
not depend on the cost, so the settle step of :func:`trigger_points` finds
the trigger slots by bisection of one prefix per optimization
(:func:`_regret_before`) and the posted prices from one price curve per
optimization and trigger slot, once per distinct (trigger slot, buyer
count) outcome; the tests cross-check it against :func:`trigger`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Collection, Iterable, Mapping, Sequence

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
    OptId,
    Optimization,
    Slot,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from .money import Money
from .scaled import ScaledGame, ScaledSettlement, SettleRun, Settlement, common_scale, settle_points


def optimal_posted_price(cost: Money, future_residuals: Sequence[Money]) -> tuple[Money, Money]:
    """Price minimizing max(cost - price * buyers, 0); smallest price on ties.

    Buyers at price p are the residuals >= p.  See :func:`_posted_price`,
    which this runs on the residuals and cost scaled to integers.
    """
    if any(r < 0 for r in future_residuals):
        raise GameError("residuals must be >= 0")
    scale = common_scale([cost, *future_residuals])
    residuals = sorted((r.numerator * (scale // r.denominator) for r in future_residuals if r > 0), reverse=True)
    num, den, loss, _ = _posted_price(cost.numerator * (scale // cost.denominator), _price_curve(residuals))
    return Fraction(num, den * scale), Fraction(loss, scale)


def _price_curve(descending: Sequence[int]) -> tuple[list[int], list[int]]:
    """The price curve of positive residuals, highest first: ``(revenues,
    buyers)``, listing from the lowest residual up each count m whose
    revenue ``r_m * m`` beats that of every larger count, where ``r_m`` is
    the m-th residual.  The revenues rise along the curve."""
    revenues: list[int] = []
    buyers: list[int] = []
    for m in range(len(descending), 0, -1):
        revenue = descending[m - 1] * m
        if not revenues or revenue > revenues[-1]:
            revenues.append(revenue)
            buyers.append(m)
    return revenues, buyers


def _posted_price(cost: int, curve: tuple[list[int], list[int]]) -> tuple[int, int, int, int]:
    """Integer form of :func:`optimal_posted_price` on a
    :func:`_price_curve`: (price numerator, price denominator, loss,
    buyers), all on the residuals' scale; the buyers are the leading
    residuals, each at least the price.

    Prices with m buyers are (r_{m+1}, r_m], so cost recovery is possible
    iff r_m * m >= cost for some m, and the smallest recovering price is
    cost/m for the largest such m, which is the equal-share fixed point with
    nobody pinned.  That m beats every larger count, so it is the first
    curve entry whose revenue covers the cost: a bisection.  If no price
    recovers the cost, the revenue r_m * m is maximized by the curve's last
    entry, the largest count, so the smallest price, among equal revenues.
    """
    revenues, buyers = curve
    k = bisect_left(revenues, cost)
    if k < len(revenues):
        return cost, buyers[k], 0, buyers[k]
    if not revenues:
        return 0, 1, cost, 0
    revenue, m = revenues[-1], buyers[-1]
    return revenue // m, 1, cost - revenue, m


def trigger(game: ScaledGame, costs: Mapping[OptId, int]) -> ScaledSettlement:
    """Run the baseline at scaled costs ``costs``, slot by slot.

    A bid contributes its value to every optimization it names until it is
    first serviced by one of them, at which point it stops benefiting from
    (and stops accruing regret for) the rest.  An additive bid names one
    optimization, so closing it to the others changes nothing: each
    optimization triggers in the first slot its regret before the slot
    covers its cost, which :func:`trigger_points` finds by bisection, with
    the same ceilings.

    Bids active in the trigger slot ride free in it (charged 0/1); buyers
    are served from the trigger slot if they ride, else from their start,
    through their end, at one posted price (a numerator over a
    denominator).  The implemented optimizations map to their trigger slots.

    Regret rises only in slots with values, and costs are positive, so an
    optimization can trigger only in the slot right after its regret rose;
    the slot loop checks just those, in ascending id.

    The log holds each implemented optimization's ceiling: its regret in its
    trigger slot, or the revenue of its buyers if that is less and its price
    recovers the cost.  Up to the ceilings, with every other cost scaled
    alike, the same checks fire in the same slots, since one that did not
    fire stays short of a dearer cost, and the same buyers pay each price:
    one that recovers the cost is still the cost over their number, one that
    does not is still a revenue over it.
    """
    opt_ids = sorted(costs)
    entries: dict[int, tuple[OptId, Slot, Slot, int, int]] = {}  # a bid in here is closed to the rest
    interest, values = game.interest, game.values
    regret = dict.fromkeys(opt_ids, 0)
    implement_slot = {}
    ceilings = {}
    rose: set[OptId] = set()  # the optimizations whose regret rose in slot t - 1
    for t in range(1, game.z + 1):
        # greedy trigger, lowest optimization id first
        for j in sorted(rose):
            if regret[j] >= costs[j]:
                implement_slot[j] = t
                revenue = _implement(game, j, t, costs[j], entries)
                ceilings[j] = regret[j] if revenue is None else min(regret[j], revenue)
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
    return entries, implement_slot, ceilings


def _implement(game: ScaledGame, j: OptId, t: Slot, cost: int, entries: dict) -> int | None:
    """Implement ``j`` in slot ``t`` at scaled cost ``cost``: its riders ride
    free in ``t`` and the buyers pay one posted price, which go into
    ``entries`` (whose bids are closed to ``j``).  Returns the buyers'
    revenue if the price recovers the cost, else None."""
    riders, future, _, descending = _riders(game, j, t, entries)
    num, den, loss, _ = _posted_price(cost, _price_curve(descending))
    for i in riders:
        entries[i] = (j, t, t, 0, 1)
    for i, r, first in future:
        if r * den >= num:
            entries[i] = (j, first, game.ends[i], num, den)
    return None if loss else descending[den - 1] * den


def trigger_points(game: ScaledGame, order: Sequence[int]) -> list[SettleRun]:
    """The settle runs (:data:`~optshare.scaled.SettleRun`) of
    :func:`trigger` over the cost points of an additive ``game``, without
    building a settlement; ``order`` lists the points by rising cost.

    The regret before each slot does not depend on the cost, so it is summed
    once, and a point's trigger slots are bisections of it.  The riders,
    price curve and prefix sums of the future residuals, highest first, of
    an (optimization, trigger slot) are built once; the posted price and its
    buyer count are a bisection of the curve, and the buyers' realized value
    is a prefix sum.  The points are walked by their ceilings
    (:func:`~optshare.scaled.settle_points`), so this settles once per
    distinct (trigger slot, buyer count) outcome.  A triggered
    optimization's ceiling is its regret before its trigger slot, or the
    revenue at its buyer count if its price recovers the cost and that is
    less, as for :func:`trigger`; one that never triggers sets none.
    """
    opt_ids = sorted(game.costs[0])
    before = _regret_before(game, opt_ids)
    plans: dict[tuple[OptId, Slot], tuple] = {}

    def step(game, costs, unit):
        realized = spent = recovered = fixed = 0
        dens = set()  # the buyer counts of the prices that recover the cost
        top = math.inf
        for j in opt_ids:
            cost = costs[j]
            t = bisect_left(before[j], cost)
            if t > game.z:
                continue
            plan = plans.get((j, t))
            if plan is None:
                _, _, ride, descending = _riders(game, j, t, ())
                plan = plans[j, t] = (ride, _price_curve(descending), list(accumulate(descending, initial=0)))
            ride, curve, tops = plan
            num, den, loss, buyers = _posted_price(cost, curve)
            realized += ride + tops[buyers]
            base = cost // unit
            spent += base
            ceiling = before[j][t]
            if loss:  # a whole-number price, fixed up to the regret ceiling
                fixed += num * buyers
            else:  # the buyers pay the cost, cost / den each
                recovered += base
                dens.add(den)
                ceiling = min(ceiling, (tops[den] - tops[den - 1]) * den)
            top = min(top, ceiling // base)
        lcm = math.lcm(*dens)
        return realized, spent, recovered * lcm, fixed * lcm, lcm, top

    return settle_points(step, game, order)


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
    with value after ``t``, in bid order, and ``descending`` those residuals,
    highest first."""
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
    return riders, future, ride, sorted([r for _, r, _ in future], reverse=True)


def regret_run(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    values: Sequence[AdditiveOnlineBid] | Sequence[SubstitutableOnlineBid],
) -> Settlement:
    """Run the baseline on truthful per-slot values (see :func:`trigger`);
    the settlement's ``implement_slot``, ``posted_price``, ``price_loss``
    and ``regret_series`` are its trace.  A game without bids is additive."""
    bids = tuple(values)
    additive = not bids or isinstance(bids[0], AdditiveOnlineBid)
    if any(isinstance(b, AdditiveOnlineBid) != additive for b in bids):
        raise GameError("cannot mix additive and substitutable bids")
    game = (AdditiveOnlineGame if additive else SubstOnlineGame)(tuple(catalog), horizon, bids)
    scaled = ScaledGame(game)
    return Settlement(scaled, trigger(scaled, scaled.costs[0]), horizon.z)
