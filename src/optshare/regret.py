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
trace from its settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

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
from .scaled import ScaledGame, ScaledSettlement, served_and_paid, totals
from .shapley import _fixed_point, common_scale


def optimal_posted_price(cost: Money, future_residuals: Sequence[Money]) -> tuple[Money, Money]:
    """Price minimizing max(cost - price * buyers, 0); smallest price on ties.

    Buyers at price p are the residuals >= p.  See :func:`_posted_price`,
    which this runs on the residuals and cost scaled to integers.
    """
    if any(r < 0 for r in future_residuals):
        raise GameError("residuals must be >= 0")
    scale = common_scale([cost, *future_residuals])
    num, den, loss = _posted_price(
        cost.numerator * (scale // cost.denominator),
        [r.numerator * (scale // r.denominator) for r in future_residuals if r > 0],
    )
    return Fraction(num, den * scale), Fraction(loss, scale)


def _posted_price(cost: int, residuals: list[int]) -> tuple[int, int, int]:
    """Integer form of :func:`optimal_posted_price` on positive residuals:
    (price numerator, price denominator, loss), all on the residuals' scale.

    With residuals sorted descending, prices with k buyers are
    (r_{k+1}, r_k], so cost recovery is possible iff k * r_k >= cost for
    some k, and the smallest recovering price is cost/k for the largest
    such k, which is the equal-share fixed point with nobody pinned.  If no
    price recovers the cost, revenue p * buyers is maximized at some residual
    value; the smallest maximizer wins the tie.
    """
    descending = sorted(((r, None) for r in residuals), key=itemgetter(0), reverse=True)
    recovering = _fixed_point(cost, descending, 0)
    if recovering:
        return cost, recovering, 0
    best_price, best_revenue = 0, 0
    for k, (r, _) in enumerate(descending, start=1):
        revenue = r * k
        if revenue > best_revenue or (revenue == best_revenue and r < best_price):
            best_price, best_revenue = r, revenue
    return best_price, 1, cost - best_revenue


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

    Additive bids contribute to every optimization they name, independently.
    Substitutable bids contribute their value to every optimization in the
    substitute set until the user is first serviced by one of them, at which
    point she stops benefiting from (and stops accruing regret for) the rest.
    Bids active in the trigger slot ride free in it (charged 0/1); buyers
    are served from the trigger slot if they ride, else from their start,
    through their end, at the posted price ``price[j]``, a (numerator,
    denominator) pair.  The implemented optimizations map to their trigger
    slots, and the log is ``(price, loss, series)``: the price, its shortfall
    on j's cost, and j's regret before each slot, on the game's scale.
    """
    additive = game.additive
    starts, ends, interest, suffix = game.starts, game.ends, game.interest, game.suffix
    by_opt, values = game.by_opt, game.values
    opt_ids = sorted(costs)
    regret = dict.fromkeys(opt_ids, 0)
    series: dict[tuple[OptId, Slot], int] = {}
    implement_slot: dict[OptId, Slot] = {}
    price: dict[OptId, tuple[int, int]] = {}
    loss: dict[OptId, int] = {}
    entries: dict[int, tuple[OptId, Slot, Slot, int, int]] = {}  # a substitutable bid in here is closed to the rest

    for t in range(1, game.z + 1):
        for j in opt_ids:
            if j not in implement_slot:
                series[(j, t)] = regret[j]
        # greedy trigger, lowest optimization id first
        for j in opt_ids:
            if j in implement_slot or regret[j] < costs[j]:
                continue
            implement_slot[j] = t
            # users still open to j: additive ones always, substitutable ones
            # until first serviced
            pool = [i for i in by_opt[j] if additive or i not in entries]
            # users active in the trigger slot are serviced for free; one
            # posted price covers everything after it
            future = []  # (bid, scaled value after slot t, first served slot) where positive
            for i in pool:
                first = starts[i]
                if t > ends[i]:
                    continue
                if first <= t:
                    entries[i] = (j, t, t, 0, 1)
                    r = suffix[i][t + 1 - first]
                    first = t
                else:
                    r = suffix[i][0]
                if r:
                    future.append((i, r, first))
            num, den, loss[j] = _posted_price(costs[j], [r for _, r, _ in future])
            price[j] = (num, den)
            for i, r, first in future:
                if r * den >= num:
                    entries[i] = (j, first, ends[i], num, den)
        if len(implement_slot) == len(opt_ids):
            break  # nothing left to accrue regret for
        # accumulate regret for still-unimplemented optimizations
        for i, v in values[t]:
            if additive or i not in entries:
                for j in interest[i]:
                    if j not in implement_slot:
                        regret[j] += v
    return entries, implement_slot, (price, loss, series)


def regret_run(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    values: Sequence[AdditiveOnlineBid] | Sequence[SubstitutableOnlineBid],
) -> RegretTrace:
    """Run the baseline on truthful per-slot values (see :func:`trigger`)."""
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
    _, implement_slot, (price, loss, series) = run
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
