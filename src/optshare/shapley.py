"""Equal-share cost allocation for a single optimization, and its
per-optimization composition for additive offline games.

The serviced set is the fixed point of: start with all bidders, split the
cost evenly, drop everyone whose bid is below the share, repeat.  A bidder
exactly at the share stays serviced (comparison is ``bid >= share``).  The
result is the unique maximal set whose members can all cover an equal split.

The loop runs on integers after rescaling all amounts to a common
denominator, which keeps it exact and cheap inside the Monte Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    GameError,
    Optimization,
    Outcome,
    PaymentLedger,
    UserId,
)
from .money import ZERO, Bid, Money, is_infinite


@dataclass(frozen=True)
class ShapleyResult:
    serviced: frozenset[UserId]
    share: Money | None  # equal split, set iff anyone is serviced
    payments: dict[UserId, Money]


def _fixed_point(cost_scaled: int, descending: Sequence[tuple[int, object]], n_pinned: int) -> int:
    """Fixed-point eviction over integer-scaled bids, in closed form.

    ``descending`` holds (bid, key) pairs, highest bid first; the result is
    how many of its leading pairs stay serviced.  Eviction (split the cost
    over everyone left, drop each bid below the share, repeat) keeps exactly
    the longest prefix of m bids whose smallest one covers
    ``cost / (n_pinned + m)``: a bid that covers a share keeps covering it as
    the set shrinks, so no member of such a prefix is ever dropped, and the
    survivors form such a prefix.  ``bid >= cost/k`` is evaluated as
    ``bid * k >= cost``; with a positive cost a zero bid never survives.
    Pinned users (infinite bids) always stay and only add to the head count.
    """
    kept = 0
    for m, (bid, _) in enumerate(descending, 1):
        if bid * (n_pinned + m) >= cost_scaled:
            kept = m
    return kept


def common_scale(values: Iterable[Money]) -> int:
    """Least common denominator; 1 for an empty collection."""
    return math.lcm(*[v.denominator for v in values])


def shapley(cost: Money, bids: Mapping[UserId, Bid]) -> ShapleyResult:
    """Run the equal-share mechanism for one optimization.

    ``bids`` maps users to finite amounts or to :data:`INFINITE_BID`
    (the online mechanisms use infinite bids to pin already-serviced users).
    Serviced users all pay ``cost / |serviced|`` exactly; everyone else pays 0.
    """
    if cost <= 0:
        raise GameError("optimization cost must be positive")
    pinned: list[UserId] = []
    finite: dict[UserId, Money] = {}
    for user, bid in bids.items():
        if is_infinite(bid):
            pinned.append(user)
            continue
        if isinstance(bid, int):
            bid = Fraction(bid)
        if bid < 0:
            raise GameError(f"user {user}: bid must be >= 0")
        finite[user] = bid

    scale = common_scale([cost, *finite.values()])
    cost_s = cost.numerator * (scale // cost.denominator)
    finite_s = sorted(
        ((b.numerator * (scale // b.denominator), u) for u, b in finite.items()), key=itemgetter(0), reverse=True
    )
    kept = _fixed_point(cost_s, finite_s, len(pinned))
    serviced = set(pinned).union(u for _, u in finite_s[:kept])
    share = cost / len(serviced) if serviced else None
    payments = {u: (share if u in serviced else ZERO) for u in bids}
    return ShapleyResult(frozenset(serviced), share, payments)


def add_off(
    catalog: Iterable[Optimization], bids: Iterable[AdditiveOfflineBid]
) -> tuple[Outcome, PaymentLedger]:
    """Additive offline mechanism: one independent equal-share run per
    optimization; an optimization is implemented iff its serviced set is
    non-empty."""
    game = AdditiveOfflineGame(tuple(catalog), tuple(bids))  # validates bid/catalog fit
    implemented: set[int] = set()
    grants: set[tuple[UserId, int]] = set()
    entries: dict[tuple[UserId, int], Money] = {}
    for opt in game.catalog:
        column = {b.user: b.value_for(opt.id) for b in game.bids if b.value_for(opt.id) > 0}
        result = shapley(opt.cost, column)
        if result.serviced:
            implemented.add(opt.id)
            for user in result.serviced:
                grants.add((user, opt.id))
                entries[(user, opt.id)] = result.share
    return Outcome(frozenset(implemented), frozenset(grants)), PaymentLedger(entries)
