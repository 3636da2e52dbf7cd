"""Equal-share cost allocation for a single optimization, and its
per-optimization composition for additive offline games.

The serviced set is the fixed point of: start with all bidders, split the
cost evenly, drop everyone whose bid is below the share, repeat.  A bidder
exactly at the share stays serviced (comparison is ``bid >= share``).  The
result is the unique maximal set whose members can all cover an equal split.

Both mechanisms are the online additive mechanism on one slot (z = 1): an
offline game rescaled to integers once (:class:`~optshare.scaled.ScaledGame`)
and settled by the online kernel :func:`~optshare.additive_online.serve`.
:func:`shapley` checks its cost and finite bids, lowers the positive ones
straight into that one-slot game (:meth:`~optshare.scaled.ScaledGame.from_ratios`)
and passes its infinite bids to the kernel as a pinned count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .additive_online import serve
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    GameError,
    Optimization,
    Outcome,
    PaymentLedger,
    UserId,
    negative_bid,
)
from .money import ZERO, Bid, Money, is_infinite
from .scaled import ScaledGame, outcome_and_ledger

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; both mechanisms rescale through ``ScaledGame``.
from .scaled import common_scale  # noqa: F401


@dataclass(frozen=True)
class ShapleyResult:
    serviced: frozenset[UserId]
    share: Money | None  # equal split, set iff anyone is serviced
    payments: dict[UserId, Money]


def shapley(cost: Money, bids: Mapping[UserId, Bid]) -> ShapleyResult:
    """Run the equal-share mechanism for one optimization.

    ``bids`` maps users to finite amounts or to :data:`INFINITE_BID`, which
    pins a user: she is serviced whatever the share.
    Serviced users all pay ``cost / |serviced|`` exactly; everyone else pays 0.
    """
    if cost <= 0:
        raise GameError("optimization cost must be positive")
    pinned, users, values = [], [], []
    for u, bid in bids.items():
        if is_infinite(bid):
            pinned.append(u)
        elif bid < 0:
            raise negative_bid(u)
        elif bid:  # a zero bid never covers a positive share
            users.append(u)
            values.append(bid.as_integer_ratio())
    game = ScaledGame.from_ratios({0: cost.as_integer_ratio()}, users, [(0,)] * len(users), values)
    entries, _, _ = serve(game, game.costs[0], len(pinned))
    serviced = frozenset([*pinned, *(users[i] for i in entries)])
    share = cost / len(serviced) if serviced else None
    return ShapleyResult(serviced, share, {u: (share if u in serviced else ZERO) for u in bids})


def add_off(
    catalog: Iterable[Optimization], bids: Iterable[AdditiveOfflineBid]
) -> tuple[Outcome, PaymentLedger]:
    """Additive offline mechanism: one independent equal-share run per
    optimization; an optimization is implemented iff its serviced set is
    non-empty."""
    game = ScaledGame(AdditiveOfflineGame(tuple(catalog), tuple(bids)))  # validates bid/catalog fit
    return outcome_and_ledger(game, serve(game, game.costs[0]))
