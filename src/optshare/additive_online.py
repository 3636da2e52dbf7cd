"""Online mechanism for one additive optimization over a slot horizon.

Each slot re-runs the equal-share mechanism on *residual* bids (declared
value from the current slot onward).  Users already serviced are pinned:
they count toward every later share whatever their bids, so the cumulative
serviced set never shrinks and the share only falls as newcomers join.  A
user pays exactly once, when her bid expires, at the share computed in that
slot; users who left stay pinned and keep lowering later arrivals' shares.

The mechanism itself is one integer kernel, :func:`serve`, over a
:class:`~optshare.scaled.ScaledGame`.  :func:`add_on` and the slot-by-slot
session (:func:`step_session`, which plays the bids still in play with its
serviced users pinned) build their traces from its settlement, and
:func:`serve_points` settles every cost point of a game with as few runs of
it as the points' distinct outcomes need.  On one slot it is the offline
equal-share mechanism (:mod:`optshare.shapley`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    AdditiveOnlineBid,
    GameError,
    OnlineAdditiveGame,
    OptId,
    Optimization,
    RevisionError,
    RevisionViolation,
    ServiceSchedule,
    SlotHorizon,
    SlotOrderError,
    Slot,
    UserId,
    validate_revision,
)
from .money import ZERO, Money
from .scaled import ScaledGame, ScaledSettlement, _fixed_point, served_and_paid, totals

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; the session rescales through ``ScaledGame`` like ``add_on``.
from .scaled import common_scale  # noqa: F401


@dataclass(frozen=True)
class OnlineTrace:
    schedule: ServiceSchedule
    payments: dict[UserId, Money]
    share_history: dict[Slot, Money]  # slot -> cost/|cumulative| once non-empty


def serve(game: ScaledGame, costs: Mapping[OptId, int], pinned: int = 0, through: Slot | None = None) -> ScaledSettlement:
    """The online additive mechanism for every optimization in ``costs``, at
    its scaled cost there; ``pinned`` users outside the game, serviced before
    it, count toward every share.  A bid joining at slot t is served from t
    to its end and pays ``cost / count[end]``.  The implemented optimizations
    and the log are one dict: ``count``, the serviced users after each slot
    (index 0 unused), of each optimization whose count ends positive.  Play
    stops after slot ``through`` (the horizon if None): no bid joins later.
    """
    entries = {}
    counts = {}
    offers, interest, ends, z = game.offers, game.interest, game.ends, game.z
    last = z if through is None else through
    for j, cost in costs.items():
        joined: dict[int, Slot] = {}
        count = [0] * (z + 1)
        k = pinned
        for t in range(1, last + 1):
            if offers[t]:
                open_bids = [o for o in offers[t] if o[1] not in joined and j in interest[o[1]]]
                m = _fixed_point(cost, open_bids, k)
                for _, i in open_bids[:m]:
                    joined[i] = t
                k += m
            count[t] = k
        if last < z:
            count[last + 1 :] = [k] * (z - last)
        for i, t in joined.items():
            entries[i] = (j, t, ends[i], cost, count[ends[i]])
        if k:
            counts[j] = count
    return entries, counts, counts


def serve_points(game: ScaledGame, order: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """:func:`~optshare.scaled.totals` of :func:`serve` at every cost point
    of ``game``, in point order; ``order`` lists the points by rising cost.

    As the cost rises a bid's join slot never moves earlier, and a bid left
    out stays out (the equal share is cross-monotonic), so each slot's
    serviced set only shrinks.  Where ``serve``'s per-slot counts agree at
    the two ends of an interval of the sorted points, every point inside has
    the same joins: its realized value and charge denominator are the ends',
    and its spent cost and charges are its ``units`` entry times the same
    integers.  Those points are filled without running ``serve``; any other
    interval is split at its middle point, which ``serve`` settles.
    """
    costs, units = game.costs, game.units
    out: list = [None] * len(costs)

    def settle(p: int):
        run = serve(game, costs[p])
        out[p] = totals(game, run, costs[p])
        return run[1]

    cheapest = settle(order[0])
    dearest = settle(order[-1]) if len(order) > 1 else cheapest
    intervals = [(0, len(order) - 1, cheapest, dearest)]
    while intervals:
        a, b, counts_a, counts_b = intervals.pop()
        if b - a < 2:
            continue
        if counts_a == counts_b:
            realized, spent, paid, lcm = out[order[a]]
            unit = units[order[a]]
            spent, paid = spent // unit, paid // unit
            for p in order[a + 1 : b]:
                out[p] = (realized, spent * units[p], paid * units[p], lcm)
        else:
            m = (a + b) // 2
            counts_m = settle(order[m])
            intervals += ((a, m, counts_a, counts_m), (m, b, counts_m, counts_b))
    return out


def _trace(game: ScaledGame, run: ScaledSettlement, through: Slot) -> OnlineTrace:
    """The trace of ``serve``'s settlement of a one-optimization game played
    through slot ``through``."""
    ((opt, cost),) = game.costs[0].items()
    count = run[2].get(opt, ())[: through + 1]
    shares = {k: Fraction(cost, k * game.scale) for k in set(count) if k}
    return OnlineTrace(*served_and_paid(game, run, through), {t: shares[k] for t, k in enumerate(count) if k})


def add_on(game: OnlineAdditiveGame) -> OnlineTrace:
    """Run the online additive mechanism for the whole horizon."""
    scaled = ScaledGame(game)
    return _trace(scaled, serve(scaled, scaled.costs[0]), game.horizon.z)


# ---------------------------------------------------------------------------
# Incremental session driver (slot-by-slot feed with bid revisions)


@dataclass(frozen=True)
class SessionState:
    optimization: Optimization
    horizon: SlotHorizon
    next_slot: Slot
    declared: dict[UserId, AdditiveOnlineBid]
    joined: dict[UserId, Slot]  # serviced user -> join slot

    @property
    def cumulative(self) -> frozenset[UserId]:
        return frozenset(self.joined)

    def trace(self) -> OnlineTrace:
        """The declared bids played through the last fed slot, each serviced
        one served from its join slot."""
        opt, joined = self.optimization.id, self.joined
        game = ScaledGame(OnlineAdditiveGame(self.optimization, self.horizon, tuple(self.declared.values())))
        slots = sorted(joined.values())
        count = [bisect_right(slots, t) for t in range(game.z + 1)]  # serviced users after each slot
        cost, ends = game.costs[0][opt], game.ends
        entries = {i: (opt, joined[u], ends[i], cost, count[ends[i]]) for i, u in enumerate(game.users) if u in joined}
        counts = {opt: count} if joined else {}
        return _trace(game, (entries, counts, counts), self.next_slot - 1)


def new_session(optimization: Optimization, horizon: SlotHorizon) -> SessionState:
    return SessionState(optimization, horizon, 1, {}, {})


def step_session(
    state: SessionState, slot: Slot, bids: Iterable[AdditiveOnlineBid] = ()
) -> tuple[frozenset[UserId], dict[UserId, Money], SessionState]:
    """Advance the session to ``slot``, absorbing new or revised bids first.

    Slots must be fed in strictly increasing order; skipped slots are played
    out with no new arrivals.  New bids must not start in the past and
    revisions must leave past slots untouched and only move future values
    upward.  Returns (serviced set at ``slot``, departures with their
    payments, new state).

    The slots from ``next_slot`` on are one game of the declared bids not yet
    serviced, each cut to those slots, which :func:`serve` plays through
    ``slot`` with the serviced users pinned.
    """
    if not (1 <= slot <= state.horizon.z):
        raise SlotOrderError(f"slot {slot} outside horizon 1..{state.horizon.z}")
    if slot < state.next_slot:
        raise SlotOrderError(f"slot {slot} already processed (next is {state.next_slot})")

    declared = dict(state.declared)
    for bid in bids:
        if bid.opt != state.optimization.id:
            raise GameError(f"user {bid.user} bids optimization {bid.opt}, session has {state.optimization.id}")
        if bid.end > state.horizon.z:
            raise GameError(f"user {bid.user}: bid window ends past the horizon")
        old = declared.get(bid.user)
        if old is None:
            if bid.start < slot:
                raise RevisionError(RevisionViolation("retroactive", bid.start))
        else:
            if old.end < slot:
                # the user already departed and settled; nothing may reopen
                raise RevisionError(RevisionViolation("expired", old.end))
            violation = validate_revision(old, bid, slot)
            if violation is not None:
                raise RevisionError(violation)
        declared[bid.user] = bid

    opt, start = state.optimization, state.next_slot
    joined = dict(state.joined)
    open_bids = [
        replace(b, start=start, per_slot=b.per_slot[start - b.start :]) if b.start < start else b
        for u, b in declared.items()
        if u not in joined and b.end >= start
    ]
    scaled = ScaledGame(OnlineAdditiveGame(opt, state.horizon, open_bids))
    new, _, _ = serve(scaled, scaled.costs[0], len(joined), slot)
    joined.update((scaled.users[i], t) for i, (_, t, *_) in new.items())

    serviced = frozenset(u for u in joined if declared[u].end >= slot)
    departures = {u: opt.cost / len(joined) if u in joined else ZERO for u, b in declared.items() if b.end == slot}
    return serviced, departures, replace(state, next_slot=slot + 1, declared=declared, joined=joined)
