"""Online mechanism for additive optimizations over a slot horizon.

Each optimization is priced on its own.  Each slot re-runs the equal-share
mechanism on *residual* bids (declared value from the current slot onward).
Users already serviced are pinned: they count toward every later share
whatever their bids, so the cumulative serviced set never shrinks and the
share only falls as newcomers join.  A bid pays exactly once, when it
expires, at the share computed in that slot; users who left stay pinned and
keep lowering later arrivals' shares.

The mechanism itself is one integer kernel, :func:`serve`, over a
:class:`~optshare.scaled.ScaledGame`.  :func:`add_on` and the slot-by-slot
session on one optimization (:func:`step_session`, which plays the bids
still in play with its serviced users pinned) build their traces from its
settlement.  Its log is its ceilings, as for every kernel: per
optimization, the highest cost at which the same bids join in the same
slots, so a sweep (:func:`~optshare.scaled.settle_points`) runs it once per
distinct outcome and fills every dearer point up to a ceiling without a
run.  On one slot it is the offline equal-share mechanism
(:mod:`optshare.shapley`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineGame,
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
from .scaled import ScaledGame, ScaledSettlement, _fixed_point, served_and_paid

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; the session rescales through ``ScaledGame`` like ``add_on``.
from .scaled import common_scale  # noqa: F401


@dataclass(frozen=True)
class OnlineTrace:
    schedule: ServiceSchedule
    payments: dict[UserId, Money]
    share_history: dict[tuple[OptId, Slot], Money]  # (opt, slot) -> cost/|cumulative| once non-empty
    _scaled: ScaledGame = field(repr=False, compare=False)  # the game and settlement it was built from
    _run: ScaledSettlement = field(repr=False, compare=False)


def serve(game: ScaledGame, costs: Mapping[OptId, int], pinned: int = 0, through: Slot | None = None) -> ScaledSettlement:
    """The online additive mechanism for every optimization in ``costs``, at
    its scaled cost there; ``pinned`` users outside the game, serviced before
    it, count toward every share.  A bid joining at slot t is served from t
    to its end and pays ``cost / count[end]``.  The implemented optimizations
    are a dict: ``count``, the serviced users after each slot (index 0
    unused), of each optimization whose count ends positive.  Play stops
    after slot ``through`` (the horizon if None): no bid joins later.

    The log holds each optimization's ceiling, if any bid joins it: the
    highest cost at which the same bids join in the same slots, the least
    ``v * (k + m)`` over the slots where ``m`` bids join, ``v`` the lowest of
    their offers and ``k`` the users serviced before the slot.  Up to it
    every slot's ``m`` bids still cover their share and no more bids do;
    above it one slot's ``m`` bids no longer do.  As the cost rises a bid's
    join slot never moves earlier, and a bid left out stays out (the equal
    share is cross-monotonic), so the ceilings bound exactly the dearer
    costs with the same joins, and :func:`~optshare.scaled.settle_points`
    runs ``serve`` once per distinct outcome.
    """
    entries = {}
    counts = {}
    ceilings = {}
    offers, interest, ends, z = game.offers, game.interest, game.ends, game.z
    last = z if through is None else through
    for j, cost in costs.items():
        joined: dict[int, Slot] = {}
        count = [0] * (z + 1)
        k = pinned
        ceiling = None
        for t in range(1, last + 1):
            if offers[t]:
                open_bids = [o for o in offers[t] if o[1] not in joined and j in interest[o[1]]]
                m = _fixed_point(cost, open_bids, k)
                if m:
                    k += m
                    bound = open_bids[m - 1][0] * k
                    if ceiling is None or bound < ceiling:
                        ceiling = bound
                    for _, i in open_bids[:m]:
                        joined[i] = t
            count[t] = k
        if last < z:
            count[last + 1 :] = [k] * (z - last)
        for i, t in joined.items():
            entries[i] = (j, t, ends[i], cost, count[ends[i]])
        if k:
            counts[j] = count
        if joined:
            ceilings[j] = ceiling
    return entries, counts, ceilings


def _trace(game: ScaledGame, run: ScaledSettlement, through: Slot) -> OnlineTrace:
    """The trace of ``serve``'s settlement of a game played through slot
    ``through``, where every bid's service ends: each optimization's share
    in each slot once some user is serviced, optimization by optimization."""
    history = {}
    for opt, count in run[1].items():
        cost, count = game.costs[0][opt], count[: through + 1]
        shares = {k: Fraction(cost, k * game.scale) for k in set(count) if k}
        history.update(((opt, t), shares[k]) for t, k in enumerate(count) if k)
    return OnlineTrace(*served_and_paid(game, run), history, game, run)


def add_on(game: AdditiveOnlineGame) -> OnlineTrace:
    """Run the online additive mechanism on every optimization of the game
    for the whole horizon."""
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
        one served from its join slot: through its end if that has been
        fed, when it pays, else through the last fed slot, charged 0."""
        opt, joined, through = self.optimization.id, self.joined, self.next_slot - 1
        game = ScaledGame(AdditiveOnlineGame((self.optimization,), self.horizon, tuple(self.declared.values())))
        slots = sorted(joined.values())
        count = [bisect_right(slots, t) for t in range(game.z + 1)]  # serviced users after each slot
        cost, ends = game.costs[0][opt], game.ends
        entries = {
            i: (opt, joined[u], ends[i], cost, count[ends[i]]) if ends[i] <= through else (opt, joined[u], through, 0, 1)
            for i, u in enumerate(game.users)
            if u in joined
        }
        return _trace(game, (entries, {opt: count} if joined else {}, {}), through)


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
    for bid in AdditiveOnlineGame((state.optimization,), state.horizon, bids).bids:  # checks opt and window
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
    scaled = ScaledGame(AdditiveOnlineGame((opt,), state.horizon, open_bids))
    new, _, _ = serve(scaled, scaled.costs[0], len(joined), slot)
    joined.update((scaled.users[i], t) for i, (_, t, *_) in new.items())

    serviced = frozenset(u for u in joined if declared[u].end >= slot)
    departures = {u: opt.cost / len(joined) if u in joined else ZERO for u, b in declared.items() if b.end == slot}
    return serviced, departures, replace(state, next_slot=slot + 1, declared=declared, joined=joined)
