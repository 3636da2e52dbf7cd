"""Online mechanism for one additive optimization over a slot horizon.

Each slot re-runs the equal-share mechanism on *residual* bids (declared
value from the current slot onward).  Users already serviced are pinned with
infinite bids, so the cumulative serviced set never shrinks and the share
only falls as newcomers join.  A user pays exactly once, when her bid
expires, at the share computed in that slot; users who left stay pinned and
keep lowering later arrivals' shares.

The mechanism itself is one integer kernel, :func:`serve`, over a
:class:`~optshare.scaled.ScaledGame`: it reports the slot each serviced bid
joined and the cumulative serviced count per slot, from which every share
and payment follows.  The experiment harness reads those directly, once per
cost point of a trial; :func:`add_on` and the slot-by-slot session
(:func:`step_session`, which plays the bids still in play with its serviced
users pinned) build their traces from the join slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable

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
from .scaled import ScaledGame
from .shapley import _fixed_point

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; the session rescales through ``ScaledGame`` like ``add_on``.
from .shapley import common_scale  # noqa: F401


@dataclass(frozen=True)
class OnlineTrace:
    schedule: ServiceSchedule
    payments: dict[UserId, Money]
    share_history: dict[Slot, Money]  # slot -> cost/|cumulative| once non-empty


def serve(game: ScaledGame, opt: OptId, cost: int, pinned: int = 0) -> tuple[dict[int, Slot], list[int]]:
    """The online additive mechanism for optimization ``opt`` at scaled cost
    ``cost``: the slot each serviced bid joined, by bid index, and the
    cumulative serviced count after each slot (index 0 unused).  ``pinned``
    users outside the game, serviced before it, count toward every share.  A
    bid that joins at slot t is serviced from t to the end of its window and
    pays ``cost / count[end]``."""
    joined: dict[int, Slot] = {}
    count = [0] * (game.z + 1)
    offers, interest = game.offers, game.interest
    k = pinned
    for t in range(1, game.z + 1):
        if offers[t]:
            open_bids = [o for o in offers[t] if o[1] not in joined and opt in interest[o[1]]]
            m = _fixed_point(cost, open_bids, k)
            for _, i in open_bids[:m]:
                joined[i] = t
            k += m
        count[t] = k
    return joined, count


def _trace(
    opt: Optimization, bids: Iterable[AdditiveOnlineBid], joined: dict[UserId, Slot], through_slot: Slot
) -> OnlineTrace:
    """The trace of ``bids`` played through ``through_slot``, given the slot
    each serviced user joined: a serviced bid is served from its join slot to
    the end of its window, and pays the share of its last slot once that slot
    has been played."""
    count = [0] * (through_slot + 1)
    for t in joined.values():
        count[t] += 1
    count = list(accumulate(count))  # serviced users after each slot
    shares = {k: opt.cost / k for k in set(count) if k}
    active: dict[Slot, list[UserId]] = {}
    payments: dict[UserId, Money] = {}
    for b in bids:
        if b.user in joined:
            for t in range(joined[b.user], min(b.end, through_slot) + 1):
                active.setdefault(t, []).append(b.user)
        paid = b.user in joined and b.end <= through_slot
        payments[b.user] = shares[count[b.end]] if paid else ZERO
    served = {(opt.id, t): frozenset(active[t]) for t in sorted(active)}
    return OnlineTrace(ServiceSchedule(served), payments, {t: shares[k] for t, k in enumerate(count) if k})


def add_on(game: OnlineAdditiveGame) -> OnlineTrace:
    """Run the online additive mechanism for the whole horizon."""
    opt = game.optimization
    scaled = ScaledGame(game)
    joined, _ = serve(scaled, opt.id, scaled.costs[0][opt.id])
    users = scaled.users
    return _trace(opt, game.bids, {users[i]: t for i, t in joined.items()}, game.horizon.z)


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
        return _trace(self.optimization, self.declared.values(), self.joined, self.next_slot - 1)


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
    serviced, each cut to those slots, which :func:`serve` plays with the
    serviced users pinned; its joins up to ``slot`` are kept.
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
    new, _ = serve(scaled, opt.id, scaled.costs[0][opt.id], len(joined))
    joined.update((scaled.users[i], t) for i, t in new.items() if t <= slot)

    serviced = frozenset(u for u in joined if declared[u].end >= slot)
    departures = {u: opt.cost / len(joined) if u in joined else ZERO for u, b in declared.items() if b.end == slot}
    return serviced, departures, replace(state, next_slot=slot + 1, declared=declared, joined=joined)
