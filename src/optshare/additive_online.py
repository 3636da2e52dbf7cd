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
cost point of a trial; :func:`add_on` builds the full trace from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
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
from .shapley import _fixed_point, common_scale


@dataclass(frozen=True)
class OnlineTrace:
    schedule: ServiceSchedule
    payments: dict[UserId, Money]
    share_history: dict[Slot, Money]  # slot -> cost/|cumulative| once non-empty


def serve(game: ScaledGame, opt: OptId, cost: int) -> tuple[dict[int, Slot], list[int]]:
    """The online additive mechanism for optimization ``opt`` at scaled cost
    ``cost``: the slot each serviced bid joined, by bid index, and the
    cumulative serviced count after each slot (index 0 unused).  A bid that
    joins at slot t is serviced from t to the end of its window and pays
    ``cost / count[end]``."""
    joined: dict[int, Slot] = {}
    count = [0] * (game.z + 1)
    offers, interest = game.offers, game.interest
    k = 0
    for t in range(1, game.z + 1):
        if offers[t]:
            open_bids = [o for o in offers[t] if o[1] not in joined and opt in interest[o[1]]]
            m = _fixed_point(cost, open_bids, k)
            for _, i in open_bids[:m]:
                joined[i] = t
            k += m
        count[t] = k
    return joined, count


def add_on(game: OnlineAdditiveGame) -> OnlineTrace:
    """Run the online additive mechanism for the whole horizon."""
    opt = game.optimization
    scaled = ScaledGame(game)
    joined, count = serve(scaled, opt.id, scaled.costs[0][opt.id])
    users, ends = scaled.users, scaled.ends
    shares = {k: opt.cost / k for k in set(count) if k}
    share_history = {t: shares[k] for t, k in enumerate(count) if k}
    active: dict[Slot, list[UserId]] = {}
    for i, t in joined.items():
        for tau in range(t, ends[i] + 1):
            active.setdefault(tau, []).append(users[i])
    served = {(opt.id, t): frozenset(active[t]) for t in sorted(active)}
    payments: dict[UserId, Money] = dict.fromkeys(users, ZERO)
    for i in joined:
        payments[users[i]] = shares[count[ends[i]]]
    return OnlineTrace(ServiceSchedule(served), payments, share_history)


# ---------------------------------------------------------------------------
# Incremental session driver (slot-by-slot feed with bid revisions)


@dataclass(frozen=True)
class SessionState:
    optimization: Optimization
    horizon: SlotHorizon
    next_slot: Slot
    declared: dict[UserId, AdditiveOnlineBid]
    cumulative: frozenset[UserId]
    served: dict[tuple[int, Slot], frozenset[UserId]]
    payments: dict[UserId, Money]
    share_history: dict[Slot, Money]

    def trace(self) -> OnlineTrace:
        payments = {u: self.payments.get(u, ZERO) for u in self.declared}
        return OnlineTrace(ServiceSchedule(dict(self.served)), payments, dict(self.share_history))


def new_session(optimization: Optimization, horizon: SlotHorizon) -> SessionState:
    return SessionState(optimization, horizon, 1, {}, frozenset(), {}, {}, {})


def step_session(
    state: SessionState, slot: Slot, bids: Iterable[AdditiveOnlineBid] = ()
) -> tuple[frozenset[UserId], dict[UserId, Money], SessionState]:
    """Advance the session to ``slot``, absorbing new or revised bids first.

    Slots must be fed in strictly increasing order; skipped slots are played
    out with no new arrivals.  New bids must not start in the past and
    revisions must leave past slots untouched and only move future values
    upward.  Returns (serviced set at ``slot``, departures with their
    payments, new state).
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

    cost = state.optimization.cost
    cs = set(state.cumulative)
    served = dict(state.served)
    payments = dict(state.payments)
    share_history = dict(state.share_history)
    serviced_now: frozenset[UserId] = frozenset()
    departures: dict[UserId, Money] = {}

    for t in range(state.next_slot, slot + 1):
        residuals = {
            u: b.residual_from(t)
            for u, b in declared.items()
            if u not in cs and b.start <= t
        }
        scale = common_scale([cost, *residuals.values()])
        cost_s = cost.numerator * (scale // cost.denominator)
        finite = sorted(
            ((r.numerator * (scale // r.denominator), u) for u, r in residuals.items()), key=itemgetter(0), reverse=True
        )
        cs.update(u for _, u in finite[: _fixed_point(cost_s, finite, len(cs))])
        share = cost / len(cs) if cs else None
        if share is not None:
            share_history[t] = share
        active = frozenset(u for u in cs if t <= declared[u].end)
        if active:
            served[(state.optimization.id, t)] = active
        if t == slot:
            serviced_now = active
        for u, b in declared.items():
            if b.end == t:
                paid = share if u in cs else ZERO
                payments[u] = paid
                if t == slot:
                    departures[u] = paid

    new_state = replace(
        state,
        next_slot=slot + 1,
        declared=declared,
        cumulative=frozenset(cs),
        served=served,
        payments=payments,
        share_history=share_history,
    )
    return serviced_now, departures, new_state
