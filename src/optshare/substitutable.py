"""Mechanisms for substitutable optimizations.

Offline: repeated phases.  Each phase runs the equal-share mechanism for
every not-yet-implemented optimization over the not-yet-serviced users who
want it, implements the feasible optimization with the smallest cost share,
and charges its serviced users that share.  Ties break deterministically on
the lowest optimization id (the tie is recorded in the phase log so strategy
studies can explore the randomized variant).

Online: the offline mechanism re-runs each slot on residual values.  The
first time a user is granted an optimization she is pinned to it (infinite
bid there, zero elsewhere), so she can never switch and stays in the pool,
even after leaving, to keep later users' shares honest.

Both run the same integer phase loop.  The online mechanism is one kernel,
:func:`grant`, over a :class:`~optshare.scaled.ScaledGame`; :func:`subst_on`
builds its trace from the kernel's settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, TypeVar

from .core import (
    GameError,
    OptId,
    Optimization,
    Outcome,
    PaymentLedger,
    ServiceSchedule,
    Slot,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    UserId,
)
from .money import Money
from .scaled import ScaledGame, ScaledSettlement, served_and_paid
from .shapley import _fixed_point, common_scale

K = TypeVar("K")  # bidder key: a user id, or a bid index inside a kernel


@dataclass(frozen=True)
class Phase:
    opt: OptId
    serviced: frozenset[UserId]
    share: Money
    tied_with: tuple[OptId, ...] = ()  # other optimizations at the same share


@dataclass(frozen=True)
class SubstOffResult:
    outcome: Outcome
    payments: PaymentLedger
    phases: tuple[Phase, ...]


def _phases_scaled(
    costs_scaled: Mapping[OptId, int],
    offers: Sequence[tuple[int, K]],
    interest: Mapping[K, frozenset[OptId]] | Sequence[frozenset[OptId]],
    pinned: Mapping[K, OptId],
) -> list[tuple[OptId, list[K], tuple[OptId, ...]]]:
    """Phase loop over integer-scaled bids; returns (opt, serviced, ties) per
    phase in selection order.

    ``offers`` holds (value, bidder) of each unpinned bidder, highest value
    first; a bidder values every optimization in ``interest[bidder]`` the
    same.  Pinned bidders always count for their pinned optimization and
    nothing else.  Shares are compared by integer cross-multiplication
    (cost_j * |S_k| vs cost_k * |S_j|)."""
    unserved = {key for _, key in offers} | set(pinned)
    pins_by_opt: dict[OptId, list[K]] = {}
    for key, opt in pinned.items():
        pins_by_opt.setdefault(opt, []).append(key)
    bidders_by_opt: dict[OptId, list[tuple[int, K]]] = {}
    for offer in offers:
        for j in interest[offer[1]]:
            bidders_by_opt.setdefault(j, []).append(offer)
    # only optimizations someone bids on or is pinned to can ever be picked
    remaining = sorted(pins_by_opt.keys() | bidders_by_opt.keys())

    phases = []
    while remaining and unserved:
        best = None  # (cost_scaled, serviced count, opt id)
        candidates = {}  # opt -> (unserved pins, unserved bidders, bidders kept, count)
        for j in remaining:  # ascending ids: strict < keeps the lowest id on ties
            pins = [u for u in pins_by_opt.get(j, ()) if u in unserved]
            finite = [o for o in bidders_by_opt.get(j, ()) if o[1] in unserved]
            kept = _fixed_point(costs_scaled[j], finite, len(pins))
            count = len(pins) + kept
            if count == 0:
                continue
            candidates[j] = (pins, finite, kept, count)
            if best is None or costs_scaled[j] * best[1] < best[0] * count:
                best = (costs_scaled[j], count, j)
        if best is None:
            break
        best_cost, best_count, best_opt = best
        ties = tuple(
            j for j, c in candidates.items() if j != best_opt and costs_scaled[j] * best_count == best_cost * c[3]
        )
        pins, finite, kept, _ = candidates[best_opt]
        serviced = pins + [key for _, key in finite[:kept]]
        phases.append((best_opt, serviced, ties))
        unserved.difference_update(serviced)
        remaining.remove(best_opt)
    return phases


def subst_off(
    catalog: Iterable[Optimization], bids: Iterable[SubstitutableOfflineBid]
) -> SubstOffResult:
    """Offline mechanism for substitutable optimizations."""
    game = SubstOfflineGame(tuple(catalog), tuple(bids))
    users = [b.user for b in game.bids]
    if len(users) != len(set(users)):
        raise GameError("one bid per user per game")
    costs = {o.id: o.cost for o in game.catalog}
    scale = common_scale([*costs.values(), *(b.value for b in game.bids)])
    costs_s = {j: c.numerator * (scale // c.denominator) for j, c in costs.items()}
    offers = sorted(
        ((b.value.numerator * (scale // b.value.denominator), b.user) for b in game.bids),
        key=itemgetter(0),
        reverse=True,
    )
    interest = {b.user: b.substitutes for b in game.bids}
    raw = _phases_scaled(costs_s, offers, interest, {})
    return _phases_to_result(
        [Phase(opt, frozenset(serviced), costs[opt] / len(serviced), ties) for opt, serviced, ties in raw]
    )


def _phases_to_result(phases: list[Phase]) -> SubstOffResult:
    implemented = frozenset(p.opt for p in phases)
    grants = frozenset((u, p.opt) for p in phases for u in p.serviced)
    entries = {(u, p.opt): p.share for p in phases for u in p.serviced}
    return SubstOffResult(Outcome(implemented, grants), PaymentLedger(entries), tuple(phases))


# ---------------------------------------------------------------------------
# Online variant


@dataclass(frozen=True)
class SubstOnlineTrace:
    schedule: ServiceSchedule
    payments: dict[UserId, Money]
    granted: dict[UserId, OptId]  # final pinning of each serviced user
    grant_slot: dict[UserId, Slot]
    implemented: frozenset[OptId]
    slot_phases: dict[Slot, tuple[Phase, ...]]

    def outcome(self) -> Outcome:
        return Outcome(self.implemented, frozenset(self.granted.items()))


def grant(game: ScaledGame, costs: Mapping[OptId, int]) -> ScaledSettlement:
    """The online substitutable mechanism at scaled costs ``costs``.  A bid
    granted j in slot t is served j from t to the end of its window and pays
    ``costs[j]`` over the number of bids granted j by its last slot.  The
    log holds each slot's phases as ``_phases_scaled`` returns them (index 0
    unused; empty in a slot without a new offer, which grants nobody); the
    implemented optimizations are those granted to anyone."""
    granted: dict[int, OptId] = {}
    joined: dict[int, Slot] = {}
    tally: dict[OptId, int] = {}
    tallies = [{}]  # tallies[t]: bids granted each optimization through slot t
    slot_phases: list[list] = [[]]
    for t in range(1, game.z + 1):
        offers = [o for o in game.offers[t] if o[1] not in granted]
        phases = _phases_scaled(costs, offers, game.interest, granted) if offers else []
        for opt, serviced, _ in phases:
            for i in serviced:
                if i not in granted:
                    granted[i] = opt
                    joined[i] = t
                    tally[opt] = tally.get(opt, 0) + 1
        tallies.append(tally.copy())
        slot_phases.append(phases)
    entries = {}
    ends = game.ends
    for i, t in joined.items():
        j, end = granted[i], ends[i]
        entries[i] = (j, t, end, costs[j], tallies[end][j])
    return entries, tally, slot_phases


def subst_on(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    bids: Iterable[SubstitutableOnlineBid],
) -> SubstOnlineTrace:
    """Online mechanism for substitutable optimizations."""
    game = SubstOnlineGame(tuple(catalog), horizon, tuple(bids))
    scaled = ScaledGame(game)
    run = grant(scaled, scaled.costs[0])
    entries, implemented, phases = run
    users, costs, scale = scaled.users, scaled.costs[0], scaled.scale
    slot_phases: dict[Slot, tuple[Phase, ...]] = {}
    for t in horizon.slots():
        # grant skips the slots without a new offer: their phases pin only
        # the bids granted before them
        raw = phases[t] or _phases_scaled(costs, [], scaled.interest, {i: e[0] for i, e in entries.items() if e[1] < t})
        slot_phases[t] = tuple(
            Phase(opt, frozenset([users[i] for i in serviced]), Fraction(costs[opt], len(serviced) * scale), ties)
            for opt, serviced, ties in raw
        )
    schedule, payments = served_and_paid(scaled, run, horizon.z)
    return SubstOnlineTrace(
        schedule,
        payments,
        {users[i]: e[0] for i, e in entries.items()},
        {users[i]: e[1] for i, e in entries.items()},
        frozenset(implemented),
        slot_phases,
    )
