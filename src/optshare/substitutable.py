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
:func:`grant`, over a :class:`~optshare.scaled.ScaledGame`: it reports the
optimization and slot each serviced bid was granted, the cumulative count
per optimization and slot, and the phases of every slot with a new offer.
The experiment harness reads the first three directly, once per cost point
of a trial; :func:`subst_on` builds the full trace from all four, adding
the phases of the slots where only pinned users remain.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .money import ZERO, Money
from .scaled import ScaledGame
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


def grant(
    game: ScaledGame, costs: Mapping[OptId, int]
) -> tuple[dict[int, OptId], dict[int, Slot], dict[OptId, list[int]], list[list]]:
    """The online substitutable mechanism at scaled costs ``costs``, by bid
    index: the optimization each serviced bid was granted, the slot it was
    granted in, the cumulative number of bids granted each optimization after
    each slot, and each slot's phases as ``_phases_scaled`` returns them
    (index 0 unused in the last two; empty in a slot without a new offer,
    which grants nobody).  A bid granted j is serviced from its grant slot
    to the end of its window and pays ``costs[j] / count[j][end]``."""
    granted: dict[int, OptId] = {}
    joined: dict[int, Slot] = {}
    count: dict[OptId, list[int]] = {}
    tally: dict[OptId, int] = {}
    slot_phases: list[list] = [[]]
    for t in range(1, game.z + 1):
        offers = [o for o in game.offers[t] if o[1] not in granted]
        phases = _phases_scaled(costs, offers, game.interest, granted) if offers else []
        for opt, serviced, _ in phases:
            for i in serviced:
                if i not in granted:
                    granted[i] = opt
                    joined[i] = t
                    if opt not in tally:
                        tally[opt] = 0
                        count[opt] = [0] * (game.z + 1)
                    tally[opt] += 1
        for j, n in tally.items():
            count[j][t] = n
        slot_phases.append(phases)
    return granted, joined, count, slot_phases


def subst_on(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    bids: Iterable[SubstitutableOnlineBid],
) -> SubstOnlineTrace:
    """Online mechanism for substitutable optimizations."""
    game = SubstOnlineGame(tuple(catalog), horizon, tuple(bids))
    scaled = ScaledGame(game)
    granted, joined, count, raw_phases = grant(scaled, scaled.costs[0])
    users, ends = scaled.users, scaled.ends
    costs = {o.id: o.cost for o in game.catalog}
    shares: dict[tuple[OptId, int], Money] = {}  # (opt, serviced count) -> cost share

    def share(opt: OptId, k: int) -> Money:
        if (opt, k) not in shares:
            shares[(opt, k)] = costs[opt] / k
        return shares[(opt, k)]

    slot_phases: dict[Slot, tuple[Phase, ...]] = {}
    for t in horizon.slots():
        # grant skips the slots without a new offer: their phases pin only
        # the bids granted before them
        raw = raw_phases[t] or _phases_scaled(
            scaled.costs[0], [], scaled.interest, {i: j for i, j in granted.items() if joined[i] < t}
        )
        slot_phases[t] = tuple(
            Phase(opt, frozenset([users[i] for i in serviced]), share(opt, len(serviced)), ties)
            for opt, serviced, ties in raw
        )
    active: dict[tuple[OptId, Slot], list[UserId]] = {}
    for i, j in granted.items():
        for t in range(joined[i], ends[i] + 1):
            active.setdefault((j, t), []).append(users[i])
    served = {key: frozenset(members) for key, members in active.items()}
    payments: dict[UserId, Money] = dict.fromkeys(users, ZERO)
    for i, j in granted.items():
        payments[users[i]] = share(j, count[j][ends[i]])

    return SubstOnlineTrace(
        ServiceSchedule(served),
        payments,
        {users[i]: j for i, j in granted.items()},
        {users[i]: t for i, t in joined.items()},
        frozenset(granted.values()),
        slot_phases,
    )
