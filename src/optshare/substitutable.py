"""Mechanisms for substitutable optimizations.

Offline: repeated phases.  Each phase runs the equal-share mechanism for
every not-yet-implemented optimization over the not-yet-serviced users who
want it, implements the feasible optimization with the smallest cost share,
and charges its serviced users that share.  Ties break deterministically on
the lowest optimization id (the tie is recorded in the phase log so strategy
studies can explore the randomized variant).

Online: the offline mechanism re-runs each slot on residual values.  The
first time a user is granted an optimization, the user is pinned to it
(counted there, nowhere else): a pinned user can never switch and stays in
the pool, even after leaving, to keep later users' shares honest.

Both settle through one integer kernel, :func:`grant`, over a
:class:`~optshare.scaled.ScaledGame` (the offline mechanism over the one-slot
game); pins are counts per optimization, and a slot plays only the phases
that serve an offer (:func:`_grants`).  Each run reports per optimization
the highest cost up to which, every cost scaled alike, it grants the same
bids in the same slots, so a sweep runs it once per distinct outcome
(:func:`~optshare.scaled.settle_points`).  Both mechanisms return its
settlement as a :class:`~optshare.scaled.Settlement`.  Its full phase log
(``phases``, ``slot_phases``) reruns the phase loop :func:`_phases_scaled`
per slot (:func:`_phase_log`), so it is built from the settlement and its
game only when read; no suite or kernel reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    OptId,
    Optimization,
    Slot,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    UserId,
)
from .money import Money
from .scaled import ScaledGame, ScaledSettlement, Settlement, _fixed_point

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; both mechanisms rescale through ``ScaledGame``.
from .scaled import common_scale  # noqa: F401


@dataclass(frozen=True)
class Phase:
    opt: OptId
    serviced: frozenset[UserId]
    share: Money
    tied_with: tuple[OptId, ...] = ()  # other optimizations at the same share


def _phases_scaled(
    costs_scaled: Mapping[OptId, int],
    offers: Sequence[tuple[int, int]],
    interest: Sequence[frozenset[OptId]],
    pins: Mapping[OptId, int],
) -> list[tuple[OptId, list[int], tuple[OptId, ...]]]:
    """Phase loop over integer-scaled bids; returns (opt, served offers,
    ties) per phase in selection order.

    ``offers`` holds (value, bidder) of each unpinned bidder, highest value
    first; a bidder values every optimization in ``interest[bidder]`` the
    same.  ``pins[j]`` bidders are pinned to ``j``: they count for ``j`` and
    nothing else, and ``j``'s phase serves all of them, so a phase lists
    only the offers it serves.  Shares are compared by integer
    cross-multiplication (cost_j * |S_k| vs cost_k * |S_j|)."""
    bidders_by_opt: dict[OptId, list[tuple[int, int]]] = {}
    for offer in offers:
        for j in interest[offer[1]]:
            bidders_by_opt.setdefault(j, []).append(offer)
    # only optimizations someone bids on or is pinned to can ever be picked
    remaining = sorted(pins.keys() | bidders_by_opt.keys())
    served: set[int] = set()

    phases = []
    while remaining:
        best = None  # (cost_scaled, serviced count, opt id)
        candidates = {}  # opt -> (unserved bidders, bidders kept, count)
        for j in remaining:  # ascending ids: strict < keeps the lowest id on ties
            finite = bidders_by_opt[j] = [o for o in bidders_by_opt.get(j, ()) if o[1] not in served]
            kept = _fixed_point(costs_scaled[j], finite, pins.get(j, 0))
            count = pins.get(j, 0) + kept
            if count == 0:
                continue
            candidates[j] = (finite, kept, count)
            if best is None or costs_scaled[j] * best[1] < best[0] * count:
                best = (costs_scaled[j], count, j)
        if best is None:
            break
        best_cost, best_count, best_opt = best
        ties = tuple(
            j for j, c in candidates.items() if j != best_opt and costs_scaled[j] * best_count == best_cost * c[2]
        )
        finite, kept, _ = candidates[best_opt]
        new = [key for _, key in finite[:kept]]
        phases.append((best_opt, new, ties))
        served.update(new)
        # losing bidders never brings a count back above 0
        remaining = [j for j in candidates if j != best_opt]
    return phases


def subst_off(catalog: Iterable[Optimization], bids: Iterable[SubstitutableOfflineBid]) -> Settlement:
    """Offline mechanism for substitutable optimizations: :func:`grant` on
    the one-slot game, each of whose served bids pays its optimization's cost
    over the number of bids it serves."""
    game = ScaledGame(SubstOfflineGame(tuple(catalog), tuple(bids)))
    return Settlement(game, grant(game, game.costs[0]), 1)


def _phase_log(scaled: ScaledGame, entries: Mapping[int, tuple]) -> dict[Slot, tuple[Phase, ...]]:
    """Every slot's phases of the offline mechanism, over all pins and the
    offers not granted before it, for the settlement ``entries`` of
    :func:`grant` on ``scaled``."""
    users, costs, scale = scaled.users, scaled.costs[0], scaled.scale
    pinned: dict[OptId, list[int]] = {}  # bids granted before slot t, by optimization
    slot_phases: dict[Slot, tuple[Phase, ...]] = {}
    for t in range(1, scaled.z + 1):
        offers = [o for o in scaled.offers[t] if entries.get(o[1], (0, t))[1] >= t]
        phases = []
        for opt, served, ties in _phases_scaled(costs, offers, scaled.interest, {j: len(b) for j, b in pinned.items()}):
            members = [users[i] for i in [*pinned.get(opt, ()), *served]]
            phases.append(Phase(opt, frozenset(members), Fraction(costs[opt], len(members) * scale), ties))
        slot_phases[t] = tuple(phases)
        for i, (j, first, *_) in entries.items():
            if first == t:
                pinned.setdefault(j, []).append(i)
    return slot_phases


# ---------------------------------------------------------------------------
# Online variant


def _grants(
    costs_scaled: Mapping[OptId, int],
    offers: Sequence[tuple[int, int]],
    interest: Sequence[frozenset[OptId]],
    pins: Mapping[OptId, int],
    ceilings: dict[OptId, int] | None = None,
) -> list[tuple[OptId, list[int]]]:
    """The phases of :func:`_phases_scaled` that serve an offer, as (opt,
    served offers), in selection order; arguments as there.

    A phase whose best candidate keeps no offer (its count is just its
    pins) serves nobody, so it changes neither the served set nor any other
    candidate's kept count.  As bids are served an optimization's kept count
    can only fall (it is a fixed point over fewer bids), so a candidate that
    keeps none is dropped for good.  The phases that serve thus come in the
    same order, with the same tie-break (lowest id among equal shares), and
    this loop plays only those: no ties, no pinned-only phases.  It stops as
    soon as every offer is served.  A single offer (v, i) goes in closed form
    to the lowest (cost_j / (pins_j + 1), j) over the j in ``interest[i]``
    with v * (pins_j + 1) >= cost_j, if any.

    Each phase lowers its optimization's entry in ``ceilings``, if given, to
    ``v * count``, ``v`` the lowest offer it serves and ``count`` the pins
    and offers it counts: the highest cost at which it keeps those offers.
    """
    if ceilings is None:
        ceilings = {}
    if len(offers) == 1:
        v, i = offers[0]
        best = None
        for j in interest[i]:
            cost, count = costs_scaled[j], pins.get(j, 0) + 1
            if v * count >= cost and (
                best is None or cost * best[1] < best[0] * count or (cost * best[1] == best[0] * count and j < best[2])
            ):
                best = (cost, count, j)
        if best is None:
            return []
        bound = v * best[1]
        if bound < ceilings.get(best[2], bound + 1):
            ceilings[best[2]] = bound
        return [(best[2], [i])]
    bidders_by_opt: dict[OptId, list[tuple[int, int]]] = {}
    for offer in offers:
        for j in interest[offer[1]]:
            bidders_by_opt.setdefault(j, []).append(offer)
    remaining = sorted(bidders_by_opt)
    unserved = len(offers)
    phases = []
    while True:
        best = None  # (cost_scaled, serviced count, opt id, bidders kept)
        candidates = []
        for j in remaining:  # ascending ids: strict < keeps the lowest id on ties
            count = pins.get(j, 0)
            kept = _fixed_point(costs_scaled[j], bidders_by_opt[j], count)
            if kept:
                candidates.append(j)
                count += kept
                if best is None or costs_scaled[j] * best[1] < best[0] * count:
                    best = (costs_scaled[j], count, j, kept)
        if best is None:
            return phases
        opt, kept = best[2], best[3]
        bidders = bidders_by_opt[opt]
        bound = bidders[kept - 1][0] * best[1]
        if bound < ceilings.get(opt, bound + 1):
            ceilings[opt] = bound
        new = [key for _, key in bidders[:kept]]
        phases.append((opt, new))
        unserved -= kept
        if not unserved:
            return phases
        served = set(new)
        candidates.remove(opt)
        for j in candidates:
            bidders_by_opt[j] = [o for o in bidders_by_opt[j] if o[1] not in served]
        remaining = candidates


def grant(game: ScaledGame, costs: Mapping[OptId, int]) -> ScaledSettlement:
    """The online substitutable mechanism at scaled costs ``costs``.  A bid
    granted j in slot t is served j from t to the end of its window and pays
    ``costs[j]`` over the number of bids granted j by its last slot.  An
    optimization is implemented in the slot it is first granted.  A slot
    with a new offer plays :func:`_grants` with the bids granted before it
    as pin counts: only the phases that serve an offer, each of which pins
    its served bids to its optimization.

    The log holds each granted optimization's ceiling, the least ``v *
    count`` over the phases that grant it (see :func:`_grants`).  With every
    cost scaled by one factor no share comparison changes, so up to the
    ceilings each such phase picks the same optimization and keeps the same
    offers: a candidate it passes over keeps no more offers at a dearer
    cost, so no smaller a share, and one that keeps none would keep none
    later in the slot too.  Every grant, tally and denominator is then the same, and
    every charge is its optimization's cost.
    """
    granted: dict[int, tuple[OptId, Slot]] = {}
    tally: dict[OptId, int] = {}  # bids granted each optimization so far
    tallies = [tally]  # tallies[t]: the tally through slot t, never mutated
    implemented: dict[OptId, Slot] = {}
    ceilings: dict[OptId, int] = {}
    interest = game.interest
    for t in range(1, game.z + 1):
        offers = [o for o in game.offers[t] if o[1] not in granted]
        if offers:
            phases = _grants(costs, offers, interest, tally, ceilings)
            if phases:
                tally = tally.copy()
                for opt, served in phases:
                    if opt in tally:
                        tally[opt] += len(served)
                    else:
                        tally[opt] = len(served)
                        implemented[opt] = t
                    for i in served:
                        granted[i] = (opt, t)
        tallies.append(tally)
    entries = {}
    ends = game.ends
    for i, (j, t) in granted.items():
        end = ends[i]
        entries[i] = (j, t, end, costs[j], tallies[end][j])
    return entries, implemented, ceilings


def subst_on(
    catalog: Iterable[Optimization],
    horizon: SlotHorizon,
    bids: Iterable[SubstitutableOnlineBid],
) -> Settlement:
    """Online mechanism for substitutable optimizations."""
    scaled = ScaledGame(SubstOnlineGame(tuple(catalog), horizon, tuple(bids)))
    return Settlement(scaled, grant(scaled, scaled.costs[0]), horizon.z)
