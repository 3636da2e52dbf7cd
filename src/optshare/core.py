"""Shared domain types: optimizations, bids, outcomes, payments, schedules.

Every type is an immutable value after construction and is safe to share
across concurrent tasks; the mappings inside one are :class:`FrozenDict`
copies.  Monetary fields are exact rationals (see :mod:`optshare.money`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .money import Money, ZERO

UserId = int
OptId = int
Slot = int


class GameError(ValueError):
    """Invalid game data (bad slot bounds, non-positive cost, ...)."""


class CatalogMismatch(GameError):
    """A bid or outcome references an optimization not in the catalog."""


class SlotOrderError(GameError):
    """Session slots must be fed strictly in increasing order."""


class EnumerationGuard(GameError):
    """Instance too large for the brute-force oracle."""


class FrozenDict(dict):
    """A dict that cannot be changed after construction; every mutating
    method raises ``TypeError``.  Repr, equality and pickling are a dict's."""

    __slots__ = ()

    def _frozen(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen

    def __reduce__(self):
        return type(self), (dict(self),)


# The sign checks read a Fraction's or an int's numerator: comparing a
# Fraction with an int would pass through the int's ABC check on every
# amount.  Any other type is compared as it is.
_EXACT = (Fraction, int)


def _negative(v) -> bool:
    """``v < 0``."""
    return v.numerator < 0 if type(v) in _EXACT else v < 0


def _nonpositive(v) -> bool:
    """``v <= 0``."""
    return v.numerator <= 0 if type(v) in _EXACT else v <= 0


@dataclass(frozen=True)
class Optimization:
    id: OptId
    cost: Money

    def __post_init__(self):
        if _nonpositive(self.cost):
            raise GameError(f"optimization {self.id}: cost must be positive")


@dataclass(frozen=True)
class SlotHorizon:
    """Number of time slots, indexed 1..z.  z = 1 collapses online to offline."""

    z: int

    def __post_init__(self):
        if self.z < 1:
            raise GameError("horizon must have at least one slot")

    def slots(self) -> range:
        return range(1, self.z + 1)


def negative_bid(user: UserId) -> GameError:
    """The error for a negative declared value of ``user``'s."""
    return GameError(f"user {user}: bid values must be >= 0")


@dataclass(frozen=True)
class AdditiveOfflineBid:
    """Per-optimization declared values; an absent entry means 0."""

    user: UserId
    values: dict[OptId, Money]

    def __post_init__(self):
        object.__setattr__(self, "values", FrozenDict(self.values))
        if any(_negative(v) for v in self.values.values()):
            raise negative_bid(self.user)

    def value_for(self, opt: OptId) -> Money:
        return self.values.get(opt, ZERO)


class OnlineBid:
    """Declared per-slot values over the window [start, end]: the part the
    online bids share (``start``, ``end`` and ``per_slot`` are theirs)."""

    def __post_init__(self):
        object.__setattr__(self, "per_slot", tuple(self.per_slot))
        if not (1 <= self.start <= self.end):
            raise GameError(f"user {self.user}: bad slot window [{self.start}, {self.end}]")
        if len(self.per_slot) != self.end - self.start + 1:
            raise GameError(f"user {self.user}: per-slot vector length mismatch")
        if any(_negative(v) for v in self.per_slot):
            raise GameError(f"user {self.user}: per-slot values must be >= 0")

    def value_at(self, t: Slot) -> Money:
        if self.start <= t <= self.end:
            return self.per_slot[t - self.start]
        return ZERO


@dataclass(frozen=True)
class AdditiveOnlineBid(OnlineBid):
    """Declared per-slot values for one optimization over [start, end]."""

    user: UserId
    opt: OptId
    start: Slot
    end: Slot
    per_slot: tuple[Money, ...]


@dataclass(frozen=True)
class SubstitutableOfflineBid:
    """One value, realized by access to any single optimization in the set."""

    user: UserId
    substitutes: frozenset[OptId]
    value: Money

    def __post_init__(self):
        object.__setattr__(self, "substitutes", frozenset(self.substitutes))
        if not self.substitutes:
            raise GameError(f"user {self.user}: substitute set must be non-empty")
        if _nonpositive(self.value):
            raise GameError(f"user {self.user}: value must be positive")


@dataclass(frozen=True)
class SubstitutableOnlineBid(OnlineBid):
    user: UserId
    substitutes: frozenset[OptId]
    start: Slot
    end: Slot
    per_slot: tuple[Money, ...]

    def __post_init__(self):
        object.__setattr__(self, "substitutes", frozenset(self.substitutes))
        if not self.substitutes:
            raise GameError(f"user {self.user}: substitute set must be non-empty")
        super().__post_init__()


@dataclass(frozen=True)
class Outcome:
    """Implemented optimizations plus (user, optimization) grant pairs."""

    implemented: frozenset[OptId]
    grants: frozenset[tuple[UserId, OptId]]

    def __post_init__(self):
        object.__setattr__(self, "implemented", frozenset(self.implemented))
        object.__setattr__(self, "grants", frozenset(self.grants))
        for user, opt in self.grants:
            if opt not in self.implemented:
                raise GameError(f"grant ({user}, {opt}) for unimplemented optimization")


@dataclass(frozen=True)
class PaymentLedger:
    """Per (user, optimization) cost shares; all entries non-negative."""

    entries: dict[tuple[UserId, OptId], Money]

    def __post_init__(self):
        object.__setattr__(self, "entries", FrozenDict(self.entries))
        if any(_negative(v) for v in self.entries.values()):
            raise GameError("payments must be >= 0")

    def total_for(self, user: UserId) -> Money:
        return sum((v for (u, _), v in self.entries.items() if u == user), ZERO)

    def total_for_opt(self, opt: OptId) -> Money:
        return sum((v for (_, o), v in self.entries.items() if o == opt), ZERO)


@dataclass(frozen=True)
class ServiceSchedule:
    """Users serviced per (optimization, slot); cumulative sets derived."""

    served: dict[tuple[OptId, Slot], frozenset[UserId]]

    def __post_init__(self):
        object.__setattr__(self, "served", FrozenDict(self.served))

    def serviced_at(self, opt: OptId, t: Slot) -> frozenset[UserId]:
        return self.served.get((opt, t), frozenset())

    def cumulative_at(self, opt: OptId, t: Slot) -> frozenset[UserId]:
        out: set[UserId] = set()
        for (o, tau), users in self.served.items():
            if o == opt and tau <= t:
                out |= users
        return frozenset(out)


# ---------------------------------------------------------------------------
# Game containers


@dataclass(frozen=True)
class AdditiveOfflineGame:
    catalog: tuple[Optimization, ...]
    bids: tuple[AdditiveOfflineBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        object.__setattr__(self, "bids", tuple(self.bids))
        _check_unique_catalog(self.catalog)
        if len({b.user for b in self.bids}) != len(self.bids):
            raise GameError("one bid per user per game")
        ids = {o.id for o in self.catalog}
        for bid in self.bids:
            unknown = set(bid.values) - ids
            if unknown:
                raise CatalogMismatch(f"user {bid.user} bids unknown optimizations {sorted(unknown)}")


@dataclass(frozen=True)
class AdditiveOnlineGame:
    """Additive online bids on the optimizations of ``catalog``; the online
    mechanism prices each optimization on its own."""

    catalog: tuple[Optimization, ...]
    horizon: SlotHorizon
    bids: tuple[AdditiveOnlineBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        object.__setattr__(self, "bids", tuple(self.bids))
        _check_unique_catalog(self.catalog)
        ids = {o.id for o in self.catalog}
        for bid in self.bids:
            if bid.opt not in ids:
                raise CatalogMismatch(f"user {bid.user} bids unknown optimization {bid.opt}")
            if bid.end > self.horizon.z:
                raise GameError(f"user {bid.user}: bid window ends past the horizon")


@dataclass(frozen=True)
class SubstOfflineGame:
    catalog: tuple[Optimization, ...]
    bids: tuple[SubstitutableOfflineBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        object.__setattr__(self, "bids", tuple(self.bids))
        _check_unique_catalog(self.catalog)
        ids = {o.id for o in self.catalog}
        for bid in self.bids:
            if not bid.substitutes <= ids:
                raise CatalogMismatch(f"user {bid.user} wants unknown optimizations {sorted(bid.substitutes - ids)}")


@dataclass(frozen=True)
class SubstOnlineGame:
    catalog: tuple[Optimization, ...]
    horizon: SlotHorizon
    bids: tuple[SubstitutableOnlineBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        object.__setattr__(self, "bids", tuple(self.bids))
        _check_unique_catalog(self.catalog)
        ids = {o.id for o in self.catalog}
        for bid in self.bids:
            if not bid.substitutes <= ids:
                raise CatalogMismatch(f"user {bid.user} wants unknown optimizations {sorted(bid.substitutes - ids)}")
            if bid.end > self.horizon.z:
                raise GameError(f"user {bid.user}: bid window ends past the horizon")


def _check_unique_catalog(catalog: tuple[Optimization, ...]):
    ids = [o.id for o in catalog]
    if len(ids) != len(set(ids)):
        raise GameError("duplicate optimization ids in catalog")


# ---------------------------------------------------------------------------
# Core operations


@dataclass(frozen=True)
class RevisionViolation:
    reason: str  # "retroactive" | "downward" | "shrunk_end" | "moved_start"
    slot: Slot | None = None

    def __str__(self):
        where = f" at slot {self.slot}" if self.slot is not None else ""
        return f"revision violation: {self.reason}{where}"


class RevisionError(GameError):
    def __init__(self, violation: RevisionViolation):
        super().__init__(str(violation))
        self.violation = violation


def validate_revision(
    old: AdditiveOnlineBid, new: AdditiveOnlineBid, now: Slot
) -> RevisionViolation | None:
    """Check an in-flight bid revision: past slots frozen, future only upward.

    Returns None when the revision is allowed, else a violation naming the
    offending slot/field.  The window start is fixed and the end may only
    grow (extending with new non-negative values).
    """
    if new.start != old.start:
        return RevisionViolation("moved_start")
    if new.end < old.end:
        return RevisionViolation("shrunk_end", new.end)
    for t in range(old.start, new.end + 1):
        old_v, new_v = old.value_at(t), new.value_at(t)
        if t < now:
            if new_v != old_v:
                return RevisionViolation("retroactive", t)
        elif new_v < old_v:
            return RevisionViolation("downward", t)
    return None


def validate_outcome(outcome: Outcome, catalog=None):
    """Shared validator: grant pairs only for implemented optimizations
    (enforced at construction, re-checked here for mechanism results)."""
    for user, opt in outcome.grants:
        if opt not in outcome.implemented:
            raise GameError(f"grant ({user}, {opt}) without implementation")
    if catalog is not None:
        ids = {o.id for o in catalog}
        if not outcome.implemented <= ids:
            raise CatalogMismatch(f"implemented unknown optimizations {sorted(outcome.implemented - ids)}")
