"""Seeded generators for the simulated experiment families.

Every game is a deterministic function of (spec fields, seed, trial index):
one PCG64 stream is derived per trial via ``SeedSequence((seed, trial))`` and
consumed in a fixed order (users in id order, fields in declaration order),
so reruns and other machines reproduce games bit for bit.  Monetary draws
are sampled directly on the 1e-6 grid (an integer in [0, 1e6] over the value
range), which keeps every generated amount an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    OnlineAdditiveGame,
    Optimization,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from .money import Money, parse_money

GRID = 10**6

FAMILIES = (
    "collab_size",
    "overlap_slots",
    "duration_spread",
    "arrival_skew",
    "selectivity",
    "usecase_shape",
)

SKEWS = ("uniform", "early", "late")

INT_FIELDS = ("users", "slots", "opt_count", "substitutes_per_user", "duration", "seed", "trials", "executions_per_slot")


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    users: int = 6
    slots: int = 12
    opt_count: int = 1
    cost: Money = Fraction(1)  # per-optimization cost; mean cost for selectivity
    substitutes_per_user: int = 3
    duration: int = 1
    skew: str = "uniform"
    seed: int = 0
    trials: int = 1
    executions_per_slot: int = 1  # usecase_shape: workload runs per active slot

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"scenario.family: unknown family {self.family!r}")
        for name in INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"scenario.{name}: expected an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ScenarioError(f"scenario.{name}: must be >= 1")
        if self.cost <= 0:
            raise ScenarioError("scenario.cost: must be positive")
        if self.skew not in SKEWS:
            raise ScenarioError(f"scenario.skew: unknown skew {self.skew!r}")
        if self.family == "selectivity" and self.substitutes_per_user > self.opt_count:
            raise ScenarioError("scenario.substitutes_per_user: exceeds opt_count")
        if self.duration > self.slots:
            raise ScenarioError("scenario.duration: exceeds slots")
        if not (0 <= self.seed < 2**64):
            raise ScenarioError("scenario.seed: must fit in 64 bits")

    def with_cost(self, cost: Money) -> "ScenarioSpec":
        return replace(self, cost=cost)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "users": self.users,
            "slots": self.slots,
            "opt_count": self.opt_count,
            "cost": str(self.cost),
            "substitutes_per_user": self.substitutes_per_user,
            "duration": self.duration,
            "skew": self.skew,
            "seed": self.seed,
            "trials": self.trials,
            "executions_per_slot": self.executions_per_slot,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioError("scenario: expected a JSON object")
        data = dict(data)
        if "family" not in data:
            raise ScenarioError("scenario.family: missing")
        if "cost" in data:
            try:
                data["cost"] = parse_money(data["cost"])
            except ValueError as exc:
                raise ScenarioError(f"scenario.cost: {exc}") from exc
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ScenarioError(f"scenario: unknown fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ScenarioError(f"scenario: {exc}") from exc


def _trial_rng(spec: ScenarioSpec, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, trial))))


def _grid_value(rng) -> Money:
    return Fraction(int(rng.integers(0, GRID, endpoint=True)), GRID)


def _start_slot(rng, z: int, skew: str) -> int:
    if skew == "uniform":
        return int(rng.integers(1, z, endpoint=True))
    draw = rng.exponential(1.2)
    raw = 1 + draw if skew == "early" else z - draw
    return min(max(int(round(raw)), 1), z)


def generate(spec: ScenarioSpec, trial: int):
    """Build the game for one trial of a scenario."""
    if not (0 <= trial < spec.trials):
        raise ScenarioError(f"trial {trial} outside 0..{spec.trials - 1}")
    rng = _trial_rng(spec, trial)
    builder = _BUILDERS[spec.family]
    return builder(spec, rng)


def recost(game, spec: ScenarioSpec, cost: Money):
    """The game ``generate(spec.with_cost(cost), trial)`` builds, made from the
    one ``generate(spec, trial)`` built.  Cost enters a game only through its
    catalog and draws no random numbers, so only the catalog changes."""
    if spec.family == "selectivity":
        scale = cost / spec.cost  # catalog costs are proportional to spec.cost
        catalog = tuple(Optimization(o.id, o.cost * scale) for o in game.catalog)
        return SubstOnlineGame(catalog, game.horizon, game.bids)
    if spec.family == "usecase_shape":
        catalog = tuple(Optimization(o.id, cost) for o in game.catalog)
        return AdditiveOnlineMultiGame(catalog, game.horizon, game.bids)
    return OnlineAdditiveGame(Optimization(game.optimization.id, cost), game.horizon, game.bids)


def _single_opt_additive(spec: ScenarioSpec, rng) -> OnlineAdditiveGame:
    """One additive optimization; each user wants one slot at one value."""
    horizon = SlotHorizon(spec.slots)
    bids = []
    for user in range(1, spec.users + 1):
        slot = _start_slot(rng, spec.slots, spec.skew)
        value = _grid_value(rng)
        bids.append(AdditiveOnlineBid(user, 1, slot, slot, (value,)))
    return OnlineAdditiveGame(Optimization(1, spec.cost), horizon, tuple(bids))


def _duration_spread(spec: ScenarioSpec, rng) -> OnlineAdditiveGame:
    """Each user's value is split evenly over a service interval of length d
    starting at a uniform slot (truncated at the horizon)."""
    horizon = SlotHorizon(spec.slots)
    d = spec.duration
    bids = []
    for user in range(1, spec.users + 1):
        start = int(rng.integers(1, spec.slots, endpoint=True))
        end = min(start + d - 1, spec.slots)
        total = _grid_value(rng)
        per_slot = total / d
        bids.append(AdditiveOnlineBid(user, 1, start, end, (per_slot,) * (end - start + 1)))
    return OnlineAdditiveGame(Optimization(1, spec.cost), horizon, tuple(bids))


def _selectivity(spec: ScenarioSpec, rng) -> SubstOnlineGame:
    """Substitutable optimizations with costs uniform on (0, 2 * mean cost];
    each user picks a fixed-size substitute set uniformly at random."""
    horizon = SlotHorizon(spec.slots)
    catalog = []
    for j in range(1, spec.opt_count + 1):
        k = int(rng.integers(1, GRID, endpoint=True))
        catalog.append(Optimization(j, 2 * spec.cost * Fraction(k, GRID)))
    bids = []
    for user in range(1, spec.users + 1):
        slot = _start_slot(rng, spec.slots, spec.skew)
        value = _grid_value(rng)
        picks = rng.choice(spec.opt_count, size=spec.substitutes_per_user, replace=False)
        substitutes = frozenset(int(p) + 1 for p in picks)
        if value == 0:
            value = Fraction(1, GRID)  # substitutable bids must be positive
        bids.append(SubstitutableOnlineBid(user, substitutes, slot, slot, (value,)))
    return SubstOnlineGame(tuple(catalog), horizon, tuple(bids))


# Per-execution savings for the headline view, one entry per user, and the
# stride at which each user consumes the remaining views.
USECASE_HEADLINE_CENTS = (18, 7, 3, 16, 9, 4)
USECASE_STRIDES = (1, 2, 4, 1, 2, 4)
USECASE_OTHER_CENTS = 1


def _usecase_shape(spec: ScenarioSpec, rng) -> AdditiveOnlineMultiGame:
    """Synthetic stand-in with the collaborative-workload shape: a few users
    on quarterly slots, one high-value view plus uniform cheap views, each
    user active over a random contiguous window."""
    horizon = SlotHorizon(spec.slots)
    catalog = tuple(Optimization(j, spec.cost) for j in range(1, spec.opt_count + 1))
    windows = [(s, e) for s in horizon.slots() for e in range(s, spec.slots + 1)]
    bids = []
    for user in range(1, spec.users + 1):
        start, end = windows[int(rng.integers(0, len(windows)))]
        headline = USECASE_HEADLINE_CENTS[(user - 1) % len(USECASE_HEADLINE_CENTS)]
        stride = USECASE_STRIDES[(user - 1) % len(USECASE_STRIDES)]
        for opt in catalog:
            if opt.id == 1:
                cents = headline
            elif (opt.id - 1) % stride == 0:
                cents = USECASE_OTHER_CENTS
            else:
                continue
            per_slot = Fraction(cents * spec.executions_per_slot, 100)
            bids.append(AdditiveOnlineBid(user, opt.id, start, end, (per_slot,) * (end - start + 1)))
    return AdditiveOnlineMultiGame(catalog, horizon, tuple(bids))


_BUILDERS = {
    "collab_size": _single_opt_additive,
    "overlap_slots": _single_opt_additive,
    "arrival_skew": _single_opt_additive,
    "duration_spread": _duration_spread,
    "selectivity": _selectivity,
    "usecase_shape": _usecase_shape,
}
