"""Seeded generators for the simulated experiment families.

Every game is a deterministic function of (spec fields, seed, trial index):
one PCG64 stream is derived per trial via ``SeedSequence((seed, trial))`` and
consumed in a fixed order (users in id order, fields in declaration order),
so reruns and other machines reproduce games bit for bit.  Monetary draws
are sampled directly on the 1e-6 grid (an integer in [0, 1e6] over the value
range), which keeps every generated amount an exact rational.

:func:`draw` is the one place that consumes the stream: it returns a
trial's draws as plain integers (:class:`Draws`).  Two consumers share it:
:func:`generate` builds the ``Fraction`` game, and :class:`ScaledTrials`
builds a sweep's :class:`~optshare.scaled.ScaledGame` of the same game
straight from the integers, on one scale for the whole sweep, with no
``Fraction``.

The stream is read in one of two ways, and :func:`draws_with_numpy` says
which:

- Every spec whose numbers are all uniform integers reads it in Python, in
  one :func:`_uniform_draws` loop over the trial's ranges: numpy's
  ``SeedSequence`` hash, PCG64's XSL-RR output (O'Neill, "PCG: A Family of
  Simple Fast Space-Efficient Statistically Good Algorithms for Random
  Number Generation", 2014) and Lemire's bounded 32-bit draw (Lemire,
  "Fast Random Integer Generation in an Interval", 2019), which give the
  integers numpy's ``integers`` and ``choice`` calls return.  That is every
  family at uniform skew, and duration_spread and usecase_shape at any
  skew, as they do not read it.  At perfbench's sizes a trial costs about
  what numpy's calls do (best per-trial µs, Python 3.11, numpy 2.4, a
  2-vCPU VM): 18 against 21 at 6 users, 34 against 23 at 24 users
  (collab_large), 48 against 49 and 53 against 56 for selectivity at 4
  and 12 optimizations.  Each number costs about 0.5 µs, so numpy's array
  calls are faster where a trial draws thousands: a catalog of 1000
  optimizations, or substitute sets of hundreds.
- An early or late arrival, on a family that reads the skew, draws
  ``exponential`` through numpy's ``Generator``: numpy does not expose its
  ziggurat tables.

numpy is imported by :func:`load_numpy` at the first numpy draw of a
process, not with this module: nothing else in the package needs it, so
``verify``, ``replay`` and a sweep of uniform arrivals never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    OnlineAdditiveGame,
    OptId,
    Optimization,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from .money import Money, parse_money
from .scaled import Factors, ScaledGame, cost_rows

if TYPE_CHECKING:
    import numpy as np

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

# Upper bounds on the sizes a scenario may ask for (duration and
# substitutes_per_user are bounded by slots and opt_count).
MAX_SIZES = {"trials": 1_000_000, "users": 1_000, "slots": 1_000, "opt_count": 1_000, "executions_per_slot": 1_000}


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
            if value > MAX_SIZES.get(name, value):
                raise ScenarioError(f"scenario.{name}: must be <= {MAX_SIZES[name]}")
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


@lru_cache(maxsize=None)
def load_numpy():
    """numpy with ``numpy.random`` loaded, imported at the first call in a
    process and bound for the rest of it.  A parallel sweep of a spec that
    :func:`draws_with_numpy` calls it before starting its helpers, so forked
    helpers start with it loaded."""
    import numpy.random  # binds numpy, with its random submodule loaded

    return numpy


def _trial_rng(spec: ScenarioSpec, trial: int) -> np.random.Generator:
    npr = load_numpy().random
    return npr.Generator(npr.PCG64(npr.SeedSequence((spec.seed, trial))))


# numpy's stream of ``Generator(PCG64(SeedSequence((seed, trial))))`` in
# Python integers.  SeedSequence's hash multipliers do not depend on the
# entropy, so they are computed here once: the 16 of mixing a 4-word pool
# (4 to fill it, then 12 to mix each word into the 3 others) and the 8 of
# drawing PCG64's 4 uint64 seed words from it.

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _hash_keys(h: int, mult: int, n: int) -> list[tuple[int, int]]:
    """SeedSequence's ``(xor, multiplier)`` for its next ``n`` hashes from
    constant ``h``: each hash xors the word with the constant, moves the
    constant on by ``mult`` and multiplies the word by the new constant."""
    keys = []
    for _ in range(n):
        keys.append((h, h * mult & _M32))
        h = h * mult & _M32
    return keys


_MIX_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_FILL_KEYS = _MIX_KEYS[:4]
_MIX_STEPS = tuple(
    (src, dst, *key)
    for (src, dst), key in zip([(i, j) for i in range(4) for j in range(4) if i != j], _MIX_KEYS[4:])
)
_STATE_KEYS = tuple((i % 4, *key) for i, key in enumerate(_hash_keys(0x8B51F9DD, 0x58F38DED, 8)))


def _entropy_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: 32-bit words, low first."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _uniform_draws(seed: int, trial: int, ranges: Sequence[int]) -> list[int]:
    """Per ``r`` of ``ranges``, in turn, the integer on 0..r that numpy's
    ``integers(0, r, endpoint=True)`` draws from ``Generator(PCG64(
    SeedSequence((seed, trial))))``.  The stream's 32-bit words are the low
    half of each PCG64 XSL-RR output and then its high half; each range
    takes Lemire's multiply, rejecting the low words below ``2**32 % (r +
    1)``.  ``r == 0`` reads nothing; a negative ``r`` is refused, and so is
    ``r >= 2**32 - 1``, which numpy draws by another method.  ``seed <
    2**64`` and ``trial < 2**32``, so the entropy is 2 or 3 words and fits
    SeedSequence's 4-word pool."""
    entropy = _entropy_words(seed) + _entropy_words(trial) + [0, 0]  # zero-filled to the pool
    pool = []  # SeedSequence's mix_entropy: hash the words into the pool, then mix
    for word, (x, m) in zip(entropy, _FILL_KEYS):
        h = (word ^ x) * m & _M32
        pool.append(h ^ h >> 16)
    for src, dst, x, m in _MIX_STEPS:  # pool[dst] = mix(pool[dst], hash(pool[src]))
        h = (pool[src] ^ x) * m & _M32
        h = (0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16)) & _M32
        pool[dst] = h ^ h >> 16
    s = []  # generate_state: 8 hashes of the pool words in turn
    for i, x, m in _STATE_KEYS:
        h = (pool[i] ^ x) * m & _M32
        s.append(h ^ h >> 16)
    # The 32-bit words pair up, low first, into uint64 words w0..w3; PCG64
    # seeds its state with w0:w1 and its increment with w2:w3.
    initstate = s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2]
    inc = (s[5] << 97 | s[4] << 65 | s[7] << 33 | s[6] << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128  # PCG's seeding: a step, the add, a step
    draws, high = [], -1  # high: the last word's high half while it is unread
    for r in ranges:
        if not 0 < r < _M32:
            if r:
                raise ValueError(f"bounded draw: range {r} outside 0..{_M32 - 1}")
            draws.append(0)
            continue
        excl = r + 1
        while True:
            if high < 0:
                state = (state * _PCG_MULT + inc) & _M128
                rot = state >> 122
                word = (state >> 64 ^ state) & _M64
                word = (word >> rot | word << (64 - rot)) & _M64
                m, high = (word & _M32) * excl, word >> 32
            else:
                m, high = high * excl, -1
            # the threshold is below excl, so most draws skip computing it
            if m & _M32 >= excl or m & _M32 >= (_M32 - r) % excl:
                break
        draws.append(m >> 32)
    return draws


class Draws(NamedTuple):
    """One trial's draws as integers, per user in id order: the window
    ``starts`` through ``ends`` and ``values``, a value numerator over
    ``GRID`` (duration_spread: the total over the window; usecase_shape draws
    none).  Selectivity adds ``catalog``, per optimization the ``k`` of its
    cost ``2 * spec.cost * k / GRID``, and ``picks``, each user's substitute
    set; its zero values are raised to 1, as substitutable bids must be
    positive."""

    starts: Sequence[int]
    ends: Sequence[int]
    values: Sequence[int] = ()
    catalog: Sequence[int] = ()
    picks: Sequence[frozenset[int]] = ()


def draws_with_numpy(spec: ScenarioSpec) -> bool:
    """Whether ``spec``'s trials are drawn through numpy's ``Generator``: an
    early or late arrival, on a family whose slots read the skew, needs
    numpy's ``exponential``.  Every other spec reads the same stream in
    Python (:func:`_uniform_draws`)."""
    return spec.skew != "uniform" and spec.family not in ("duration_spread", "usecase_shape")


def draw(spec: ScenarioSpec, trial: int) -> Draws:
    """The draws of one trial of a scenario."""
    if not (0 <= trial < spec.trials):
        raise ScenarioError(f"trial {trial} outside 0..{spec.trials - 1}")
    if draws_with_numpy(spec):
        numpy_draw = _draw_selectivity if spec.family == "selectivity" else _draw_single_opt
        return numpy_draw(spec, _trial_rng(spec, trial))
    return _draw_uniform(spec, trial)


def _draw_uniform(spec: ScenarioSpec, trial: int) -> Draws:
    """The draws of a trial whose every number is uniform, by one
    :func:`_uniform_draws` call over the ranges numpy's calls draw, in their
    order: per user a window (usecase_shape), or a slot on 1..z and a value
    on the grid; selectivity draws its catalog first, and after each user's
    value ``choice(opt_count, substitutes_per_user, replace=False)``.  numpy
    makes that choice by Floyd's algorithm (a draw on 0..j for j = n - k to
    n - 1, taking j itself on a repeat) and then shuffles it (a draw on 0..i
    for i = k - 1 down to 1); the set is the same in any order, so the
    shuffle's draws are read and not applied."""
    n, k, z = spec.opt_count, spec.substitutes_per_user, spec.slots
    if spec.family == "usecase_shape":
        windows = _windows(z)
        picked = [windows[w] for w in _uniform_draws(spec.seed, trial, [len(windows) - 1] * spec.users)]
        return Draws([s for s, _ in picked], [e for _, e in picked])
    if spec.family == "selectivity":
        user = [z - 1, GRID, *range(n - k, n), *range(k - 1, 0, -1)]
        out = _uniform_draws(spec.seed, trial, [GRID - 1] * n + user * spec.users)
        slots, values, picks = [], [], []
        for i in range(n, len(out), len(user)):
            slots.append(1 + out[i])
            values.append(out[i + 1] or 1)
            chosen = set()
            for j, p in zip(range(n - k, n), out[i + 2 : i + 2 + k]):
                chosen.add(j if p in chosen else p)
            picks.append(frozenset(p + 1 for p in chosen))
        return Draws(slots, slots, values, [1 + c for c in out[:n]], picks)
    out = _uniform_draws(spec.seed, trial, [z - 1, GRID] * spec.users)
    starts = [1 + s for s in out[0::2]]
    ends = [min(s + spec.duration - 1, z) for s in starts] if spec.family == "duration_spread" else starts
    return Draws(starts, ends, out[1::2])


@lru_cache(maxsize=32)
def _windows(z: int) -> tuple[tuple[int, int], ...]:
    return tuple((s, e) for s in range(1, z + 1) for e in range(s, z + 1))


def _start_slot(rng, z: int, skew: str) -> int:
    if skew == "uniform":
        return int(rng.integers(1, z, endpoint=True))
    offset = rng.exponential(1.2)
    raw = 1 + offset if skew == "early" else z - offset
    return min(max(int(round(raw)), 1), z)


def _draw_single_opt(spec: ScenarioSpec, rng) -> Draws:
    """collab_size, overlap_slots and arrival_skew through numpy's calls:
    per user one slot and its value, for one optimization.  This and
    :func:`_draw_selectivity` draw at any skew; :func:`draw` sends them the
    specs :func:`draws_with_numpy` names."""
    slots, values = [], []
    for _ in range(spec.users):
        slots.append(_start_slot(rng, spec.slots, spec.skew))
        values.append(int(rng.integers(0, GRID, endpoint=True)))
    return Draws(slots, slots, values)


def _draw_selectivity(spec: ScenarioSpec, rng) -> Draws:
    """Selectivity through numpy's calls, in the order of
    :func:`_draw_uniform`."""
    catalog = rng.integers(1, GRID, size=spec.opt_count, endpoint=True).tolist()
    slots, values, picks = [], [], []
    for _ in range(spec.users):
        slots.append(_start_slot(rng, spec.slots, spec.skew))
        values.append(int(rng.integers(0, GRID, endpoint=True)) or 1)
        chosen = rng.choice(spec.opt_count, size=spec.substitutes_per_user, replace=False).tolist()
        picks.append(frozenset(p + 1 for p in chosen))
    return Draws(slots, slots, values, catalog, picks)


# Per-execution savings for the headline view, one entry per user, and the
# stride at which each user consumes the remaining views.
USECASE_HEADLINE_CENTS = (18, 7, 3, 16, 9, 4)
USECASE_STRIDES = (1, 2, 4, 1, 2, 4)
USECASE_OTHER_CENTS = 1


def _usecase_bids(spec: ScenarioSpec, user: int) -> list[tuple[OptId, int]]:
    """Synthetic stand-in with the collaborative-workload shape: a few users
    on quarterly slots, one high-value view plus uniform cheap views, each
    user active over a random contiguous window.  ``user``'s bids as
    (optimization, value per active slot in cents), in catalog order."""
    headline = USECASE_HEADLINE_CENTS[(user - 1) % len(USECASE_HEADLINE_CENTS)]
    stride = USECASE_STRIDES[(user - 1) % len(USECASE_STRIDES)]
    cents = [(1, headline)] + [(j, USECASE_OTHER_CENTS) for j in range(2, spec.opt_count + 1) if (j - 1) % stride == 0]
    return [(j, c * spec.executions_per_slot) for j, c in cents]


# ---------------------------------------------------------------------------
# The Fraction games


def generate(spec: ScenarioSpec, trial: int):
    """Build the game for one trial of a scenario."""
    d = draw(spec, trial)
    horizon = SlotHorizon(spec.slots)
    users = range(1, spec.users + 1)
    if spec.family == "selectivity":
        # costs uniform on (0, 2 * mean cost]; each user picks a fixed-size
        # substitute set uniformly at random
        catalog = tuple(Optimization(j, 2 * spec.cost * Fraction(k, GRID)) for j, k in enumerate(d.catalog, 1))
        bids = tuple(
            SubstitutableOnlineBid(u, subs, t, t, (Fraction(v, GRID),))
            for u, t, v, subs in zip(users, d.starts, d.values, d.picks)
        )
        return SubstOnlineGame(catalog, horizon, bids)
    if spec.family == "usecase_shape":
        catalog = tuple(Optimization(j, spec.cost) for j in range(1, spec.opt_count + 1))
        bids = tuple(
            AdditiveOnlineBid(u, j, s, e, (Fraction(cents, 100),) * (e - s + 1))
            for u, s, e in zip(users, d.starts, d.ends)
            for j, cents in _usecase_bids(spec, u)
        )
        return AdditiveOnlineMultiGame(catalog, horizon, bids)
    # one additive optimization; duration_spread splits each user's value
    # evenly over a window of its duration, truncated at the horizon
    duration = spec.duration if spec.family == "duration_spread" else 1
    bids = tuple(
        AdditiveOnlineBid(u, 1, s, e, (Fraction(v, GRID * duration),) * (e - s + 1))
        for u, s, e, v in zip(users, d.starts, d.ends, d.values)
    )
    return OnlineAdditiveGame(Optimization(1, spec.cost), horizon, bids)


# ---------------------------------------------------------------------------
# The scaled games of a sweep


class ScaledTrials:
    """The trials of a sweep of ``spec`` at cost ``factors``: :meth:`game`
    is ``ScaledGame(generate(spec, trial), factors)`` up to its scale, built
    from :func:`draw` with no ``Fraction``.  Every family's catalog costs are
    proportional to ``spec.cost``, so a factor of ``cost / spec.cost`` costs
    the catalog at ``cost``.

    One scale serves every trial: it clears the denominators of ``spec.cost``
    times each factor (times ``GRID`` for selectivity's drawn costs) and of
    every value the family can draw, over ``GRID`` (``GRID * duration`` for
    duration_spread, 100 for usecase_shape's cents).  The points' units and,
    except for selectivity, their costs are constants of the sweep, as are
    the bids' users and, except for selectivity, their interests."""

    def __init__(self, spec: ScenarioSpec, factors: Factors):
        self.spec = spec
        a, b = spec.cost.numerator, spec.cost.denominator
        value_lcm = {"duration_spread": GRID * spec.duration, "usecase_shape": 100}.get(spec.family, GRID)
        cost_lcm = b * GRID if spec.family == "selectivity" else b
        self.scale, self.units = factors.scale(cost_lcm, value_lcm)
        self.unit = self.scale // value_lcm  # a value numerator's scaled size
        # selectivity draws its costs and interests per trial
        self.users = tuple(range(1, spec.users + 1))
        self.interest = ((1,),) * spec.users
        self.costs = cost_rows({1: a}, self.units)
        if spec.family == "usecase_shape":
            bids = [(u, j, cents) for u in self.users for j, cents in _usecase_bids(spec, u)]
            self.owners = [u - 1 for u, _, _ in bids]  # each bid's user, as a draws index
            self.users = tuple(u for u, _, _ in bids)
            self.interest = tuple((j,) for _, j, _ in bids)
            self.rates = [cents * self.unit for _, _, cents in bids]
            self.costs = cost_rows(dict.fromkeys(range(1, spec.opt_count + 1), a), self.units)

    def game(self, trial: int) -> ScaledGame:
        d = draw(self.spec, trial)
        z, scale, units, unit = self.spec.slots, self.scale, self.units, self.unit
        if self.spec.family == "selectivity":
            costs = cost_rows({j: 2 * self.spec.cost.numerator * k for j, k in enumerate(d.catalog, 1)}, units)
            rows = [(v * unit,) for v in d.values]
            return ScaledGame.from_rows(False, z, scale, units, costs, self.users, d.starts, d.ends, d.picks, rows)
        if self.spec.family == "usecase_shape":
            starts = [d.starts[u] for u in self.owners]
            ends = [d.ends[u] for u in self.owners]
            rows = [(rate,) * (e - s + 1) for rate, s, e in zip(self.rates, starts, ends)]
            return ScaledGame.from_rows(True, z, scale, units, self.costs, self.users, starts, ends, self.interest, rows)
        rows = [(v * unit,) * (e - s + 1) for v, s, e in zip(d.values, d.starts, d.ends)]
        return ScaledGame.from_rows(True, z, scale, units, self.costs, self.users, d.starts, d.ends, self.interest, rows)
