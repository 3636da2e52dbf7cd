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

The stream is read in Python, in one :func:`_uniform_draws` loop over the
trial's ranges: numpy's ``SeedSequence`` hash, PCG64's XSL-RR output
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014), Lemire's bounded 32-bit
draw (Lemire, "Fast Random Integer Generation in an Interval", 2019) and,
for an early or late arrival on a family that reads the skew, numpy's
256-layer ziggurat exponential (Marsaglia and Tsang, "The Ziggurat Method
for Generating Random Variables", 2000) on numpy's own tables
(``_ziggurat``, generated by ``scripts/ziggurat_tables.py``).  These give
the numbers numpy's ``integers``, ``choice`` and ``exponential`` calls
return, so every spec draws the games numpy would, and no module of the
package imports numpy.  At perfbench's sizes a trial costs about what
numpy's calls do (best per-trial µs, Python 3.11, numpy 2.4, a 2-vCPU VM):
18 against 21 at 6 users, 34 against 23 at 24 users (collab_large), 48
against 49 and 53 against 56 for selectivity at 4 and 12 optimizations,
and 22 against 27 for an early or late arrival_skew trial.  Each number costs
about 0.5 µs, so numpy's array calls would be faster where a trial draws
thousands: a catalog of 1000 optimizations, or substitute sets of hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .core import (
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    OptId,
    Optimization,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from .money import Money, parse_money
from ._ziggurat import FE, KE, WE
from .scaled import Factors, ScaledGame, cost_rows

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
        for key in data:
            if key not in cls.__dataclass_fields__:
                raise ScenarioError(f"scenario.{key}: unknown key")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ScenarioError(f"scenario: {exc}") from exc


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


# A range that marks an exponential draw.  It fails the bounded draw's
# ``0 < r < 2**32 - 1`` check, so the uniform ranges take no extra test.
EXPONENTIAL = math.inf
_ZIGGURAT_R = 7.69711747013104972  # the right edge of the base layer, where the tail starts


def _pcg64(seed: int, trial: int) -> tuple[int, int]:
    """The ``(state, increment)`` of ``PCG64(SeedSequence((seed, trial)))``
    before its first output.  ``seed < 2**64`` and ``trial < 2**32``, so the
    entropy is 2 or 3 words and fits SeedSequence's 4-word pool."""
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
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc  # PCG's seeding: a step, the add, a step


def _uniform_draws(seed: int, trial: int, ranges: Sequence[float]) -> list[int | float]:
    """Per ``r`` of ``ranges``, in turn, the number numpy's ``Generator(PCG64(
    SeedSequence((seed, trial))))`` draws: the integer on 0..r of
    ``integers(0, r, endpoint=True)``, or for ``r`` = :data:`EXPONENTIAL` the
    float of ``standard_exponential()``."""
    return _stream_draws(*_pcg64(seed, trial), ranges)


def _stream_draws(state: int, inc: int, ranges: Sequence[float]) -> list[int | float]:
    """:func:`_uniform_draws` from the PCG64 ``state`` and increment ``inc``.

    The integer draws read 32-bit words: the low half of each XSL-RR output
    and then its high half.  Each range takes Lemire's multiply, rejecting
    the low words below ``2**32 % (r + 1)``.  ``r == 0`` reads nothing; a
    negative ``r`` is refused, and so is ``r >= 2**32 - 1``, which numpy
    draws by another method.

    An exponential takes whole 64-bit outputs and leaves a buffered high
    half for the next integer draw, as numpy's does.  Of an output, bits
    3..10 pick a layer ``idx`` and bits 11..63 a point ``ri`` across it, at
    ``x = ri * WE[idx]``, which is taken if ``ri < KE[idx]``.  Otherwise a
    second output gives ``u`` on [0, 1): layer 0 takes the tail
    ``_ZIGGURAT_R - log1p(-u)``, and any other layer takes ``x`` if the
    wedge test ``(FE[idx - 1] - FE[idx]) * u + FE[idx] < exp(-x)`` holds and
    else draws again.  The tables are numpy's own (:mod:`._ziggurat`)."""
    draws, high = [], -1  # high: the last word's high half while it is unread
    for r in ranges:
        if not 0 < r < _M32:
            if r == EXPONENTIAL:
                idx = -1  # the layer whose fast test failed, while its u is undrawn
                while True:
                    state = (state * _PCG_MULT + inc) & _M128
                    rot = state >> 122
                    word = (state >> 64 ^ state) & _M64
                    word = (word >> rot | word << (64 - rot)) & _M64
                    if idx < 0:
                        idx, ri = word >> 3 & 0xFF, word >> 11
                        x = ri * WE[idx]
                        if ri < KE[idx]:
                            break
                        continue
                    u = (word >> 11) * 2.0**-53
                    if idx == 0:
                        x = _ZIGGURAT_R - math.log1p(-u)
                        break
                    if (FE[idx - 1] - FE[idx]) * u + FE[idx] < math.exp(-x):
                        break
                    idx = -1
                draws.append(x)
                continue
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


def draw(spec: ScenarioSpec, trial: int) -> Draws:
    """The draws of one trial of a scenario, by one :func:`_uniform_draws`
    call over the ranges of numpy's calls, in their order: per user a window
    (usecase_shape), or a slot and a value on the grid; selectivity draws
    its catalog first, and after each user's value ``choice(opt_count,
    substitutes_per_user, replace=False)``.  A slot is uniform on 1..z, or,
    for an early or late arrival on a family that reads the skew, an
    exponential (:func:`_slots`).  numpy makes the choice by Floyd's
    algorithm (a draw on 0..j for j = n - k to n - 1, taking j itself on a
    repeat) and then shuffles it (a draw on 0..i for i = k - 1 down to 1);
    the set is the same in any order, so the shuffle's draws are read and
    not applied."""
    if not (0 <= trial < spec.trials):
        raise ScenarioError(f"trial {trial} outside 0..{spec.trials - 1}")
    n, k, z = spec.opt_count, spec.substitutes_per_user, spec.slots
    if spec.family == "usecase_shape":
        windows = _windows(z)
        picked = [windows[w] for w in _uniform_draws(spec.seed, trial, [len(windows) - 1] * spec.users)]
        return Draws([s for s, _ in picked], [e for _, e in picked])
    skew = "uniform" if spec.family == "duration_spread" else spec.skew  # duration_spread ignores the skew
    slot = z - 1 if skew == "uniform" else EXPONENTIAL
    if spec.family == "selectivity":
        user = [slot, GRID, *range(n - k, n), *range(k - 1, 0, -1)]
        out = _uniform_draws(spec.seed, trial, [GRID - 1] * n + user * spec.users)
        picks = []
        for i in range(n + 2, len(out), len(user)):
            chosen = set()
            for j, p in zip(range(n - k, n), out[i : i + k]):
                chosen.add(j if p in chosen else p)
            picks.append(frozenset(p + 1 for p in chosen))
        slots = _slots(out[n :: len(user)], z, skew)
        values = [v or 1 for v in out[n + 1 :: len(user)]]
        return Draws(slots, slots, values, [1 + c for c in out[:n]], picks)
    out = _uniform_draws(spec.seed, trial, [slot, GRID] * spec.users)
    starts = _slots(out[0::2], z, skew)
    ends = [min(s + spec.duration - 1, z) for s in starts] if spec.family == "duration_spread" else starts
    return Draws(starts, ends, out[1::2])


def _slots(draws: list, z: int, skew: str) -> list[int]:
    """Each user's slot from its draw: ``1 + d`` for a uniform draw on
    0..z-1; for an exponential ``e``, ``1.2 * e`` slots after the first
    (early) or before the last (late), rounded half to even and clamped to
    1..z, as ``1 + rng.exponential(1.2)`` or ``z - rng.exponential(1.2)``
    would be."""
    if skew == "uniform":
        return [1 + d for d in draws]
    if skew == "early":
        return [min(max(round(1 + 1.2 * e), 1), z) for e in draws]
    return [min(max(round(z - 1.2 * e), 1), z) for e in draws]


@lru_cache(maxsize=32)
def _windows(z: int) -> tuple[tuple[int, int], ...]:
    return tuple((s, e) for s in range(1, z + 1) for e in range(s, z + 1))


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
        return AdditiveOnlineGame(catalog, horizon, bids)
    # one additive optimization; duration_spread splits each user's value
    # evenly over a window of its duration, truncated at the horizon
    duration = spec.duration if spec.family == "duration_spread" else 1
    bids = tuple(
        AdditiveOnlineBid(u, 1, s, e, (Fraction(v, GRID * duration),) * (e - s + 1))
        for u, s, e, v in zip(users, d.starts, d.ends, d.values)
    )
    return AdditiveOnlineGame((Optimization(1, spec.cost),), horizon, bids)


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
