"""Online games rescaled to integers once, for every mechanism and cost point.

A :class:`ScaledGame` multiplies every per-slot value and every catalog cost
by one common scale, so the mechanism kernels (``additive_online``,
``substitutable``, ``regret``) compare and add plain integers and build no
``Fraction`` at all.  Re-costing is built in: the game carries one cost
factor per cost point, and the scaled cost of optimization ``j`` at point
``p`` is ``base[j] * unit[p]``, one integer multiply, equal to
``catalog cost * factor * scale`` exactly.

The harness builds one per trial, with the factor ``cost / spec.cost`` of
each cost point (every family's catalog costs are proportional to
``spec.cost``, see ``scenarios.recost``).  The public mechanism functions
build one per call, and the strategy lab one per deviator of its truthful
profile, with the single factor 1, which makes the scale the least common
denominator of the game's own costs and values; the lab runs every
misreport on its offers, with the deviator's row merged in.

Construction checks, once per game, what the game's constructor leaves to
it: one bid per user (per optimization for additive bids) and positive
cost factors.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import GameError, OptId, SubstOnlineGame
from .money import Money


class ScaledGame:
    """Bids and costs of one online game as integers over ``scale``.

    ``game`` is an :class:`OnlineAdditiveGame`, an
    :class:`AdditiveOnlineMultiGame` or a :class:`SubstOnlineGame`, whose
    constructors have checked bid windows and optimization ids.  Bids are
    numbered in game order: ``users[i]``, ``starts[i]`` and ``ends[i]`` are
    bid ``i``'s user and window, ``suffix[i][k]`` its scaled value from slot
    ``starts[i] + k`` on, with a trailing 0, and ``interest[i]`` the
    optimizations it values.  ``costs[p][j]`` is optimization ``j``'s scaled
    cost at cost point ``p``.  ``values`` and ``by_opt``, which only the
    regret baseline reads, are built on first use.
    """

    def __init__(self, game, factors: Sequence[Money] = (1,)):
        catalog = game.catalog
        self.additive = additive = not isinstance(game, SubstOnlineGame)
        self.z = z = game.horizon.z
        # Costs need cost_lcm, factors factor_lcm and values the lcm of their
        # denominators; every product cost * factor * scale is then an integer.
        cost_lcm = factor_lcm = 1
        for o in catalog:
            cost_lcm = math.lcm(cost_lcm, o.cost.denominator)
        for f in factors:
            if f <= 0:
                raise GameError("optimization cost must be positive")
            factor_lcm = math.lcm(factor_lcm, f.denominator)
        self.scale = scale = math.lcm(cost_lcm * factor_lcm, *[v.denominator for b in game.bids for v in b.per_slot])
        per_unit = scale // (cost_lcm * factor_lcm)
        self.costs = []
        for f in factors:
            unit = f.numerator * (factor_lcm // f.denominator) * per_unit
            self.costs.append({o.id: o.cost.numerator * (cost_lcm // o.cost.denominator) * unit for o in catalog})

        self.users = users = []
        self.starts = starts = []
        self.ends = ends = []
        self.interest = interest = []
        self.suffix = suffixes = []
        # offers[t] (index 0 unused): (residual from t, bid) of every bid
        # whose window holds slot t and has value left, highest first
        self.offers = offers = [[] for _ in range(z + 1)]
        seen = set()
        for i, b in enumerate(game.bids):
            key = (b.user, b.opt) if additive else b.user
            if key in seen:
                if additive:
                    raise GameError(f"duplicate bid for user {b.user}, optimization {b.opt}")
                raise GameError("one bid per user per game")
            seen.add(key)
            users.append(b.user)
            starts.append(b.start)
            ends.append(b.end)
            interest.append((b.opt,) if additive else b.substitutes)
            acc = 0
            k = len(b.per_slot)
            suffix = [0] * (k + 1)
            for v in reversed(b.per_slot):
                k -= 1
                acc += v.numerator * (scale // v.denominator)
                suffix[k] = acc
                if acc:
                    offers[b.start + k].append((acc, i))
            suffixes.append(suffix)
        for slot in offers:
            if len(slot) > 1:
                slot.sort(reverse=True)
        self._values = self._by_opt = None

    @property
    def values(self) -> list[list[tuple[int, int]]]:
        """Per slot ``t`` (index 0 unused): ``(bid, scaled value in t)`` of
        every bid with a positive value in ``t``."""
        if self._values is None:
            self._values = [[] for _ in range(self.z + 1)]
            for i, (start, suffix) in enumerate(zip(self.starts, self.suffix)):
                for k in range(len(suffix) - 1):
                    v = suffix[k] - suffix[k + 1]
                    if v:
                        self._values[start + k].append((i, v))
        return self._values

    @property
    def by_opt(self) -> dict[OptId, list[int]]:
        """Bids interested in each optimization, in bid order."""
        if self._by_opt is None:
            self._by_opt = {j: [] for j in self.costs[0]}
            for i, opts in enumerate(self.interest):
                for j in opts:
                    self._by_opt[j].append(i)
        return self._by_opt
