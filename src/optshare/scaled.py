"""Games rescaled to integers once, and what a kernel settles on one.

A :class:`ScaledGame` multiplies every per-slot value and every catalog cost
by one common scale, so the mechanism kernels (``additive_online``,
``substitutable``, ``regret``) compare and add plain integers and build no
``Fraction`` at all.  Re-costing is built in: the game carries one cost
factor per cost point, and the scaled cost of optimization ``j`` at point
``p`` is ``base[j] * unit[p]``, one integer multiply, equal to
``catalog cost * factor * scale`` exactly.

The harness builds one per trial straight from the trial's draws
(``scenarios.ScaledTrials``, through :meth:`ScaledGame.from_rows`), on one
scale for the whole sweep, with the factor ``cost / spec.cost`` of each cost
point: every family's catalog costs are proportional to ``spec.cost``, so
that factor costs the generated catalog at ``cost``.  Both constructors
share one assembly step (suffix sums, offers and their sort).  The public
mechanism functions build one per call from a game, and the strategy lab
one per deviator of its truthful profile, with the single factor 1, which
makes the scale the least common denominator of the game's own costs and
values; the lab runs every misreport on its offers, with the deviator's row
merged in.  An offline game is the one-slot online game it degenerates to
(z = 1), so the offline mechanisms run on the same kernels.

Every kernel returns one :data:`ScaledSettlement`, which :func:`totals`
folds into the harness's sums, :func:`served_and_paid` into an online trace
and :func:`outcome_and_ledger` into an offline result.  Every kernel's
equal share is one closed form, :func:`_fixed_point`.

Construction from a game checks, once per game, what the game's
constructor leaves to it: one bid per user (per optimization for additive
bids); :meth:`ScaledGame.from_rows` checks nothing, as the scenario draws
are valid by construction.  Cost factors are checked positive where their
:class:`Factors` is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Collection, Iterable, Mapping, Sequence

from .core import (
    AdditiveOfflineGame,
    GameError,
    OptId,
    Outcome,
    PaymentLedger,
    ServiceSchedule,
    Slot,
    SubstOfflineGame,
    SubstOnlineGame,
    UserId,
)
from .money import ZERO, Money


def _fixed_point(cost_scaled: int, descending: Sequence[tuple[int, object]], n_pinned: int) -> int:
    """Fixed-point eviction over integer-scaled bids, in closed form.

    ``descending`` holds (bid, key) pairs, highest bid first; the result is
    how many of its leading pairs stay serviced.  Eviction (split the cost
    over everyone left, drop each bid below the share, repeat) keeps exactly
    the longest prefix of m bids whose smallest one covers
    ``cost / (n_pinned + m)``: a bid that covers a share keeps covering it as
    the set shrinks, so no member of such a prefix is ever dropped, and the
    survivors form such a prefix.  ``bid >= cost/k`` is evaluated as
    ``bid * k >= cost``; with a positive cost a zero bid never survives.
    Pinned users always stay and only add to the head count.
    """
    kept = 0
    for m, (bid, _) in enumerate(descending, 1):
        if bid * (n_pinned + m) >= cost_scaled:
            kept = m
    return kept


def common_scale(values: Iterable[Money]) -> int:
    """Least common denominator; 1 for an empty collection."""
    return math.lcm(*[v.denominator for v in values])


class Factors:
    """Cost factors, each checked positive, as integers over their least
    common denominator: factor ``p`` is ``nums[p] / lcm``.  A sweep builds
    one for all its trials."""

    def __init__(self, factors: Sequence[Money]):
        if any(f <= 0 for f in factors):
            raise GameError("optimization cost must be positive")
        self.lcm = lcm = math.lcm(*[f.denominator for f in factors])
        self.nums = tuple(f.numerator * (lcm // f.denominator) for f in factors)

    def scale(self, cost_lcm: int, value_lcm: int) -> tuple[int, list[int]]:
        """``(scale, units)`` for costs over ``cost_lcm`` and values over
        ``value_lcm``: a scale on which every cost times every factor and
        every value is an integer, and per point the integer that a cost
        numerator over ``cost_lcm`` is multiplied by there."""
        common = cost_lcm * self.lcm
        scale = math.lcm(common, value_lcm)
        return scale, [n * (scale // common) for n in self.nums]


ONE = Factors((1,))  # the single factor 1: a game at its own costs


def cost_rows(base: Mapping[OptId, int], units: Sequence[int]) -> list[dict[OptId, int]]:
    """Per cost point, each optimization's scaled cost: its ``base``
    numerator times the point's unit."""
    return [{j: c * unit for j, c in base.items()} for unit in units]


class ScaledGame:
    """Bids and costs of one game as integers over ``scale``.

    ``game`` is an :class:`OnlineAdditiveGame`, an
    :class:`AdditiveOnlineMultiGame` or a :class:`SubstOnlineGame`, whose
    constructors have checked bid windows and optimization ids, or an
    :class:`AdditiveOfflineGame` or a :class:`SubstOfflineGame`, played as
    the one-slot online game it degenerates to: an additive bid gives one
    bid per optimization it values, a substitutable bid one bid, each in
    slot 1.  Bids are numbered in game order: ``users[i]``, ``starts[i]``
    and ``ends[i]`` are bid ``i``'s user and window, ``suffix[i][k]`` its
    scaled value from slot ``starts[i] + k`` on, with a trailing 0, and
    ``interest[i]`` the optimizations it values.  ``costs[p][j]`` is
    optimization ``j``'s scaled cost at cost point ``p``, a fixed integer
    per optimization times ``units[p]``, so the points rank by ``units`` as
    by their factors.  ``factors`` are Money values or a :class:`Factors`
    built from them.  :meth:`from_rows` builds one from integer rows with no
    game.  ``values`` and ``by_opt``, which only the regret baseline reads,
    are built on first use.
    """

    def __init__(self, game, factors: Sequence[Money] | Factors = ONE):
        factors = factors if isinstance(factors, Factors) else Factors(factors)
        catalog = game.catalog
        additive = not isinstance(game, (SubstOnlineGame, SubstOfflineGame))
        z = 1
        # (user, interest, start, end, per-slot values) of each bid
        if isinstance(game, AdditiveOfflineGame):
            bids = [(b.user, (j,), 1, 1, (v,)) for b in game.bids for j, v in b.values.items() if v]
        elif isinstance(game, SubstOfflineGame):
            bids = [(b.user, b.substitutes, 1, 1, (b.value,)) for b in game.bids]
        else:
            z = game.horizon.z
            bids = [(b.user, (b.opt,) if additive else b.substitutes, b.start, b.end, b.per_slot) for b in game.bids]
        # Costs need cost_lcm, factors factors.lcm and values the lcm of their
        # denominators; every product cost * factor * scale is then an integer.
        cost_lcm = math.lcm(*[o.cost.denominator for o in catalog])
        scale, units = factors.scale(cost_lcm, math.lcm(*[v.denominator for *_, row in bids for v in row]))
        base = {o.id: o.cost.numerator * (cost_lcm // o.cost.denominator) for o in catalog}
        users, starts, ends, interest, rows = [], [], [], [], []
        seen = set()
        for user, opts, start, end, row in bids:
            key = (user, opts) if additive else user
            if key in seen:
                if additive:
                    raise GameError(f"duplicate bid for user {user}, optimization {opts[0]}")
                raise GameError("one bid per user per game")
            seen.add(key)
            users.append(user)
            starts.append(start)
            ends.append(end)
            interest.append(opts)
            rows.append([v.numerator * (scale // v.denominator) for v in row])
        self._assemble(additive, z, scale, units, cost_rows(base, units), users, starts, ends, interest, rows)

    @classmethod
    def from_rows(cls, additive: bool, z: int, scale: int, units, costs, users, starts, ends, interest, rows) -> "ScaledGame":
        """The game whose fields are the arguments, and whose bid ``i`` has the
        scaled value ``rows[i][k]`` in slot ``starts[i] + k``; nothing is
        checked.  Fields may be shared between games: no kernel mutates one."""
        game = cls.__new__(cls)
        game._assemble(additive, z, scale, units, costs, users, starts, ends, interest, rows)
        return game

    def _assemble(self, additive, z, scale, units, costs, users, starts, ends, interest, rows):
        """Set the fields, and build each bid's suffix sums and each slot's
        offers from the bids' scaled per-slot values ``rows``."""
        self.additive, self.z, self.scale, self.units, self.costs = additive, z, scale, units, costs
        self.users, self.starts, self.ends, self.interest = users, starts, ends, interest
        self.suffix = suffixes = []
        # offers[t] (index 0 unused): (residual from t, bid) of every bid
        # whose window holds slot t and has value left, highest first
        self.offers = offers = [[] for _ in range(z + 1)]
        for i, (start, row) in enumerate(zip(starts, rows)):
            acc = 0
            k = len(row)
            suffix = [0] * (k + 1)
            for v in reversed(row):
                k -= 1
                acc += v
                suffix[k] = acc
                if acc:
                    offers[start + k].append((acc, i))
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


# What one kernel run settled on a :class:`ScaledGame`: ``(entries,
# implemented, log)``.  Served bid ``i`` is served ``opt`` in slots ``first``
# through ``last`` and charged ``num / (den * scale)``, where ``entries[i]
# = (opt, first, last, num, den)``; ``implemented`` holds every optimization
# paid for, served or not, and ``log`` is the kernel's own record.  A plain
# tuple: a named tuple's constructor costs a Python call per kernel run.
ScaledSettlement = tuple[dict[int, tuple[OptId, Slot, Slot, int, int]], Collection[OptId], Any]


def totals(game: ScaledGame, run: ScaledSettlement, costs: Mapping[OptId, int]) -> tuple[int, int, int, int]:
    """``(realized, spent, paid, den)`` of ``run`` at scaled costs ``costs``:
    the value its bids realize over their served slots and the cost of the
    implemented optimizations, both on the game's scale, and the charges,
    ``paid`` over ``den`` times the scale."""
    entries, implemented, _ = run
    starts, suffix = game.starts, game.suffix
    realized = spent = paid = 0
    charges: dict[int, int] = {}  # denominator -> sum of numerators
    for i, (_, first, last, num, den) in entries.items():
        start = starts[i]
        realized += suffix[i][first - start] - suffix[i][last + 1 - start]
        charges[den] = charges.get(den, 0) + num
    for j in implemented:
        spent += costs[j]
    lcm = math.lcm(*charges)
    for den, num in charges.items():
        paid += num * (lcm // den)
    return realized, spent, paid, lcm


def served_and_paid(
    game: ScaledGame, run: ScaledSettlement, through: Slot
) -> tuple[ServiceSchedule, dict[UserId, Money]]:
    """The schedule and payments of ``run`` played through slot ``through``:
    the users served each optimization in each slot up to it, and each user's
    charges, in bid order, of the bids whose last served slot it reaches."""
    users, scale = game.users, game.scale
    served: dict[tuple[OptId, Slot], list[UserId]] = {}
    payments = dict.fromkeys(users, ZERO)
    charges: dict[tuple[int, int], Money] = {}  # one Fraction per distinct charge
    for i, (j, first, last, num, den) in run[0].items():
        user = users[i]
        for t in range(first, min(last, through) + 1):
            served.setdefault((j, t), []).append(user)
        if last <= through:
            if (num, den) not in charges:
                charges[num, den] = Fraction(num, den * scale)
            paid = payments[user]  # a user with several bids pays for each
            payments[user] = paid + charges[num, den] if paid else charges[num, den]
    return ServiceSchedule({key: frozenset(members) for key, members in served.items()}), payments


def outcome_and_ledger(game: ScaledGame, run: ScaledSettlement) -> tuple[Outcome, PaymentLedger]:
    """The offline result of ``run`` on a one-slot game: each served bid's
    user granted its optimization and charged its entry's charge."""
    users, scale = game.users, game.scale
    entries: dict[tuple[UserId, OptId], Money] = {}
    charges: dict[tuple[int, int], Money] = {}  # one Fraction per distinct charge
    for i, (j, _, _, num, den) in run[0].items():
        if (num, den) not in charges:
            charges[num, den] = Fraction(num, den * scale)
        entries[users[i], j] = charges[num, den]
    return Outcome(frozenset(run[1]), frozenset(entries)), PaymentLedger(entries)
