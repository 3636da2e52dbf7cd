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
that factor costs the generated catalog at ``cost``.  The public mechanism
functions lower their game to one per call, and the strategy lab one per
deviator (or splitter) of its truthful profile, with the single factor 1,
which makes the scale the least common denominator of the game's own
costs and values; the lab runs every misreport or identity split on its
offers, with the new rows merged in.  Lowering is one pass per game kind:
it reads each cost's and value's numerator and denominator once and takes
one lcm over the distinct denominators.  An online game is then assembled
as :meth:`ScaledGame.from_rows` does (suffix sums, offers and their sort).
An offline game is built directly as the one-slot online game it
degenerates to (z = 1), one suffix ``[v, 0]`` per bid and one offer list in
slot 1, so the offline mechanisms run on the same kernels; ``shapley``
lowers its bid map straight into such a game
(:meth:`ScaledGame.from_ratios`).

Every kernel (``serve``, ``grant``, ``trigger``) returns one
:data:`ScaledSettlement`, its served bids, implemented optimizations and
ceilings, which :func:`totals` folds into the harness's sums,
:func:`served_and_paid` into an online trace and :func:`outcome_and_ledger`
into an offline result; each result keeps it and its game, and :func:`fold`
scores it per user.  A sweep settles its cost points through
:func:`settle_points`, one walk by ceilings for every settler: it takes one
settle step per distinct outcome (a kernel run folded by :func:`totals`,
:func:`kernel_step`, or the additive regret's bisections) and returns one
run per step, which gives each point it covers its cell row from the
point's unit (:func:`point_rows` expands them).
Every kernel's equal share is one closed form, :func:`_fixed_point`.

Construction from a game checks, once per game, what the game's
constructor leaves to it: one bid per user (per optimization for additive
bids); :meth:`ScaledGame.from_rows` checks nothing, as the scenario draws
are valid by construction.  Cost factors are checked positive where their
:class:`Factors` is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

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


def _check_one_bid(additive: bool, users: Sequence[UserId], interest: Sequence) -> None:
    """Raise a :class:`GameError` naming the first bid that repeats a user
    (a user and optimization, for additive bids)."""
    seen = set()
    for key in zip(users, interest) if additive else users:
        if key in seen:
            if additive:
                raise GameError(f"duplicate bid for user {key[0]}, optimization {key[1][0]}")
            raise GameError("one bid per user per game")
        seen.add(key)


class ScaledGame:
    """Bids and costs of one game as integers over ``scale``.

    ``game`` is an :class:`AdditiveOnlineGame` or a
    :class:`SubstOnlineGame`, whose constructors have checked bid windows
    and optimization ids, or an :class:`AdditiveOfflineGame` or a
    :class:`SubstOfflineGame`, played as the one-slot online game it
    degenerates to: an additive bid gives one bid per optimization it
    values, a substitutable bid one bid, each offering its value in slot
    1.  Bids are numbered in game order: ``users[i]``, ``starts[i]`` and
    ``ends[i]`` are bid ``i``'s user and window, ``suffix[i][k]`` its
    scaled value from slot ``starts[i] + k`` on, with a trailing 0, and
    ``interest[i]`` the optimizations it values.  ``costs[p][j]`` is
    optimization ``j``'s scaled cost at cost point ``p``, a fixed integer
    per optimization times ``units[p]``, so the points rank by ``units`` as
    by their factors.  ``factors`` are Money values or a :class:`Factors`
    built from them.  :meth:`from_ratios` builds an additive one-slot game
    from values as (numerator, denominator) pairs, and :meth:`from_rows` any
    game from integer rows, with no game object.  ``values`` and ``by_opt``, which only the regret
    baseline reads, are built on first use.
    """

    def __init__(self, game, factors: Sequence[Money] | Factors = ONE):
        factors = factors if isinstance(factors, Factors) else Factors(factors)
        bids = game.bids
        cost_ratios = {o.id: o.cost.as_integer_ratio() for o in game.catalog}
        # each bid's user and interest, and its values as (numerator,
        # denominator): one per offline bid, a row per online one
        if isinstance(game, AdditiveOfflineGame):
            additive, users, interest, values = True, [], [], []
            for b in bids:
                for j, v in b.values.items():
                    if v:
                        users.append(b.user)
                        interest.append((j,))
                        values.append(v.as_integer_ratio())
            z = starts = ends = None
        elif isinstance(game, SubstOfflineGame):
            additive, users, interest = False, [b.user for b in bids], [b.substitutes for b in bids]
            values = [b.value.as_integer_ratio() for b in bids]
            z = starts = ends = None
        else:
            additive, z = not isinstance(game, SubstOnlineGame), game.horizon.z
            interest = [(b.opt,) for b in bids] if additive else [b.substitutes for b in bids]
            users, starts, ends, values = [], [], [], []
            for b in bids:  # one loop: a comprehension per field would cost a call each
                users.append(b.user)
                starts.append(b.start)
                ends.append(b.end)
                values.append([v.as_integer_ratio() for v in b.per_slot])
        if len(set(users)) < len(users):  # only then can a bid repeat one
            _check_one_bid(additive, users, interest)
        self._lower(additive, cost_ratios, users, interest, values, factors, z, starts, ends)

    @classmethod
    def from_ratios(cls, cost_ratios, users, interest, values) -> "ScaledGame":
        """The one-slot game (z = 1) an :class:`AdditiveOfflineGame` lowers
        to, over the catalog ``{opt: (numerator, denominator) of its cost}``
        at its own costs: bid ``i`` is ``users[i]``'s, values the
        optimizations ``interest[i]`` and offers its one positive value,
        ``values[i]`` as a (numerator, denominator) pair, in slot 1.
        Nothing is checked."""
        game = cls.__new__(cls)
        game._lower(True, cost_ratios, users, interest, values, ONE, None, None, None)
        return game

    def _lower(self, additive, cost_ratios, users, interest, values, factors, z, starts, ends):
        """Set the fields from the costs and values as (numerator,
        denominator) pairs: with a horizon ``z``, a row of per-slot values
        per bid over its window; with none (``z``, ``starts`` and ``ends``
        None), the one-slot game, one positive value per bid."""
        # Costs need cost_lcm, factors factors.lcm and values the lcm of their
        # denominators; every product cost * factor * scale is then an integer.
        cost_lcm = math.lcm(*{d for _, d in cost_ratios.values()})
        dens = {d for _, d in values} if z is None else {d for row in values for _, d in row}
        scale, units = factors.scale(cost_lcm, math.lcm(*dens))
        costs = cost_rows({j: n * (cost_lcm // d) for j, (n, d) in cost_ratios.items()}, units)
        if z is not None:
            rows = [[n * (scale // d) for n, d in row] for row in values]
            self._assemble(additive, z, scale, units, costs, users, starts, ends, interest, rows)
            return
        # the one-slot game: each bid offers its positive value in slot 1
        scaled = [n * (scale // d) for n, d in values]
        self.additive, self.z, self.scale, self.units, self.costs = additive, 1, scale, units, costs
        self.users, self.starts, self.ends, self.interest = users, [1] * len(users), [1] * len(users), interest
        self.suffix = [[v, 0] for v in scaled]
        self.offers = [[], sorted(zip(scaled, range(len(scaled))), reverse=True)]
        self._values = self._by_opt = None

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
# implemented, ceilings)``.  Served bid ``i`` is served ``opt`` in slots
# ``first`` through ``last`` and charged ``num / (den * scale)``, where
# ``entries[i] = (opt, first, last, num, den)``; ``implemented`` holds every
# optimization paid for, served or not, and ``ceilings`` holds the highest
# cost of each optimization up to which the run holds (see
# :func:`kernel_step`).  A plain tuple: a named tuple's constructor costs a
# Python call per kernel run.
ScaledSettlement = tuple[dict[int, tuple[OptId, Slot, Slot, int, int]], Collection[OptId], Mapping[OptId, int]]


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


def kernel_step(kernel, game: ScaledGame, costs: Mapping[OptId, int], unit: int) -> tuple[int, int, int, int, int, int]:
    """The settle step of ``kernel`` (``serve``, ``grant`` or ``trigger``)
    for :func:`settle_points`: its run at ``costs``, folded by :func:`totals`.
    The kernel's log holds its ceilings: per optimization it implements, the
    highest cost up to which, with every other cost scaled alike, the run
    serves the same bids the same optimizations in the same slots, charged
    over the same denominators, each charge its optimization's cost or a
    fixed amount, so it holds up to the least unit ``ceiling // base cost``.
    Only ``trigger`` has fixed charges: its riders' and its posted prices
    that do not recover the cost."""
    run = kernel(game, costs)
    realized, spent, paid, lcm = totals(game, run, costs)
    fixed = sum([num * (lcm // den) for j, _, _, num, den in run[0].values() if num != costs[j]])
    top = min([ceiling // (costs[j] // unit) for j, ceiling in run[2].items()], default=math.inf)
    return realized, spent // unit, (paid - fixed) // unit, fixed, lcm, top


# One settle step's share of a walk (:func:`settle_points`): ``(first, a,
# s, p, f, den, implemented)`` covers the points ``order[first:]`` up to the
# next run's ``first``, and at each of them, at unit ``u``, total utility is
# ``(a - s * u) / den`` and cloud balance ``(p * u + f) / den``;
# ``implemented`` tells whether anything was implemented there.
SettleRun = tuple[int, int, int, int, int, int, bool]


def settle_points(step, game: ScaledGame, order: Sequence[int]) -> list[SettleRun]:
    """The runs of ``game``'s cost points, one per settle step, by rising
    first position in ``order``, which lists the points by rising cost; the
    first run starts at position 0 and each covers the positions up to the
    next one's start (:data:`SettleRun`).  :func:`point_rows` expands them
    to one row per point.

    ``step(game, costs, unit)`` settles the point at ``costs`` and returns
    ``(realized, spent, paid, fixed, lcm, top)``: the realized value, the
    cost spent and the charges that scale with the cost, both per unit, the
    fixed charges, their common denominator ``lcm`` (charges are over
    ``lcm`` times the scale) and the dearest unit up to which, with every
    cost scaled alike, all of it holds (``math.inf`` if every dearer one).
    Every cost at point ``p`` is ``units[p]`` times a base cost, so the walk
    up the sorted points settles the cheapest point not yet settled and
    covers every following point up to ``top`` without a step: its spent
    cost and scaling charges are its unit times the same integers.  So a
    step runs once per distinct outcome: :func:`kernel_step` for the
    kernels, and ``regret.trigger_points``' step for the additive regret.
    """
    units, costs, scale = game.units, game.costs, game.scale
    runs: list[SettleRun] = []
    top = 0  # the dearest unit at which the last step holds
    for k, p in enumerate(order):
        unit = units[p]
        if unit > top:
            realized, spent, paid, fixed, lcm, top = step(game, costs[p], unit)
            # utility and the scaling part of balance, per unit, over den
            runs.append((k, realized * lcm, spent * lcm, paid - spent * lcm, fixed, scale * lcm, spent > 0))
    return runs


def point_rows(runs: Sequence[SettleRun], units: Sequence[int], order: Sequence[int]) -> list[tuple[int, int, int, bool]]:
    """Each cost point's row ``(utility, balance, den, implemented)``, in
    point order, from the :func:`settle_points` runs over ``order``: total
    utility and cloud balance, each over ``den``, and whether anything was
    implemented."""
    rows: list = [None] * len(order)
    ends = [run[0] for run in runs[1:]] + [len(order)]
    for (k, a, s, p, f, den, implemented), end in zip(runs, ends):
        for point in order[k:end]:
            unit = units[point]
            rows[point] = (a - s * unit, p * unit + f, den, implemented)
    return rows


def fold(
    run: ScaledSettlement, users: Sequence[UserId], rows: ScaledGame, owner: Mapping[UserId, UserId] | None = None
) -> tuple[dict[UserId, int], dict[UserId, int], int]:
    """``(realized, paid, den)`` of ``run``, whose bid ``i`` is ``users[i]``'s
    (or its ``owner``'s, for a user declaring through several identities):
    per served user, the value that its bids in ``rows`` realize, on the
    scale of ``rows``, and its charges, ``paid[user]`` over ``den`` times the
    run's scale.  A bid of ``rows`` realizes its value in each slot of its
    window in which the run served its user an optimization the bid names,
    once however many of the user's bids were served there; ``rows`` are
    the run's own game or the same users' true values, on any scale."""
    settled: dict[UserId, list[tuple[Slot, Slot, OptId, int, int]]] = {}
    for i, (j, first, last, num, den) in run[0].items():
        user = owner.get(users[i], users[i]) if owner else users[i]
        settled.setdefault(user, []).append((first, last, j, num, den))
    lcm = math.lcm(*{entry[4] for entries in settled.values() for entry in entries})
    paid = {user: sum(num * (lcm // den) for *_, num, den in entries) for user, entries in settled.items()}
    realized: dict[UserId, int] = {}
    for user, opts, start, suffix in zip(rows.users, rows.interest, rows.starts, rows.suffix):
        entries = settled.get(user)
        if entries is None:
            continue
        value, end, t = 0, start + len(suffix) - 2, start  # t: the first slot not yet counted
        for first, last, j, _, _ in sorted(entries):
            if j in opts:
                a, b = max(first, t), min(last, end)
                if a <= b:
                    value += suffix[a - start] - suffix[b + 1 - start]
                    t = b + 1
        realized[user] = realized.get(user, 0) + value
    return realized, paid, lcm


def served_and_paid(game: ScaledGame, run: ScaledSettlement) -> tuple[ServiceSchedule, dict[UserId, Money]]:
    """The schedule and payments of ``run``: the users served each
    optimization in each slot, and each user's charges, in bid order."""
    users, scale = game.users, game.scale
    served: dict[tuple[OptId, Slot], list[UserId]] = {}
    payments = dict.fromkeys(users, ZERO)
    charges: dict[tuple[int, int], Money] = {}  # one Fraction per distinct charge
    for i, (j, first, last, num, den) in run[0].items():
        user = users[i]
        for t in range(first, last + 1):
            served.setdefault((j, t), []).append(user)
        if (num, den) not in charges:
            charges[num, den] = Fraction(num, den * scale)
        paid = payments[user]  # a user with several bids pays for each
        payments[user] = paid + charges[num, den] if paid else charges[num, den]
    return ServiceSchedule({key: frozenset(members) for key, members in served.items()}), payments


def outcome_and_ledger(game: ScaledGame, run: ScaledSettlement) -> tuple[Outcome, PaymentLedger]:
    """The offline result of ``run`` on a one-slot game: each served bid's
    user granted its optimization and charged its entry's charge.  The
    ledger keeps ``game`` and ``run``."""
    users, scale = game.users, game.scale
    entries: dict[tuple[UserId, OptId], Money] = {}
    charges: dict[tuple[int, int], Money] = {}  # one Fraction per distinct charge
    for i, (j, _, _, num, den) in run[0].items():
        if (num, den) not in charges:
            charges[num, den] = Fraction(num, den * scale)
        entries[users[i], j] = charges[num, den]
    return Outcome(frozenset(run[1]), frozenset(entries)), PaymentLedger(entries, game, run)
