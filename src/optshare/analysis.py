"""The mechanism registry and scoring; the efficiency oracle; the strategy lab.

Every mechanism of the registry returns one
:class:`~optshare.scaled.Settlement`, its ``ScaledGame`` and integer kernel
run, and :func:`score` is one fold of them
(:func:`~optshare.scaled.fold`): utilities are computed against *true*
values, even when the bids fed to a mechanism were deviations, and payments
are whatever the mechanism charged.  The strategy lab searches
bid/timing/set misreports on a finite grid, one scale per cell of scales
that settle alike, and identity splits at a grid of levels, each a run of
an integer kernel on the others' offers with the new rows merged in, folded
the same way (fractions are built only for the report).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from .additive_online import add_on, serve
from .core import (
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    EnumerationGuard,
    GameError,
    OnlineBid,
    OptId,
    Optimization,
    Outcome,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    UserId,
)
from .money import ZERO, Money
from .regret import regret_run
from .scaled import ScaledGame, ScaledSettlement, _fixed_point, common_scale, fold
from .shapley import add_off
from .substitutable import grant, subst_off, subst_on

# Bound here only for perfbench/spans.py, whose traced run wraps this name on
# this module; the strategy lab runs the equal share on ``_fixed_point``.
from .shapley import shapley  # noqa: F401


@dataclass(frozen=True)
class Metrics:
    total_value: Money  # true value realized over serviced user-slots/grants
    total_cost: Money
    total_utility: Money  # total_value - total_cost
    cloud_balance: Money  # payments - costs
    per_user_utility: dict[UserId, Money]


# ---------------------------------------------------------------------------
# The mechanism registry, and scoring


# Every mechanism by name: (the game kinds it runs on, runner(game, bids)),
# where ``bids`` replace the game's own.
MECHANISMS = {
    "add_off": ((AdditiveOfflineGame,), lambda game, bids: add_off(game.catalog, bids)),
    "add_on": ((AdditiveOnlineGame,), lambda game, bids: add_on(replace(game, bids=bids))),
    "subst_off": ((SubstOfflineGame,), lambda game, bids: subst_off(game.catalog, bids)),
    "subst_on": ((SubstOnlineGame,), lambda game, bids: subst_on(game.catalog, game.horizon, bids)),
    "regret": ((AdditiveOnlineGame, SubstOnlineGame), lambda game, bids: regret_run(game.catalog, game.horizon, bids)),
}


# The mechanisms the paper proves truthful; the regret baseline is not one (it
# trusts bids to be true values).
TRUTHFUL_MECHANISMS = ("add_off", "add_on", "subst_off", "subst_on")


def runner(mechanism: str, game):
    """``mechanism``'s runner from the registry; a ``ValueError`` unless its
    game kinds hold ``game``'s type."""
    kinds, run = MECHANISMS[mechanism]
    if not isinstance(game, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{mechanism} runs on {names} games, not {type(game).__name__}")
    return run


def score(game, result, truth: Mapping[UserId, object] | None = None) -> Metrics:
    """Score any mechanism's result on ``game``, whose bids it was run on.

    One fold of the result's settlement: every bid realizes its true value
    in each slot of its window where the run served its user an
    optimization it names; ``truth`` replaces the game's bids user by user,
    and a served user it lacks is an error.  A ``TypeError`` unless
    ``result`` is a :class:`~optshare.scaled.Settlement`."""
    try:
        scaled, run = result.game, result.run
    except AttributeError:
        raise TypeError(f"a {type(result).__name__} built by hand keeps no settlement to score") from None
    if truth is None:
        bids, rows = game.bids, scaled
    else:
        bids = tuple(truth.values())
        rows = ScaledGame(replace(game, bids=bids))
    realized, paid, den = fold(run, scaled.users, rows)
    users = dict.fromkeys([b.user for b in bids])
    unknown = paid.keys() - users.keys()
    if unknown:
        raise GameError(f"schedule references unknown users {sorted(unknown)}")
    charged = den * scaled.scale  # the payments' denominator
    common = math.lcm(rows.scale, charged)
    to_value, to_paid = common // rows.scale, common // charged
    per_user = {u: Fraction(realized.get(u, 0) * to_value - paid.get(u, 0) * to_paid, common) for u in users}
    spent = sum(scaled.costs[0][j] for j in run[1])
    total_value, total_cost = Fraction(sum(realized.values()), rows.scale), Fraction(spent, scaled.scale)
    balance = Fraction(sum(paid.values()) - spent * den, charged)
    return Metrics(total_value, total_cost, total_value - total_cost, balance, per_user)


# ---------------------------------------------------------------------------
# Brute-force efficient outcome (the benchmark the mechanisms trade away)


def efficient_outcome(catalog: Iterable[Optimization], bids) -> tuple[Outcome, Money]:
    """Exhaustively find the outcome maximizing declared value minus cost.

    Works on additive or substitutable offline bids.  Guarded to small
    instances (|users| x |optimizations| <= 20 grant pairs).
    """
    catalog = tuple(catalog)
    bids = tuple(bids)
    if len(catalog) * len(bids) > 20:
        raise EnumerationGuard("instance too large to enumerate")
    substitutable = bool(bids) and isinstance(bids[0], SubstitutableOfflineBid)
    best: tuple[Money, Outcome] | None = None
    for r in range(len(catalog) + 1):
        for chosen in itertools.combinations(catalog, r):
            implemented = frozenset(o.id for o in chosen)
            cost = sum((o.cost for o in chosen), ZERO)
            grants: set[tuple[UserId, OptId]] = set()
            value = ZERO
            for bid in bids:
                if substitutable:
                    usable = sorted(bid.substitutes & implemented)
                    if usable:
                        grants.add((bid.user, usable[0]))
                        value += bid.value
                else:
                    for j in implemented:
                        v = bid.value_for(j)
                        if v > 0:
                            grants.add((bid.user, j))
                            value += v
            utility = value - cost
            if best is None or utility > best[0]:
                best = (utility, Outcome(implemented, frozenset(grants)))
    assert best is not None
    return best[1], best[0]


# ---------------------------------------------------------------------------
# Deviation search (truthfulness on a grid)


# The finite misreport grid: 21 value scales k/10 spanning [0, 2x truth]
# (the lab reads scale k as the integer k over ten), and every substitute
# subset of catalogs up to SUBSET_CATALOG_LIMIT in size.
GRID_SCALES = tuple(Fraction(k, 10) for k in range(21))
SUBSET_CATALOG_LIMIT = 3


@dataclass(frozen=True)
class DeviationReport:
    mechanism: str
    deviator: UserId
    truthful_utility: Money
    best_utility: Money
    best_deviation: str | None
    profitable: bool


def deviation_search(mechanism: str, game, deviator: UserId) -> DeviationReport:
    """Grid search for a profitable unilateral misreport.

    Offline mechanisms compare each grid bid against truth on the full game.
    Online mechanisms are evaluated in the worst-case continuation: for every
    placement slot, only bids already arrived by then are present and no
    future bids arrive.  Each declaration (window, substitute set) is
    evaluated at one grid scale per cell of scales that the deviator's
    offers cannot tell apart, the smallest the grid allows in it, in
    ascending order (:meth:`_Lab.firsts`): a larger scale in the same cell
    settles alike, and under the strict ``>`` a tie never replaces the
    best, so the report is the one every grid point gives.  The deviator
    must hold one bid, and the mechanism must run on the game's type
    (``shapley`` and the pay-your-bid control ``naive_pay_bid`` as
    ``add_off``).
    """
    true_bid, others = _subject(mechanism, game, deviator, (*TRUTHFUL_MECHANISMS, "shapley", "naive_pay_bid"))
    if isinstance(game, AdditiveOfflineGame):
        return _search_additive_offline(mechanism, game, true_bid, others)
    window, own = (1, 1), getattr(true_bid, "substitutes", None)  # None: additive
    if isinstance(true_bid, OnlineBid):
        # Worst-case continuation for a bid placed at the deviator's arrival:
        # whoever has arrived by then is known, nobody else ever shows up.
        # (Placement cannot be earlier, and evaluating later placements
        # against later arrivals would hand the deviator knowledge of the
        # future, which the worst-case truthfulness notion denies her.)
        others = [b for b in others if b.start <= true_bid.start]
        window = (true_bid.start, true_bid.end)
    lab = _Lab(game, others, true_bid)
    utility, scale = lab.utility, lab.scale
    truthful = best = utility(window, own, 10)
    best_at = None
    for window, subset, ks in _declarations(game, true_bid):
        for k in lab.firsts(window, subset, ks):
            u = utility(window, subset, k)
            if u[0] * best[1] > best[0] * u[1]:
                best, best_at = u, (window, subset, k)
    best_note = None if best_at is None else _note(isinstance(true_bid, OnlineBid), *best_at)
    truthful_u, best_u = (Fraction(n, c * scale) for n, c in (truthful, best))
    return DeviationReport(mechanism, deviator, truthful_u, best_u, best_note, best_u > truthful_u)


def _subject(mechanism: str, game, user: UserId, subjects) -> tuple:
    """``user``'s one bid and the others' bids, once ``mechanism`` is found
    among ``subjects`` and able to run on ``game``."""
    if mechanism not in subjects:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    runner("add_off" if mechanism in ("shapley", "naive_pay_bid") else mechanism, game)
    own = [b for b in game.bids if b.user == user]
    if len(own) != 1:
        raise GameError(f"user {user} holds {len(own)} bids; the strategy lab plays one")
    return own[0], [b for b in game.bids if b.user != user]


class _Offers:
    """The others' per-slot offers of a truthful profile, at ``factor``
    times its scale, and one kernel run of them with new offers merged in
    (:meth:`settle`): ``serve`` for an additive game, else ``grant``
    (``subst_off`` as the one-slot ``subst_on`` it degenerates to).  The
    profile, the others' bids then the true bid, is checked and rescaled
    once, as a run of it would be, into ``scaled``, whose rows from ``n`` on
    are the true bid's.  A kernel reads an offer only in the equal-share
    fixed point, which keeps all equal offers or none, so a new offer's rank
    among equal ones does not matter."""

    def __init__(self, game, others, true_bid, factor: int):
        self.scaled = scaled = ScaledGame(replace(game, bids=(*others, true_bid)))
        self.n = n = len(scaled.users) - scaled.users.count(true_bid.user)
        self.kernel = serve if scaled.additive else grant
        self.costs = {j: factor * c for j, c in scaled.costs[0].items()}
        # the others' offers per slot, highest first, and their negations to bisect
        self.offers = [[(factor * v, i) for v, i in slot if i < n] for slot in scaled.offers]
        self.negated = [[-v for v, _ in slot] for slot in self.offers]
        # what a kernel reads of a ScaledGame; each run merges new offers in
        self.merged = SimpleNamespace(z=scaled.z, offers=None, interest=list(scaled.interest), ends=list(scaled.ends))
        self.scale = factor * scaled.scale

    def settle(self, rows) -> ScaledSettlement:
        """One kernel run with new rows merged into the others' offers: for
        each ``(k, bid, row)``, the bid offers ``k * v`` in each slot ``t``
        of the row's ``(t, v)`` pairs, the first new offer of a slot after
        the others' equal ones, any further one sorted in."""
        offers, negated = self.offers, self.negated
        self.merged.offers = merged = offers[:]
        for k, i, row in rows:
            for t, v in row:
                v *= k
                slot = merged[t]
                if slot is offers[t]:
                    p = bisect_right(negated[t], -v)
                    merged[t] = [*slot[:p], (v, i), *slot[p:]]
                else:
                    merged[t] = sorted([*slot, (v, i)], reverse=True)
        return self.kernel(self.merged, self.costs)


class _Lab(_Offers):
    """The deviator's strategy lab and its scale: :meth:`utility` is her
    true utility, ``n / (c * scale)`` as ``(n, c)``, declaring ``subset``
    (None: her one optimization) over ``window`` at her true values times
    ``k/10``.  At ten times the truthful profile's scale each declaration
    is k times an integer row, merged into the others' per-slot offers,
    and the mechanism's kernel settles it (:meth:`run`).  Served ``j`` from
    slot ``t``, she realizes her true value from ``t`` to her declared end
    if ``j`` is a true substitute, and pays her entry's charge.

    The kernel runs once per :meth:`cell` of scales.  For ``k >= 1`` her
    offer in slot ``t`` is ``k * r_t`` (``r_t`` her true value from ``t`` to
    her declared end), and a kernel reads it only in the equal-share fixed
    point, as ``k * r_t * c >= cost_j`` for ``j`` she declares and a head
    count ``c`` of at most every bidder.  The run, and her realized value,
    are therefore the same for every ``k`` between two breakpoints
    ``ceil(cost_j / (c * r_t))``; ``k = 0`` makes no offer and is a cell of
    its own.  The search therefore evaluates only the smallest allowed
    scale of each cell (:meth:`firsts`, from the declaration's
    :meth:`breaks`, computed once), and :meth:`utility` keeps one result per
    cell, which the truthful scale shares with the search."""

    def __init__(self, game, others, true_bid):
        super().__init__(game, others, true_bid, 10)
        scaled, n = self.scaled, self.n
        self.own = scaled.interest[n]
        # the deviator's true value through each slot, at a tenth of the scale
        start, suffix = scaled.starts[n], scaled.suffix[n]
        row = [v - w for v, w in zip(suffix, suffix[1:])]
        self.prefix = list(accumulate([0] * start + row + [0] * (scaled.z - scaled.ends[n])))
        self.rows: dict = {}  # window -> its row
        self.breakpoints: dict = {}  # (window, subset) -> sorted breakpoints
        self.settled: dict = {}  # (window, subset, cell) -> utility

    def utility(self, window, subset, k) -> tuple[int, int]:
        """:meth:`run`, once per cell."""
        key = (window, subset, self.cell(window, subset, k))
        u = self.settled.get(key)
        if u is None:
            u = self.settled[key] = self.run(window, subset, k)
        return u

    def breaks(self, window, subset) -> list[int]:
        """The declaration's breakpoints, distinct and ascending, computed
        once per declaration."""
        breaks = self.breakpoints.get((window, subset))
        if breaks is None:
            rows = {r for _, r in self.row(window)}
            costs = [self.costs[j] for j in subset or self.own]
            breaks = sorted({-(-cost // (c * r)) for cost in costs for r in rows for c in range(1, self.n + 2)})
            self.breakpoints[window, subset] = breaks
        return breaks

    def cell(self, window, subset, k) -> int:
        """The cell of scale ``k``: -1 for 0, else how many breakpoints of
        the declaration are at most ``k``."""
        return bisect_right(self.breaks(window, subset), k) if k else -1

    def firsts(self, window, subset, ks: range) -> list[int]:
        """The smallest scale of ``ks`` in each cell, ascending: 0 if ``ks``
        holds it, its least positive scale, and each breakpoint of the
        declaration above that one and within ``ks``."""
        firsts = [0] if 0 in ks else []
        positive = range(max(ks.start, 1), ks.stop)
        if positive:
            breaks = self.breaks(window, subset)
            lo, hi = bisect_right(breaks, positive[0]), bisect_right(breaks, positive[-1])
            firsts += [positive[0], *breaks[lo:hi]]
        return firsts

    def row(self, window) -> list[tuple[int, int]]:
        """Her row over ``window``, computed once per window: ``(t, r_t)``
        for each slot ``t`` of it with ``r_t`` positive."""
        row = self.rows.get(window)
        if row is None:
            (s, e), prefix = window, self.prefix
            row = self.rows[window] = [(t, prefix[e] - prefix[t - 1]) for t in range(s, e + 1) if prefix[e] > prefix[t - 1]]
        return row

    def run(self, window, subset, k) -> tuple[int, int]:
        """Her utility at scale ``k``, from one run of the kernel."""
        e, prefix, n, lab = window[1], self.prefix, self.n, self.merged
        lab.interest[n], lab.ends[n] = subset or self.own, e
        entry = self.settle([(k, n, self.row(window))] if k else ())[0].get(n)
        if entry is None:
            return 0, 1
        j, t, _, num, den = entry
        return (10 * (prefix[e] - prefix[t - 1]) if j in self.own else 0) * den - num, den


def _search_additive_offline(mechanism, game: AdditiveOfflineGame, true_bid, others) -> DeviationReport:
    # The per-optimization runs are independent, so the best joint misreport is the best per-column
    # misreport, searched column by column in integers at ten times the column's common denominator.
    truthful = best_total = ZERO
    notes = []
    for opt in game.catalog:
        v = true_bid.value_for(opt.id)
        column = [w for w in (b.value_for(opt.id) for b in others) if w > 0]
        scale = 10 * common_scale([opt.cost, v, *column])
        cost, true_s, *rest = (x.numerator * (scale // x.denominator) for x in (opt.cost, v, *column))
        rest.sort(reverse=True)
        column_best = None
        for k in range(len(GRID_SCALES)):
            u = _column_utility(mechanism, cost, rest, true_s, k * true_s // 10)
            if k == 10:
                truthful += Fraction(u[0], u[1] * scale)
            if column_best is None or u[0] * column_best[1] > column_best[0] * u[1]:
                column_best, best_k = u, k
        best_total += Fraction(column_best[0], column_best[1] * scale)
        if best_k != 10:
            notes.append(f"opt {opt.id} x{GRID_SCALES[best_k]}")
    return DeviationReport(mechanism, true_bid.user, truthful, best_total, ", ".join(notes) or None, best_total > truthful)


def _column_utility(mechanism, cost: int, rest: list[int], true_value: int, declared: int) -> tuple[int, int]:
    """The deviator's true utility, ``n / c`` at the column's scale as ``(n, c)``,
    declaring ``declared`` against the others' positive bids ``rest``, highest first."""
    if declared and mechanism == "naive_pay_bid":
        return (true_value - declared, 1) if sum(rest) + declared >= cost else (0, 1)
    p = sum(1 for w in rest if w >= declared)  # after the equal bids
    kept = _fixed_point(cost, [(w, 0) for w in (*rest[:p], declared, *rest[p:])], 0) if declared else 0
    return (true_value * kept - cost, kept) if p < kept else (0, 1)


def _subset_options(catalog, true_set: frozenset[OptId]) -> list[frozenset[OptId]]:
    pool = sorted(o.id for o in catalog)
    if len(pool) > SUBSET_CATALOG_LIMIT:
        pool = sorted(true_set)  # large catalogs: vary within the true set only
    return [frozenset(c) for r in range(1, len(pool) + 1) for c in itertools.combinations(pool, r)]


def _declarations(game, bid):
    """Every grid declaration of a substitutable or online ``bid`` as
    (window, substitute set, ks): its true values times ``GRID_SCALES[k]``
    over the window for each k of the range ``ks``, window by window, then
    substitute set by set.  An online bid may declare any window that opens
    at its arrival or later (the set is None for an additive one); an
    offline one declares the window (1, 1).  A declaration with no positive
    value withdraws a substitutable bid: offline that is tried once (k = 0
    with the true set), online not at all."""
    online = isinstance(bid, OnlineBid)
    windows = [(1, 1)]
    if online:
        windows = [(s, e) for s in range(bid.start, game.horizon.z + 1) for e in range(s, game.horizon.z + 1)]
    subsets = [None] if isinstance(bid, AdditiveOnlineBid) else _subset_options(game.catalog, bid.substitutes)
    every, positive = range(len(GRID_SCALES)), range(1, len(GRID_SCALES))
    for s, e in windows:
        valued = not online or any(bid.value_at(t) for t in range(s, e + 1))
        for subset in subsets:
            if subset is None or (not online and subset == bid.substitutes):
                yield (s, e), subset, every
            elif valued:
                yield (s, e), subset, positive


def _note(online: bool, window, subset, k: int) -> str:
    """How a report names the misreport (window, subset, k) of
    :func:`_declarations`."""
    note = "" if subset is None else f"set {sorted(subset)} "
    if online:
        note += f"window [{window[0]},{window[1]}] "
    return f"{note}x{GRID_SCALES[k]}"


# ---------------------------------------------------------------------------
# Multiple-identity probe


@dataclass(frozen=True)
class SplitOutcome:
    levels: tuple[Fraction, ...]
    splitter_utility: Money
    other_deltas: dict[UserId, Money]

    @property
    def harmed(self) -> tuple[UserId, ...]:
        return tuple(sorted(u for u, d in self.other_deltas.items() if d < 0))


@dataclass(frozen=True)
class ProbeReport:
    mechanism: str
    splitter: UserId
    identities: int
    baseline_utility: Money
    baseline_others: dict[UserId, Money]
    splits: tuple[SplitOutcome, ...]

    @property
    def beneficial_harmful(self) -> tuple[SplitOutcome, ...]:
        """Splits that raise the splitter's utility yet harm someone else;
        the additive mechanisms must never produce one."""
        return tuple(
            s for s in self.splits if s.splitter_utility > self.baseline_utility and s.harmed
        )


DEFAULT_SPLIT_LEVELS = tuple(Fraction(k, 4) for k in range(0, 9))  # 0, 1/4, ..., 2


def multi_identity_probe(
    mechanism: str,
    game,
    splitter: UserId,
    identities: int = 2,
    split_levels: Sequence[Fraction] = DEFAULT_SPLIT_LEVELS,
) -> ProbeReport:
    """Re-run a game with the splitter's bid divided among fresh identities.

    Each identity bids the true bid scaled by a grid level (level 0 = the
    identity stays out).  The splitter realizes her value once if any
    identity is serviced, and pays for all of them.  Other users' utilities
    are tracked so harm is observable; for the additive mechanisms a split
    that benefits the splitter must never harm anyone else, while the
    substitutable mechanisms are probed in demonstrate-only mode.  The
    splitter must hold one bid, and the mechanism must run on the game's
    type (``shapley`` as ``add_off``).

    At the levels' least common denominator times the truthful profile's
    scale (:class:`_Offers`) each identity's rows are an integer times the
    splitter's true rows.  Each split, and the truthful run (one identity
    at level 1), is one kernel run with those rows merged into the others'
    offers, folded against the true rows (:func:`~optshare.scaled.fold`)."""
    true_bid, others = _subject(mechanism, game, splitter, (*TRUTHFUL_MECHANISMS, "shapley"))
    fresh = [max(b.user for b in game.bids) + 1 + k for k in range(max(identities, 1))]
    unit = math.lcm(*[Fraction(level).denominator for level in split_levels])
    lab = _Offers(game, others, true_bid, unit)
    scaled, n = lab.scaled, lab.n
    m = len(scaled.users) - n  # the true rows; identity c's copy of true row q is bid n + c * m + q
    lab.merged.interest = [*scaled.interest[:n], *scaled.interest[n:] * len(fresh)]
    lab.merged.ends = [*scaled.ends[:n], *scaled.ends[n:] * len(fresh)]
    users = [*scaled.users[:n], *(u for u in fresh for _ in range(m))]
    owner = dict.fromkeys(fresh, splitter)
    true_rows = [[] for _ in range(m)]  # the true rows' offers, (t, v)
    for t, slot in enumerate(scaled.offers):
        for v, i in slot:
            if i >= n:
                true_rows[i - n].append((t, v))

    rivals = list(dict.fromkeys([b.user for b in others]))

    def utilities(ks) -> tuple[list[int], int]:
        """The splitter's and then each rival's utility, as numerators over
        one denominator, when identity c's rows are ``ks[c]`` times the true
        ones."""
        new = [(k, n + c * m + q, row) for c, k in enumerate(ks) if k > 0 for q, row in enumerate(true_rows)]
        realized, paid, den = fold(lab.settle(new), users, scaled, owner)
        to_paid = den * unit
        return [realized.get(u, 0) * to_paid - paid.get(u, 0) for u in (splitter, *rivals)], den * lab.scale

    (mine, *base), base_den = utilities([unit])
    base_mine, base_others = Fraction(mine, base_den), {u: Fraction(v, base_den) for u, v in zip(rivals, base)}
    splits = []
    multiples = itertools.product([int(level * unit) for level in split_levels], repeat=identities)
    for levels, ks in zip(itertools.product(split_levels, repeat=identities), multiples):
        (mine, *theirs), den = utilities(ks)
        common = den * base_den
        deltas = [v * base_den - b * den for v, b in zip(theirs, base)]
        harm = {u: Fraction(d, common) if d else ZERO for u, d in zip(rivals, deltas)}
        splits.append(SplitOutcome(levels, Fraction(mine, den), harm))
    return ProbeReport(mechanism, splitter, identities, base_mine, base_others, tuple(splits))
