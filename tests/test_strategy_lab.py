"""The integer strategy lab against the registry-path reference search.

``analysis.deviation_search`` runs every misreport on the integer kernels;
``oracles.reference_deviation_search`` builds a bid, runs the public
mechanism, settles and scores it.  Their reports must be equal, note for
note, on every game kind the truthfulness suite searches.  The corpus is
drawn on coarse values so that declared values tie with other bids, and
it holds catalogs past ``SUBSET_CATALOG_LIMIT``, zero per-slot values and
deviators who arrive in the last slot.

The lab runs its kernel once per cell of grid scales; the premise tests
below run the kernel uncached at every scale and require each settlement,
whole, to equal the one at its cell's first scale.  The search skips the
declarations and scales that cannot beat its best; the bound tests run
every scale uncached and require none to beat what its declaration's
ceiling allows.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.analysis import (
    GRID_SCALES,
    MECHANISMS as REGISTRY,
    SUBSET_CATALOG_LIMIT,
    _Lab,
    _declarations,
    _note,
    deviation_search,
    multi_identity_probe,
)
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
    OnlineBid,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
)
from optshare.scaled import ScaledGame
from optshare.scenarios import ScenarioSpec, generate
from optshare.verification import (
    _rand_naive_game,
    rand_additive_offline,
    rand_additive_online,
    rand_subst_offline,
    rand_subst_online,
)

from oracles import reference_deviation_search, reference_misreports, residual_from

F = Fraction
COARSE = (F(0), F(1, 2), F(1), F(3, 2), F(2))
MECHANISMS = {
    "additive_offline": ("add_off", "shapley", "naive_pay_bid"),
    "additive_online": ("add_on",),
    "subst_offline": ("subst_off",),
    "subst_online": ("subst_on",),
}


def lab_game(kind, randint, choice, users=4, slots=3, opts=5):
    """A game of ``kind`` with up to ``users`` users, ``slots`` slots and
    ``opts`` optimizations, every value drawn from ``COARSE``."""
    z, n = randint(1, slots), randint(1, opts)
    catalog = tuple(Optimization(j, F(randint(1, 8), choice((1, 2)))) for j in range(1, n + 1))
    bids = []
    for user in range(1, randint(1, users) + 1):
        start = randint(1, z)
        end = randint(start, z)
        per_slot = tuple(choice(COARSE) for _ in range(end - start + 1))
        subs = frozenset(j for j in range(1, n + 1) if randint(0, 1)) or frozenset({randint(1, n)})
        if kind == "additive_offline":
            bids.append(AdditiveOfflineBid(user, {j: choice(COARSE) for j in range(1, n + 1) if randint(0, 3)}))
        elif kind == "additive_online":
            bids.append(AdditiveOnlineBid(user, 1, start, end, per_slot))
        elif kind == "subst_offline":
            bids.append(SubstitutableOfflineBid(user, subs, choice(COARSE[1:])))
        else:
            bids.append(SubstitutableOnlineBid(user, subs, start, end, per_slot))
    if kind == "additive_offline":
        return AdditiveOfflineGame(catalog, tuple(bids))
    if kind == "additive_online":
        return AdditiveOnlineGame((catalog[0],), SlotHorizon(z), tuple(bids))
    if kind == "subst_offline":
        return SubstOfflineGame(catalog, tuple(bids))
    return SubstOnlineGame(catalog, SlotHorizon(z), tuple(bids))


def seeded_corpus():
    """(kind, game) pairs: coarse lab games plus the suite's own draws."""
    rng = random.Random("strategy-lab")
    suite_draws = {
        "additive_offline": lambda: rand_additive_offline(rng, max_users=4, max_opts=3),
        "additive_online": lambda: rand_additive_online(rng, max_users=4, max_slots=3),
        "subst_offline": lambda: rand_subst_offline(rng, max_users=4, max_opts=5),
        "subst_online": lambda: rand_subst_online(rng, max_users=4, max_opts=5, max_slots=3),
    }
    corpus = []
    for kind, draw in suite_draws.items():
        corpus += [(kind, lab_game(kind, rng.randint, rng.choice)) for _ in range(14)]
        corpus += [(kind, draw()) for _ in range(4)]
    corpus += [("additive_offline", _rand_naive_game(rng)) for _ in range(4)]
    return corpus


def ties(game, deviator) -> bool:
    """Whether some grid declaration of the deviator's true values equals
    another bid: per optimization offline, per slot's residual online."""
    bid = {b.user: b for b in game.bids}[deviator]
    others = [b for b in game.bids if b.user != deviator]
    if isinstance(bid, AdditiveOfflineBid):
        pairs = [(v, b.value_for(j)) for j, v in bid.values.items() for b in others]
    elif isinstance(bid, SubstitutableOfflineBid):
        pairs = [(bid.value, b.value) for b in others]
    else:
        pairs = [(residual_from(bid, t), residual_from(b, t)) for t in range(bid.start, bid.end + 1) for b in others]
    return any(mine > 0 and mine * k == theirs for mine, theirs in pairs for k in GRID_SCALES)


def assert_lab_matches_reference(kind, game):
    for mechanism in MECHANISMS[kind]:
        for bid in game.bids:
            assert deviation_search(mechanism, game, bid.user) == reference_deviation_search(
                mechanism, game, bid.user
            ), (mechanism, game, bid.user)


def test_lab_reports_equal_the_reference_search():
    corpus = seeded_corpus()
    for kind, game in corpus:
        assert_lab_matches_reference(kind, game)
    bids = [(game, b) for _, game in corpus for b in game.bids]
    online = [(game, b) for game, b in bids if isinstance(b, OnlineBid)]
    assert any(len(g.catalog) > SUBSET_CATALOG_LIMIT for k, g in corpus if k.startswith("subst"))
    assert any(0 in b.per_slot for _, b in online)
    assert any(b.start == g.horizon.z > 1 for g, b in online)
    assert sum(ties(g, b.user) for g, b in bids) > 20
    assert any(
        deviation_search("naive_pay_bid", g, b.user).profitable for k, g in corpus if k == "additive_offline" for b in g.bids
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(MECHANISMS)), st.data())
def test_lab_matches_reference_on_any_coarse_game(kind, data):
    game = lab_game(
        kind,
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda options: data.draw(st.sampled_from(options)),
    )
    assert_lab_matches_reference(kind, game)


@pytest.mark.parametrize("mechanism", ["regret", "bogus"])
def test_lab_rejects_unknown_and_untruthful_mechanisms(mechanism):
    game = lab_game("additive_online", random.Random(1).randint, random.Random(1).choice)
    with pytest.raises(ValueError, match="unknown mechanism"):
        deviation_search(mechanism, game, game.bids[0].user)


def _duplicate_substitutable_offline():
    catalog = (Optimization(1, F(3)), Optimization(2, F(2)))
    bids = [SubstitutableOfflineBid(1, {1}, F(2)), SubstitutableOfflineBid(2, {1, 2}, F(1))]
    return SubstOfflineGame(catalog, (*bids, SubstitutableOfflineBid(2, {2}, F(1))))


def _duplicate_earlier_arrival():
    bids = [AdditiveOnlineBid(1, 1, 2, 2, (F(2),)), AdditiveOnlineBid(2, 1, 1, 1, (F(1),))]
    return AdditiveOnlineGame((Optimization(1, F(3)),), SlotHorizon(2), (*bids, AdditiveOnlineBid(2, 1, 1, 2, (F(1), F(3)))))


@pytest.mark.parametrize(
    "mechanism, build",
    [("subst_off", _duplicate_substitutable_offline), ("add_on", _duplicate_earlier_arrival)],
)
def test_lab_raises_as_a_run_of_the_truthful_profile_would(mechanism, build):
    game = build()
    with pytest.raises(Exception) as reference:
        reference_deviation_search(mechanism, game, 1)
    with pytest.raises(type(reference.value), match=re.escape(str(reference.value))):
        deviation_search(mechanism, game, 1)


@pytest.mark.parametrize("kind", ["additive_online", "subst_offline", "subst_online"])
def test_lab_rescales_the_truthful_profile_once_per_deviator(monkeypatch, kind):
    built = []
    init = ScaledGame.__init__
    monkeypatch.setattr(ScaledGame, "__init__", lambda self, game, *args: built.append(game) or init(self, game, *args))
    rng = random.Random(kind)
    game = lab_game(kind, rng.randint, rng.choice)
    deviation_search(MECHANISMS[kind][0], game, game.bids[-1].user)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# One kernel run per cell of grid scales

LAB_KINDS = {"add_on": "additive_online", "subst_off": "subst_offline", "subst_on": "subst_online"}


def lab_of(mechanism, game, deviator):
    """The lab ``deviation_search`` builds for ``deviator``, and every
    declaration it searches (the truthful one included) as (window, subset)."""
    bid = {b.user: b for b in game.bids}[deviator]
    online = isinstance(bid, OnlineBid)
    others = [b for b in game.bids if b.user != deviator and (not online or b.start <= bid.start)]
    truthful = ((bid.start, bid.end) if online else (1, 1), getattr(bid, "substitutes", None))
    declared = dict.fromkeys([truthful, *((w, s) for w, s, _ in _declarations(game, bid))])
    return _Lab(game, others, bid), list(declared)


def assert_one_run_per_cell(lab, window, subset) -> set[str]:
    """Run the kernel uncached at every grid scale of one declaration and
    require each settlement's entries and implemented optimizations to equal
    the ones at its cell's first scale, and the cached utilities to equal
    the uncached ones.  The log is left out: ``serve``'s holds its ceilings,
    which the offers' values move, and ``grant``'s is None.  Returns
    what the declaration covered: "shared" if a cell of two or more scales
    served the deviator, "pinned" if one did so after another bid was
    served her optimization in an earlier slot."""
    settlements = []
    kernel = lab.kernel
    lab.kernel = lambda game, costs: settlements.append(kernel(game, costs)) or settlements[-1]
    try:
        utilities = [lab.run(window, subset, k) for k in range(len(GRID_SCALES))]
    finally:
        lab.kernel = kernel
    cells = [lab.cell(window, subset, k) for k in range(len(GRID_SCALES))]
    assert cells.count(cells[0]) == 1  # k = 0 makes no offer: a cell of its own
    covered = set()
    for k, cell in enumerate(cells):
        first = cells.index(cell)
        assert settlements[k][:2] == settlements[first][:2], (window, subset, k, first)
        assert utilities[k] == utilities[first]
        mine = settlements[k][0].get(lab.n)
        if k > first and mine is not None:
            covered.add("shared")
            if any(e[0] == mine[0] and e[1] < mine[1] for e in settlements[k][0].values()):
                covered.add("pinned")
    assert [lab.utility(window, subset, k) for k in range(len(GRID_SCALES))] == utilities
    return covered


def assert_premise(mechanism, game, deviators) -> set[str]:
    covered = set()
    for deviator in deviators:
        lab, declared = lab_of(mechanism, game, deviator)
        for window, subset in declared:
            covered |= assert_one_run_per_cell(lab, window, subset)
    return covered


def test_one_run_per_cell_on_seeded_games():
    rng = random.Random("one-run-per-cell")
    draws = {
        "add_on": lambda: rand_additive_online(rng, max_users=5, max_slots=4),
        "subst_off": lambda: rand_subst_offline(rng, max_users=5, max_opts=3),
        "subst_on": lambda: rand_subst_online(rng, max_users=5, max_opts=3, max_slots=4),
    }
    for mechanism, draw in draws.items():
        covered = set()
        for _ in range(8):
            for game in (lab_game(LAB_KINDS[mechanism], rng.randint, rng.choice, 5, 4, 3), draw()):
                covered |= assert_premise(mechanism, game, [b.user for b in game.bids])
        assert covered == ({"shared"} if mechanism == "subst_off" else {"shared", "pinned"}), mechanism


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(LAB_KINDS)), st.data())
def test_one_run_per_cell_on_any_coarse_game(mechanism, data):
    game = lab_game(
        LAB_KINDS[mechanism],
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda options: data.draw(st.sampled_from(options)),
        users=5,
        slots=4,
        opts=3,
    )
    deviator = data.draw(st.sampled_from([b.user for b in game.bids]))
    assert_premise(mechanism, game, [deviator])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(tuple(LAB_KINDS)), st.data())
def test_no_scale_beats_a_best_the_bound_rules_out(mechanism, data):
    """Both cuts of the search are sound: no grid scale of a declaration,
    run uncached, gains more than the declaration's ceiling, so no best the
    ceiling rules out is beaten; and every scale below the first breakpoint
    settles to ``(0, 1)``."""
    game = lab_game(
        LAB_KINDS[mechanism],
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda options: data.draw(st.sampled_from(options)),
        users=5,
        slots=4,
        opts=3,
    )
    deviator = data.draw(st.sampled_from([b.user for b in game.bids]))
    lab, declared = lab_of(mechanism, game, deviator)
    for window, subset in declared:
        most = lab.ceiling(window, subset)
        assert most[0] >= 0 < most[1]
        breaks = lab.breaks(window, subset)
        for k in range(len(GRID_SCALES)):
            n, c = lab.run(window, subset, k)
            assert n * most[1] <= most[0] * c, (window, subset, k)
            if not breaks or k < breaks[0]:
                assert (n, c) == (0, 1), (window, subset, k)


def most_gained(game, bid, window, subset) -> Fraction:
    """What the deviator can gain at most by declaring ``subset`` (None:
    their one optimization) over ``window``, in money, from the game itself:
    0, or their true value over the window less ``cost_j / heads_j`` for
    each true substitute ``j`` they declare, ``heads_j`` one plus the others
    present at their arrival who name ``j``."""

    def named(b):
        return getattr(b, "substitutes", None) or {b.opt}

    online = isinstance(bid, OnlineBid)
    others = [b for b in game.bids if b.user != bid.user and (not online or b.start <= bid.start)]
    value = sum(bid.value_at(t) for t in range(window[0], window[1] + 1)) if online else bid.value
    costs = {o.id: o.cost for o in game.catalog}
    heads = {j: 1 + sum(j in named(b) for b in others) for j in costs}
    return max([F(0)] + [value - costs[j] / heads[j] for j in (subset or named(bid)) & named(bid)])


def expected_search(lab, game, bid, truthful, run) -> tuple[list, list, int]:
    """The scales the search should evaluate for ``bid`` after the truthful
    one and the kernel runs it should make, each as (window, subset, k), and
    how many first runs of a cell its skipped declarations spare.  The
    search is replayed with each utility from ``run``, uncached: a
    declaration is skipped when :func:`most_gained` is at most the running
    best, and then no allowed scale of it may beat that best; otherwise the
    smallest allowed scale of each cell is evaluated, ascending, and runs
    unless the cell is below the first breakpoint or already ran.  The
    allowed scales come from the registry-path enumeration of the
    oracles."""
    online = isinstance(bid, OnlineBid)
    allowed = {note for _, note in reference_misreports(game, bid)}
    evaluated, expected, done, spared = [], [], set(), 0

    def exact(*at) -> Fraction:
        return F(*run(lab, *at)) / lab.scale

    def first_run(window, subset, k) -> bool:
        cell = lab.cell(window, subset, k)
        due = cell > 0 and (window, subset, cell) not in done
        done.add((window, subset, cell))
        return due

    if first_run(*truthful):
        expected.append(truthful)
    best = exact(*truthful)
    for window, subset, _ in _declarations(game, bid):
        ks = [k for k in range(len(GRID_SCALES)) if _note(online, window, subset, k) in allowed]
        firsts = {}  # cell -> its smallest allowed scale
        for k in ks:
            firsts.setdefault(lab.cell(window, subset, k), k)
        if most_gained(game, bid, window, subset) <= best:
            assert all(exact(window, subset, k) <= best for k in ks), (window, subset)
            spared += sum(first_run(window, subset, k) for k in firsts.values())
            continue
        for k in firsts.values():
            evaluated.append((window, subset, k))
            if first_run(window, subset, k):
                expected.append((window, subset, k))
            best = max(best, exact(window, subset, k))
    return evaluated, expected, spared


def test_the_search_evaluates_one_scale_per_cell(monkeypatch):
    """The search evaluates and runs exactly what :func:`expected_search`
    says: in the declarations whose most possible gain (computed from the
    game, not the lab) beats the running best, the smallest allowed scale of
    each cell, ascending, with a kernel run once per cell at or above the
    first breakpoint.  Every scale of a skipped declaration does not beat
    the best at the skip, and the skips spare over half the kernel runs."""
    evaluated, ran = [], []
    run, utility = _Lab.run, _Lab.utility
    monkeypatch.setattr(_Lab, "utility", lambda lab, *at: evaluated.append((lab, *at)) or utility(lab, *at))
    monkeypatch.setattr(_Lab, "run", lambda lab, *at: ran.append(at) or run(lab, *at))
    rng = random.Random("one-scale-per-cell")
    draws = {
        "add_on": lambda: rand_additive_online(rng, max_users=5, max_slots=4),
        "subst_off": lambda: rand_subst_offline(rng, max_users=5, max_opts=3),
        "subst_on": lambda: rand_subst_online(rng, max_users=5, max_opts=3, max_slots=4),
    }
    kept = spared = 0
    for mechanism, draw in draws.items():
        for _ in range(6):
            for game in (lab_game(LAB_KINDS[mechanism], rng.randint, rng.choice, 5, 4, 3), draw()):
                for bid in game.bids:
                    evaluated.clear()
                    ran.clear()
                    deviation_search(mechanism, game, bid.user)
                    (lab, *truthful), *searched = evaluated
                    online = isinstance(bid, OnlineBid)
                    assert truthful == [(bid.start, bid.end) if online else (1, 1), getattr(bid, "substitutes", None), 10]
                    scales, expected, skips = expected_search(lab, game, bid, tuple(truthful), run)
                    assert [at for _, *at in searched] == [list(at) for at in scales], (mechanism, game, bid.user)
                    assert ran == expected, (mechanism, game, bid.user)
                    kept += len(ran)
                    spared += skips
    assert spared > kept


def test_everyone_sharing_one_optimization_decides_the_grant():
    """Three users share one optimization of cost 3 only when all three
    join: at x1/2 the deviator (true value 2) covers a share of 1 with the
    two others, below it nobody is served.  That cut is the breakpoint at
    head count n + 1 = 3 and at no smaller one."""
    game = SubstOfflineGame(
        (Optimization(1, F(3)),),
        tuple(SubstitutableOfflineBid(u, frozenset({1}), v) for u, v in ((1, F(1)), (2, F(1)), (3, F(2)))),
    )
    lab, _ = lab_of("subst_off", game, 3)
    window, subset = (1, 1), frozenset({1})
    assert [lab.run(window, subset, k) for k in (4, 5)] == [(0, 1), (20 * 3 - 30, 3)]
    assert lab.cell(window, subset, 4) != lab.cell(window, subset, 5)
    assert [lab.utility(window, subset, k) for k in range(6)] == [(0, 1)] * 5 + [(30, 3)]
    assert_one_run_per_cell(lab, window, subset)


def lab_games():
    """One game of each kind, and a usecase_shape game, whose user 1 bids on
    several optimizations."""
    rng = random.Random(5)
    return {
        AdditiveOfflineGame: rand_additive_offline(rng),
        AdditiveOnlineGame: rand_additive_online(rng),
        SubstOfflineGame: rand_subst_offline(rng),
        SubstOnlineGame: rand_subst_online(rng),
        "usecase_shape": generate(ScenarioSpec(family="usecase_shape", users=3, slots=4, opt_count=4, trials=1), 0),
    }


@pytest.mark.parametrize("mechanism", ["add_off", "shapley", "naive_pay_bid", "add_on", "subst_off", "subst_on"])
@pytest.mark.parametrize("lab", ["search", "probe"])
def test_the_lab_runs_a_mechanism_only_on_its_game_type(mechanism, lab):
    """A lab run of a mechanism on a game type its registry kinds do not
    hold is a ``ValueError``, not a run of the game's own kernel under the
    mechanism's name; ``shapley`` and ``naive_pay_bid`` run as ``add_off``."""
    kind = REGISTRY["add_off" if mechanism in ("shapley", "naive_pay_bid") else mechanism][0][0]
    run = deviation_search if lab == "search" else multi_identity_probe
    for game_type, game in lab_games().items():
        if game_type is kind and not (lab == "probe" and mechanism == "naive_pay_bid"):
            assert run(mechanism, game, game.bids[0].user).mechanism == mechanism
        else:
            with pytest.raises(ValueError):
                run(mechanism, game, game.bids[0].user)


@pytest.mark.parametrize("run", [deviation_search, multi_identity_probe])
def test_the_lab_refuses_a_user_with_several_bids_or_none(run):
    game = lab_games()["usecase_shape"]
    assert sum(b.user == 1 for b in game.bids) == 4
    with pytest.raises(GameError, match="user 1 holds 4 bids"):
        run("add_on", game, 1)
    with pytest.raises(GameError, match="user 9 holds 0 bids"):
        run("add_on", game, 9)
