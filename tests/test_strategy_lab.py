"""The integer strategy lab against the registry-path reference search.

``analysis.deviation_search`` runs every misreport on the integer kernels;
``oracles.reference_deviation_search`` builds a bid, runs the public
mechanism, settles and scores it.  Their reports must be equal, note for
note, on every game kind the truthfulness suite searches.  The corpus is
drawn on coarse values so that declared values tie with other bids, and
it holds catalogs past ``SUBSET_CATALOG_LIMIT``, zero per-slot values and
deviators who arrive in the last slot.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.analysis import GRID_SCALES, SUBSET_CATALOG_LIMIT, deviation_search
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    OnlineAdditiveGame,
    OnlineBid,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
)
from optshare.scaled import ScaledGame
from optshare.verification import (
    _rand_naive_game,
    rand_additive_offline,
    rand_additive_online,
    rand_subst_offline,
    rand_subst_online,
)

from oracles import reference_deviation_search

F = Fraction
COARSE = (F(0), F(1, 2), F(1), F(3, 2), F(2))
MECHANISMS = {
    "additive_offline": ("add_off", "shapley", "naive_pay_bid"),
    "additive_online": ("add_on",),
    "subst_offline": ("subst_off",),
    "subst_online": ("subst_on",),
}


def lab_game(kind, randint, choice):
    """A game of ``kind`` with up to four users, three slots and five
    optimizations, every value drawn from ``COARSE``."""
    z, n = randint(1, 3), randint(1, 5)
    catalog = tuple(Optimization(j, F(randint(1, 8), choice((1, 2)))) for j in range(1, n + 1))
    bids = []
    for user in range(1, randint(1, 4) + 1):
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
        return OnlineAdditiveGame(catalog[0], SlotHorizon(z), tuple(bids))
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
        pairs = [(bid.residual_from(t), b.residual_from(t)) for t in range(bid.start, bid.end + 1) for b in others]
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
    return OnlineAdditiveGame(Optimization(1, F(3)), SlotHorizon(2), (*bids, AdditiveOnlineBid(2, 1, 1, 2, (F(1), F(3)))))


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
