"""The integer fold against the registry path, the settlement's views, and
the frozen mappings.

``score`` and ``multi_identity_probe`` fold the integer settlement a result
keeps (``scaled.fold``); ``tests/oracles.py`` keeps the path they replace,
which reads each result's public views and walks every bid slot by slot in
``Fraction``s (``reference_score``, ``reference_multi_identity_probe``).
The properties run every registry mechanism on every game kind it runs on,
multi-optimization regret games and session traces, with true values on
other denominators, at split levels that are not quarters and with one to
three identities.  The views of one ``Settlement`` agree with each other.
"""

import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare import analysis
from optshare.additive_online import add_on, new_session, step_session
from optshare.analysis import MECHANISMS, multi_identity_probe, score
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    FrozenDict,
    GameError,
    Optimization,
    PaymentLedger,
    ServiceSchedule,
    SlotHorizon,
    SubstitutableOfflineBid,
)
from optshare.shapley import add_off, shapley
from optshare.regret import regret_run
from optshare.substitutable import subst_off
from optshare.verification import (
    _rand_naive_game,
    rand_additive_offline,
    rand_additive_online,
    rand_subst_offline,
    rand_subst_online,
)

from oracles import naive_pay_your_bid, reference_multi_identity_probe, reference_score
from test_session import feed
from test_traces import _rand_multi

F = Fraction
KINDS = {
    "additive_offline": lambda rng: rand_additive_offline(rng, max_users=4, max_opts=3),
    "subst_offline": lambda rng: rand_subst_offline(rng, max_users=4, max_opts=3),
    "additive_online": lambda rng: rand_additive_online(rng, max_users=4, max_slots=4),
    "subst_online": lambda rng: rand_subst_online(rng, max_users=4, max_opts=3, max_slots=4),
    "multi_online": _rand_multi,
}
# factors that move true values onto other denominators (0: worth nothing)
TRUE_FACTORS = (F(0), F(1, 3), F(3, 7), F(1, 2), F(1), F(5, 11), F(2))


def scaled_bid(bid, factor):
    """``bid`` with every value times ``factor``."""
    if isinstance(bid, AdditiveOfflineBid):
        return replace(bid, values={j: v * factor for j, v in bid.values.items()})
    if isinstance(bid, SubstitutableOfflineBid):
        return replace(bid, value=bid.value * factor)
    return replace(bid, per_slot=tuple(v * factor for v in bid.per_slot))


def truth_of(rng, game):
    """A true bid per user, each value times one of ``TRUE_FACTORS`` (a
    substitutable offline bid's value stays positive); a user with several
    bids keeps one of them."""
    truth = {}
    for bid in game.bids:
        factor = rng.choice(TRUE_FACTORS[1:] if isinstance(bid, SubstitutableOfflineBid) else TRUE_FACTORS)
        truth[bid.user] = scaled_bid(bid, factor)
    return truth


def results(game):
    """(name, result) of every registry mechanism that runs on ``game``, and
    the pay-your-bid control on additive offline games."""
    out = [(name, run(game, game.bids)) for name, (kinds, run) in MECHANISMS.items() if isinstance(game, kinds)]
    if isinstance(game, AdditiveOfflineGame):
        out.append(("naive", naive_pay_your_bid(game.catalog, game.bids)))
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_score_folds_as_the_registry_path(kind, seed):
    rng = random.Random(seed)
    game = KINDS[kind](rng)
    if not game.bids:
        return
    truth = truth_of(rng, game)
    for name, result in results(game):
        assert score(game, result) == reference_score(game, result), name
        assert score(game, result, truth) == reference_score(game, result, truth), name


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_score_folds_the_naive_control(seed):
    rng = random.Random(seed)
    game = _rand_naive_game(rng)
    result = naive_pay_your_bid(game.catalog, game.bids)
    truth = truth_of(rng, game)
    assert score(game, result) == reference_score(game, result)
    assert score(game, result, truth) == reference_score(game, result, truth)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_score_folds_session_traces_through_their_last_fed_slot(rng):
    """A session cut after any step: bids still in play are served through
    the last fed slot and have not paid."""
    opt, horizon, steps = feed(rng)
    state = new_session(opt, horizon)
    for slot, bids in steps[: rng.randint(1, len(steps))]:
        _, _, state = step_session(state, slot, bids)
    game = AdditiveOnlineGame((opt,), horizon, tuple(state.declared.values()))
    trace = state.trace()
    assert score(game, trace) == reference_score(game, trace)
    truth = truth_of(rng, game)
    assert score(game, trace, truth) == reference_score(game, trace, truth)


def test_score_rejects_a_served_user_missing_from_the_truth():
    game = AdditiveOfflineGame((Optimization(1, F(10)),), (AdditiveOfflineBid(1, {1: F(12)}), AdditiveOfflineBid(2, {1: F(3)})))
    result = add_off(game.catalog, game.bids)
    with pytest.raises(GameError, match=r"unknown users \[1\]"):
        score(game, result, {2: AdditiveOfflineBid(2, {1: F(1)})})
    with pytest.raises(GameError, match=r"unknown users \[1\]"):
        reference_score(game, result, {2: AdditiveOfflineBid(2, {1: F(1)})})


def test_score_rejects_a_ledger_built_by_hand():
    game = AdditiveOfflineGame((Optimization(1, F(10)),), (AdditiveOfflineBid(1, {1: F(12)}),))
    result = add_off(game.catalog, game.bids)
    with pytest.raises(TypeError, match="by hand"):
        score(game, (result.outcome, PaymentLedger(dict(result.ledger.entries))))


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_settlement_views_agree(kind, seed):
    """Every registry mechanism's views: each payment is the user's ledger
    total, the grants are the schedule's (user, optimization) pairs and
    their optimizations are implemented, every regret optimization's price
    times its buyers plus its loss is its cost, and a second run on the same
    game equals the first."""
    game = KINDS[kind](random.Random(seed))
    costs = {o.id: o.cost for o in game.catalog}
    for name, (kinds, run) in MECHANISMS.items():
        if not isinstance(game, kinds):
            continue
        result = run(game, game.bids)
        outcome, ledger = result.outcome, result.ledger
        assert all(paid == ledger.total_for(u) for u, paid in result.payments.items()), name
        assert outcome.grants == {(u, j) for (j, _), users in result.schedule.served.items() for u in users}, name
        assert all(j in outcome.implemented for _, j in outcome.grants), name
        if name == "regret":
            for j in outcome.implemented:
                buyers = sum(1 for (_, o), charge in ledger.entries.items() if o == j and charge)
                assert result.posted_price[j] * buyers + result.price_loss[j] == costs[j]
        assert result == run(game, game.bids), name


PROBED = {
    "additive_offline": ("add_off", "shapley"),
    "subst_offline": ("subst_off",),
    "additive_online": ("add_on",),
    "subst_online": ("subst_on",),
}
LEVELS = (F(0), F(1, 3), F(3, 7), F(1, 2), F(1), F(3, 2), F(2))


@pytest.mark.parametrize("kind", sorted(PROBED))
@given(seed=st.integers(0, 2**32 - 1), identities=st.integers(1, 3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_probe_folds_as_the_registry_path(kind, seed, identities, data):
    rng = random.Random(seed)
    game = KINDS[kind](rng)
    splitter = rng.choice(game.bids).user
    levels = tuple(data.draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True)))
    for mechanism in PROBED[kind]:
        assert multi_identity_probe(mechanism, game, splitter, identities, levels) == reference_multi_identity_probe(
            mechanism, game, splitter, identities, levels
        )


@pytest.mark.parametrize("kind", sorted(PROBED))
def test_probe_runs_the_kernel_once_per_split_and_no_registry_runner(kind, monkeypatch):
    """One kernel run for the truthful profile and one per split; neither a
    public mechanism nor a registry runner is called."""
    runs = []
    for name in ("serve", "grant"):
        kernel = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda game, costs, kernel=kernel: runs.append(1) or kernel(game, costs))

    def forbidden(*args, **kwargs):
        raise AssertionError("the probe called a public mechanism")

    for name in ("add_off", "add_on", "subst_off", "subst_on", "regret_run"):
        monkeypatch.setattr(analysis, name, forbidden)
    monkeypatch.setattr(analysis, "MECHANISMS", {name: (kinds, forbidden) for name, (kinds, _) in MECHANISMS.items()})
    rng = random.Random(kind)
    for _ in range(5):
        game = KINDS[kind](rng)
        for mechanism in PROBED[kind]:
            del runs[:]
            probe = multi_identity_probe(mechanism, game, game.bids[0].user, 2, (F(0), F(1, 3), F(1)))
            assert len(probe.splits) == 9
            assert len(runs) == len(probe.splits) + 1


def test_probe_of_a_splitter_without_value():
    """An additive offline splitter who values nothing has no rows: every
    split is the truthful run."""
    game = AdditiveOfflineGame(
        (Optimization(1, F(10)),),
        (AdditiveOfflineBid(1, {1: F(12)}), AdditiveOfflineBid(2, {})),
    )
    probe = multi_identity_probe("add_off", game, 2, 2, (F(0), F(1)))
    assert probe == reference_multi_identity_probe("add_off", game, 2, 2, (F(0), F(1)))
    assert all(s.splitter_utility == 0 and not any(s.other_deltas.values()) for s in probe.splits)


# ---------------------------------------------------------------------------
# Frozen mappings


def frozen_fields():
    bid = AdditiveOfflineBid(1, {1: F(12), 2: F(1, 3)})
    game = AdditiveOfflineGame((Optimization(1, F(10)), Optimization(2, F(1))), (bid, AdditiveOfflineBid(2, {1: F(3)})))
    offline = add_off(game.catalog, game.bids)
    online = AdditiveOnlineGame((Optimization(1, F(10)),), SlotHorizon(3), (AdditiveOnlineBid(1, 1, 1, 3, (F(12), F(5), F(5))),))
    trace, regret = add_on(online), regret_run(online.catalog, online.horizon, online.bids)
    subst = subst_off((Optimization(1, F(1)),), (SubstitutableOfflineBid(1, frozenset({1}), F(2)),))
    return {
        "AdditiveOfflineBid.values": bid.values,
        "PaymentLedger.entries": offline.ledger.entries,
        "PaymentLedger.entries (by hand)": PaymentLedger({(1, 1): F(2)}).entries,
        "ServiceSchedule.served": trace.schedule.served,
        "ServiceSchedule.served (by hand)": ServiceSchedule({(1, 1): frozenset({1})}).served,
        "Settlement.payments": offline.payments,
        "Settlement.share_history": trace.share_history,
        "Settlement.slot_phases": subst.slot_phases,
        "Settlement.implement_slot": regret.implement_slot,
        "Settlement.posted_price": regret.posted_price,
        "Settlement.price_loss": regret.price_loss,
        "Settlement.regret_series": regret.regret_series,
        "ShapleyResult.payments": shapley(F(10), {1: F(12), 2: F(3)}).payments,
    }


MUTATIONS = {
    "setitem": lambda d: d.__setitem__((9, 9), F(1)),
    "delitem": lambda d: d.__delitem__(next(iter(d))),
    "ior": lambda d: d.__ior__({(9, 9): F(1)}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault((9, 9), F(1)),
    "update": lambda d: d.update({(9, 9): F(1)}),
}


@pytest.mark.parametrize("field", sorted(frozen_fields()))
def test_frozen_mappings_refuse_every_mutation(field):
    mapping = frozen_fields()[field]
    before = dict(mapping)
    assert type(mapping) is FrozenDict and before
    for name, mutate in MUTATIONS.items():
        with pytest.raises(TypeError):
            mutate(mapping)
        assert mapping == before, name
    with pytest.raises(TypeError):
        mapping |= {(9, 9): F(1)}


@pytest.mark.parametrize("field", sorted(frozen_fields()))
def test_frozen_mappings_repr_compare_and_pickle_as_dicts(field):
    mapping = frozen_fields()[field]
    plain = dict(mapping)
    assert repr(mapping) == repr(plain) and mapping == plain and plain == mapping
    again = pickle.loads(pickle.dumps(mapping))
    assert type(again) is FrozenDict and again == plain and list(again) == list(plain)
