from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.additive_online import add_on
from optshare.analysis import (
    deviation_search,
    efficient_outcome,
    multi_identity_probe,
    score,
)
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    EnumerationGuard,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstitutableOfflineBid,
)
from optshare.regret import regret_run
from optshare.shapley import add_off
from optshare.verification import run_suite

from oracles import efficient_enumeration_additive, grand_total, naive_pay_your_bid

F = Fraction


def test_score_staggered_online_trace():
    g = AdditiveOnlineGame(
        (Optimization(1, F(100)),),
        SlotHorizon(3),
        (
            AdditiveOnlineBid(1, 1, 1, 1, (F(101),)),
            AdditiveOnlineBid(2, 1, 1, 3, (F(16), F(16), F(16))),
            AdditiveOnlineBid(3, 1, 2, 2, (F(26),)),
            AdditiveOnlineBid(4, 1, 2, 2, (F(26),)),
        ),
    )
    m = score(g, add_on(g))
    # user 2's slot-1 value is not realized: she is only serviced from slot 2
    assert m.total_value == F(101 + 32 + 26 + 26)
    assert m.total_cost == F(100)
    assert m.total_utility == F(85)
    assert m.cloud_balance == F(75)
    assert m.per_user_utility == {1: F(1), 2: F(7), 3: F(1), 4: F(1)}


def test_score_empty_schedule():
    g = AdditiveOnlineGame((Optimization(1, F(100)),), SlotHorizon(2), (AdditiveOnlineBid(1, 1, 1, 1, (F(1),)),))
    m = score(g, add_on(g))
    assert m.total_value == 0 and m.total_cost == 0 and m.cloud_balance == 0


def test_score_uses_true_values_not_bids():
    g = AdditiveOnlineGame((Optimization(1, F(10)),), SlotHorizon(1), (AdditiveOnlineBid(1, 1, 1, 1, (F(20),)),))
    truth = {1: AdditiveOnlineBid(1, 1, 1, 1, (F(4),))}  # overbidder's real value
    m = score(g, add_on(g), truth)
    assert m.per_user_utility[1] == F(4) - F(10)


def test_efficient_outcome_dominant_singleton():
    outcome, utility = efficient_outcome([Optimization(1, F(100))], [AdditiveOfflineBid(1, {1: F(101)})])
    assert outcome.implemented == {1} and utility == F(1)


def test_efficient_outcome_pools_insufficient_bids():
    outcome, utility = efficient_outcome(
        [Optimization(1, F(100))],
        [AdditiveOfflineBid(1, {1: F(60)}), AdditiveOfflineBid(2, {1: F(50)})],
    )
    assert outcome.implemented == {1}
    assert outcome.grants == {(1, 1), (2, 1)}
    assert utility == F(10)


def test_efficient_outcome_substitutable_counts_value_once():
    outcome, utility = efficient_outcome(
        [Optimization(1, F(4)), Optimization(2, F(4))],
        [SubstitutableOfflineBid(1, frozenset({1, 2}), F(10))],
    )
    assert len(outcome.implemented) == 1
    assert utility == F(6)


def test_efficient_outcome_guard():
    catalog = [Optimization(j, F(1)) for j in range(1, 8)]
    bids = [AdditiveOfflineBid(u, {1: F(1)}) for u in range(1, 4)]
    with pytest.raises(EnumerationGuard):
        efficient_outcome(catalog, bids)


@given(
    st.lists(st.integers(0, 300), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 42),
)
@settings(max_examples=150, deadline=None)
def test_efficient_outcome_matches_enumeration(value_cents, n_opts, seed):
    import random

    rng = random.Random(seed)
    catalog = [Optimization(j, F(rng.randint(1, 400), 100)) for j in range(1, n_opts + 1)]
    bids = []
    for u, v in enumerate(value_cents, start=1):
        values = {j: F(rng.randint(0, v), 100) for j in range(1, n_opts + 1)}
        bids.append(AdditiveOfflineBid(u, values))
    _, utility = efficient_outcome(catalog, bids)
    ref = efficient_enumeration_additive(
        {o.id: o.cost for o in catalog}, {b.user: b.values for b in bids}
    )
    assert utility == ref


def test_oracle_dominates_mechanism():
    catalog = (Optimization(1, F(60)), Optimization(2, F(180)), Optimization(3, F(100)))
    bids = (
        SubstitutableOfflineBid(1, frozenset({1, 2}), F(100)),
        SubstitutableOfflineBid(2, frozenset({3}), F(101)),
        SubstitutableOfflineBid(3, frozenset({1, 2, 3}), F(60)),
        SubstitutableOfflineBid(4, frozenset({2}), F(70)),
    )
    from optshare.substitutable import subst_off

    game = SubstOfflineGame(catalog, bids)
    mech = score(game, subst_off(catalog, bids)).total_utility
    _, best = efficient_outcome(catalog, bids)
    assert best >= mech


def test_deviation_search_equal_share_is_safe():
    game = AdditiveOfflineGame(
        (Optimization(1, F(100)),),
        (AdditiveOfflineBid(1, {1: F(60)}), AdditiveOfflineBid(2, {1: F(50)})),
    )
    report = deviation_search("shapley", game, 1)
    assert report.truthful_utility == F(10)
    assert report.best_utility == F(10)
    assert not report.profitable


def test_deviation_search_catches_pay_your_bid():
    game = AdditiveOfflineGame(
        (Optimization(1, F(100)),),
        (AdditiveOfflineBid(1, {1: F(60)}), AdditiveOfflineBid(2, {1: F(50)})),
    )
    report = deviation_search("naive_pay_bid", game, 1)
    assert report.profitable
    assert report.best_utility > report.truthful_utility == F(0)


def test_deviation_search_zero_value_user_cannot_gain():
    game = AdditiveOfflineGame(
        (Optimization(1, F(10)),),
        (AdditiveOfflineBid(1, {1: F(0)}), AdditiveOfflineBid(2, {1: F(20)})),
    )
    report = deviation_search("shapley", game, 1)
    assert report.best_utility <= 0 == report.truthful_utility


def test_online_deviation_example_two_users():
    game = AdditiveOnlineGame(
        (Optimization(1, F(100)),),
        SlotHorizon(2),
        (AdditiveOnlineBid(1, 1, 1, 1, (F(101),)), AdditiveOnlineBid(2, 1, 1, 2, (F(26), F(26)))),
    )
    report = deviation_search("add_on", game, 2)
    assert report.truthful_utility == F(2)
    assert not report.profitable


def test_naive_mechanism_grants_all_positive_bidders():
    result = naive_pay_your_bid(
        [Optimization(1, F(10))],
        [AdditiveOfflineBid(1, {1: F(8)}), AdditiveOfflineBid(2, {1: F(3)})],
    )
    assert result.outcome.implemented == {1}
    assert result.ledger.entries == {(1, 1): F(8), (2, 1): F(3)}
    result = naive_pay_your_bid([Optimization(1, F(12))], [AdditiveOfflineBid(1, {1: F(8)})])
    assert result.outcome.implemented == frozenset()


def test_identity_split_helps_dominant_bidder_without_harm():
    bids = tuple(AdditiveOfflineBid(u, {1: v}) for u, v in {0: F(101), **{i: F(1) for i in range(1, 100)}}.items())
    game = AdditiveOfflineGame((Optimization(1, F(101)),), bids)
    probe = multi_identity_probe("add_off", game, 0, 2, (F(1),))
    split = probe.splits[0]
    assert probe.baseline_utility == 0
    assert split.splitter_utility == F(99)
    assert split.harmed == ()
    assert probe.beneficial_harmful == ()


def test_identity_split_no_op_at_level_one_single():
    game = AdditiveOfflineGame(
        (Optimization(1, F(10)),),
        (AdditiveOfflineBid(1, {1: F(12)}), AdditiveOfflineBid(2, {1: F(3)})),
    )
    probe = multi_identity_probe("add_off", game, 1, 1, (F(1),))
    assert probe.splits[0].splitter_utility == probe.baseline_utility
    assert all(d == 0 for d in probe.splits[0].other_deltas.values())


def test_substitutable_split_demonstrates_harm():
    game = SubstOfflineGame(
        (Optimization(1, F(6)), Optimization(2, F(5))),
        (
            SubstitutableOfflineBid(1, frozenset({1}), F(5)),
            SubstitutableOfflineBid(2, frozenset({1, 2}), F("2.51")),
            SubstitutableOfflineBid(3, frozenset({2}), F(7)),
        ),
    )
    probe = multi_identity_probe("subst_off", game, 1, 2, (F(1, 2),))
    split = probe.splits[0]
    assert split.splitter_utility == F(1) > probe.baseline_utility == F(0)
    assert split.other_deltas[3] == F(2) - F(9, 2)
    assert split.harmed == (3,)


def test_joint_split_across_additive_optimizations_gains_and_harms():
    """The multi_identity suite's counterexample at seed 2, 6 games.  Halving
    user 2's bids on both optimizations at once lets the halves share
    optimization 1 at 2.5806 / 4 and drops optimization 2 below its equal
    share, which user 1 loses.  Optimization by optimization no split does
    both: on 1 alone it gains and harms no one, on 2 alone it gains nothing."""
    catalog = (Optimization(1, F("2.5806")), Optimization(2, F("2.296")))
    values = {1: {1: F("1.14"), 2: F("1.93")}, 2: {1: F("1.89"), 2: F("1.35")}, 3: {1: F("0.71")}}
    game = AdditiveOfflineGame(catalog, tuple(AdditiveOfflineBid(u, v) for u, v in values.items()))
    levels = (F(0), F(1, 2), F(1), F(3, 2), F(2))
    probe = multi_identity_probe("add_off", game, 2, 2, levels)
    assert (probe.baseline_utility, probe.baseline_others) == (F(101, 500), {1: F(391, 500), 3: F(0)})
    (split,) = probe.beneficial_harmful
    assert split.levels == (F(1, 2), F(1, 2))
    assert split.splitter_utility == F(5997, 10000)
    assert split.other_deltas == {1: F(-5743, 20000), 3: F(1297, 20000)}
    assert [v.message for v in run_suite("multi_identity", seed=2, games=6)] == [
        f"add_off: split {split.levels} of user 2 gains and harms (1,)"
    ]
    for opt in catalog:
        column = tuple(AdditiveOfflineBid(u, {opt.id: v[opt.id]} if opt.id in v else {}) for u, v in values.items())
        one = multi_identity_probe("add_off", AdditiveOfflineGame((opt,), column), 2, 2, levels)
        assert one.beneficial_harmful == ()


def test_score_dispatch_matches_internal_totals():
    catalog = (Optimization(1, F(10)),)
    bids = (AdditiveOfflineBid(1, {1: F(12)}), AdditiveOfflineBid(2, {1: F(3)}))
    game = AdditiveOfflineGame(catalog, bids)
    result = add_off(catalog, bids)
    m = score(game, result)
    assert m.cloud_balance == grand_total(result.ledger) - m.total_cost
    g2 = AdditiveOnlineGame((Optimization(1, F(100)),), SlotHorizon(2), (AdditiveOnlineBid(1, 1, 1, 2, (F(60), F(60))),))
    trace = regret_run(g2.catalog, g2.horizon, g2.bids)
    m2 = score(g2, trace)
    assert trace.implement_slot == {}  # 60 of regret never covers 100
    assert (m2.total_value, m2.total_cost, m2.total_utility, m2.cloud_balance) == (0, 0, 0, 0)
    # one user bidding on two additive optimizations realizes both
    g3 = AdditiveOnlineGame(
        (Optimization(1, F(5)), Optimization(2, F(5))),
        SlotHorizon(2),
        (AdditiveOnlineBid(1, 1, 1, 2, (F(6), F(6))), AdditiveOnlineBid(1, 2, 1, 2, (F(6), F(6)))),
    )
    trace3 = regret_run(g3.catalog, g3.horizon, g3.bids)
    m3 = score(g3, trace3)
    assert m3.total_value == F(12)
    assert m3.per_user_utility == {1: F(12)}
    assert m3.total_cost == sum(o.cost for o in g3.catalog if o.id in trace3.implement_slot) == F(10)
    assert m3.cloud_balance == sum(trace3.payments.values(), F(0)) - m3.total_cost == F(-10)
