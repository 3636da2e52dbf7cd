import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.core import AdditiveOfflineBid, GameError, Optimization
from optshare.money import INFINITE_BID
from optshare.shapley import add_off, shapley

from oracles import equal_share_payments, maximal_feasible_set, reference_shapley

F = Fraction

money = st.integers(min_value=0, max_value=400).map(lambda n: F(n, 100))
cost_st = st.integers(min_value=1, max_value=600).map(lambda n: F(n, 100))


def test_single_dominant_bidder_pays_everything():
    bids = {0: F(101), **{i: F(1) for i in range(1, 100)}}
    r = shapley(F(101), bids)
    assert r.serviced == {0}
    assert r.share == F(101)
    assert r.payments[0] == F(101) and r.payments[5] == 0


def test_two_dominant_bidders_drag_everyone_in():
    bids = {0: F(101), 100: F(101), **{i: F(1) for i in range(1, 100)}}
    r = shapley(F(101), bids)
    assert len(r.serviced) == 101
    assert r.share == F(1)


def test_no_bidders():
    r = shapley(F(10), {})
    assert r.serviced == frozenset() and r.share is None and r.payments == {}


def test_eviction_cascade():
    # oracle-checked: {60, 50, 40} all cover 100/3, adding the 10-bidder would not
    bids = {1: F(60), 2: F(50), 3: F(40), 4: F(10)}
    assert maximal_feasible_set(F(100), bids) == {1, 2, 3}
    r = shapley(F(100), bids)
    assert r.serviced == {1, 2, 3}
    assert r.share == F(100, 3)
    assert r.payments[4] == 0


def test_boundary_bid_is_serviced():
    r = shapley(F(100), {1: F(50), 2: F(50)})
    assert r.serviced == {1, 2}


def test_cost_must_be_positive():
    with pytest.raises(GameError):
        shapley(F(0), {1: F(1)})


def test_infinite_bids_pin_users():
    r = shapley(F(100), {1: INFINITE_BID, 2: F(1)})
    assert r.serviced == {1}
    assert r.payments[1] == F(100)
    r = shapley(F(100), {1: INFINITE_BID, 2: F(50)})
    assert r.serviced == {1, 2}


@given(st.dictionaries(st.integers(0, 10), money | st.just(INFINITE_BID), max_size=8), cost_st)
@settings(max_examples=300)
def test_matches_subset_enumeration_oracle(bids, cost):
    serviced, share, payments = equal_share_payments(cost, bids)
    r = shapley(cost, bids)
    assert r.serviced == serviced
    assert r.share == share
    assert r.payments == payments


@given(st.dictionaries(st.integers(0, 10), money, max_size=8), cost_st)
@settings(max_examples=300)
def test_cost_recovery_exact(bids, cost):
    r = shapley(cost, bids)
    if r.serviced:
        assert r.share * len(r.serviced) == cost
        assert sum(r.payments.values()) == cost


@given(st.dictionaries(st.integers(0, 8), money, min_size=1, max_size=6), cost_st, money)
@settings(max_examples=200)
def test_adding_a_bidder_never_raises_the_share(bids, cost, extra):
    before = shapley(cost, bids)
    grown = dict(bids)
    grown[99] = extra
    after = shapley(cost, grown)
    assert before.serviced <= after.serviced
    if before.serviced:
        assert after.share <= before.share


@given(st.lists(st.tuples(st.integers(0, 10), money), min_size=1, max_size=8, unique_by=lambda t: t[0]), cost_st)
@settings(max_examples=100)
def test_insertion_order_is_irrelevant(pairs, cost):
    rng = random.Random(0)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert shapley(cost, dict(pairs)) == shapley(cost, dict(shuffled))


def shapley_or_error(shapley_fn, cost, bids):
    try:
        return shapley_fn(cost, bids)
    except GameError as exc:
        return f"GameError: {exc}"


# bids of several denominators, zero and negative ones among them
any_bid = st.builds(F, st.integers(-3, 40), st.sampled_from((1, 2, 3, 7, 100))) | st.just(INFINITE_BID)


@given(st.dictionaries(st.integers(0, 10), any_bid, max_size=8), st.builds(F, st.integers(-2, 60), st.sampled_from((1, 3, 10))))
@settings(max_examples=400)
def test_equals_the_game_type_reference_and_its_errors(bids, cost):
    assert shapley_or_error(shapley, cost, bids) == shapley_or_error(reference_shapley, cost, bids)


def test_names_the_first_negative_bid_after_the_cost():
    bids = {1: INFINITE_BID, 2: F(0), 3: F(-1, 3), 4: F(-2)}
    for cost, text in ((F(1), "user 3: bid values must be >= 0"), (F(0), "optimization cost must be positive")):
        assert shapley_or_error(shapley, cost, bids) == shapley_or_error(reference_shapley, cost, bids) == f"GameError: {text}"


def test_add_off_singleton_catalog_equals_shapley():
    catalog = [Optimization(7, F(100))]
    bids = [AdditiveOfflineBid(1, {7: F(60)}), AdditiveOfflineBid(2, {7: F(50)})]
    result = add_off(catalog, bids)
    r = shapley(F(100), {1: F(60), 2: F(50)})
    assert result.outcome.implemented == {7}
    assert {u for u, _ in result.outcome.grants} == r.serviced
    assert result.payments[1] == r.payments[1]


def test_add_off_column_decomposition():
    catalog = [Optimization(1, F(100)), Optimization(2, F(100))]
    bids = [
        AdditiveOfflineBid(1, {1: F(60), 2: F(10)}),
        AdditiveOfflineBid(2, {1: F(50), 2: F(10)}),
        AdditiveOfflineBid(3, {1: F(40), 2: F(10)}),
    ]
    result = add_off(catalog, bids)
    ledger = result.ledger
    assert result.outcome.implemented == {1}
    assert ledger.total_for_opt(1) == F(100)
    for u in (1, 2, 3):
        assert ledger.entries[(u, 1)] == F(100, 3)
    assert ledger.total_for_opt(2) == 0


def test_add_off_disjoint_bidders_union():
    catalog = [Optimization(1, F(10)), Optimization(2, F(4))]
    bids = [AdditiveOfflineBid(1, {1: F(12)}), AdditiveOfflineBid(2, {2: F(5)})]
    result = add_off(catalog, bids)
    assert result.outcome.implemented == {1, 2}
    assert result.outcome.grants == {(1, 1), (2, 2)}
    assert result.ledger.entries == {(1, 1): F(10), (2, 2): F(4)}


def test_add_off_rejects_unknown_optimization():
    with pytest.raises(GameError):
        add_off([Optimization(1, F(10))], [AdditiveOfflineBid(1, {2: F(5)})])
