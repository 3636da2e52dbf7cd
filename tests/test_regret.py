import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.core import (
    AdditiveOnlineBid,
    GameError,
    Optimization,
    SlotHorizon,
    SubstitutableOnlineBid,
)
from optshare.regret import _posted_price, _price_curve, optimal_posted_price, regret_run, trigger
from optshare.scaled import ScaledGame
from optshare.scenarios import FAMILIES, generate
from optshare.verification import rand_additive_online, rand_subst_online

from oracles import posted_price_search, reference_trigger
from test_scaled import cost_points, specs
from test_traces import _rand_multi, _rand_tied_subst

F = Fraction


def bid(user, start, end, *values, opt=1):
    return AdditiveOnlineBid(user, opt, start, end, tuple(F(v) for v in values))


def test_posted_price_exact_recovery():
    price, loss = optimal_posted_price(F(100), [F(60)] * 3)
    assert price == F(100, 3) and loss == 0


def test_posted_price_no_buyers():
    assert optimal_posted_price(F(100), []) == (F(0), F(100))


def test_posted_price_unrecoverable_minimizes_loss():
    assert optimal_posted_price(F(100), [F(30)] * 3) == (F(30), F(10))


def test_posted_price_takes_the_lowest_price_among_equal_revenues():
    # 6, 3 and 2 all bring in 6: the curve keeps only 3 buyers at 2
    curve = _price_curve([6, 3, 2])
    assert curve == ([6], [3])
    assert _posted_price(7, curve) == (2, 1, 1, 3)  # price 2, loss 1, 3 buyers
    assert _posted_price(6, curve) == (6, 3, 0, 3)  # the cost is the entry: 6/3 recovers it


def test_posted_price_at_and_between_curve_entries():
    # revenues 9, 10, 6 for 1, 2, 3 buyers: the curve is 3 buyers (6), then 2 (10)
    curve = _price_curve([9, 5, 2])
    assert curve == ([6, 10], [3, 2])
    assert _posted_price(6, curve) == (6, 3, 0, 3)
    assert _posted_price(7, curve) == (7, 2, 0, 2)
    assert _posted_price(10, curve) == (10, 2, 0, 2)
    assert _posted_price(11, curve) == (5, 1, 1, 2)
    assert _posted_price(3, _price_curve([])) == (0, 1, 3, 0)


def test_posted_price_rejects_negative_residuals():
    with pytest.raises(GameError):
        optimal_posted_price(F(10), [F(-1)])


@given(
    st.integers(1, 500),
    st.lists(st.integers(0, 300), max_size=8),
)
@settings(max_examples=300)
def test_posted_price_matches_exhaustive_search(cost_c, residual_c):
    cost = F(cost_c, 100)
    residuals = [F(r, 100) for r in residual_c]
    price, loss = optimal_posted_price(cost, residuals)
    ref_price, ref_loss = posted_price_search(cost, residuals)
    assert loss == ref_loss
    assert price <= ref_price  # never a larger price at the same loss
    buyers = sum(1 for r in residuals if r > 0 and r >= price)
    assert max(cost - price * buyers, F(0)) == loss


def test_value_before_the_trigger_is_wasted():
    # one user, all value in slot 1, trigger only fires at slot 2
    t = regret_run((Optimization(1, F(100)),), SlotHorizon(2), [bid(1, 1, 1, 101)])
    assert t.implement_slot == {1: 2}
    assert t.regret_series[(1, 1)] == 0 and t.regret_series[(1, 2)] == F(101)
    assert t.posted_price == {1: F(0)}
    assert t.realized_value == 0
    assert t.cloud_balance == F(-100)
    assert t.total_utility == F(-100)


def test_trigger_slot_users_ride_free():
    t = regret_run(
        (Optimization(1, F(10)),),
        SlotHorizon(2),
        [bid(1, 1, 2, 5, 5), bid(2, 1, 2, 5, 5)],
    )
    assert t.implement_slot == {1: 2}
    assert t.realized_value == F(10)  # both users' slot-2 value, free
    assert t.payments == {1: F(0), 2: F(0)}
    assert t.cloud_balance == F(-10)
    assert t.total_utility == 0


def test_never_triggered_when_cost_exceeds_all_regret():
    t = regret_run((Optimization(1, F(1000)),), SlotHorizon(3), [bid(1, 1, 1, 101)])
    assert t.implement_slot == {}
    assert t.realized_value == 0 and t.cloud_balance == 0 and t.total_cost == 0


def test_nothing_implements_in_slot_one():
    t = regret_run((Optimization(1, F(1, 100)),), SlotHorizon(3), [bid(1, 1, 3, 50, 50, 50)])
    assert t.implement_slot == {1: 2}


def test_future_users_buy_at_the_posted_price():
    bids = [bid(1, 1, 1, 150), bid(2, 3, 4, 60, 0), bid(3, 4, 4, 60)]
    t = regret_run((Optimization(1, F(100)),), SlotHorizon(4), bids)
    assert t.implement_slot == {1: 2}
    assert t.posted_price == {1: F(50)}
    assert t.payments == {1: F(0), 2: F(50), 3: F(50)}
    assert t.realized_value == F(120)
    assert t.cloud_balance == 0
    # buyers have access from the slot after the trigger
    assert t.serviced.serviced_at(1, 3) == {2}
    assert t.serviced.serviced_at(1, 4) == {2, 3}


def test_buyer_below_price_excluded():
    bids = [bid(1, 1, 1, 150), bid(2, 3, 3, 60), bid(3, 3, 3, 10)]
    t = regret_run((Optimization(1, F(100)),), SlotHorizon(3), bids)
    assert t.posted_price == {1: F(60)}
    assert t.payments == {1: F(0), 2: F(60), 3: F(0)}
    assert t.serviced.serviced_at(1, 3) == {2}


def test_substitutable_binding_stops_regret():
    catalog = (Optimization(1, F(10)), Optimization(2, F(10)))
    bids = [
        SubstitutableOnlineBid(1, frozenset({1, 2}), 1, 3, (F(6), F(6), F(6))),
        SubstitutableOnlineBid(2, frozenset({2}), 1, 3, (F(5), F(5), F(5))),
    ]
    t = regret_run(catalog, SlotHorizon(3), bids)
    # optimization 2 gathers both users' regret and triggers first
    assert t.implement_slot == {2: 2}
    assert t.regret_series[(2, 2)] == F(11)
    # both users are serviced and bound to 2, so optimization 1's regret
    # freezes at user 1's pre-binding contribution and it never triggers
    assert t.regret_series[(1, 2)] == F(6)
    assert t.regret_series[(1, 3)] == F(6)
    # price for the remaining slot: two buyers at 5 recover the cost exactly
    assert t.posted_price == {2: F(5)}
    assert t.payments == {1: F(5), 2: F(5)}
    assert t.realized_value == F(11) + F(11)
    assert t.cloud_balance == 0


def test_regret_series_is_non_decreasing_for_additive():
    bids = [bid(1, 1, 4, 1, 2, 3, 4), bid(2, 2, 3, 5, 5)]
    t = regret_run((Optimization(1, F(10**6)),), SlotHorizon(4), bids)
    series = [t.regret_series[(1, s)] for s in (1, 2, 3, 4)]
    assert series == sorted(series)
    assert series[0] == 0


def test_mixing_bid_kinds_rejected():
    with pytest.raises(GameError):
        regret_run(
            (Optimization(1, F(1)),),
            SlotHorizon(2),
            [bid(1, 1, 1, 5), SubstitutableOnlineBid(2, frozenset({1}), 1, 1, (F(5),))],
        )


@st.composite
def regret_games(draw):
    z = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    bids = []
    for u in range(1, m + 1):
        s = draw(st.integers(1, z))
        e = draw(st.integers(s, z))
        bids.append(bid(u, s, e, *[draw(st.integers(0, 300)) / 100 for _ in range(e - s + 1)]))
    cost = F(draw(st.integers(1, 800)), 100)
    return (Optimization(1, cost),), SlotHorizon(z), bids


@given(regret_games())
@settings(max_examples=250, deadline=None)
def test_additive_regret_invariants(args):
    catalog, horizon, bids = args
    t = regret_run(catalog, horizon, bids)
    cost = catalog[0].cost
    if t.implement_slot:
        t_r = t.implement_slot[1]
        assert t.regret_series[(1, t_r)] >= cost
        for slot in range(1, t_r):
            assert t.regret_series[(1, slot)] < cost
        # buyers pay the posted price; their post-trigger residual covers it
        price = t.posted_price[1]
        for b in bids:
            paid = t.payments[b.user]
            assert paid in (F(0), price)
            if paid == price and price > 0:
                residual = sum((b.value_at(s) for s in range(t_r + 1, horizon.z + 1)), F(0))
                assert residual >= price
        assert t.cloud_balance == sum(t.payments.values(), F(0)) - cost
    else:
        assert t.realized_value == 0
        assert all(p == 0 for p in t.payments.values())


def assert_trigger_matches_dense_loop(game, factors):
    """``trigger``'s entries and trigger slots at every cost point, and
    ``regret_run``'s posted prices, losses and series, against the dense
    slot loop."""
    scaled = ScaledGame(game, factors)
    for costs in scaled.costs:
        entries, slots, _ = trigger(scaled, costs)
        want_entries, want_slots, _ = reference_trigger(scaled, costs)
        assert list(entries.items()) == list(want_entries.items())
        assert list(slots.items()) == list(want_slots.items())
    trace = regret_run(game.catalog, game.horizon, game.bids)
    scaled = ScaledGame(game)
    price, loss, dense = reference_trigger(scaled, scaled.costs[0])[2] if game.bids else ({}, {}, {})
    scale = scaled.scale
    assert list(trace.posted_price.items()) == [(j, F(num, den * scale)) for j, (num, den) in price.items()]
    assert list(trace.price_loss.items()) == [(j, F(short, scale)) for j, short in loss.items()]
    assert list(trace.regret_series.items()) == [(key, F(v, scale)) for key, v in dense.items()]


@given(seed=st.integers(0, 2**32), factors=cost_points(max_size=3))
@settings(max_examples=200, deadline=None)
def test_trigger_matches_the_dense_slot_loop(seed, factors):
    rng = random.Random(seed)
    for game in (
        rand_subst_online(rng, max_users=6, max_opts=4, max_slots=5),
        _rand_tied_subst(rng),
        rand_additive_online(rng, max_users=6, max_slots=5),
        _rand_multi(rng),
    ):
        assert_trigger_matches_dense_loop(game, factors)


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data(), trial=st.integers(0, 3), factors=cost_points(max_size=3))
@settings(max_examples=40, deadline=None)
def test_trigger_matches_the_dense_slot_loop_on_scenario_games(family, data, trial, factors):
    assert_trigger_matches_dense_loop(generate(data.draw(specs(family)), trial), factors)
