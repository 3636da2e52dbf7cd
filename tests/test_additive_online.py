from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.additive_online import add_on, new_session, step_session
from optshare.core import (
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
    Optimization,
    RevisionError,
    SlotHorizon,
    SlotOrderError,
)
from optshare.scenarios import ScenarioSpec, generate
from optshare.shapley import shapley

from oracles import per_opt_games, replay_online_additive
from test_traces import _rand_multi

F = Fraction


def bid(user, start, end, *values):
    return AdditiveOnlineBid(user, 1, start, end, tuple(F(v) for v in values))


def game(cost, z, *bids):
    return AdditiveOnlineGame((Optimization(1, F(cost)),), SlotHorizon(z), bids)


def test_staggered_arrivals_trace():
    g = game(100, 3, bid(1, 1, 1, 101), bid(2, 1, 3, 16, 16, 16), bid(3, 2, 2, 26), bid(4, 2, 2, 26))
    t = add_on(g)
    assert t.payments == {1: F(100), 2: F(25), 3: F(25), 4: F(25)}
    assert t.schedule.cumulative_at(1, 1) == {1}
    assert t.schedule.cumulative_at(1, 2) == {1, 2, 3, 4}
    assert t.schedule.cumulative_at(1, 3) == {1, 2, 3, 4}
    # the early leaver is no longer active but second-slot arrivals are
    assert t.schedule.serviced_at(1, 2) == {2, 3, 4}
    assert t.share_history[1, 1] == F(100) and t.share_history[1, 2] == F(25)


def test_two_truthful_users_split_at_first_slot():
    t = add_on(game(100, 2, bid(1, 1, 1, 101), bid(2, 1, 2, 26, 26)))
    assert t.payments == {1: F(50), 2: F(50)}
    assert t.schedule.serviced_at(1, 1) == {1, 2}


def test_late_hider_is_left_out():
    t = add_on(game(100, 2, bid(1, 1, 1, 101), bid(2, 2, 2, 26)))
    assert t.payments == {1: F(100), 2: F(0)}
    assert t.schedule.serviced_at(1, 2) == frozenset()


def test_no_bids():
    t = add_on(game(100, 3))
    assert t.payments == {}
    assert t.schedule.served == {}
    assert t.share_history == {}


def test_bid_outside_horizon_rejected():
    with pytest.raises(GameError):
        game(100, 2, bid(1, 1, 3, 5, 5, 5))


def test_session_rejects_a_bid_the_game_would():
    state = new_session(Optimization(1, F(100)), SlotHorizon(2))
    with pytest.raises(GameError, match="unknown optimization 2"):
        step_session(state, 1, [AdditiveOnlineBid(1, 2, 1, 1, (F(5),))])
    with pytest.raises(GameError, match="past the horizon"):
        step_session(state, 1, [bid(1, 1, 3, 5, 5, 5)])


def test_duplicate_user_rejected():
    with pytest.raises(GameError):
        add_on(game(100, 2, bid(1, 1, 1, 5), bid(1, 2, 2, 5)))


users_st = st.integers(min_value=1, max_value=5)
values_st = st.integers(min_value=0, max_value=300)


@st.composite
def online_games(draw, max_users=5, max_slots=4):
    z = draw(st.integers(1, max_slots))
    m = draw(st.integers(1, max_users))
    bids = []
    for u in range(1, m + 1):
        s = draw(st.integers(1, z))
        e = draw(st.integers(s, z))
        vals = tuple(F(draw(values_st), 100) for _ in range(e - s + 1))
        bids.append(AdditiveOnlineBid(u, 1, s, e, vals))
    cost = F(draw(st.integers(1, 500)), 100)
    return AdditiveOnlineGame((Optimization(1, cost),), SlotHorizon(z), tuple(bids))


@given(online_games())
@settings(max_examples=250, deadline=None)
def test_matches_slot_replay_oracle(g):
    t = add_on(g)
    cs, payments, serviced = replay_online_additive(
        g.catalog[0].cost, g.horizon.z, [(b.user, b.start, b.end, b.per_slot) for b in g.bids]
    )
    assert t.payments == payments
    assert t.schedule.cumulative_at(1, g.horizon.z) == cs
    for slot, users in serviced.items():
        assert t.schedule.serviced_at(1, slot) == users


@given(online_games())
@settings(max_examples=250, deadline=None)
def test_online_invariants(g):
    t = add_on(g)
    z = g.horizon.z
    prev = frozenset()
    prev_share = None
    for slot in g.horizon.slots():
        cur = t.schedule.cumulative_at(1, slot)
        assert prev <= cur  # cumulative set never shrinks
        if cur:
            share = g.catalog[0].cost / len(cur)
            assert t.share_history[1, slot] == share
            if prev_share is not None:
                assert share <= prev_share
            prev_share = share
        prev = cur
    final = t.schedule.cumulative_at(1, z)
    ends = {b.user: b.end for b in g.bids}
    for b in g.bids:
        if b.user in final:
            assert t.payments[b.user] == g.catalog[0].cost / len(t.schedule.cumulative_at(1, ends[b.user]))
        else:
            assert t.payments[b.user] == 0
    paid = sum(t.payments.values(), F(0))
    if final:
        assert paid >= g.catalog[0].cost  # never a loss
    else:
        assert paid == 0


@given(online_games(max_slots=1))
@settings(max_examples=150, deadline=None)
def test_single_slot_equals_offline_run(g):
    t = add_on(g)
    ref = shapley(g.catalog[0].cost, {b.user: b.per_slot[0] for b in g.bids})
    assert t.payments == ref.payments
    assert t.schedule.serviced_at(1, 1) == ref.serviced


@given(online_games())
@settings(max_examples=150, deadline=None)
def test_session_feed_equals_batch(g):
    state = new_session(g.catalog[0], g.horizon)
    for slot in g.horizon.slots():
        _, _, state = step_session(state, slot, [b for b in g.bids if b.start == slot])
    t = state.trace()
    batch = add_on(g)
    assert t.payments == batch.payments
    assert t.schedule.served == batch.schedule.served
    assert t.share_history == batch.share_history


def test_session_replays_staggered_trace():
    state = new_session(Optimization(1, F(100)), SlotHorizon(3))
    _, dep1, state = step_session(state, 1, [bid(1, 1, 1, 101), bid(2, 1, 3, 16, 16, 16)])
    assert dep1 == {1: F(100)}
    serviced2, dep2, state = step_session(state, 2, [bid(3, 2, 2, 26), bid(4, 2, 2, 26)])
    assert serviced2 == {2, 3, 4}
    assert dep2 == {3: F(25), 4: F(25)}
    _, dep3, state = step_session(state, 3)
    assert dep3 == {2: F(25)}


def test_session_rejects_out_of_order_and_retroactive():
    state = new_session(Optimization(1, F(100)), SlotHorizon(3))
    _, _, state = step_session(state, 2)
    with pytest.raises(SlotOrderError):
        step_session(state, 1)
    with pytest.raises(RevisionError):
        step_session(state, 3, [bid(1, 1, 3, 5, 5, 5)])  # starts in the past


def test_session_upward_revision_changes_residuals():
    # revision raises the near-term value enough to get serviced
    state = new_session(Optimization(1, F(30)), SlotHorizon(3))
    _, _, state = step_session(state, 1, [bid(1, 1, 3, 5, 5, 5)])
    assert state.cumulative == frozenset()
    _, _, state = step_session(state, 2, [bid(1, 1, 3, 5, 40, 5)])
    assert state.cumulative == {1}
    with pytest.raises(RevisionError):
        step_session(state, 3, [bid(1, 1, 3, 5, 40, 4)])


def test_session_rejects_revision_after_departure():
    state = new_session(Optimization(1, F(10)), SlotHorizon(3))
    _, _, state = step_session(state, 1, [bid(1, 1, 1, 20)])
    _, _, state = step_session(state, 2)
    with pytest.raises(RevisionError):
        step_session(state, 3, [bid(1, 1, 3, 20, 0, 5)])


def assert_add_on_is_its_per_optimization_runs(game):
    """One ``add_on`` run of a game settles each optimization as a run of
    the game cut to that optimization and the bids on it would: payments
    summed per user, served sets, and the optimization's share history."""
    trace = add_on(game)
    paid, served = dict.fromkeys(trace.payments, F(0)), {}
    for single in per_opt_games(game):
        (opt,) = single.catalog
        run = add_on(single)
        for user, amount in run.payments.items():
            paid[user] += amount
        served.update(run.schedule.served)
        assert {key: s for key, s in trace.share_history.items() if key[0] == opt.id} == run.share_history
    assert trace.payments == paid
    assert trace.schedule.served == served
    assert {j for j, _ in trace.share_history} <= {o.id for o in game.catalog}


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_add_on_of_several_optimizations_is_its_per_optimization_runs(rng):
    assert_add_on_is_its_per_optimization_runs(_rand_multi(rng))


@pytest.mark.parametrize("seed", range(8))
def test_add_on_of_a_usecase_shape_game_is_its_per_optimization_runs(seed):
    # at these costs most games implement several optimizations
    spec = ScenarioSpec(family="usecase_shape", users=5, slots=6, opt_count=4, cost=F(1 + seed, 100), seed=seed, trials=5)
    for trial in range(spec.trials):
        game = generate(spec, trial)
        assert len(game.catalog) == 4
        assert_add_on_is_its_per_optimization_runs(game)
