import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.core import (
    GameError,
    Optimization,
    SlotHorizon,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
)
from optshare.scaled import ScaledGame
from optshare.scenarios import generate
from optshare.shapley import add_off
from optshare.core import AdditiveOfflineBid
from optshare.substitutable import _grants, _phases_scaled, grant, subst_off, subst_on
from optshare.verification import rand_subst_online

from oracles import reference_grant
from test_scaled import cost_points, specs
from test_traces import _rand_tied_subst

F = Fraction


def off_bid(user, subs, value):
    return SubstitutableOfflineBid(user, frozenset(subs), F(value))


def on_bid(user, subs, start, end, *values):
    return SubstitutableOnlineBid(user, frozenset(subs), start, end, tuple(F(v) for v in values))


CATALOG_3 = (Optimization(1, F(60)), Optimization(2, F(180)), Optimization(3, F(100)))
BIDS_3 = (off_bid(1, {1, 2}, 100), off_bid(2, {3}, 101), off_bid(3, {1, 2, 3}, 60), off_bid(4, {2}, 70))


def test_phased_selection():
    r = subst_off(CATALOG_3, BIDS_3)
    assert r.outcome.implemented == {1, 3}
    assert [p.opt for p in r.phases] == [1, 3]
    assert r.phases[0].serviced == {1, 3} and r.phases[0].share == F(30)
    assert r.phases[1].serviced == {2} and r.phases[1].share == F(100)
    assert [r.payments.total_for(u) for u in (1, 2, 3, 4)] == [F(30), F(100), F(30), F(0)]


def test_cheap_overlapping_pair():
    catalog = (Optimization(1, F(6)), Optimization(2, F(5)))
    bids = (off_bid(1, {1}, 5), off_bid(2, {1, 2}, "2.51"), off_bid(3, {2}, 7))
    r = subst_off(catalog, bids)
    assert r.outcome.implemented == {2}
    assert r.phases[0].serviced == {2, 3} and r.phases[0].share == F("2.5")


def test_cheap_pair_with_split_identities():
    catalog = (Optimization(1, F(6)), Optimization(2, F(5)))
    bids = (
        off_bid(10, {1}, "2.5"),
        off_bid(11, {1}, "2.5"),
        off_bid(2, {1, 2}, "2.51"),
        off_bid(3, {2}, 7),
    )
    r = subst_off(catalog, bids)
    assert r.phases[0].opt == 1 and r.phases[0].serviced == {10, 11, 2} and r.phases[0].share == F(2)
    assert r.phases[1].opt == 2 and r.phases[1].serviced == {3} and r.phases[1].share == F(5)


def test_no_bids():
    r = subst_off(CATALOG_3, ())
    assert r.outcome.implemented == frozenset()
    assert r.phases == ()


def test_tie_breaks_to_lowest_id_and_is_recorded():
    catalog = (Optimization(3, F(10)), Optimization(7, F(10)))
    r = subst_off(catalog, (off_bid(1, {3, 7}, 20),))
    assert r.phases[0].opt == 3
    assert r.phases[0].tied_with == (7,)


def test_offline_phases_are_built_when_read_and_compared():
    """``subst_off`` leaves its phase log to the first read; equality and
    repr depend on neither that read nor the game object behind it, and
    equality tells apart results that settle alike but phase differently
    (here a tie that one catalog has and the other lacks)."""
    tied = (Optimization(3, F(10)), Optimization(7, F(10)))
    untied = (Optimization(3, F(10)), Optimization(7, F(50)))
    bids = (off_bid(1, {3, 7}, 20),)
    a, b = subst_off(tied, bids), subst_off(tied, bids)
    assert "phases" not in vars(a)
    before = repr(a)
    assert a == b  # builds both results' phases
    assert "phases" in vars(a) and repr(a) == before == repr(b)
    assert a.phases[0].tied_with == (7,)
    c = subst_off(untied, bids)
    assert (c.outcome, c.payments) == (a.outcome, a.payments)
    assert c.phases[0].tied_with == () and c != a


def test_unknown_optimization_rejected():
    with pytest.raises(GameError):
        subst_off(CATALOG_3[:1], (off_bid(1, {9}, 5),))


@st.composite
def subst_offline_games(draw, max_users=5, max_opts=3):
    n = draw(st.integers(1, max_opts))
    m = draw(st.integers(1, max_users))
    catalog = tuple(Optimization(j, F(draw(st.integers(1, 500)), 100)) for j in range(1, n + 1))
    bids = []
    for u in range(1, m + 1):
        subs = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        bids.append(SubstitutableOfflineBid(u, frozenset(subs), F(draw(st.integers(1, 300)), 100)))
    return catalog, tuple(bids)


@given(subst_offline_games())
@settings(max_examples=300, deadline=None)
def test_offline_invariants(args):
    catalog, bids = args
    r = subst_off(catalog, bids)
    costs = {o.id: o.cost for o in catalog}
    # disjoint phases, exact recovery per phase, non-decreasing shares
    seen_users: set = set()
    seen_opts: set = set()
    prev_share = None
    for phase in r.phases:
        assert not (phase.serviced & seen_users)
        assert phase.opt not in seen_opts
        seen_users |= phase.serviced
        seen_opts.add(phase.opt)
        assert phase.share * len(phase.serviced) == costs[phase.opt]
        if prev_share is not None:
            assert phase.share >= prev_share
        prev_share = phase.share
        for u in phase.serviced:
            assert r.payments.entries[(u, phase.opt)] == phase.share
    assert r.outcome.implemented == seen_opts
    # a serviced user's bid covers her share
    values = {b.user: b.value for b in bids}
    for phase in r.phases:
        for u in phase.serviced:
            assert values[u] >= phase.share


@given(subst_offline_games())
@settings(max_examples=200, deadline=None)
def test_singleton_partition_degenerates_to_additive(args):
    catalog, bids = args
    singles = tuple(SubstitutableOfflineBid(b.user, frozenset({min(b.substitutes)}), b.value) for b in bids)
    r = subst_off(catalog, singles)
    additive = tuple(AdditiveOfflineBid(b.user, {min(b.substitutes): b.value}) for b in bids)
    outcome, ledger = add_off(catalog, additive)
    assert r.outcome == outcome
    assert r.payments.entries == ledger.entries


def test_online_no_switching_keeps_departed_users_counted():
    catalog = (Optimization(1, F(60)), Optimization(2, F(100)), Optimization(3, F(50)))
    bids = (
        on_bid(1, {1, 2}, 1, 2, 100, 100),
        on_bid(2, {1, 2, 3}, 2, 3, 100, 100),
        on_bid(3, {3}, 3, 3, 100),
    )
    t = subst_on(catalog, SlotHorizon(3), bids)
    assert t.payments == {1: F(30), 2: F(30), 3: F(50)}
    assert t.granted == {1: 1, 2: 1, 3: 3}
    assert t.implemented == {1, 3}
    # user 2 is still pinned to optimization 1 in the final slot
    assert t.schedule.serviced_at(1, 3) == {2}
    assert t.schedule.serviced_at(3, 3) == {3}


def test_online_slot_phases_are_built_when_read_and_compared():
    """``subst_on`` leaves its slot phases to the first read; equality and
    repr depend on neither that read nor the game object behind it, and
    equality tells apart traces that settle alike but phase differently
    (here a tie that one catalog has and the other lacks)."""
    tied = (Optimization(1, F(1)), Optimization(2, F(1)))
    untied = (Optimization(1, F(1)), Optimization(2, F(5)))
    bids = (on_bid(1, {1, 2}, 1, 1, 2),)
    a, b = subst_on(tied, SlotHorizon(1), bids), subst_on(tied, SlotHorizon(1), bids)
    assert "slot_phases" not in vars(a)
    before = repr(a)
    assert a == b  # builds both traces' phases
    assert "slot_phases" in vars(a) and repr(a) == before == repr(b)
    assert a.slot_phases[1][0].tied_with == (2,)
    c = subst_on(untied, SlotHorizon(1), bids)
    assert (c.payments, c.granted, c.implemented) == (a.payments, a.granted, a.implemented)
    assert c.slot_phases[1][0].tied_with == () and c != a


def test_online_newcomer_cannot_force_a_switch():
    catalog = (Optimization(1, F(60)), Optimization(2, F(100)), Optimization(3, F(50)))
    bids = (
        on_bid(1, {1, 2}, 1, 2, 100, 100),
        on_bid(2, {1, 2, 3}, 2, 3, 100, 100),
        on_bid(3, {3}, 3, 3, 100),
        on_bid(4, {3}, 3, 3, 100),
    )
    t = subst_on(catalog, SlotHorizon(3), bids)
    assert t.payments[2] == F(30)
    assert t.payments[3] == F(25) and t.payments[4] == F(25)


@st.composite
def subst_online_games(draw, max_users=5, max_opts=3, max_slots=3):
    n = draw(st.integers(1, max_opts))
    z = draw(st.integers(1, max_slots))
    m = draw(st.integers(1, max_users))
    catalog = tuple(Optimization(j, F(draw(st.integers(1, 500)), 100)) for j in range(1, n + 1))
    bids = []
    for u in range(1, m + 1):
        subs = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        s = draw(st.integers(1, z))
        e = draw(st.integers(s, z))
        vals = tuple(F(draw(st.integers(0, 300)), 100) for _ in range(e - s + 1))
        bids.append(SubstitutableOnlineBid(u, frozenset(subs), s, e, vals))
    return catalog, SlotHorizon(z), tuple(bids)


@given(subst_online_games())
@settings(max_examples=250, deadline=None)
def test_online_invariants(args):
    catalog, horizon, bids = args
    t = subst_on(catalog, horizon, bids)
    costs = {o.id: o.cost for o in catalog}
    # nobody is ever granted two optimizations
    assert len(t.granted) == len(set(t.granted))
    for user, opt in t.granted.items():
        assert opt in t.implemented
    # per-optimization recovery and non-negative balance
    per_opt: dict = {}
    for user, opt in t.granted.items():
        per_opt[opt] = per_opt.get(opt, F(0)) + t.payments[user]
    for opt in t.implemented:
        assert per_opt.get(opt, F(0)) >= costs[opt]
    paid = sum(t.payments.values(), F(0))
    total_cost = sum((costs[j] for j in t.implemented), F(0))
    assert paid >= total_cost
    # grants only to optimizations the user actually asked for
    wants = {b.user: b.substitutes for b in bids}
    for user, opt in t.granted.items():
        assert opt in wants[user]


@given(subst_online_games(max_slots=1))
@settings(max_examples=200, deadline=None)
def test_single_slot_equals_offline(args):
    catalog, horizon, bids = args
    t = subst_on(catalog, horizon, bids)
    offline = tuple(
        SubstitutableOfflineBid(b.user, b.substitutes, b.per_slot[0]) for b in bids if b.per_slot[0] > 0
    )
    r = subst_off(catalog, offline)
    assert t.payments == {b.user: r.payments.total_for(b.user) for b in bids}
    assert t.implemented == r.outcome.implemented
    assert set(t.granted.items()) == set(r.outcome.grants)


@st.composite
def scaled_subst_games(draw):
    """A random, tied or ``selectivity`` substitutable online game, scaled at
    drawn cost factors in shuffled order, some repeated."""
    kind = draw(st.sampled_from(("random", "tied", "selectivity")))
    if kind == "selectivity":
        game = generate(draw(specs("selectivity")), draw(st.integers(0, 3)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        game = rand_subst_online(rng, max_users=6, max_opts=4, max_slots=5) if kind == "random" else _rand_tied_subst(rng)
    return ScaledGame(game, draw(cost_points(max_size=4)))


@given(scaled_subst_games())
@settings(max_examples=400, deadline=None)
def test_grant_matches_the_reference_slot_loop_at_every_cost_point(scaled):
    for costs in scaled.costs:
        entries, implemented, _ = grant(scaled, costs)
        want_entries, want_implemented, _ = reference_grant(scaled, costs)
        assert list(entries.items()) == list(want_entries.items())
        assert list(implemented.items()) == list(want_implemented.items())


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_pins_on_optimizations_no_offer_names_never_move_a_grant(data):
    n = data.draw(st.integers(2, 6))
    costs = {j: data.draw(st.integers(1, 40)) for j in range(1, n + 1)}
    values = data.draw(st.lists(st.integers(0, 20), max_size=7))
    offers = sorted(((v, i) for i, v in enumerate(values)), reverse=True)
    interest = [frozenset(data.draw(st.sets(st.integers(1, n), min_size=1))) for _ in values]
    named = sorted(set().union(*interest))
    pins = {j: data.draw(st.integers(1, 3)) for j in (data.draw(st.sets(st.sampled_from(named))) if named else ())}
    extra = {j: data.draw(st.integers(1, 3)) for j in data.draw(st.sets(st.integers(1, n))) if j not in named}
    phases = _phases_scaled(costs, offers, interest, {**pins, **extra})
    assert sorted(opt for opt, served, _ in phases if opt in extra and not served) == sorted(extra)
    grants = [(opt, served) for opt, served, _ in phases if opt not in extra]
    assert grants == [(opt, served) for opt, served, _ in _phases_scaled(costs, offers, interest, pins)]


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_grants_are_the_serving_phases_of_the_full_loop(data):
    n = data.draw(st.integers(1, 6))
    costs = {j: data.draw(st.integers(1, 12)) for j in range(1, n + 1)}  # small, so shares tie
    values = data.draw(st.lists(st.integers(0, 12), max_size=7))
    offers = sorted(((v, i) for i, v in enumerate(values)), reverse=True)
    interest = [frozenset(data.draw(st.sets(st.integers(1, n), min_size=1))) for _ in values]
    # pins on named and unnamed optimizations, pinned-only ones included
    pins = {j: data.draw(st.integers(1, 4)) for j in data.draw(st.sets(st.integers(1, n)))}
    want = [(opt, served) for opt, served, _ in _phases_scaled(costs, offers, interest, pins) if served]
    assert _grants(costs, offers, interest, pins) == want


def test_a_single_offer_goes_to_the_lowest_id_among_equal_shares():
    costs = {1: 10, 2: 20, 3: 10}
    interest = [frozenset({1, 2, 3})]
    # shares 10/2, 20/4 and 10/2: all equal, and 1 is the lowest id
    assert _grants(costs, [(10, 0)], interest, {1: 1, 2: 3, 3: 1}) == [(1, [0])]
    assert _grants(costs, [(10, 0)], [frozenset({2, 3})], {2: 3, 3: 1}) == [(2, [0])]


def test_a_pinned_only_optimization_with_a_lower_share_takes_no_offer():
    costs = {1: 2, 2: 12, 3: 30}
    pins = {1: 5, 2: 1, 3: 2}
    # 1 (share 2/5, not named) and 3 (6 * 3 < 30) keep only their pins; 2 serves at 12/2
    offers, interest = [(6, 0)], [frozenset({2, 3})]
    assert [opt for opt, _, _ in _phases_scaled(costs, offers, interest, pins)] == [1, 2, 3]
    assert _grants(costs, offers, interest, pins) == [(2, [0])]
    assert _grants(costs, [(5, 0)], interest, pins) == []


def test_a_single_offer_exactly_at_its_share_is_served():
    costs = {1: 12, 2: 7}
    # 4 * (2 + 1) == 12: served; 7 would need a value of 7
    assert _grants(costs, [(4, 0)], [frozenset({1, 2})], {1: 2}) == [(1, [0])]
    assert _grants(costs, [(3, 0)], [frozenset({1, 2})], {1: 2}) == []
    assert _grants(costs, [(7, 0)], [frozenset({2})], {}) == [(2, [0])]
