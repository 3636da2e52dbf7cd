from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from optshare.core import AdditiveOnlineMultiGame, OnlineAdditiveGame, SubstOnlineGame
from optshare.scenarios import (
    FAMILIES,
    GRID,
    MAX_SIZES,
    SKEWS,
    ScenarioError,
    ScenarioSpec,
    _draw_selectivity,
    _trial_rng,
    _uniform_draws,
    draw,
    draws_with_numpy,
    generate,
    load_numpy,
)

from oracles import recost, reference_generate

F = Fraction


def spec(**kw):
    base = dict(family="collab_size", users=6, slots=12, cost=F(3, 10), seed=7, trials=100)
    base.update(kw)
    return ScenarioSpec(**base)


def test_same_seed_and_trial_is_bit_identical():
    s = spec()
    assert generate(s, 3) == generate(s, 3)
    assert generate(s, 3) != generate(s, 4)


def test_cost_does_not_disturb_the_draws():
    a = generate(spec(cost=F(1, 10)), 5)
    b = generate(spec(cost=F(9, 10)), 5)
    assert a.bids == b.bids
    assert a.optimization.cost == F(1, 10) and b.optimization.cost == F(9, 10)


positive_money = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**4))


@st.composite
def specs(draw, family):
    opt_count = draw(st.integers(1, 6))
    slots = draw(st.integers(1, 8))
    return ScenarioSpec(
        family=family,
        users=draw(st.integers(1, 8)),
        slots=slots,
        opt_count=opt_count,
        cost=draw(positive_money),
        substitutes_per_user=draw(st.integers(1, opt_count)),
        duration=draw(st.integers(1, slots)),
        skew=draw(st.sampled_from(SKEWS)),
        seed=draw(st.integers(0, 2**64 - 1)),
        trials=4,
        executions_per_slot=draw(st.integers(1, 40)),
    )


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data(), trial=st.integers(0, 3), cost=positive_money)
@settings(max_examples=60, deadline=None)
def test_recost_equals_generating_at_that_cost(family, data, trial, cost):
    s = data.draw(specs(family))
    assert recost(generate(s, trial), s, cost) == generate(s.with_cost(cost), trial)


@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data(), users=st.sampled_from([1, 3, 6, 24, 100]))
@settings(max_examples=12, deadline=None)
def test_draws_consume_the_stream_as_one_scalar_call_per_number(family, skew, data, users):
    s = replace(data.draw(specs(family)), skew=skew, users=users, trials=25)
    for trial in range(s.trials):
        assert generate(s, trial) == reference_generate(s, trial)


@given(
    opt_count=st.one_of(st.integers(1, MAX_SIZES["opt_count"]), st.sampled_from([1, 2, MAX_SIZES["opt_count"]])),
    substitutes=st.sampled_from(["one", "all", "any"]),
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    users=st.sampled_from([1, 3, 6]),
    slots=st.sampled_from([1, 2, 12]),
    data=st.data(),
)
@example(opt_count=MAX_SIZES["opt_count"], substitutes="all", seed=2**64 - 1, users=3, slots=1, data=None)
@example(opt_count=MAX_SIZES["opt_count"], substitutes="one", seed=2**32, users=6, slots=12, data=None)
@example(opt_count=4, substitutes="all", seed=2**32 - 1, users=6, slots=2, data=None)
@settings(max_examples=40, deadline=None)
def test_uniform_selectivity_reads_numpys_stream_at_the_bounds(opt_count, substitutes, seed, users, slots, data):
    """The Python stream gives numpy's draws: catalogs up to the size bound,
    substitute sets of one and of every optimization (whose first Floyd draw
    has range 0 and consumes nothing), and seeds of one and two entropy words."""
    k = {"one": 1, "all": opt_count}.get(substitutes) or data.draw(st.integers(1, opt_count))
    s = spec(family="selectivity", opt_count=opt_count, substitutes_per_user=k, seed=seed, users=users, slots=slots)
    assert not draws_with_numpy(s)
    for trial in (0, 1, s.trials - 1):
        assert draw(s, trial) == _draw_selectivity(s, _trial_rng(s, trial))
        assert generate(s, trial) == reference_generate(s, trial)


def numpy_rng(seed, trial):
    npr = load_numpy().random
    return npr.Generator(npr.PCG64(npr.SeedSequence((seed, trial))))


# 2**31 - 1: a power-of-two range, whose rejection threshold is 0 and every
# even word's low product equals it; 2**31: about half the draws reject;
# 3 * 2**30: a quarter; 2**32 - 2: the widest range Lemire's draw takes.
@pytest.mark.parametrize("r", [2**31 - 1, 2**31, 3 * 2**30, 2**32 - 2])
@pytest.mark.parametrize("seed, trial", [(404, 0), (2**64 - 1, 7)])
def test_bounded_draw_rejects_as_numpy_does(r, seed, trial):
    rng = numpy_rng(seed, trial)
    draws = 3000
    ours = _uniform_draws(seed, trial, [r] * draws + [GRID] * 5)
    assert ours[:draws] == [int(rng.integers(0, r, endpoint=True)) for _ in range(draws)]
    assert ours[draws:] == [int(rng.integers(0, GRID, endpoint=True)) for _ in range(5)]  # the streams stay in step
    # The words Lemire's draw rejected on the way, read off PCG64's raw
    # 64-bit outputs, low half first.
    excl, threshold = r + 1, (2**32 - r - 1) % (r + 1)
    words = numpy_rng(seed, trial).bit_generator.random_raw(3 * draws)
    halves = (int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32))
    accepted = rejected = 0
    while accepted < draws:
        if next(halves) * excl & 0xFFFFFFFF < threshold:
            rejected += 1
        else:
            accepted += 1
    if r in (2**31, 3 * 2**30):
        assert rejected > draws * 0.1  # the rejection loop ran
    assert 0 <= min(ours[:draws]) and max(ours[:draws]) <= r


@pytest.mark.parametrize("r", [2**32 - 1, 2**32, 2**64, -1])
def test_bounded_draw_refuses_a_range_it_cannot_draw(r):
    for ranges in ([r], [GRID, r, GRID]):
        with pytest.raises(ValueError, match="bounded draw: range"):
            _uniform_draws(0, 0, ranges)


def test_bounded_draw_of_one_value_reads_nothing():
    rng = numpy_rng(0, 0)
    assert _uniform_draws(0, 0, [0, 0, 0, GRID, 0]) == [0, 0, 0, int(rng.integers(0, GRID, endpoint=True)), 0]


one_range = st.one_of(st.integers(0, 2**32 - 2), st.sampled_from([0, 1, 11, GRID, 2**31, 2**32 - 2]))


@given(
    ranges=st.lists(one_range, max_size=60),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    trial=st.integers(0, 2**32 - 1),
)
@example(ranges=[0, 2**32 - 2, 0, 1], seed=0, trial=0)
@settings(max_examples=200, deadline=None)
def test_uniform_draws_are_numpys_scalar_draws(ranges, seed, trial):
    """At seeds of one entropy word and of two, every range in turn is
    numpy's scalar ``integers(0, r, endpoint=True)``."""
    rng = numpy_rng(seed, trial)
    assert _uniform_draws(seed, trial, ranges) == [int(rng.integers(0, r, endpoint=True)) for r in ranges]


# The (family, skew) pairs drawn through numpy: an early or late arrival on
# a family whose slots read the skew.  The other 10 pairs draw in Python.
NUMPY_PAIRS = {(family, skew) for family in ("collab_size", "overlap_slots", "arrival_skew", "selectivity")
               for skew in ("early", "late")}


@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("family", FAMILIES)
def test_draws_with_numpy_only_for_a_skew_its_family_reads(family, skew):
    s = spec(family=family, skew=skew, opt_count=4, trials=3)
    assert draws_with_numpy(s) is ((family, skew) in NUMPY_PAIRS)
    skewed = [draw(s, t) for t in range(3)]
    uniform = [draw(replace(s, skew="uniform"), t) for t in range(3)]
    assert (skewed != uniform) is draws_with_numpy(s)  # only the numpy pairs read the skew


def test_collab_size_supports():
    s = spec(users=24)
    for trial in range(50):
        game = generate(s, trial)
        assert isinstance(game, OnlineAdditiveGame)
        assert len(game.bids) == 24
        for b in game.bids:
            assert b.start == b.end
            assert 1 <= b.start <= 12
            assert 0 <= b.per_slot[0] <= 1
            assert b.per_slot[0].denominator <= GRID and GRID % b.per_slot[0].denominator == 0


def test_duration_spread_splits_value_exactly():
    s = spec(family="duration_spread", duration=4)
    for trial in range(50):
        game = generate(s, trial)
        for b in game.bids:
            assert len(set(b.per_slot)) == 1
            total = b.per_slot[0] * 4
            assert 0 <= total <= 1
            assert total * GRID == int(total * GRID)  # drawn on the 1e-6 grid
            assert b.end == min(b.start + 3, 12)


def test_arrival_skew_early_stats():
    s = spec(family="arrival_skew", skew="early", users=6, trials=1000)
    starts = [b.start for t in range(1000) for b in generate(s, t).bids]
    assert max(starts) <= 12 and min(starts) >= 1
    mean = sum(starts) / len(starts)
    assert 2.0 <= mean <= 2.4  # clamped exponential around 1 + 1.2


def test_arrival_skew_late_stats():
    s = spec(family="arrival_skew", skew="late", users=6, trials=500)
    starts = [b.start for t in range(500) for b in generate(s, t).bids]
    mean = sum(starts) / len(starts)
    assert 10.6 <= mean <= 11.0  # mirrored: 12 - 1.2, clamped


def test_overlap_slots_sweeps_the_horizon():
    for z in (1, 4, 12):
        s = spec(family="overlap_slots", slots=z)
        for trial in range(20):
            game = generate(s, trial)
            assert game.horizon.z == z
            assert all(1 <= b.start == b.end <= z for b in game.bids)


def test_selectivity_substitute_sets():
    s = spec(family="selectivity", opt_count=12, substitutes_per_user=3, cost=F(36, 100))
    for trial in range(50):
        game = generate(s, trial)
        assert isinstance(game, SubstOnlineGame)
        assert len(game.catalog) == 12
        for o in game.catalog:
            assert 0 < o.cost <= 2 * F(36, 100)
        for b in game.bids:
            assert len(b.substitutes) == 3
            assert b.substitutes <= set(range(1, 13))


def test_usecase_shape():
    s = spec(family="usecase_shape", users=6, slots=4, opt_count=5, cost=F("2.31"), executions_per_slot=30)
    game = generate(s, 0)
    assert isinstance(game, AdditiveOnlineMultiGame)
    assert {o.id for o in game.catalog} == set(range(1, 6))
    by_user = {}
    for b in game.bids:
        by_user.setdefault(b.user, set()).add(b.opt)
        assert 1 <= b.start <= b.end <= 4
    assert by_user[1] == {1, 2, 3, 4, 5}  # stride 1: every view
    assert by_user[2] == {1, 3, 5}  # stride 2: headline plus every 2nd view
    assert by_user[3] == {1, 5}  # stride 4
    headline = [b for b in game.bids if b.user == 1 and b.opt == 1][0]
    assert headline.per_slot[0] == F(18 * 30, 100)


def test_trial_bounds_and_validation():
    with pytest.raises(ScenarioError):
        generate(spec(trials=5), 5)
    with pytest.raises(ScenarioError):
        ScenarioSpec(family="bogus")
    with pytest.raises(ScenarioError):
        spec(users=0)
    with pytest.raises(ScenarioError):
        spec(family="selectivity", opt_count=2, substitutes_per_user=3)
    with pytest.raises(ScenarioError):
        spec(cost=F(0))
    with pytest.raises(ScenarioError):
        spec(skew="sideways")
    with pytest.raises(ScenarioError, match="scenario.users: expected an integer"):
        spec(users=6.5)
    with pytest.raises(ScenarioError, match="scenario.trials: expected an integer"):
        spec(trials=True)
    for name, bound in MAX_SIZES.items():
        spec(**{name: bound})  # the bound itself is allowed
        with pytest.raises(ScenarioError, match=f"scenario.{name}: must be <= {bound}"):
            spec(**{name: bound + 1})


def test_round_trip_through_dict():
    s = spec(family="selectivity", opt_count=12, cost=F("0.36"))
    assert ScenarioSpec.from_dict(s.to_dict()) == s
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"family": "collab_size", "bogus_field": 1})
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({})
