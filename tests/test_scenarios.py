from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.core import AdditiveOnlineMultiGame, OnlineAdditiveGame, SubstOnlineGame
from optshare.scenarios import FAMILIES, GRID, MAX_SIZES, SKEWS, ScenarioError, ScenarioSpec, generate, recost

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
