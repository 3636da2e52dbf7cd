"""The integer kernels the harness runs against the public mechanisms.

``harness.run_mechanism`` reads utility, balance and implemented straight
from the kernels on one scaled game per trial.  The reference here never
touches that path's arithmetic: it re-costs the game in Fractions
(``scenarios.recost``), runs the public mechanism and scores its trace with
``analysis.score_*``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.additive_online import add_on
from optshare.analysis import score_additive_online, score_regret, score_subst_online
from optshare.core import (
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    GameError,
    OnlineAdditiveGame,
    Optimization,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from optshare.harness import FAMILY_MECHANISMS, ConfigError, run_mechanism
from optshare.regret import regret_run
from optshare.scaled import ScaledGame
from optshare.scenarios import FAMILIES, SKEWS, ScenarioSpec, generate, recost
from optshare.substitutable import subst_on
from optshare.verification import rand_additive_online, rand_subst_online

F = Fraction


def reference(mechanism, game):
    """(utility, balance, implemented) through the public trace and scoring."""
    if mechanism == "regret":
        catalog = (game.optimization,) if isinstance(game, OnlineAdditiveGame) else game.catalog
        trace = regret_run(catalog, game.horizon, game.bids)
        metrics = score_regret(game, trace)
        return metrics.total_utility, metrics.cloud_balance, bool(trace.implement_slot)
    if mechanism == "add_on":
        games = [game] if isinstance(game, OnlineAdditiveGame) else game.per_opt_games()
        metrics = [score_additive_online(g, add_on(g)) for g in games]
        return (
            sum((m.total_utility for m in metrics), F(0)),
            sum((m.cloud_balance for m in metrics), F(0)),
            any(m.total_cost > 0 for m in metrics),
        )
    trace = subst_on(game.catalog, game.horizon, game.bids)
    metrics = score_subst_online(game, trace)
    return metrics.total_utility, metrics.cloud_balance, bool(trace.implemented)


def kernel(mechanism, scaled, point):
    utility, balance, den, implemented = run_mechanism(mechanism, scaled, point)
    return F(utility, den), F(balance, den), implemented


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
@given(data=st.data(), trial=st.integers(0, 3), costs=st.lists(positive_money, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_kernels_match_public_mechanisms_on_every_family(family, data, trial, costs):
    spec = data.draw(specs(family))
    game = generate(spec, trial)
    scaled = ScaledGame(game, [c / spec.cost for c in costs])
    point = data.draw(st.integers(0, len(costs) - 1))
    for mechanism in sorted(FAMILY_MECHANISMS[family]):
        want = reference(mechanism, recost(game, spec, costs[point]))
        assert kernel(mechanism, scaled, point) == want


def recosted(game, factor):
    if isinstance(game, OnlineAdditiveGame):
        opt = game.optimization
        return OnlineAdditiveGame(Optimization(opt.id, opt.cost * factor), game.horizon, game.bids)
    catalog = tuple(Optimization(o.id, o.cost * factor) for o in game.catalog)
    return SubstOnlineGame(catalog, game.horizon, game.bids)


@given(seed=st.integers(0, 2**32), factors=st.lists(positive_money, min_size=1, max_size=3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_match_public_mechanisms_on_arbitrary_rationals(seed, factors, data):
    rng = random.Random(seed)
    point = data.draw(st.integers(0, len(factors) - 1))
    for game, mechanisms in (
        (rand_additive_online(rng, max_users=6, max_slots=5), ("add_on", "regret")),
        (rand_subst_online(rng, max_users=6, max_opts=4, max_slots=5), ("subst_on", "regret")),
    ):
        scaled = ScaledGame(game, factors)
        for mechanism in mechanisms:
            assert kernel(mechanism, scaled, point) == reference(mechanism, recosted(game, factors[point]))


def test_scaled_costs_are_one_multiply_per_point():
    game = SubstOnlineGame(
        (Optimization(1, F(1, 3)), Optimization(2, F(5, 4))),
        SlotHorizon(2),
        (SubstitutableOnlineBid(1, frozenset({1, 2}), 1, 2, (F(1, 7), F(2))),),
    )
    scaled = ScaledGame(game, (F(1), F(2, 5)))
    for point, factor in enumerate((F(1), F(2, 5))):
        for o in game.catalog:
            assert F(scaled.costs[point][o.id], scaled.scale) == o.cost * factor
    assert F(scaled.suffix[0][0], scaled.scale) == F(1, 7) + 2


def test_scaled_game_checks_bids_and_costs():
    opt = Optimization(1, F(1))
    twice = (AdditiveOnlineBid(1, 1, 1, 1, (F(1),)), AdditiveOnlineBid(1, 1, 2, 2, (F(1),)))
    with pytest.raises(GameError, match="duplicate bid for user 1"):
        ScaledGame(OnlineAdditiveGame(opt, SlotHorizon(2), twice))
    # one user may bid on several additive optimizations
    multi = AdditiveOnlineMultiGame(
        (opt, Optimization(2, F(1))),
        SlotHorizon(1),
        (AdditiveOnlineBid(1, 1, 1, 1, (F(1),)), AdditiveOnlineBid(1, 2, 1, 1, (F(1),))),
    )
    assert ScaledGame(multi).interest == [(1,), (2,)]
    with pytest.raises(GameError, match="cost must be positive"):
        ScaledGame(multi, (F(1), F(0)))
    with pytest.raises(ConfigError, match="subst_on cannot run on additive games"):
        run_mechanism("subst_on", ScaledGame(multi))
