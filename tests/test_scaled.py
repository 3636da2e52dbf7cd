"""The integer kernels the harness runs against the public mechanisms.

``harness.run_mechanism`` settles every cost point of one scaled game per
trial and reads utility, balance and implemented straight from the
kernels, as one run per settle step, which ``scaled.point_rows`` expands
to one row per point.  The reference here never touches that path's
arithmetic: at each cost point it re-costs the game in Fractions
(``oracles.recost``), runs the public mechanism and scores its trace with
``analysis.score``.

The harness shares work across the points by one walk up their costs
(``scaled.settle_points``), covering every point within the ceilings of the
last settlement.  On additive games that rests on one premise, checked here
too: as the cost rises, no bid's ``serve`` join slot and no optimization's
``trigger`` slot moves earlier.  The tests here check that each point the
walk fills settles as a fresh run there, and that every settler, the
additive regret's bisections too, hands each point the cell row of the
per-point reference (``oracles.each_point``).
"""

import random
from dataclasses import replace
from functools import partial
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from optshare.additive_online import add_on, serve
from optshare.analysis import score
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
)
from optshare.harness import FAMILY_MECHANISMS, ConfigError, run_mechanism
from optshare import regret
from optshare.regret import regret_run, trigger
from optshare.scaled import Factors, ScaledGame, kernel_step, point_rows, settle_points
from optshare.scenarios import FAMILIES, SKEWS, ScaledTrials, ScenarioSpec, generate
from optshare.substitutable import grant, subst_on
from optshare.verification import (
    _rand_naive_game,
    rand_additive_offline,
    rand_additive_online,
    rand_subst_offline,
    rand_subst_online,
)
from oracles import each_point, per_opt_games, recost, reference_scaled_game
from test_traces import _rand_multi as rand_additive_multi, _rand_tied_subst

F = Fraction


def reference(mechanism, game):
    """(utility, balance, implemented) through the public trace and scoring."""
    if mechanism == "regret":
        trace = regret_run(game.catalog, game.horizon, game.bids)
        metrics = score(game, trace)
        return metrics.total_utility, metrics.cloud_balance, bool(trace.implement_slot)
    if mechanism == "add_on":
        metrics = [score(g, add_on(g)) for g in per_opt_games(game)]
        return (
            sum((m.total_utility for m in metrics), F(0)),
            sum((m.cloud_balance for m in metrics), F(0)),
            any(m.total_cost > 0 for m in metrics),
        )
    trace = subst_on(game.catalog, game.horizon, game.bids)
    metrics = score(game, trace)
    return metrics.total_utility, metrics.cloud_balance, bool(trace.outcome.implemented)


def rows(mechanism, scaled):
    """``run_mechanism``'s runs on ``scaled``, expanded to one cell row per
    cost point, in point order."""
    return point_rows(run_mechanism(mechanism, scaled), scaled.units, by_cost(scaled))


def kernel(mechanism, scaled):
    """(utility, balance, implemented) of every cost point, in point order."""
    return [(F(u, den), F(b, den), implemented) for u, b, den, implemented in rows(mechanism, scaled)]


positive_money = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**4))


@st.composite
def cost_points(draw, max_size):
    """Costs in drawn order, some of them repeated."""
    costs = draw(st.lists(positive_money, min_size=1, max_size=max_size))
    return draw(st.permutations(costs + draw(st.lists(st.sampled_from(costs), max_size=2))))


ADDITIVE_FAMILIES = [f for f in FAMILIES if "subst_on" not in FAMILY_MECHANISMS[f]]


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
@given(data=st.data(), trial=st.integers(0, 3), costs=cost_points(max_size=4))
@settings(max_examples=60, deadline=None)
def test_kernels_match_public_mechanisms_on_every_family(family, data, trial, costs):
    spec = data.draw(specs(family))
    game = generate(spec, trial)
    scaled = ScaledGame(game, [c / spec.cost for c in costs])
    for mechanism in sorted(FAMILY_MECHANISMS[family]):
        want = [reference(mechanism, recost(game, spec, cost)) for cost in costs]
        assert kernel(mechanism, scaled) == want


def test_kernels_match_public_mechanisms_at_25_shuffled_points_of_usecase_shape():
    spec = ScenarioSpec(
        family="usecase_shape", users=6, slots=4, opt_count=5, cost=F("0.5"), executions_per_slot=2, seed=9, trials=6
    )
    costs = [F(k, 20) for k in range(1, 24)] + [F(3, 20), F(11, 20)]
    random.Random(25).shuffle(costs)
    for trial in range(spec.trials):
        game = generate(spec, trial)
        assert len(game.catalog) == 5
        scaled = ScaledGame(game, [c / spec.cost for c in costs])
        for mechanism in ("add_on", "regret"):
            assert kernel(mechanism, scaled) == [reference(mechanism, recost(game, spec, c)) for c in costs]


def assert_same_bids(game, direct, factors):
    """``direct`` holds ``game``'s bids and costs at ``factors``, over its own scale."""
    scale = direct.scale
    assert direct.z == game.horizon.z
    assert list(direct.users) == [b.user for b in game.bids]
    assert list(direct.starts) == [b.start for b in game.bids]
    assert list(direct.ends) == [b.end for b in game.bids]
    assert list(direct.interest) == [(b.opt,) if direct.additive else b.substitutes for b in game.bids]
    for b, suffix in zip(game.bids, direct.suffix, strict=True):
        assert [F(suffix[k] - suffix[k + 1], scale) for k in range(len(b.per_slot))] == list(b.per_slot)
        assert suffix[-1] == 0
    for costs, factor in zip(direct.costs, factors, strict=True):
        assert [(j, F(c, scale)) for j, c in costs.items()] == [(o.id, o.cost * factor) for o in game.catalog]


@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data(), costs=cost_points(max_size=5))
@settings(max_examples=20, deadline=None)
def test_direct_rows_settle_as_the_fraction_path(family, skew, data, costs):
    spec = replace(data.draw(specs(family)), skew=skew, trials=10)
    factors = [c / spec.cost for c in costs]
    trials = ScaledTrials(spec, Factors(factors))
    for trial in range(spec.trials):
        game = generate(spec, trial)
        direct, reference = trials.game(trial), ScaledGame(game, factors)
        assert direct.additive == reference.additive
        assert_same_bids(game, direct, factors)
        assert [[i for _, i in slot] for slot in direct.offers] == [[i for _, i in slot] for slot in reference.offers]
        for mechanism in sorted(FAMILY_MECHANISMS[family]):
            assert kernel(mechanism, direct) == kernel(mechanism, reference)


def recosted(game, factor):
    catalog = tuple(Optimization(o.id, o.cost * factor) for o in game.catalog)
    return type(game)(catalog, game.horizon, game.bids)


@given(seed=st.integers(0, 2**32), factors=cost_points(max_size=3))
@settings(max_examples=150, deadline=None)
def test_kernels_match_public_mechanisms_on_arbitrary_rationals(seed, factors):
    rng = random.Random(seed)
    for game, mechanisms in (
        (rand_additive_online(rng, max_users=6, max_slots=5), ("add_on", "regret")),
        (rand_additive_multi(rng), ("add_on", "regret")),
        (rand_subst_online(rng, max_users=6, max_opts=4, max_slots=5), ("subst_on", "regret")),
    ):
        scaled = ScaledGame(game, factors)
        for mechanism in mechanisms:
            assert kernel(mechanism, scaled) == [reference(mechanism, recosted(game, f)) for f in factors]


def by_cost(scaled):
    """The points of ``scaled`` by rising cost."""
    return sorted(range(len(scaled.units)), key=scaled.units.__getitem__)


def counted_serve_points(scaled):
    """``settle_points`` of ``serve``'s step over every point of ``scaled``,
    and the costs of each ``serve`` run it made, in run order."""
    runs = []

    def counting_serve(game, costs):
        runs.append(costs)
        return serve(game, costs)

    order = by_cost(scaled)
    return point_rows(settle_points(partial(kernel_step, counting_serve), scaled, order), scaled.units, order), runs


def test_serve_runs_once_for_points_with_one_outcome():
    bids = (AdditiveOnlineBid(1, 1, 1, 2, (F(30), F(1))), AdditiveOnlineBid(2, 1, 2, 3, (F(20), F(5))))
    game = AdditiveOnlineGame((Optimization(1, F(1)),), SlotHorizon(3), bids)
    factors = [F(k, 5) for k in range(25, 0, -1)]  # dearest first: the sweep sorts them
    scaled = ScaledGame(game, factors)
    # both bids join at every point: bid 1 in slot 1 and bid 2 in slot 2, up
    # to a ceiling of min(31 * 1, 25 * 2) = 31
    assert serve(scaled, scaled.costs[-1])[2] == {1: 31 * scaled.scale}
    assert counted_serve_points(scaled)[1] == [scaled.costs[-1]]  # the cheapest point only
    assert kernel("add_on", scaled) == [reference("add_on", recosted(game, f)) for f in factors]
    # 40 is past the ceiling, and nothing joins from there on: 60 is filled
    factors = [F(60), F(1), F(40)]
    scaled = ScaledGame(game, factors)
    assert counted_serve_points(scaled)[1] == [scaled.costs[1], scaled.costs[2]]
    assert kernel("add_on", scaled) == [reference("add_on", recosted(game, f)) for f in factors]


def outcome(run):
    """The joins of a ``serve`` run: each served bid's optimization and join
    slot."""
    return tuple(sorted((i, j, first) for i, (j, first, *_) in run[0].items()))


clustered_factors = st.lists(st.integers(1, 60).map(lambda k: F(k, 20)) | positive_money, min_size=1, max_size=25)


@given(seed=st.integers(0, 2**32), factors=clustered_factors)
@settings(max_examples=300, deadline=None)
def test_serve_runs_once_per_distinct_outcome(seed, factors):
    rng = random.Random(seed)
    for game in (rand_additive_online(rng, max_users=7, max_slots=6), rand_additive_multi(rng)):
        scaled = ScaledGame(game, factors)
        settled, runs = counted_serve_points(scaled)
        assert settled == each_point(serve, scaled)
        assert len(runs) == len({outcome(serve(scaled, costs)) for costs in scaled.costs})


def walked(kernel, scaled):
    """``settle_points`` of ``kernel``'s step over every point of ``scaled``,
    and per point the point whose run settled it: itself if the kernel ran
    there."""
    ran = []

    def recording(game, costs):
        ran.append(next(p for p, c in enumerate(game.costs) if c is costs))
        return kernel(game, costs)

    order = by_cost(scaled)
    settled = settle_points(partial(kernel_step, recording), scaled, order)
    assert [order[run[0]] for run in settled] == ran  # each run starts at the point it settled
    settled = point_rows(settled, scaled.units, order)
    filler = {}
    for p in order:
        if ran and ran[0] == p:
            last = ran.pop(0)
        filler[p] = last
    return settled, filler


def runs(filler):
    """The points where the kernel ran."""
    return sorted(set(filler.values()))


def test_grant_runs_once_for_points_with_one_outcome():
    bids = (
        SubstitutableOnlineBid(1, frozenset({1, 2}), 1, 1, (F(10),)),
        SubstitutableOnlineBid(2, frozenset({1, 2}), 1, 1, (F(6),)),
        SubstitutableOnlineBid(3, frozenset({2}), 2, 2, (F(9),)),
    )
    game = SubstOnlineGame((Optimization(1, F(1)), Optimization(2, F(2))), SlotHorizon(2), bids)
    factors = [F(k) for k in (20, 13, 12, 7, 6, 4, 3, 1)]  # dearest first: the sweep sorts them
    scaled = ScaledGame(game, factors)
    # Slot 1 grants 1 to both bids while 6 * 2 covers its cost, up to 12.  2
    # keeps both only up to a factor of 6, but its share is never the lower,
    # so it sets no ceiling.  Slot 2 grants 2 to bid 3 while 9 covers its
    # cost 2 * factor, up to 4.
    assert grant(scaled, scaled.costs[-1])[2] == {1: 12 * scaled.scale, 2: 9 * scaled.scale}
    # one run through 4, one past slot 2's ceiling through 12, and one past
    # slot 1's, where nothing is granted at any dearer point
    assert runs(walked(grant, scaled)[1]) == [factors.index(F(13)), factors.index(F(6)), factors.index(F(1))]
    assert kernel("subst_on", scaled) == [reference("subst_on", recosted(game, f)) for f in factors]


def test_trigger_runs_once_for_points_where_its_price_does_not_recover_the_cost():
    bids = (
        SubstitutableOnlineBid(1, frozenset({1}), 1, 1, (F(10),)),
        SubstitutableOnlineBid(2, frozenset({1}), 3, 3, (F(2),)),
    )
    game = SubstOnlineGame((Optimization(1, F(1)),), SlotHorizon(3), bids)
    factors = [F(k) for k in (11, 10, 8, 5, 3, 2, 1)]
    scaled = ScaledGame(game, factors)
    # 1 triggers in slot 2 up to a cost of 10, its regret there.  Bid 2, the
    # only buyer, pays the cost up to 2, its revenue; dearer, the price stays
    # 2 and no longer recovers the cost, and the settlement holds up to 10.
    assert trigger(scaled, scaled.costs[-1])[2] == {1: 2 * scaled.scale}
    at_3 = trigger(scaled, scaled.costs[factors.index(F(3))])
    assert at_3[0][1] == (1, 3, 3, 2 * scaled.scale, 1)  # bid 2 pays 2 of the cost 3
    ran = [factors.index(F(11)), factors.index(F(3)), factors.index(F(1))]
    assert runs(walked(trigger, scaled)[1]) == ran
    assert kernel("regret", scaled) == [reference("regret", recosted(game, f)) for f in factors]


def subst_online_games(rng, data):
    """A random, a tied and a ``selectivity`` substitutable online game."""
    selectivity = generate(data.draw(specs("selectivity")), data.draw(st.integers(0, 3)))
    return rand_subst_online(rng, max_users=7, max_opts=4, max_slots=6), _rand_tied_subst(rng), selectivity


@given(seed=st.integers(0, 2**32), data=st.data(), factors=clustered_factors)
@settings(max_examples=200, deadline=None)
def test_substitutable_walk_settles_every_point_as_a_run_there(seed, data, factors):
    for game in subst_online_games(random.Random(seed), data):
        scaled = ScaledGame(game, factors)
        for mechanism, run in (("subst_on", grant), ("regret", trigger)):
            assert rows(mechanism, scaled) == each_point(run, scaled)


@given(seed=st.integers(0, 2**32), data=st.data(), factors=clustered_factors)
@settings(max_examples=200, deadline=None)
def test_additive_walk_settles_every_point_as_a_run_there(seed, data, factors):
    rng = random.Random(seed)
    family = data.draw(st.sampled_from(ADDITIVE_FAMILIES))
    scenario = generate(data.draw(specs(family)), data.draw(st.integers(0, 3)))
    for game in (rand_additive_online(rng, max_users=7, max_slots=6), rand_additive_multi(rng), scenario):
        scaled = ScaledGame(game, factors)
        for mechanism, run in (("add_on", serve), ("regret", trigger)):
            assert rows(mechanism, scaled) == each_point(run, scaled)


def test_additive_regret_settles_once_per_trigger_slot_and_buyer_count(monkeypatch):
    bids = (
        AdditiveOnlineBid(1, 1, 1, 1, (F(10),)),
        AdditiveOnlineBid(2, 1, 2, 2, (F(5),)),
        AdditiveOnlineBid(3, 1, 3, 3, (F(2),)),
        AdditiveOnlineBid(4, 1, 3, 3, (F(3),)),
    )
    game = AdditiveOnlineGame((Optimization(1, F(1)),), SlotHorizon(3), bids)
    factors = [F(k) for k in (16, 15, 11, 10, 5, 4, 1)]  # dearest first: the sweep sorts them
    scaled = ScaledGame(game, factors)
    # Up to a cost of 10, the regret before slot 2, 1 triggers there, bids 3
    # and 4 buy, and their price recovers the cost up to 4, their revenue
    # 2 * 2; dearer, it stays 2 each.  Up to 15 it triggers in slot 3 with
    # no buyer, and dearer never.
    at = {f: trigger(scaled, scaled.costs[factors.index(f)]) for f in (F(1), F(5), F(11), F(16))}
    assert [at[f][2] for f in at] == [{1: 4 * scaled.scale}, {1: 10 * scaled.scale}, {1: 15 * scaled.scale}, {}]
    assert at[F(1)][0][3] == (1, 3, 3, scaled.scale, 2)  # half the cost each
    assert at[F(5)][0][3] == (1, 3, 3, 2 * scaled.scale, 1)
    priced = []

    def counting(cost, curve):
        priced.append(cost)
        return posted_price(cost, curve)

    posted_price = regret._posted_price
    monkeypatch.setattr(regret, "_posted_price", counting)
    settled = rows("regret", scaled)
    # settled at 1, 5 (one unit past the revenue) and 11 (past the regret),
    # and at 16 with nothing triggered; 4, 10 and 15 are filled
    assert priced == [scaled.costs[factors.index(f)][1] for f in (F(1), F(5), F(11))]
    assert settled == each_point(trigger, scaled)
    assert kernel("regret", scaled) == [reference("regret", recosted(game, f)) for f in factors]


def assert_same_up_to_charges(run, fresh, costs, dearer):
    """``fresh``, at ``dearer``, serves the bids ``run`` serves at ``costs``
    the same optimizations in the same slots, charged over the same
    denominators: a charge that is its optimization's cost in ``run`` is
    its cost in ``fresh``, and any other charge is the same."""
    assert fresh[1] == run[1]
    assert fresh[0].keys() == run[0].keys()
    for i, (j, first, last, num, den) in run[0].items():
        assert fresh[0][i] == (j, first, last, dearer[j] if num == costs[j] else num, den)


@given(seed=st.integers(0, 2**32), data=st.data(), factors=clustered_factors)
@settings(max_examples=200, deadline=None)
def test_a_point_the_walk_fills_settles_as_its_run_up_to_the_charges(seed, data, factors):
    for game in subst_online_games(random.Random(seed), data):
        scaled = ScaledGame(game, factors)
        costs, units = scaled.costs, scaled.units
        for run in (grant, trigger):
            _, filler = walked(run, scaled)
            for p in runs(filler):
                at_p = run(scaled, costs[p])
                base = {j: c // units[p] for j, c in costs[p].items()}
                points = [costs[q] for q, by in filler.items() if by == p and q != p]
                if at_p[2]:  # and the dearest costs within the ceilings
                    top = min(c // base[j] for j, c in at_p[2].items())
                    points.append({j: b * top for j, b in base.items()})
                for dearer in points:
                    assert_same_up_to_charges(at_p, run(scaled, dearer), costs[p], dearer)


@given(seed=st.integers(0, 2**32), pinned=st.integers(0, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_serve_ceiling_is_the_dearest_cost_with_the_same_joins(seed, pinned, data):
    rng = random.Random(seed)
    for game in (rand_additive_online(rng, max_users=7, max_slots=6), rand_additive_multi(rng)):
        scaled = ScaledGame(game)
        costs = scaled.costs[0]
        ceilings = serve(scaled, costs, pinned)[2]

        def joins(j, cost):
            return {i: first for i, (_, first, *_) in serve(scaled, {**costs, j: cost}, pinned)[0].items()}

        for j, cost in costs.items():
            at_cost = joins(j, cost)
            if j not in ceilings:  # no bid joins j, nor at any dearer cost
                assert all(opt != j for opt, *_ in serve(scaled, costs, pinned)[0].values())
                assert joins(j, cost + 1) == joins(j, 2 * cost) == at_cost
                continue
            ceiling = ceilings[j]
            assert ceiling >= cost
            if ceiling > cost:
                for dearer in {cost + 1, data.draw(st.integers(cost + 1, ceiling)), ceiling}:
                    assert joins(j, dearer) == at_cost
            assert joins(j, ceiling + 1) != at_cost


def joins_and_triggers(scaled, point, pinned=0):
    """Each served bid's join slot and each implemented optimization's
    trigger slot at one cost point."""
    served, _, _ = serve(scaled, scaled.costs[point], pinned)
    _, triggered, _ = trigger(scaled, scaled.costs[point])
    return {i: first for i, (_, first, *_) in served.items()}, triggered


def assert_never_earlier(scaled, pinned=0):
    order = sorted(range(len(scaled.units)), key=scaled.units.__getitem__)
    for cheaper, dearer in zip(order, order[1:]):
        joins_lo, triggers_lo = joins_and_triggers(scaled, cheaper, pinned)
        joins_hi, triggers_hi = joins_and_triggers(scaled, dearer, pinned)
        for i, t in joins_hi.items():
            assert i in joins_lo and joins_lo[i] <= t  # a bid left out stays out
        for j, t in triggers_hi.items():
            assert j in triggers_lo and triggers_lo[j] <= t


@given(seed=st.integers(0, 2**32), factors=st.lists(positive_money, min_size=2, max_size=6), pinned=st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_join_and_trigger_slots_never_move_earlier_as_cost_rises(seed, factors, pinned):
    rng = random.Random(seed)
    assert_never_earlier(ScaledGame(rand_additive_online(rng, max_users=7, max_slots=6), factors), pinned)
    assert_never_earlier(ScaledGame(rand_additive_multi(rng), factors))


@pytest.mark.parametrize("family", ADDITIVE_FAMILIES)
@given(data=st.data(), trial=st.integers(0, 3), costs=st.lists(positive_money, min_size=2, max_size=8))
@settings(max_examples=150, deadline=None)
def test_join_and_trigger_slots_never_move_earlier_on_scenario_games(family, data, trial, costs):
    spec = data.draw(specs(family))
    assert_never_earlier(ScaledGame(generate(spec, trial), [c / spec.cost for c in costs]))


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
        ScaledGame(AdditiveOnlineGame((opt,), SlotHorizon(2), twice))
    # one user may bid on several additive optimizations
    multi = AdditiveOnlineGame(
        (opt, Optimization(2, F(1))),
        SlotHorizon(1),
        (AdditiveOnlineBid(1, 1, 1, 1, (F(1),)), AdditiveOnlineBid(1, 2, 1, 1, (F(1),))),
    )
    assert ScaledGame(multi).interest == [(1,), (2,)]
    with pytest.raises(GameError, match="cost must be positive"):
        ScaledGame(multi, (F(1), F(0)))
    with pytest.raises(ConfigError, match="subst_on cannot run on additive games"):
        run_mechanism("subst_on", ScaledGame(multi))


def lowered(game, factors):
    """``ScaledGame(game, factors)`` and ``reference_scaled_game``'s, as
    field dicts, or the text of the ``GameError`` each raised."""
    out = []
    for build in (ScaledGame, reference_scaled_game):
        try:
            out.append(vars(build(game, *factors)))
        except GameError as exc:
            out.append(f"GameError: {exc}")
    return out


@given(seed=st.integers(0, 2**32), factors=st.just(()) | st.lists(positive_money, min_size=1, max_size=3).map(lambda f: (f,)))
@settings(max_examples=200, deadline=None)
def test_lowering_equals_the_reference_on_suite_games(seed, factors):
    rng = random.Random(seed)
    games = (
        rand_additive_offline(rng),
        rand_additive_offline(rng, max_users=4, max_opts=2),
        _rand_naive_game(rng),
        rand_subst_offline(rng),
        rand_additive_online(rng),
        rand_additive_multi(rng),
        rand_subst_online(rng),
    )
    for game in games:
        got, want = lowered(game, factors)
        assert isinstance(got, dict) and got == want


# values with zeros and several denominators
lowering_values = st.builds(F, st.integers(0, 30), st.sampled_from((1, 2, 3, 7, 100)))


@st.composite
def lowering_games(draw):
    """A game of any of the four kinds, whose additive online users may bid
    on several optimizations and whose bids may repeat a user."""
    kind = draw(st.sampled_from((AdditiveOfflineGame, AdditiveOnlineGame, SubstOfflineGame, SubstOnlineGame)))
    ids = list(range(1, draw(st.integers(1, 3)) + 1))
    catalog = tuple(Optimization(j, draw(positive_money)) for j in ids)
    z = draw(st.integers(1, 4))
    subsets = st.frozensets(st.sampled_from(ids), min_size=1)
    bids = []
    for u in range(1, draw(st.integers(0, 5)) + 1):
        if kind is AdditiveOfflineGame:
            bids.append(AdditiveOfflineBid(u, draw(st.dictionaries(st.sampled_from(ids), lowering_values))))
        elif kind is SubstOfflineGame:
            bids.append(SubstitutableOfflineBid(u, draw(subsets), draw(lowering_values.filter(bool))))
        else:
            for opt in sorted(draw(subsets)) if kind is AdditiveOnlineGame else (None,):
                s = draw(st.integers(1, z))
                e = draw(st.integers(s, z))
                row = tuple(draw(lowering_values) for _ in range(e - s + 1))
                if opt is None:
                    bids.append(SubstitutableOnlineBid(u, draw(subsets), s, e, row))
                else:
                    bids.append(AdditiveOnlineBid(u, opt, s, e, row))
    if bids and kind is not AdditiveOfflineGame and draw(st.booleans()):  # its constructor refuses a repeated user
        bids.insert(draw(st.integers(0, len(bids))), draw(st.sampled_from(bids)))
    if kind in (AdditiveOfflineGame, SubstOfflineGame):
        return kind(catalog, tuple(bids))
    return kind(catalog, SlotHorizon(z), tuple(bids))


@given(game=lowering_games(), factors=st.just(()) | st.lists(positive_money, min_size=1, max_size=3).map(lambda f: (f,)))
@settings(max_examples=400, deadline=None)
def test_lowering_equals_the_reference_field_by_field_and_error_by_error(game, factors):
    got, want = lowered(game, factors)
    assert got == want


def test_lowering_names_the_first_repeated_bid_as_the_reference_does():
    opt1, opt2 = Optimization(1, F(1)), Optimization(2, F(3, 2))
    online = (
        AdditiveOnlineBid(1, 1, 1, 1, (F(1),)),
        AdditiveOnlineBid(1, 2, 1, 1, (F(0),)),
        AdditiveOnlineBid(2, 2, 1, 2, (F(1), F(1, 3))),
        AdditiveOnlineBid(2, 2, 2, 2, (F(1),)),
        AdditiveOnlineBid(1, 1, 2, 2, (F(1),)),
    )
    game = AdditiveOnlineGame((opt1, opt2), SlotHorizon(2), online)
    assert lowered(game, ()) == ["GameError: duplicate bid for user 2, optimization 2"] * 2
    subst = SubstOfflineGame((opt1, opt2), tuple(SubstitutableOfflineBid(u, frozenset({1}), F(1)) for u in (3, 1, 3)))
    assert lowered(subst, ()) == ["GameError: one bid per user per game"] * 2
    assert lowered(subst, ([F(1), F(0)],)) == ["GameError: optimization cost must be positive"] * 2
