"""Golden digest of the online mechanisms' public traces.

A seeded corpus of random additive and substitutable online games, random
multi-optimization additive games and generated games of every scenario
family runs through ``add_on``, ``subst_on`` and ``regret_run``.  Every
public field of each trace is recorded: the served sets of the schedule
(sorted), payments in dict order, ``add_on``'s share history (each
additive game is recorded one optimization at a time, its shares keyed by
slot alone),
``subst_on``'s grants, grant slots, implemented set and per-slot phases
(with their ties), and the regret baseline's trigger slots, posted prices,
price losses, realized value, cloud balance, total cost and regret series.
The sha256 of those lines was recorded before the three kernels returned
one settlement shape; any change in who is served when, who pays what, or
the order of a dict shows up here.
"""

import hashlib
import random
from fractions import Fraction

from optshare.additive_online import add_on
from optshare.core import (
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    Optimization,
    SlotHorizon,
    SubstOnlineGame,
    SubstitutableOnlineBid,
)
from optshare.regret import regret_run
from optshare.scenarios import FAMILIES, SKEWS, ScenarioSpec, generate
from optshare.substitutable import subst_on
from optshare.verification import rand_additive_online, rand_money, rand_subst_online

from oracles import per_opt_games

F = Fraction
GAMES_PER_KIND = 300
SPECS_PER_FAMILY = 40

GOLDEN_SHA256 = "c4a465f52d14a33699a61dd6b3f4bf85043569ae4d44923445a2cd70fa209aec"


def _served(schedule):
    return [(key, sorted(users)) for key, users in sorted(schedule.served.items())]


def _rand_multi(rng):
    """Additive online bids on up to three optimizations, some users on several."""
    z = rng.randint(1, 4)
    catalog = tuple(Optimization(j, F(rng.randint(10, 300), rng.choice((1, 7, 100)))) for j in (1, 2, 3))
    bids = []
    for u in range(1, rng.randint(1, 5) + 1):
        for j in (1, 2, 3):
            if rng.random() < 0.6:
                s = rng.randint(1, z)
                e = rng.randint(s, z)
                bids.append(AdditiveOnlineBid(u, j, s, e, tuple(rand_money(rng) for _ in range(e - s + 1))))
    return AdditiveOnlineGame(catalog, SlotHorizon(z), tuple(bids))


def _rand_tied_subst(rng):
    """Substitutable online bids of whole values on optimizations of cost 1 or
    2, so that phases tie."""
    z, n = rng.randint(1, 4), rng.randint(2, 4)
    catalog = tuple(Optimization(j, F(rng.randint(1, 2))) for j in range(1, n + 1))
    bids = []
    for u in range(1, rng.randint(1, 6) + 1):
        s = rng.randint(1, z)
        e = rng.randint(s, z)
        subs = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        bids.append(SubstitutableOnlineBid(u, subs, s, e, tuple(F(rng.randint(0, 2)) for _ in range(e - s + 1))))
    return SubstOnlineGame(catalog, SlotHorizon(z), tuple(bids))


def _rand_spec(rng, family):
    slots = rng.randint(1, 6)
    opt_count = rng.randint(1, 5)
    return ScenarioSpec(
        family=family,
        users=rng.randint(1, 8),
        slots=slots,
        opt_count=opt_count,
        cost=F(rng.randint(1, 3000), rng.choice((1000, 7000))),
        substitutes_per_user=rng.randint(1, opt_count),
        duration=rng.randint(1, slots),
        skew=rng.choice(SKEWS),
        seed=rng.randrange(2**32),
        trials=2,
        executions_per_slot=rng.randint(1, 30),
    )


def add_on_lines(game):
    """``add_on``'s trace of a one-optimization game, each share keyed by
    its slot alone, as the digest was recorded."""
    trace = add_on(game)
    shares = [(t, share) for (_, t), share in trace.share_history.items()]
    return [
        f"add_on served {_served(trace.schedule)}",
        f"add_on payments {list(trace.payments.items())!r}",
        f"add_on shares {shares!r}",
    ]


def subst_on_lines(game):
    trace = subst_on(game.catalog, game.horizon, game.bids)
    phases = {
        t: [(p.opt, sorted(p.serviced), p.share, p.tied_with) for p in slot]
        for t, slot in trace.slot_phases.items()
    }
    return [
        f"subst_on served {_served(trace.schedule)}",
        f"subst_on payments {list(trace.payments.items())!r}",
        f"subst_on granted {list(trace.granted.items())!r} at {list(trace.grant_slot.items())!r}",
        f"subst_on implemented {sorted(trace.implemented)}",
        f"subst_on phases {list(phases.items())!r}",
    ]


def regret_lines(game):
    trace = regret_run(game.catalog, game.horizon, game.bids)
    return [
        f"regret triggers {list(trace.implement_slot.items())!r}",
        f"regret prices {list(trace.posted_price.items())!r} losses {list(trace.price_loss.items())!r}",
        f"regret served {_served(trace.serviced)}",
        f"regret payments {list(trace.payments.items())!r}",
        f"regret totals {trace.realized_value!r} {trace.cloud_balance!r} {trace.total_cost!r}",
        f"regret series {list(trace.regret_series.items())!r}",
    ]


def trace_lines():
    rng = random.Random("online-traces")
    lines = []
    for _ in range(GAMES_PER_KIND):
        game = rand_additive_online(rng, max_users=6, max_slots=5)
        lines += add_on_lines(game) + regret_lines(game)
    for _ in range(GAMES_PER_KIND):
        game = rand_subst_online(rng, max_users=6, max_opts=4, max_slots=5)
        lines += subst_on_lines(game) + regret_lines(game)
    for _ in range(GAMES_PER_KIND):
        game = _rand_tied_subst(rng)
        lines += subst_on_lines(game) + regret_lines(game)
    for _ in range(GAMES_PER_KIND):
        game = _rand_multi(rng)
        lines += regret_lines(game)
        for single in per_opt_games(game):
            lines += add_on_lines(single)
    for family in FAMILIES:
        for _ in range(SPECS_PER_FAMILY):
            spec = _rand_spec(rng, family)
            for trial in range(spec.trials):
                game = generate(spec, trial)
                lines.append(f"{family} {spec.to_dict()} trial {trial}")
                if isinstance(game, AdditiveOnlineGame):
                    for single in per_opt_games(game):
                        lines += add_on_lines(single)
                else:
                    lines += subst_on_lines(game)
                lines += regret_lines(game)
    return lines


def test_traces_match_recorded_digest():
    digest = hashlib.sha256("\n".join(trace_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
