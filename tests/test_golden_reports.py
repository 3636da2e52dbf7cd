"""Golden digest of the strategy lab's and the scorer's reports.

A seeded corpus covers the four game kinds the truthfulness suite draws
(additive and substitutable, offline and online), the multi-optimization
additive online kind the regret baseline runs on, and the pay-your-bid
control games.  For each game it records the ``repr`` of every
``deviation_search`` report, every ``multi_identity_probe`` report and the
``score`` metrics of each mechanism that runs on it (the regret baseline
included on the online kinds, and a run scored against other true values).
The sha256 of those lines was recorded from the per-result-type scorers,
searches and probes; any change in a utility, a payment, a best deviation
or the order of a dict shows up here.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

from optshare.additive_online import add_on
from optshare.analysis import deviation_search, multi_identity_probe, score
from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    Optimization,
    SlotHorizon,
    SubstitutableOfflineBid,
)
from optshare.regret import regret_run
from optshare.shapley import add_off
from optshare.substitutable import subst_off, subst_on
from optshare.verification import (
    _rand_naive_game,
    rand_additive_offline,
    rand_additive_online,
    rand_money,
    rand_subst_offline,
    rand_subst_online,
)

from oracles import naive_pay_your_bid

F = Fraction
GAMES_PER_KIND = 12
LEVELS = (F(0), F(1, 2), F(1), F(2))

GOLDEN_SHA256 = "0bc3510b16ce2cdf36305e7024c391dac1edb3800b271edc1c40f92c3b38401e"


def _halved(bid):
    """The same bid with every value halved: a true value below the bid."""
    if isinstance(bid, AdditiveOfflineBid):
        return replace(bid, values={j: v / 2 for j, v in bid.values.items()})
    if isinstance(bid, SubstitutableOfflineBid):
        return replace(bid, value=bid.value / 2)
    return replace(bid, per_slot=tuple(v / 2 for v in bid.per_slot))


def _rand_multi(rng):
    z = rng.randint(1, 3)
    catalog = tuple(Optimization(j, F(rng.randint(10, 300), 100)) for j in (1, 2))
    bids = []
    for u in range(1, rng.randint(1, 4) + 1):
        for j in (1, 2):
            if rng.random() < 0.7:
                s = rng.randint(1, z)
                e = rng.randint(s, z)
                bids.append(AdditiveOnlineBid(u, j, s, e, tuple(rand_money(rng) for _ in range(e - s + 1))))
    return AdditiveOnlineGame(catalog, SlotHorizon(z), tuple(bids))


def report_lines():
    rng = random.Random("golden-reports")
    lines = []

    def reports(mechanisms, game, results):
        users = sorted({b.user for b in game.bids})
        truth = {b.user: _halved(b) for b in game.bids}
        for name, result in results:
            lines.append(f"score {name} {score(game, result)!r}")
            lines.append(f"score {name} halved {score(game, result, truth)!r}")
        for mechanism in mechanisms:
            for user in users:
                lines.append(repr(deviation_search(mechanism, game, user)))
            if mechanism != "naive_pay_bid":
                lines.append(repr(multi_identity_probe(mechanism, game, users[0], 2, LEVELS)))

    for _ in range(GAMES_PER_KIND):
        game = rand_additive_offline(rng, max_users=4, max_opts=3)
        results = [("add_off", add_off(game.catalog, game.bids)), ("naive", naive_pay_your_bid(game.catalog, game.bids))]
        reports(("add_off", "shapley", "naive_pay_bid"), game, results)
    for _ in range(GAMES_PER_KIND):
        game = rand_subst_offline(rng, max_users=4, max_opts=3)
        reports(("subst_off",), game, [("subst_off", subst_off(game.catalog, game.bids))])
    for _ in range(GAMES_PER_KIND):
        game = rand_additive_online(rng, max_users=4, max_slots=3)
        results = [("add_on", add_on(game)), ("regret", regret_run(game.catalog, game.horizon, game.bids))]
        reports(("add_on",), game, results)
    for _ in range(GAMES_PER_KIND):
        game = rand_subst_online(rng, max_users=4, max_opts=3, max_slots=3)
        results = [
            ("subst_on", subst_on(game.catalog, game.horizon, game.bids)),
            ("regret", regret_run(game.catalog, game.horizon, game.bids)),
        ]
        reports(("subst_on",), game, results)
    for _ in range(GAMES_PER_KIND):
        game = _rand_multi(rng)
        if game.bids:
            reports((), game, [("regret", regret_run(game.catalog, game.horizon, game.bids))])
    for _ in range(GAMES_PER_KIND):
        game = _rand_naive_game(rng)
        reports(("naive_pay_bid",), game, [("naive", naive_pay_your_bid(game.catalog, game.bids))])
    return lines


def test_reports_match_recorded_digest():
    digest = hashlib.sha256("\n".join(report_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
