"""Property suites: golden traces, cost recovery, truthfulness, identity
splits, degenerations, and oracle dominance.

Each suite returns a list of violations (empty = pass); a violation carries
the serialized offending game so it can be replayed with the CLI.  The same
functions back ``optshare verify`` and the acceptance tests.

The random games are drawn in whole cents: values and running totals are
integers, each value is looked up in one table of shared ``Fraction``s
(:data:`CENTS`), and each cost is one ``Fraction`` of integer cents.  Each
``randint`` is drawn straight from the generator's ``getrandbits``
(:func:`randint`), the same numbers from the same draws.
``tests/oracles.py`` keeps the ``Fraction`` generators as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .additive_online import add_on, new_session, step_session
from .analysis import (
    TRUTHFUL_MECHANISMS,
    deviation_search,
    efficient_outcome,
    multi_identity_probe,
    score,
)
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    validate_outcome,
)
from .gamefiles import game_json
from .money import ZERO
from .shapley import add_off, shapley
from .substitutable import subst_off, subst_on

F = Fraction

SUITES = (
    "golden_examples",
    "cost_recovery",
    "truthfulness",
    "multi_identity",
    "degeneration",
    "oracle_dominance",
)

DEFAULT_GAMES = {
    "cost_recovery": 10_000,
    "truthfulness": 250,  # per mechanism
    "multi_identity": 400,  # per mechanism
    "degeneration": 1_000,  # per degeneration pair
    "oracle_dominance": 1_000,
}
MAX_GAMES = 100_000  # ten times the largest default


@dataclass
class Violation:
    suite: str
    message: str
    game: str | None = None  # serialized game for replay


def run_suite(name: str, seed: int = 0, games: int | None = None, mechanism: str | None = None) -> list[Violation]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (have {', '.join(SUITES)})")
    if mechanism is not None and name != "truthfulness":
        raise ValueError(f"mechanism: only the truthfulness suite takes one, not {name} (got {mechanism!r})")
    if games is not None and games < 1:
        raise ValueError(f"games: must be >= 1 (got {games})")
    if games is not None and games > MAX_GAMES:
        raise ValueError(f"games: must be <= {MAX_GAMES} (got {games})")
    runner = globals()[f"suite_{name}"]
    if name == "golden_examples":
        if games is not None:
            raise ValueError(f"games: the golden_examples suite checks its fixed examples and takes no count (got {games})")
        return runner()
    games = DEFAULT_GAMES[name] if games is None else games
    if name == "truthfulness":
        return runner(seed, games, mechanism)
    return runner(seed, games)


# ---------------------------------------------------------------------------
# Random small games (stdlib PRNG: cheap, seeded, platform-stable)


CENTS = tuple(F(k, 100) for k in range(201))  # every amount a generator draws, shared


def randint(rng, a: int, b: int) -> int:
    """``rng.randint(a, b)`` of a ``random.Random``, for ``a <= b``: the same
    number from the same draws, so ``rng`` is left in the same state.
    CPython draws ``randint`` as ``a + _randbelow(b - a + 1)``, which takes
    ``k`` bits, ``k`` the bit length of the width, and draws again while
    they are not below the width (``Random._randbelow_with_getrandbits``);
    this runs that loop on ``rng.getrandbits`` without ``randint``'s and
    ``randrange``'s own calls and checks."""
    width = b - a + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return a + r


def rand_money(rng, lo=0, hi=200):
    cents = randint(rng, lo, hi)
    return CENTS[cents] if 0 <= cents <= 200 else F(cents, 100)


def _rand_row(rng, slots: int) -> tuple[tuple[Fraction, ...], int]:
    """``slots`` drawn per-slot values, and their sum in cents."""
    cents = [randint(rng, 0, 200) for _ in range(slots)]
    return tuple([CENTS[c] for c in cents]), sum(cents)


def _cost_near(rng, total_cents: int, n: int = 1, lo_pct=5, hi_pct=130):
    """``total_cents / (100 n)`` times a drawn percentage, or drawn cents
    when that is 0."""
    pct = randint(rng, lo_pct, hi_pct)
    return F(total_cents * pct, 10000 * n) if total_cents else CENTS[randint(rng, 1, 100)]


def rand_additive_offline(rng, max_users=5, max_opts=3, hi_pct=130) -> AdditiveOfflineGame:
    m, n = randint(rng, 1, max_users), randint(rng, 1, max_opts)
    bids = []
    columns = [0] * (n + 1)  # cents per optimization
    for u in range(1, m + 1):
        cents = {j: randint(rng, 0, 200) for j in range(1, n + 1) if rng.random() < 0.85}
        for j, c in cents.items():
            columns[j] += c
        bids.append(AdditiveOfflineBid(u, {j: CENTS[c] for j, c in cents.items()}))
    catalog = tuple(Optimization(j, _cost_near(rng, columns[j], hi_pct=hi_pct)) for j in range(1, n + 1))
    return AdditiveOfflineGame(catalog, tuple(bids))


def rand_additive_online(rng, max_users=5, max_slots=4) -> AdditiveOnlineGame:
    m, z = randint(rng, 1, max_users), randint(rng, 1, max_slots)
    bids = []
    total = 0
    for u in range(1, m + 1):
        s = randint(rng, 1, z)
        e = randint(rng, s, z)
        row, cents = _rand_row(rng, e - s + 1)
        total += cents
        bids.append(AdditiveOnlineBid(u, 1, s, e, row))
    return AdditiveOnlineGame((Optimization(1, _cost_near(rng, total)),), SlotHorizon(z), tuple(bids))


def rand_subst_offline(rng, max_users=5, max_opts=3) -> SubstOfflineGame:
    m, n = randint(rng, 1, max_users), randint(rng, 1, max_opts)
    bids = []
    total = 0
    for u in range(1, m + 1):
        k = randint(rng, 1, n)
        subs = frozenset(rng.sample(range(1, n + 1), k))
        cents = randint(rng, 1, 200)
        total += cents
        bids.append(SubstitutableOfflineBid(u, subs, CENTS[cents]))
    catalog = tuple(Optimization(j, _cost_near(rng, total, n)) for j in range(1, n + 1))
    return SubstOfflineGame(catalog, tuple(bids))


def rand_subst_online(rng, max_users=5, max_opts=3, max_slots=4) -> SubstOnlineGame:
    m, n, z = randint(rng, 1, max_users), randint(rng, 1, max_opts), randint(rng, 1, max_slots)
    bids = []
    total = 0
    for u in range(1, m + 1):
        k = randint(rng, 1, n)
        subs = frozenset(rng.sample(range(1, n + 1), k))
        s = randint(rng, 1, z)
        e = randint(rng, s, z)
        row, cents = _rand_row(rng, e - s + 1)
        total += cents
        bids.append(SubstitutableOnlineBid(u, subs, s, e, row))
    catalog = tuple(Optimization(j, _cost_near(rng, total, n)) for j in range(1, n + 1))
    return SubstOnlineGame(catalog, SlotHorizon(z), tuple(bids))


# ---------------------------------------------------------------------------
# Golden traces


# A substitutable identity split that harms a rival (utility 4.5 -> 2).
SUBST_SPLIT_GAME = SubstOfflineGame(
    (Optimization(1, F(6)), Optimization(2, F(5))),
    (
        SubstitutableOfflineBid(1, frozenset({1}), F(5)),
        SubstitutableOfflineBid(2, frozenset({1, 2}), F("2.51")),
        SubstitutableOfflineBid(3, frozenset({2}), F(7)),
    ),
)


def suite_golden_examples() -> list[Violation]:
    out: list[Violation] = []

    def check(ok, label, game=None):
        if not ok:
            out.append(Violation("golden_examples", label, game))

    # Online additive, staggered arrivals: early leaver pays the whole cost,
    # later joiners split the lowered share.
    game = AdditiveOnlineGame(
        (Optimization(1, F(100)),),
        SlotHorizon(3),
        (
            AdditiveOnlineBid(1, 1, 1, 1, (F(101),)),
            AdditiveOnlineBid(2, 1, 1, 3, (F(16), F(16), F(16))),
            AdditiveOnlineBid(3, 1, 2, 2, (F(26),)),
            AdditiveOnlineBid(4, 1, 2, 2, (F(26),)),
        ),
    )
    trace = add_on(game)
    check(trace.payments == {1: F(100), 2: F(25), 3: F(25), 4: F(25)}, "staggered arrivals: payments", game_json(game))
    check(trace.schedule.cumulative_at(1, 1) == {1}, "staggered arrivals: cumulative set at slot 1", game_json(game))
    for t in (2, 3):
        check(
            trace.schedule.cumulative_at(1, t) == {1, 2, 3, 4},
            f"staggered arrivals: cumulative set at slot {t}",
            game_json(game),
        )

    # Offline substitutable, three optimizations, phased selection.
    game6 = SubstOfflineGame(
        (Optimization(1, F(60)), Optimization(2, F(180)), Optimization(3, F(100))),
        (
            SubstitutableOfflineBid(1, frozenset({1, 2}), F(100)),
            SubstitutableOfflineBid(2, frozenset({3}), F(101)),
            SubstitutableOfflineBid(3, frozenset({1, 2, 3}), F(60)),
            SubstitutableOfflineBid(4, frozenset({2}), F(70)),
        ),
    )
    res = subst_off(game6.catalog, game6.bids)
    check(res.outcome.implemented == {1, 3}, "phased selection: implemented set", game_json(game6))
    want = {1: F(30), 2: F(100), 3: F(30), 4: F(0)}
    check(
        {u: res.payments.total_for(u) for u in (1, 2, 3, 4)} == want,
        "phased selection: payments",
        game_json(game6),
    )

    # Online substitutable: no switching; a departed user keeps lowering the
    # share of the optimization she was granted.
    cat8 = (Optimization(1, F(60)), Optimization(2, F(100)), Optimization(3, F(50)))
    game8 = SubstOnlineGame(
        cat8,
        SlotHorizon(3),
        (
            SubstitutableOnlineBid(1, frozenset({1, 2}), 1, 2, (F(100), F(100))),
            SubstitutableOnlineBid(2, frozenset({1, 2, 3}), 2, 3, (F(100), F(100))),
            SubstitutableOnlineBid(3, frozenset({3}), 3, 3, (F(100),)),
        ),
    )
    t8 = subst_on(cat8, SlotHorizon(3), game8.bids)
    check(t8.payments == {1: F(30), 2: F(30), 3: F(50)}, "online substitutable: payments", game_json(game8))
    game8v = SubstOnlineGame(
        cat8,
        SlotHorizon(3),
        game8.bids + (SubstitutableOnlineBid(4, frozenset({3}), 3, 3, (F(100),)),),
    )
    t8v = subst_on(cat8, SlotHorizon(3), game8v.bids)
    check(
        {u: t8v.payments[u] for u in (2, 3, 4)} == {2: F(30), 3: F(25), 4: F(25)},
        "online substitutable variant: payments",
        game_json(game8v),
    )

    # Dominant single bidder: alone she covers the cost; split into two
    # identities everyone is serviced at share 1 and her utility jumps to 99.
    alice_bids = {0: F(101), **{i: F(1) for i in range(1, 100)}}
    r = shapley(F(101), alice_bids)
    check(r.serviced == {0} and r.share == F(101), "dominant bidder: serviced alone at full cost")
    galice = AdditiveOfflineGame(
        (Optimization(1, F(101)),),
        tuple(AdditiveOfflineBid(u, {1: v}) for u, v in alice_bids.items()),
    )
    probe = multi_identity_probe("add_off", galice, splitter=0, identities=2, split_levels=(F(1),))
    split = probe.splits[0]
    check(probe.baseline_utility == ZERO, "dominant bidder: truthful utility 0", game_json(galice))
    check(split.splitter_utility == F(99), "dominant bidder: split utility 99", game_json(galice))
    check(not split.harmed, "dominant bidder: split harms nobody", game_json(galice))
    r2 = shapley(F(101), {**alice_bids, 100: F(101)})
    check(
        len(r2.serviced) == 101 and r2.share == F(1),
        "dominant bidder: split services all 101 users at share 1",
        game_json(galice),
    )

    # Substitutable identity split can harm a rival: utility 4.5 -> 2.
    game62 = SUBST_SPLIT_GAME
    base = score(game62, subst_off(game62.catalog, game62.bids))
    check(
        base.per_user_utility == {1: ZERO, 2: F("0.01"), 3: F("4.5")},
        "substitutable split: baseline utilities",
        game_json(game62),
    )
    probe62 = multi_identity_probe("subst_off", game62, splitter=1, identities=2, split_levels=(F(1, 2),))
    s62 = probe62.splits[0]
    check(s62.splitter_utility == F(1), "substitutable split: splitter utility 1", game_json(game62))
    check(s62.other_deltas.get(3) == F(2) - F("4.5"), "substitutable split: rival drops 4.5 -> 2", game_json(game62))
    check(s62.harmed == (3,), "substitutable split: harm detected", game_json(game62))
    return out


# ---------------------------------------------------------------------------
# Cost recovery


def suite_cost_recovery(seed: int, games: int) -> list[Violation]:
    out: list[Violation] = []
    rng = random.Random(seed)

    for _ in range(games):
        game = rand_additive_offline(rng)
        outcome, ledger = add_off(game.catalog, game.bids)
        validate_outcome(outcome, game.catalog)
        for opt in game.catalog:
            paid = ledger.total_for_opt(opt.id)
            if opt.id in outcome.implemented:
                if paid != opt.cost:
                    out.append(Violation("cost_recovery", f"additive offline: optimization {opt.id} recovered {paid} != {opt.cost}", game_json(game)))
            elif paid != 0:
                out.append(Violation("cost_recovery", f"additive offline: unimplemented optimization {opt.id} charged {paid}", game_json(game)))
        metrics = score(game, (outcome, ledger))
        if metrics.cloud_balance != 0:
            out.append(Violation("cost_recovery", f"additive offline: balance {metrics.cloud_balance} != 0", game_json(game)))

    for _ in range(games):
        game = rand_subst_offline(rng)
        res = subst_off(game.catalog, game.bids)
        validate_outcome(res.outcome, game.catalog)
        for opt in game.catalog:
            paid = res.payments.total_for_opt(opt.id)
            want = opt.cost if opt.id in res.outcome.implemented else ZERO
            if paid != want:
                out.append(Violation("cost_recovery", f"substitutable offline: optimization {opt.id} recovered {paid} != {want}", game_json(game)))
        granted_users = [u for u, _ in res.outcome.grants]
        if len(granted_users) != len(set(granted_users)):
            out.append(Violation("cost_recovery", "substitutable offline: user granted twice", game_json(game)))

    for _ in range(games):
        game = rand_additive_online(rng)
        trace = add_on(game)
        (opt,) = game.catalog
        cs = trace.schedule.cumulative_at(opt.id, game.horizon.z)
        paid = sum(trace.payments.values(), ZERO)
        if cs:
            if paid < opt.cost:
                out.append(Violation("cost_recovery", f"additive online: recovered {paid} < cost {opt.cost}", game_json(game)))
        elif paid != 0:
            out.append(Violation("cost_recovery", f"additive online: charged {paid} with nobody serviced", game_json(game)))
        prev: frozenset = frozenset()
        for t in game.horizon.slots():
            cur = trace.schedule.cumulative_at(opt.id, t)
            if not prev <= cur:
                out.append(Violation("cost_recovery", "additive online: cumulative set shrank", game_json(game)))
            prev = cur

    for _ in range(games):
        game = rand_subst_online(rng)
        trace = subst_on(game.catalog, game.horizon, game.bids)
        validate_outcome(trace.outcome(), game.catalog)
        costs = {o.id: o.cost for o in game.catalog}
        by_opt: dict[int, Fraction] = {}
        for user, opt in trace.granted.items():
            by_opt[opt] = by_opt.get(opt, ZERO) + trace.payments[user]
        for opt in trace.implemented:
            if by_opt.get(opt, ZERO) < costs[opt]:
                out.append(Violation("cost_recovery", f"substitutable online: optimization {opt} recovered {by_opt.get(opt, ZERO)} < {costs[opt]}", game_json(game)))
        balance = sum(trace.payments.values(), ZERO) - sum((costs[j] for j in trace.implemented), ZERO)
        if balance < 0:
            out.append(Violation("cost_recovery", f"substitutable online: negative balance {balance}", game_json(game)))
    return out


# ---------------------------------------------------------------------------
# Truthfulness


def _small_game(mechanism: str, rng):
    if mechanism in ("add_off", "shapley", "naive_pay_bid"):
        return rand_additive_offline(rng, max_users=4, max_opts=3)
    if mechanism == "add_on":
        return rand_additive_online(rng, max_users=4, max_slots=3)
    if mechanism == "subst_off":
        return rand_subst_offline(rng, max_users=4, max_opts=3)
    return rand_subst_online(rng, max_users=4, max_opts=3, max_slots=3)


def suite_truthfulness(seed: int, games: int, mechanism: str | None = None) -> list[Violation]:
    """Grid deviation search; a profitable deviation in any of the four
    mechanisms is a violation.  With mechanism="naive_pay_bid" the subject is
    the pay-your-bid control, whose profitable underbids are reported (so the
    run fails, as it should)."""
    out: list[Violation] = []
    subjects = (mechanism,) if mechanism else TRUTHFUL_MECHANISMS
    for subject in subjects:
        rng = random.Random((seed, subject).__repr__())
        for _ in range(games):
            game = _small_game(subject, rng)
            for bid in game.bids:
                report = deviation_search(subject, game, bid.user)
                if report.profitable:
                    out.append(
                        Violation(
                            "truthfulness",
                            f"{subject}: user {bid.user} profits by deviating ({report.best_deviation}): "
                            f"{report.truthful_utility} -> {report.best_utility}",
                            game_json(game),
                        )
                    )
    if mechanism is None:
        out.extend(_naive_control(seed, games))
    return out


def _naive_control(seed: int, games: int) -> list[Violation]:
    """Positive control: the gameable mechanism must be caught essentially
    always (games are drawn so an implementable underbid always exists)."""
    rng = random.Random((seed, "naive").__repr__())
    out = []
    caught = 0
    for _ in range(games):
        game = _rand_naive_game(rng)
        if any(deviation_search("naive_pay_bid", game, b.user).profitable for b in game.bids):
            caught += 1
    if caught < games * 0.99:
        out.append(
            Violation(
                "truthfulness",
                f"positive control: pay-your-bid caught in only {caught}/{games} games",
            )
        )
    return out


def _rand_naive_game(rng) -> AdditiveOfflineGame:
    cents = [randint(rng, 1, 200) for _ in range(randint(rng, 2, 4))]
    bids = [AdditiveOfflineBid(u, {1: CENTS[c]}) for u, c in enumerate(cents, 1)]
    cost = F(sum(cents) * randint(rng, 10, 80), 10000)
    return AdditiveOfflineGame((Optimization(1, cost),), tuple(bids))


# ---------------------------------------------------------------------------
# Multiple identities


def suite_multi_identity(seed: int, games: int) -> list[Violation]:
    """Identity splits in the additive mechanisms: a split that raises the
    splitter's utility and harms another user is a violation.  A split
    scales all of the splitter's values by one level per identity, on
    every optimization at once, and that joint split is a real
    counterexample to the claim as checked: at seed 2 with 6 games, user 2
    halved gains on optimization 1 by dropping optimization 2 below its
    equal share, which user 1 loses (``tests/test_analysis.py`` pins the
    game; on either optimization alone no split both gains and harms).
    The substitutable split is a demonstration, not a pass property."""
    out: list[Violation] = []
    rng = random.Random(seed)
    levels = (ZERO, F(1, 2), F(1), F(3, 2), F(2))
    draws = (
        ("add_off", lambda: rand_additive_offline(rng, max_users=4, max_opts=2)),
        ("add_on", lambda: rand_additive_online(rng, max_users=4, max_slots=3)),
    )
    for mechanism, draw in draws:
        for _ in range(games):
            game = draw()
            splitter = rng.choice(game.bids).user
            for s in multi_identity_probe(mechanism, game, splitter, 2, levels).beneficial_harmful:
                message = f"{mechanism}: split {s.levels} of user {splitter} gains and harms {s.harmed}"
                out.append(Violation("multi_identity", message, game_json(game)))
    # Demonstration (not a pass property): a substitutable split that harms.
    probe = multi_identity_probe("subst_off", SUBST_SPLIT_GAME, 1, 2, (F(1, 2),))
    if probe.splits[0].other_deltas.get(3, ZERO) >= 0:
        message = "substitutable demonstration failed: expected rival harm was not reproduced"
        out.append(Violation("multi_identity", message, game_json(SUBST_SPLIT_GAME)))
    return out


# ---------------------------------------------------------------------------
# Degenerations


def suite_degeneration(seed: int, games: int) -> list[Violation]:
    out: list[Violation] = []
    rng = random.Random(seed)

    # One-slot online additive == one equal-share run on the same bids.
    for _ in range(games):
        game = rand_additive_online(rng, max_users=5, max_slots=1)
        trace = add_on(game)
        (opt,) = game.catalog
        ref = shapley(opt.cost, {b.user: b.per_slot[0] for b in game.bids})
        if trace.payments != ref.payments:
            out.append(Violation("degeneration", "one-slot online additive != offline equal share", game_json(game)))
        if trace.schedule.serviced_at(opt.id, 1) != ref.serviced:
            out.append(Violation("degeneration", "one-slot online additive serviced set mismatch", game_json(game)))

    # Singleton substitute sets partitioned by optimization == additive offline.
    for _ in range(games):
        game = rand_subst_offline(rng, max_users=5, max_opts=3)
        singleton_bids = tuple(
            SubstitutableOfflineBid(b.user, frozenset({min(b.substitutes)}), b.value) for b in game.bids
        )
        res = subst_off(game.catalog, singleton_bids)
        additive = tuple(AdditiveOfflineBid(b.user, {min(b.substitutes): b.value}) for b in game.bids)
        outcome, ledger = add_off(game.catalog, additive)
        if res.outcome != outcome or res.payments.entries != ledger.entries:
            out.append(Violation("degeneration", "singleton-partition substitutable != additive offline", game_json(game)))

    # One-slot online substitutable == offline substitutable.
    for _ in range(games):
        game = rand_subst_online(rng, max_users=5, max_opts=3, max_slots=1)
        trace = subst_on(game.catalog, game.horizon, game.bids)
        offline_bids = tuple(
            SubstitutableOfflineBid(b.user, b.substitutes, b.per_slot[0])
            for b in game.bids
            if b.per_slot[0] > 0
        )
        res = subst_off(game.catalog, offline_bids)
        payments_off = {b.user: res.payments.total_for(b.user) for b in game.bids}
        if trace.payments != payments_off:
            out.append(Violation("degeneration", "one-slot online substitutable != offline", game_json(game)))

    # Slot-by-slot session feed == whole-game run (bids fed at their start).
    for _ in range(games):
        game = rand_additive_online(rng, max_users=5, max_slots=4)
        state = new_session(game.catalog[0], game.horizon)
        for t in game.horizon.slots():
            arrivals = [b for b in game.bids if b.start == t]
            _, _, state = step_session(state, t, arrivals)
        batch = add_on(game)
        session = state.trace()
        if session.payments != batch.payments or session.schedule.served != batch.schedule.served:
            out.append(Violation("degeneration", "session replay != whole-game run", game_json(game)))
    return out


# ---------------------------------------------------------------------------
# Oracle dominance


def suite_oracle_dominance(seed: int, games: int) -> list[Violation]:
    out: list[Violation] = []
    rng = random.Random(seed)
    for _ in range(games):
        game = rand_additive_offline(rng, max_users=4, max_opts=3)
        outcome, ledger = add_off(game.catalog, game.bids)
        mech = score(game, (outcome, ledger)).total_utility
        _, best = efficient_outcome(game.catalog, game.bids)
        if best < mech:
            out.append(Violation("oracle_dominance", f"additive offline: oracle {best} < mechanism {mech}", game_json(game)))
    for _ in range(games):
        game = rand_subst_offline(rng, max_users=4, max_opts=3)
        res = subst_off(game.catalog, game.bids)
        mech = score(game, res).total_utility
        _, best = efficient_outcome(game.catalog, game.bids)
        if best < mech:
            out.append(Violation("oracle_dominance", f"substitutable offline: oracle {best} < mechanism {mech}", game_json(game)))
    return out
