"""Property suites: golden traces, cost recovery, truthfulness, identity
splits, degenerations, and oracle dominance.

Each suite returns a list of violations (empty = pass); a violation carries
the serialized offending game so it can be replayed with the CLI.  The same
functions back ``optshare verify`` and the acceptance tests.  The golden
suite reads the paper's worked examples, packaged as game files in
``optshare/examples`` with the lines ``optshare replay`` prints for each.

The random games are drawn in whole cents: values and running totals are
integers, each value is looked up in one table of shared ``Fraction``s
(:data:`CENTS`), and each cost is one ``Fraction`` of integer cents.  Each
``randint`` is drawn straight from the generator's ``getrandbits``
(:func:`randint`), the same numbers from the same draws.
``tests/oracles.py`` keeps the ``Fraction`` generators as the reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .additive_online import add_on, new_session, step_session
from .analysis import (
    MECHANISMS,
    TRUTHFUL_MECHANISMS,
    deviation_search,
    efficient_outcome,
    multi_identity_probe,
    runner,
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
from .gamefiles import game_from_dict, game_json, money_str
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


RECORDED_REPLAYS = "replays.json"  # per example file, per mechanism: the lines replay prints


def examples_dir():
    """The directory of the worked examples, ``optshare/examples``: one game
    file each, and :data:`RECORDED_REPLAYS`."""
    from importlib.resources import files  # only a suite that reads the examples imports it

    return files(__package__) / "examples"


def example_files(examples) -> dict:
    """The game files in ``examples``, by name without ``.json``."""
    return {p.name[:-5]: p for p in examples.iterdir() if p.name.endswith(".json") and p.name != RECORDED_REPLAYS}


def load_example(path):
    """The game in the example file at ``path``."""
    return game_from_dict(json.loads(path.read_text(encoding="utf-8")))


def replay_lines(mechanism: str, game) -> list[str]:
    """What ``optshare replay`` prints for ``mechanism`` on ``game``: each
    user's payment, then the run's total value, total cost, total utility
    and cloud balance.  A ``ValueError`` if ``mechanism`` does not run on
    ``game``."""
    result = runner(mechanism, game)(game, game.bids)
    metrics = score(game, result)
    users = sorted({b.user for b in game.bids})
    return [f"user {u} pays {money_str(result.payments.get(u, ZERO))}" for u in users] + [
        f"total value {money_str(metrics.total_value)}",
        f"total cost {money_str(metrics.total_cost)}",
        f"total utility {money_str(metrics.total_utility)}",
        f"cloud balance {money_str(metrics.cloud_balance)}",
    ]


def suite_golden_examples(examples=None) -> list[Violation]:
    """The paper's worked examples, read from ``examples`` (by default
    :func:`examples_dir`).  Every example file replayed by every mechanism
    of the registry that runs on it prints the lines that
    :data:`RECORDED_REPLAYS` records for that pair, and the table records
    no other pair.  What a replay does not print is checked here, by file
    name."""
    examples = examples_dir() if examples is None else examples
    games = {name: load_example(path) for name, path in example_files(examples).items()}
    recorded = json.loads((examples / RECORDED_REPLAYS).read_text(encoding="utf-8"))
    out: list[Violation] = []

    def check(ok, label, game=None):
        if not ok:
            out.append(Violation("golden_examples", label, game))

    pairs = {(name, m) for name, game in games.items() for m, (kinds, _) in MECHANISMS.items() if isinstance(game, kinds)}
    keys = {(name, m) for name, lines in recorded.items() for m in lines}
    for name, m in sorted(pairs - keys):
        check(False, f"{name}: no recorded replay by {m}", game_json(games[name]))
    for name, m in sorted(keys - pairs):
        check(False, f"{name}: a replay by {m} is recorded, but no such example runs it")
    for name, m in sorted(pairs & keys):
        game = games[name]
        check(replay_lines(m, game) == recorded[name][m], f"{name}: replay by {m} differs from the recorded lines", game_json(game))
    missing = sorted({"staggered_arrivals", "phased_selection", "substitutable_split"} - games.keys())
    if missing:  # the checks below read these files
        return out + [Violation("golden_examples", f"{name}: example file missing") for name in missing]

    # Online additive, staggered arrivals: the early leaver is the only user
    # in the cumulative set at slot 1, the later joiners are in it from slot 2.
    game = games["staggered_arrivals"]
    trace = add_on(game)
    for t, want in ((1, {1}), (2, {1, 2, 3, 4}), (3, {1, 2, 3, 4})):
        check(trace.schedule.cumulative_at(1, t) == want, f"staggered arrivals: cumulative set at slot {t}", game_json(game))

    # Offline substitutable, three optimizations, phased selection.
    game = games["phased_selection"]
    implemented = subst_off(game.catalog, game.bids).outcome.implemented
    check(implemented == {1, 3}, "phased selection: implemented set", game_json(game))

    # Dominant single bidder: alone they cover the cost; split into two
    # identities everyone is serviced at share 1 and their utility jumps to 99.
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
    game = games["substitutable_split"]
    base = score(game, subst_off(game.catalog, game.bids))
    check(
        base.per_user_utility == {1: ZERO, 2: F("0.01"), 3: F("4.5")},
        "substitutable split: baseline utilities",
        game_json(game),
    )
    split = multi_identity_probe("subst_off", game, splitter=1, identities=2, split_levels=(F(1, 2),)).splits[0]
    check(split.splitter_utility == F(1), "substitutable split: splitter utility 1", game_json(game))
    check(split.other_deltas.get(3) == F(2) - F("4.5"), "substitutable split: rival drops 4.5 -> 2", game_json(game))
    check(split.harmed == (3,), "substitutable split: harm detected", game_json(game))
    return out


# ---------------------------------------------------------------------------
# Cost recovery


def suite_cost_recovery(seed: int, games: int) -> list[Violation]:
    out: list[Violation] = []
    rng = random.Random(seed)

    for _ in range(games):
        game = rand_additive_offline(rng)
        result = add_off(game.catalog, game.bids)
        validate_outcome(result.outcome, game.catalog)
        for opt in game.catalog:
            paid = result.ledger.total_for_opt(opt.id)
            if opt.id in result.outcome.implemented:
                if paid != opt.cost:
                    out.append(Violation("cost_recovery", f"additive offline: optimization {opt.id} recovered {paid} != {opt.cost}", game_json(game)))
            elif paid != 0:
                out.append(Violation("cost_recovery", f"additive offline: unimplemented optimization {opt.id} charged {paid}", game_json(game)))
        metrics = score(game, result)
        if metrics.cloud_balance != 0:
            out.append(Violation("cost_recovery", f"additive offline: balance {metrics.cloud_balance} != 0", game_json(game)))

    for _ in range(games):
        game = rand_subst_offline(rng)
        res = subst_off(game.catalog, game.bids)
        validate_outcome(res.outcome, game.catalog)
        for opt in game.catalog:
            paid = res.ledger.total_for_opt(opt.id)
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
        validate_outcome(trace.outcome, game.catalog)
        costs = {o.id: o.cost for o in game.catalog}
        by_opt: dict[int, Fraction] = {}
        for user, opt in trace.outcome.grants:
            by_opt[opt] = by_opt.get(opt, ZERO) + trace.payments[user]
        for opt in trace.outcome.implemented:
            if by_opt.get(opt, ZERO) < costs[opt]:
                out.append(Violation("cost_recovery", f"substitutable online: optimization {opt} recovered {by_opt.get(opt, ZERO)} < {costs[opt]}", game_json(game)))
        balance = sum(trace.payments.values(), ZERO) - sum((costs[j] for j in trace.outcome.implemented), ZERO)
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
    game = load_example(examples_dir() / "substitutable_split.json")
    probe = multi_identity_probe("subst_off", game, 1, 2, (F(1, 2),))
    if probe.splits[0].other_deltas.get(3, ZERO) >= 0:
        message = "substitutable demonstration failed: expected rival harm was not reproduced"
        out.append(Violation("multi_identity", message, game_json(game)))
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
        off = add_off(game.catalog, additive)
        if res.outcome != off.outcome or res.ledger != off.ledger:
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
        payments_off = {b.user: res.ledger.total_for(b.user) for b in game.bids}
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
        mech = score(game, add_off(game.catalog, game.bids)).total_utility
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
