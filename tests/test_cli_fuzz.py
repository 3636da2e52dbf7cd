"""The CLI on mutated copies of the shipped game and config files.

Each example drops keys or list items from a shipped JSON file, or replaces
them with values of another type, huge or negative numbers, text that is
not money, or a path where a file name belongs, then runs ``optshare
replay`` or ``optshare run`` on the result.  A game is replayed with a
mechanism that can replay the shipped file.  The exit-code contract holds
for every input: 0 for a run, 2 for input the program rejects, never 1 (a
property violation) and never an exception; and a run writes nothing
outside its ``--out`` directory.
Configs are cut to one trial and two cost points before they are mutated,
so that a run that is accepted stays small.  A config with just one field
replaced (at up to 20 trials and 5 cost points) must also name that field
when it is rejected, and one with a key added where no such key belongs
must be rejected naming the key.

Valid games near the loader's bounds are replayed too: up to the most bids
and slots a game file may hold, over long pairwise coprime denominators
whose lcm lands on either side of the bound on a game's common scale.
"""

import contextlib
import copy
import io
import json
import math
import os
import random
import re
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from optshare.analysis import MECHANISMS
from optshare.cli import main
from optshare.core import GameError
from optshare.gamefiles import KINDS, MAX_BIDS, load_game
from optshare.scenarios import MAX_SIZES

from oracles import CONFIG_DIR, EXAMPLE_GAMES as GAMES

CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

# Replacement values by kind; a mutation draws the kind first.
REPLACEMENTS = (
    (None, True, False, 1.5, "abc", [], {}, [1], {"a": 1}),  # another type
    (10**20, 2**64, 10**400, 1e308, float("inf")),  # huge
    (0, -1, -(10**20), -0.5, float("-inf")),  # zero or negative
    ("", "1/0", "-3", "1/-2", "1e999", "1e-999", "0x10", "nan", "inf", "9" * 500),  # not money, or out of bounds
    ("../escaped", "sub/escaped", "..", ".", "..\\escaped", "x\0y"),  # a path, not a file name
)


def small(config: dict) -> dict:
    """``config`` at one trial and its first two cost points."""
    config = copy.deepcopy(config)
    config["scenario"]["trials"] = 1
    config["cost_sweep"] = config["cost_sweep"][:2]
    return config


def mutated(data, doc):
    """``doc`` after one to three mutations drawn from ``data``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    return doc


def mutate(data, node):
    """``node`` replaced, or with one child dropped or mutated in turn, so
    that a mutation lands near the top of the document as often as deep in
    it."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []
    if not keys or data.draw(st.integers(0, 3)) == 0:
        return copy.deepcopy(data.draw(st.sampled_from(data.draw(st.sampled_from(REPLACEMENTS)))))
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.integers(0, 3)) == 0:
        del node[key]
    else:
        node[key] = mutate(data, node[key])
    return node


def run_cli(doc, argv) -> tuple[int, str]:
    """Exit code and stderr of ``optshare`` on ``doc`` written to a file,
    whose path replaces ``{file}`` in ``argv``; ``{dir}`` names a scratch
    directory beside it, outside which nothing may be written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.dict(os.environ, {"OPTSHARE_WORKERS": "1"}):
                rc = main([a.format(file=path, dir=os.path.join(tmp, "out")) for a in argv])
        assert set(os.listdir(tmp)) <= {"input.json", "out"}
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return rc, err.getvalue()


def replaying(path) -> list[str]:
    """The mechanisms that can replay the game file at ``path``."""
    kind = type(load_game(path))
    return [name for name, (kinds, _) in MECHANISMS.items() if kind in kinds]


def test_the_unmutated_files_run():
    assert len(GAMES) >= 2 and len(CONFIGS) >= 7
    for path in GAMES:
        for mechanism in replaying(path):
            assert run_cli(json.loads(path.read_text()), ["replay", "--game", "{file}", "--mechanism", mechanism])[0] == 0
    for path in CONFIGS:
        assert run_cli(small(json.loads(path.read_text())), ["run", "--config", "{file}", "--out", "{dir}"])[0] == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_replay_of_a_mutated_game_exits_0_or_2(path, data):
    mechanism = data.draw(st.sampled_from(replaying(path)))
    doc = mutated(data, json.loads(path.read_text()))
    assert run_cli(doc, ["replay", "--game", "{file}", "--mechanism", mechanism])[0] in (0, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_run_of_a_mutated_config_exits_0_or_2(path, data):
    doc = mutated(data, small(json.loads(path.read_text())))
    assert run_cli(doc, ["run", "--config", "{file}", "--out", "{dir}"])[0] in (0, 2)


# One bad value per example, by kind: another type, a number out of range, a
# huge number as text, nested JSON.
BAD_VALUES = (
    (None, True, 1.5, "abc", [], {}),
    (0, -1, -(10**20), 10**7, 2**64, 10**400),
    ("9" * 500, "1e999", "1" + "0" * 400, str(10**30)),
    ({"a": [1, {"b": []}]}, [[[]]], [{"x": 1}], [1, [2, [3]]]),
)


def fields(config: dict) -> list[tuple[str, object, object]]:
    """Every field of ``config`` as (path, container, key), the path as an
    error names it: ``output``, ``scenario.users``, ``cost_sweep[2]``."""
    out = []
    for key, value in config.items():
        out.append((key, config, key))
        if isinstance(value, dict):
            out += [(f"{key}.{k}", value, k) for k in value]
        elif isinstance(value, list):
            out += [(f"{key}[{i}]", value, i) for i in range(len(value))]
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_run_of_a_config_with_one_bad_field_exits_0_or_2_naming_it(path, data):
    """A shipped config at up to 20 trials and 5 cost points, with one field
    replaced: exit 0, or exit 2 with an error that names the field, a field
    inside it, or the list holding it."""
    config = json.loads(path.read_text())
    config["scenario"]["trials"] = min(config["scenario"]["trials"], 20)
    config["cost_sweep"] = config["cost_sweep"][:5]
    field, container, key = data.draw(st.sampled_from(fields(config)))
    container[key] = copy.deepcopy(data.draw(st.sampled_from(data.draw(st.sampled_from(BAD_VALUES)))))
    rc, err = run_cli(config, ["run", "--config", "{file}", "--out", "{dir}"])
    assert rc in (0, 2)
    if rc == 2:
        names = [field] + ([field[: field.index("[")]] if "[" in field else [])
        assert any(re.match(rf"config error: {re.escape(name)}[:.[]", err) for name in names), (field, err)


# Keys that no config object holds: near misses of real keys, and others.
UNKNOWN_KEYS = st.one_of(
    st.sampled_from(("cost_swep", "detials", "mechanism", "outputs", "user", "seeds", "stpe", "Schema", "")),
    st.text(min_size=1, max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_run_of_a_config_with_an_unknown_key_exits_2_naming_it(path, data):
    """A shipped config, its cost points as a list or a range, with one key
    added to the config, its scenario or its cost range: exit 2 with an
    error that names the key by its path."""
    config = small(json.loads(path.read_text()))
    if data.draw(st.booleans()):
        config["cost_sweep"] = {"start": config["cost_sweep"][0], "stop": config["cost_sweep"][0], "step": "1"}
    containers = [("", config), ("scenario.", config["scenario"])]
    if isinstance(config["cost_sweep"], dict):
        containers.append(("cost_sweep.", config["cost_sweep"]))
    prefix, container = data.draw(st.sampled_from(containers))
    key = data.draw(UNKNOWN_KEYS.filter(lambda k: k not in container))  # a shipped config holds every key
    container[key] = data.draw(st.sampled_from(BAD_VALUES[0] + ("1",)))
    rc, err = run_cli(config, ["run", "--config", "{file}", "--out", "{dir}"])
    assert (rc, err) == (2, f"config error: {prefix}{key}: unknown key\n")


# Denominators k * COPRIME_BASE * 10**digits + 1 for k = 1..60 are pairwise
# coprime: a common divisor of two of them divides their difference of k,
# and every prime up to 60 divides COPRIME_BASE.  At the most digits drawn
# below, a value over one of them still fits a money field's 400 characters.
COPRIME_BASE = math.factorial(60)


def extreme_game(kind, bids, slots, opts, coprime, digits, long_share, seed) -> dict:
    """A valid game file of ``kind``: ``bids`` bids (each its own user) on
    ``opts`` optimizations over ``slots`` slots (one if offline), drawn from
    ``seed``.  A share ``long_share`` of its money fields lies over one of
    ``coprime`` long pairwise coprime denominators; 2% are ``1e-100`` or
    ``1e100``; the rest are whole.  Online windows hold at most 10^4
    per-slot values between them, so a window spans every slot only when
    bids are few."""
    rng = random.Random(seed)

    def money(positive: bool) -> str:
        r = rng.random()
        if r < long_share and coprime:
            return f"{rng.randint(1, 10**6)}/{rng.randint(1, coprime) * COPRIME_BASE * 10**digits + 1}"
        if r < long_share + 0.02:
            return rng.choice(("1e-100", "1e100"))
        return str(rng.randint(1 if positive else 0, 200))

    online = kind.endswith("online")
    slots = slots if online else 1
    window = max(1, min(slots, 10_000 // bids))
    game = {"schema": 1, "kind": kind, "slots": slots, "bids": [],
            "catalog": [{"id": j, "cost": money(True)} for j in range(1, opts + 1)]}
    for user in range(1, bids + 1):
        bid = {"user": user}
        if online:
            length = rng.randint(1, window)
            start = rng.randint(1, slots - length + 1)
            bid.update(start=start, end=start + length - 1, per_slot=[money(False) for _ in range(length)])
        if kind == "additive_offline":
            bid["values"] = {str(j): money(False) for j in rng.sample(range(1, opts + 1), rng.randint(1, opts))}
        elif kind == "additive_online":
            bid["opt"] = rng.randint(1, opts)
        else:
            bid["substitutes"] = rng.sample(range(1, opts + 1), rng.randint(1, min(opts, 3)))
            if kind == "substitutable_offline":
                bid["value"] = money(True)
        game["bids"].append(bid)
    return game


def at_or_under(bound: int):
    return st.one_of(st.just(bound), st.integers(1, bound))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(KINDS),
    at_or_under(MAX_BIDS),
    at_or_under(MAX_SIZES["slots"]),
    st.integers(1, 12),
    st.integers(0, 12),
    st.integers(0, 300),
    st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_replay_of_an_extreme_valid_game_exits_0_or_2(kind, bids, slots, opts, coprime, digits, long_share, seed):
    game = extreme_game(kind, bids, slots, opts, coprime, digits, long_share, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(game, fh)
        try:
            mechanisms = replaying(path)
        except GameError as exc:  # its common scale passes the bound: every replay refuses it
            assert "the game's common scale" in str(exc)
            mechanisms = []
    for mechanism in mechanisms or MECHANISMS:
        assert run_cli(game, ["replay", "--game", "{file}", "--mechanism", mechanism])[0] == (0 if mechanisms else 2)
