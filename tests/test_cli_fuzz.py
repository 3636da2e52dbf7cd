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
so that a run that is accepted stays small.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from optshare.analysis import MECHANISMS
from optshare.cli import main
from optshare.gamefiles import load_game

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GAMES = sorted(SCRIPTS.glob("games/*.json"))
CONFIGS = sorted(SCRIPTS.glob("configs/*.json"))

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


def run_cli(doc, argv) -> int:
    """Exit code of ``optshare`` on ``doc`` written to a file, whose path
    replaces ``{file}`` in ``argv``; ``{dir}`` names a scratch directory
    beside it, outside which nothing may be written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with mock.patch.dict(os.environ, {"OPTSHARE_WORKERS": "1"}):
                rc = main([a.format(file=path, dir=os.path.join(tmp, "out")) for a in argv])
        assert set(os.listdir(tmp)) <= {"input.json", "out"}
    assert "Traceback" not in out.getvalue()
    return rc


def replaying(path) -> list[str]:
    """The mechanisms that can replay the game file at ``path``."""
    kind = type(load_game(path))
    return [name for name, (kinds, _) in MECHANISMS.items() if kind in kinds]


def test_the_unmutated_files_run():
    assert len(GAMES) >= 2 and len(CONFIGS) >= 7
    for path in GAMES:
        for mechanism in replaying(path):
            assert run_cli(json.loads(path.read_text()), ["replay", "--game", "{file}", "--mechanism", mechanism]) == 0
    for path in CONFIGS:
        assert run_cli(small(json.loads(path.read_text())), ["run", "--config", "{file}", "--out", "{dir}"]) == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_replay_of_a_mutated_game_exits_0_or_2(path, data):
    mechanism = data.draw(st.sampled_from(replaying(path)))
    doc = mutated(data, json.loads(path.read_text()))
    assert run_cli(doc, ["replay", "--game", "{file}", "--mechanism", mechanism]) in (0, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONFIGS), st.data())
def test_run_of_a_mutated_config_exits_0_or_2(path, data):
    doc = mutated(data, small(json.loads(path.read_text())))
    assert run_cli(doc, ["run", "--config", "{file}", "--out", "{dir}"]) in (0, 2)
