"""``optshare replay`` output on every packaged example game, and the golden
suite's gate on it.

Each example game is replayed with every mechanism that can replay it, and
the stdout and exit code are compared with the lines that
``optshare/examples/replays.json`` records for the pair: per user its
payment, then the run's total value, total cost, total utility and cloud
balance.  The table's lines for the five examples that shipped as game files
first were recorded before the scorer folded the kernels' integer
settlements (``two_views``, whose users bid on two optimizations each,
before the regret kernel settled additive games in its slot loop);
``two_views`` with ``add_on`` as the sums of the replays of its two
one-optimization games from before ``add_on`` ran on several optimizations
at once.  The golden suite compares the same lines, so it fails on a copy of
the examples whose table disagrees with them.
"""

import contextlib
import copy
import io
import json
import shutil

import pytest

from optshare.cli import main
from optshare.verification import RECORDED_REPLAYS, suite_golden_examples

from oracles import EXAMPLE_GAMES, EXAMPLES
from test_cli_fuzz import replaying

RECORDED = json.loads((EXAMPLES / RECORDED_REPLAYS).read_text())
REPLAYS = [(path, mechanism) for path in EXAMPLE_GAMES for mechanism in replaying(path)]


def test_every_replay_is_recorded():
    assert sorted((path.stem, mechanism) for path, mechanism in REPLAYS) == sorted(
        (name, mechanism) for name, lines in RECORDED.items() for mechanism in lines
    )


@pytest.mark.parametrize("path, mechanism", REPLAYS, ids=[f"{p.stem}-{m}" for p, m in REPLAYS])
def test_replay_prints_the_recorded_output(path, mechanism):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["replay", "--game", str(path), "--mechanism", mechanism])
    assert (rc, out.getvalue()) == (0, "\n".join(RECORDED[path.stem][mechanism]) + "\n")


@pytest.fixture
def examples(tmp_path):
    """A copy of the packaged examples, which the suite passes."""
    for path in EXAMPLES.iterdir():
        if path.name.endswith(".json"):
            shutil.copy(path, tmp_path / path.name)
    assert suite_golden_examples(tmp_path) == []
    return tmp_path


def edit_table(examples, edit):
    """Write the recorded table, changed by ``edit``, into ``examples``."""
    table = copy.deepcopy(RECORDED)
    edit(table)
    (examples / RECORDED_REPLAYS).write_text(json.dumps(table))


def test_the_golden_suite_fails_on_any_changed_recorded_line(examples):
    for name, replays in RECORDED.items():
        for mechanism, lines in replays.items():
            for i, line in enumerate(lines):
                edit_table(examples, lambda table: table[name][mechanism].__setitem__(i, line + "0"))
                (violation,) = suite_golden_examples(examples)
                assert violation.message == f"{name}: replay by {mechanism} differs from the recorded lines"
                assert violation.game is not None


def test_the_golden_suite_fails_on_a_dropped_table_entry(examples):
    edit_table(examples, lambda table: table["two_views"].pop("regret"))
    assert [v.message for v in suite_golden_examples(examples)] == ["two_views: no recorded replay by regret"]


def test_the_golden_suite_fails_on_an_entry_of_no_example(examples):
    edit_table(examples, lambda table: table["phased_selection"].__setitem__("subst_on", []))
    messages = [v.message for v in suite_golden_examples(examples)]
    assert messages == ["phased_selection: a replay by subst_on is recorded, but no such example runs it"]


def test_the_golden_suite_fails_on_an_example_file_with_no_entry(examples):
    shutil.copy(examples / "two_views.json", examples / "two_views_again.json")
    messages = [v.message for v in suite_golden_examples(examples)]
    assert messages == ["two_views_again: no recorded replay by add_on", "two_views_again: no recorded replay by regret"]


def test_the_golden_suite_fails_on_a_missing_example_file(examples):
    (examples / "phased_selection.json").unlink()
    assert [v.message for v in suite_golden_examples(examples)] == [
        "phased_selection: a replay by subst_off is recorded, but no such example runs it",
        "phased_selection: example file missing",
    ]
