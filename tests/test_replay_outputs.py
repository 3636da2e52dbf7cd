"""``optshare replay`` output on every shipped game file.

Each shipped game is replayed with every mechanism that can replay it, and
the stdout and exit code are compared with the ones recorded before the
scorer folded the kernels' integer settlements (``two_views``, whose users
bid on two optimizations each, before the regret kernel settled additive
games in its slot loop): per user its payment, then the run's total value,
total cost, total utility and cloud balance.  ``two_views`` with ``add_on``
is recorded as the sums of the replays of its two one-optimization games
from before ``add_on`` ran on several optimizations at once.
"""

import contextlib
import io

import pytest

from optshare.cli import main
from test_cli_fuzz import GAMES, replaying

RECORDED = {
    ("independent_columns", "add_off"): [
        "user 1 pays 100/3",
        "user 2 pays 145/3",
        "user 3 pays 100/3",
        "user 4 pays 15",
        "total value 191",
        "total cost 130",
        "total utility 61",
        "cloud balance 0",
    ],
    ("phased_selection", "subst_off"): [
        "user 1 pays 30",
        "user 2 pays 100",
        "user 3 pays 30",
        "user 4 pays 0",
        "total value 261",
        "total cost 160",
        "total utility 101",
        "cloud balance 0",
    ],
    ("pinned_substitutes", "subst_on"): [
        "user 1 pays 30",
        "user 2 pays 20",
        "user 3 pays 20",
        "user 4 pays 40",
        "user 5 pays 0",
        "total value 130",
        "total cost 100",
        "total utility 30",
        "cloud balance 10",
    ],
    ("pinned_substitutes", "regret"): [
        "user 1 pays 0",
        "user 2 pays 0",
        "user 3 pays 0",
        "user 4 pays 0",
        "user 5 pays 0",
        "total value 10",
        "total cost 60",
        "total utility -50",
        "cloud balance -60",
    ],
    ("staggered_arrivals", "add_on"): [
        "user 1 pays 100",
        "user 2 pays 25",
        "user 3 pays 25",
        "user 4 pays 25",
        "total value 185",
        "total cost 100",
        "total utility 85",
        "cloud balance 75",
    ],
    ("staggered_arrivals", "regret"): [
        "user 1 pays 0",
        "user 2 pays 16",
        "user 3 pays 0",
        "user 4 pays 0",
        "total value 84",
        "total cost 100",
        "total utility -16",
        "cloud balance -84",
    ],
    ("two_views", "add_on"): [
        "user 1 pays 65",
        "user 2 pays 65/3",
        "user 3 pays 65/3",
        "total value 210",
        "total cost 65",
        "total utility 145",
        "cloud balance 130/3",
    ],
    ("two_views", "regret"): [
        "user 1 pays 0",
        "user 2 pays 32.5",
        "user 3 pays 32.5",
        "total value 130",
        "total cost 65",
        "total utility 65",
        "cloud balance 0",
    ],
}

REPLAYS = [(path, mechanism) for path in GAMES for mechanism in replaying(path)]


def test_every_replay_is_recorded():
    assert sorted((path.stem, mechanism) for path, mechanism in REPLAYS) == sorted(RECORDED)


@pytest.mark.parametrize("path, mechanism", REPLAYS, ids=[f"{p.stem}-{m}" for p, m in REPLAYS])
def test_replay_prints_the_recorded_output(path, mechanism):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["replay", "--game", str(path), "--mechanism", mechanism])
    assert (rc, out.getvalue()) == (0, "\n".join(RECORDED[path.stem, mechanism]) + "\n")
