import hashlib
import itertools
import json
import multiprocessing
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

import optshare
from optshare.cli import main
from optshare.core import AdditiveOnlineBid, GameError, OnlineAdditiveGame, Optimization, SlotHorizon
from optshare.gamefiles import MAX_BIDS, MAX_SCALE_DIGITS, dump_game, game_from_dict, game_to_dict, load_game, money_str
from optshare import harness, scenarios
from optshare.experiments import trend_configs
from optshare.harness import CellStats, ConfigError, config_from_dict, default_workers, run_experiment, sweep
from optshare.scenarios import ScenarioSpec, generate
from optshare.substitutable import subst_on
from optshare.verification import (
    DEFAULT_GAMES,
    MAX_GAMES,
    SUITES,
    rand_additive_offline,
    rand_additive_online,
    rand_subst_offline,
    rand_subst_online,
    run_suite,
)

F = Fraction


def config_dict(**kw):
    base = {
        "schema": 1,
        "scenario": {"family": "collab_size", "users": 4, "slots": 6, "cost": "0.3", "seed": 11, "trials": 40},
        "mechanisms": ["add_on", "regret"],
        "cost_sweep": ["0.1", "0.3"],
        "output": "exp",
    }
    base.update(kw)
    return base


def test_money_str_forms():
    assert money_str(F("2.51")) == "2.51"
    assert money_str(F(100)) == "100"
    assert money_str(F(1, 3)) == "1/3"
    assert money_str(F(-5, 2)) == "-2.5"


def test_game_file_round_trip(tmp_path):
    game = OnlineAdditiveGame(
        Optimization(1, F(100)),
        SlotHorizon(3),
        (AdditiveOnlineBid(1, 1, 1, 3, (F("0.5"), F(0), F("1.25"))),),
    )
    path = tmp_path / "game.json"
    dump_game(game, path)
    assert load_game(path) == game
    assert game_from_dict(game_to_dict(game)) == game


def test_every_game_kind_round_trips_through_json():
    rng = random.Random(5)
    games = [make(rng) for make in (rand_additive_offline, rand_additive_online, rand_subst_offline, rand_subst_online)]
    games.append(generate(ScenarioSpec(family="usecase_shape", slots=3, opt_count=3, trials=1), 0))
    for game in games:
        assert game_from_dict(json.loads(json.dumps(game_to_dict(game)))) == game


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="schema"):
        config_from_dict({"scenario": {}})
    with pytest.raises(ConfigError, match="scenario.family"):
        config_from_dict({"schema": 1, "scenario": {}})
    with pytest.raises(ConfigError, match=r"mechanisms\[0\]"):
        config_from_dict(config_dict(mechanisms=["subst_on", "regret"]))
    with pytest.raises(ConfigError, match=r"cost_sweep\[1\]"):
        config_from_dict(config_dict(cost_sweep=["0.1", "zorp"]))
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(config_dict(scenario={"family": "collab_size", "trials": 0}))


@pytest.mark.parametrize("output", ["../escaped", "sub/name", "/abs/name", "..", ".", "a\\b", "a\0b"])
def test_output_must_be_a_plain_file_name(tmp_path, capsys, output):
    with pytest.raises(ConfigError, match="output: expected a plain file name"):
        config_from_dict(config_dict(output=output))
    out = tmp_path / "out"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config_dict(output=output)))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "output" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_cost_sweep_range_form():
    cfg = config_from_dict(config_dict(cost_sweep={"start": "0.1", "stop": "0.3", "step": "0.1"}))
    assert cfg.cost_sweep == (F("0.1"), F("0.2"), F("0.3"))


def test_only_a_config_without_cost_sweep_runs_the_scenario_cost():
    data = config_dict()
    del data["cost_sweep"]
    assert config_from_dict(data).cost_sweep == (F("0.3"),)
    with pytest.raises(ConfigError, match="cost_sweep: at least one cost point required"):
        config_from_dict(config_dict(cost_sweep=[]))


def test_run_experiment_deterministic(tmp_path):
    cfg = config_from_dict(config_dict())
    out1 = run_experiment(cfg, tmp_path / "a")
    out2 = run_experiment(cfg, tmp_path / "b")
    data1 = open(out1[0], "rb").read()
    data2 = open(out2[0], "rb").read()
    assert data1 == data2
    lines = data1.decode().strip().splitlines()
    assert lines[0].startswith("mechanism,cost,trials,mean_total_utility")
    assert len(lines) == 1 + 2 * 2  # two mechanisms x two cost points
    assert lines[1].split(",")[0] == "add_on"
    assert lines[1].split(",")[2] == "40"


def test_run_experiment_details_are_exact(tmp_path):
    cfg = config_from_dict(config_dict(details=True))
    paths = run_experiment(cfg, tmp_path)
    detail_lines = open(paths[1]).read().strip().splitlines()
    assert len(detail_lines) == 2 * 2 * 40
    row = json.loads(detail_lines[0])
    assert set(row) == {"mechanism", "cost", "trial", "total_utility", "cloud_balance", "implemented"}
    num, den = row["total_utility"].split("/")
    int(num), int(den)


def test_cli_run_and_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_dict()))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].endswith("exp.csv")
    assert os.path.exists(out[0])

    game = OnlineAdditiveGame(
        Optimization(1, F(100)),
        SlotHorizon(3),
        (
            AdditiveOnlineBid(1, 1, 1, 1, (F(101),)),
            AdditiveOnlineBid(2, 1, 1, 3, (F(16), F(16), F(16))),
            AdditiveOnlineBid(3, 1, 2, 2, (F(26),)),
            AdditiveOnlineBid(4, 1, 2, 2, (F(26),)),
        ),
    )
    game_path = tmp_path / "game.json"
    dump_game(game, game_path)
    assert main(["replay", "--game", str(game_path), "--mechanism", "add_on"]) == 0
    out = capsys.readouterr().out
    assert "user 1 pays 100" in out
    assert "user 2 pays 25" in out
    assert "user 3 pays 25" in out and "user 4 pays 25" in out
    assert "cloud balance 75" in out

    # wrong mechanism for the game kind -> config error naming the mechanism
    assert main(["replay", "--game", str(game_path), "--mechanism", "subst_on"]) == 2
    assert "config error: subst_on " in capsys.readouterr().err


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config_dict(cost_sweep=["nope"])))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "cost_sweep[0]" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_verify_golden(capsys):
    assert main(["verify", "--suite", "golden_examples"]) == 0
    assert "PASS golden_examples" in capsys.readouterr().out


def test_cli_verify_catches_naive_mechanism(capsys):
    code = main(["verify", "--suite", "truthfulness", "--games", "5", "--mechanism", "naive_pay_bid"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL truthfulness" in out
    assert "game:" in out  # offending game serialized for replay


def test_cli_verify_truthfulness_of_shapley(capsys):
    # shapley is searched column by column on additive offline games
    assert main(["verify", "--suite", "truthfulness", "--mechanism", "shapley", "--games", "2"]) == 0
    assert "PASS truthfulness" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["cost_recovery", "golden_examples", "degeneration"])
def test_cli_verify_rejects_mechanism_outside_truthfulness(capsys, suite):
    assert main(["verify", "--suite", suite, "--mechanism", "add_on", "--games", "2"]) == 2
    captured = capsys.readouterr()
    assert "config error: mechanism" in captured.err
    assert captured.out == ""


def test_cli_verify_rejects_a_count_for_golden_examples(capsys):
    assert main(["verify", "--suite", "golden_examples", "--games", "7"]) == 2
    captured = capsys.readouterr()
    assert "config error: games:" in captured.err
    assert captured.out == ""
    with pytest.raises(ValueError, match="games: the golden_examples suite"):
        run_suite("golden_examples", games=1)


def test_shipped_configs_and_games_parse():
    scripts = os.path.join(os.path.dirname(__file__), "..", "scripts")
    configs = sorted(os.listdir(os.path.join(scripts, "configs")))
    games = sorted(os.listdir(os.path.join(scripts, "games")))
    assert len(configs) == 7 and games
    for name in configs:
        harness.load_config(os.path.join(scripts, "configs", name))
    for name in games:
        load_game(os.path.join(scripts, "games", name))


def test_verify_cost_recovery_small():
    assert run_suite("cost_recovery", seed=3, games=150) == []


def test_verify_degeneration_small():
    assert run_suite("degeneration", seed=3, games=60) == []


def test_verify_oracle_dominance_small():
    assert run_suite("oracle_dominance", seed=3, games=60) == []


def test_verify_multi_identity_small():
    assert run_suite("multi_identity", seed=3, games=25) == []


def test_verify_truthfulness_small():
    assert run_suite("truthfulness", seed=3, games=8) == []


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus")


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "golden_examples"])
@pytest.mark.parametrize("games", [0, -1])
def test_run_suite_rejects_an_empty_corpus(suite, games):
    with pytest.raises(ValueError, match="games: must be >= 1"):
        run_suite(suite, games=games)


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_bounds_the_corpus(suite):
    assert MAX_GAMES >= max(DEFAULT_GAMES.values())
    with pytest.raises(ValueError, match=f"games: must be <= {MAX_GAMES}"):
        run_suite(suite, games=MAX_GAMES + 1)


def test_parallel_sweep_matches_sequential():
    spec = ScenarioSpec(family="collab_size", users=4, slots=6, cost=F("0.3"), seed=5, trials=30)
    points = (F("0.2"), F("0.4"))
    seq = sweep(spec, ("add_on", "regret"), points, trials=30, workers=1)
    par = sweep(spec, ("add_on", "regret"), points, trials=30, workers=2)
    assert par == seq  # every CellStats field: n, sums, sums of squares, implemented
    assert all(cell.n == 30 for cell in seq.values())


def run_fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter that imports optshare from the
    tree under test (this one has numpy loaded already); returns the JSON
    its last stdout line prints."""
    src = str(pathlib.Path(optshare.__file__).resolve().parents[1])
    games = str(pathlib.Path(__file__).resolve().parents[1] / "scripts" / "games")
    prelude = f"import json, sys\nsys.path.insert(0, {src!r})\nGAMES = {games!r}\n"
    done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_verify_and_replay_never_import_numpy_and_a_draw_does():
    loaded = run_fresh("""
        import optshare, optshare.cli
        from optshare import scenarios
        codes = [optshare.cli.main(["verify", "--suite", "golden_examples"]),
                 optshare.cli.main(["replay", "--game", GAMES + "/two_views.json", "--mechanism", "regret"])]
        before = "numpy" in sys.modules
        scenarios.draw(scenarios.ScenarioSpec(family="arrival_skew", skew="early", trials=1), 0)
        print(json.dumps([codes, before, "numpy" in sys.modules]))
    """)
    assert loaded == [[0, 0], False, True]


def test_parallel_sweep_starts_every_helper_with_numpy_random_loaded():
    """In-process tests run with numpy loaded; a fresh parent that has drawn
    nothing must still import numpy.random before its first helper, or
    every helper imports it again on every sweep."""
    seen, parallel, serial = run_fresh("""
        import os
        from fractions import Fraction
        from optshare import harness
        from optshare.scenarios import ScenarioSpec

        seen = ["numpy" in sys.modules]
        real_start = harness._start_helper

        def recording_start(fold, trials):
            seen.append("numpy.random" in sys.modules)
            return real_start(fold, trials)

        harness._start_helper = recording_start
        os.cpu_count = lambda: 2
        spec = ScenarioSpec(family="arrival_skew", skew="early", users=4, slots=6, cost=Fraction("0.3"), seed=5, trials=30)
        points = (Fraction("0.2"), Fraction("0.4"))

        def columns(workers):
            cells = harness.sweep(spec, ("add_on", "regret"), points, workers=workers)
            return sorted([m, str(cost), *cell.columns()] for (m, cost), cell in cells.items())

        parallel = columns(2)  # first: no draw in this process has loaded numpy yet
        print(json.dumps([seen, parallel, columns(1)]))
    """)
    assert seen == [False, True, True]  # numpy absent at the start, numpy.random loaded at each helper start
    assert parallel == serial


@pytest.mark.parametrize("family", scenarios.FAMILIES)
def test_parallel_uniform_sweep_never_imports_numpy(family):
    """Every family at uniform skew reads the PCG64 stream in Python:
    neither the parent of a parallel sweep nor any of its helpers imports
    numpy."""
    helpers, parent, parallel, serial = run_fresh(f"FAMILY = {family!r}\n" + textwrap.dedent("""
        import os, shutil, tempfile
        from fractions import Fraction
        from optshare import harness
        from optshare.scenarios import ScenarioSpec

        log = tempfile.mkdtemp()
        real_fold = harness._fold_trials

        def recording_fold(*args):  # runs in each helper: the sweep binds it at its call
            result = real_fold(*args)
            with open(os.path.join(log, str(os.getpid())), "w") as fh:
                fh.write(json.dumps("numpy" in sys.modules))
            return result

        harness._fold_trials = recording_fold
        os.cpu_count = lambda: 2
        spec = ScenarioSpec(family=FAMILY, users=6, slots=12, opt_count=4, duration=3, cost=Fraction(3, 50), seed=404, trials=30)
        points = (Fraction("0.06"), Fraction("0.9"))
        mechanisms = ("subst_on" if FAMILY == "selectivity" else "add_on", "regret")

        def columns(workers):
            cells = harness.sweep(spec, mechanisms, points, workers=workers)
            return sorted([m, str(cost), *cell.columns()] for (m, cost), cell in cells.items())

        parallel = columns(2)
        harness._fold_trials = real_fold
        helpers = [json.load(open(os.path.join(log, name))) for name in sorted(os.listdir(log))]
        shutil.rmtree(log)
        serial = columns(1)
        parent = "numpy" in sys.modules
        skewed = ScenarioSpec(family="arrival_skew", skew="early", trials=2)
        harness.sweep(skewed, ("add_on",), (Fraction(1),), workers=1)
        print(json.dumps([helpers, [parent, "numpy" in sys.modules], parallel, serial]))
    """))
    assert helpers == [False, False]  # two helpers ran, neither with numpy loaded
    assert parent == [False, True]  # nor the parent, until it swept a family that draws through numpy
    assert parallel == serial


# sha256 of (CSV, details JSONL) for small details configs, recorded on the
# Fraction-based sweeps before the integer kernels: collab_size and
# selectivity on the cost-point-major sweep that regenerated every game at
# every cost point, the others on the trial-major sweep that followed it.
DETAIL_DIGESTS = {
    "collab_size": (
        {"family": "collab_size", "users": 4, "slots": 6, "cost": "0.3", "seed": 11, "trials": 12},
        ["add_on", "regret"],
        ["0.1", "0.3", "0.5"],
        "925a10de341bcbbe9418a2028fc4a4eaa72aff971540e758b7144e1e900537e5",
        "6d69dda58697b2a33f5295f9c401525fdda349c0b7f82b41471aa15bc8b4365d",
    ),
    "selectivity": (
        {"family": "selectivity", "users": 5, "slots": 4, "opt_count": 4, "substitutes_per_user": 2,
         "cost": "0.36", "seed": 3, "trials": 12},
        ["subst_on", "regret"],
        ["0.2", "0.36", "0.7"],
        "37f0ae0e654c7025d8e1fe5fac3bee9a19b4be4ad13497d65e79617055e41a0b",
        "8b9d6113511299d3e94282e6caa6ba01b0cb3a1644bbec6c93bd436331b258c5",
    ),
    "duration_spread": (  # multi-slot windows, per-slot values off the 1e-6 grid
        {"family": "duration_spread", "users": 5, "slots": 6, "duration": 3, "cost": "0.3", "seed": 7, "trials": 12},
        ["add_on", "regret"],
        ["0.1", "0.3", "0.5"],
        "415679413873e3b506afd26296ca47dfe1481eb189a6bed1562cf39a03ee3a46",
        "4efcce1aa0358c9a70924aa9f7045355a3253812ba9ef77c0c1a8ed960ef942d",
    ),
    "usecase_shape": (  # several optimizations per game
        {"family": "usecase_shape", "users": 6, "slots": 4, "opt_count": 5, "cost": "0.5",
         "executions_per_slot": 2, "seed": 9, "trials": 12},
        ["add_on", "regret"],
        ["0.2", "0.5", "1.1"],
        "3ec65c1a7c8ad17576b8214d00a7d4d89aefd46c41c39f3079517a0a0e0758a4",
        "a7baa8e4ed72d1aced8d01b56287d8b147664e9d6e7c79cb21a20d693271802e",
    ),
    "arrival_skew": (
        {"family": "arrival_skew", "users": 6, "slots": 8, "skew": "late", "cost": "0.54", "seed": 13, "trials": 12},
        ["add_on", "regret"],
        ["0.3", "0.54", "0.9"],
        "770e179fff7d1ea7e6f9c689d124f18ac906d8d0d2b7911dba3876eb2187b658",
        "9436b5af44b50c4ff8ad4f679ca70e374fcb9c891118bed9ba97b6c8eddf2841",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(DETAIL_DIGESTS))
def test_details_bytes_are_recorded_ones(tmp_path, name, workers):
    scenario, mechanisms, points, csv_sha, details_sha = DETAIL_DIGESTS[name]
    cfg = config_from_dict(
        {"schema": 1, "scenario": scenario, "mechanisms": mechanisms, "cost_sweep": points, "output": "exp", "details": True}
    )
    csv_path, details_path = run_experiment(cfg, tmp_path, workers=workers)
    assert hashlib.sha256(open(csv_path, "rb").read()).hexdigest() == csv_sha
    assert hashlib.sha256(open(details_path, "rb").read()).hexdigest() == details_sha


# sha256 of each trend_configs(200) CSV, recorded on the Fraction-based
# trial-major sweep before the integer kernels.
TREND_DIGESTS = {
    "collab_small": "4164625d0592aade5d8af7595cd1814aa409158bd84711b0dee6bcecebd8d0df",
    "collab_large": "e1df90c4c6459c63d0e1c49f80db55cdf4625ab342dcda1eb7526b24e857b897",
    "selectivity_3of4": "023186068ad76f77f4fdc39622d6ec2b362ca49b5fc499c8f0871e2db743be46",
    "selectivity_3of12": "4a30b1e045ec525205d1bd247fca9f6e619b44e4cc96b1d47c23194232440402",
    "arrival_skew_uniform": "91adb30e1735ba65699d2ce82a45d5e2833767a6e3f6d8ce12e10ee5c35fd3b4",
    "arrival_skew_early": "b5cc86be3da4e20469682d5e8a31f1bc5bbba777f3e0437e913f2ada2bdafe6f",
    "arrival_skew_late": "bd5f2f51247fd6c7830e2ad44deb57f2a21cd5825f05ed891e1a8b32a70ab6c0",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(TREND_DIGESTS))
def test_trend_csv_bytes_are_recorded_ones(tmp_path, name, workers):
    (csv_path,) = run_experiment(trend_configs(200)[name], tmp_path, workers=workers)
    assert hashlib.sha256(open(csv_path, "rb").read()).hexdigest() == TREND_DIGESTS[name]


def test_cell_stats_merge_equals_adding_in_any_order():
    values = [(1, -2, 2, True), (5, 3, 3, False), (-7, 0, 6, True), (4, 4, 10, True)]
    forward, backward = CellStats(), CellStats()
    for v in values:
        forward.add(*v)
    for v in reversed(values):
        backward.add(*v)
    merged, rest = CellStats(), CellStats()
    merged.add(*values[2])
    for v in (values[3], values[0], values[1]):
        rest.add(*v)
    merged.merge(rest)
    assert forward == backward == merged
    assert forward.den == 30
    us = [F(u, d) for u, _, d, _ in values]
    assert forward.mean_utility == sum(us) / 4
    assert forward.var_utility == sum(u * u for u in us) / 4 - (sum(us) / 4) ** 2
    assert forward.mean_balance == sum(F(b, d) for _, b, d, _ in values) / 4
    assert forward.implemented_rate == F(3, 4)


@pytest.fixture
def helper_slices(monkeypatch):
    """Replace the helper start by one that starts nothing, folds its slice
    in this process and records it: one list of slices per sweep that
    starts helpers.  os.cpu_count() reads 4."""
    sweeps = []

    class Exited:
        exitcode = 0

        def is_alive(self):
            return False

        def join(self):
            pass

    class Received:
        def __init__(self, result):
            self.result = result

        def recv(self):
            return self.result

        def close(self):
            pass

    def start_inline(fold, trials):
        if trials.start == 0:  # every sweep's first slice starts at trial 0
            sweeps.append([])
        sweeps[-1].append(trials)
        return Exited(), Received(fold(trials))

    monkeypatch.setattr(harness, "_start_helper", start_inline)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sweeps


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_generates_each_trial_once_across_helpers(monkeypatch, helper_slices, workers):
    calls = []
    real_draw = scenarios.draw

    def counting_draw(spec, trial):
        calls.append(trial)
        return real_draw(spec, trial)

    monkeypatch.setattr(scenarios, "draw", counting_draw)
    spec = ScenarioSpec(family="selectivity", users=4, slots=4, opt_count=4, cost=F("0.3"), seed=2, trials=9)
    cells = sweep(spec, ("subst_on", "regret"), (F("0.1"), F("0.3"), F("0.9")), workers=workers)
    assert sorted(calls) == list(range(9))
    assert helper_slices == ([] if workers == 1 else [[range(0, 4), range(4, 9)]])
    assert all(cell.n == 9 for cell in cells.values())


def test_helper_count_is_capped(monkeypatch, helper_slices):
    def run(trials, workers):
        spec = ScenarioSpec(family="collab_size", users=3, slots=4, cost=F("0.3"), seed=1, trials=trials)
        sweep(spec, ("add_on",), (F("0.3"),), workers=workers)

    monkeypatch.setenv("OPTSHARE_WORKERS", "100000")
    run(trials=3, workers=default_workers())  # capped by trials
    run(trials=40, workers=100000)  # capped by os.cpu_count(), patched to 4
    run(trials=1, workers=100000)  # one process: no helper at all
    assert [len(slices) for slices in helper_slices] == [3, 4]
    assert helper_slices[1] == [range(0, 10), range(10, 20), range(20, 30), range(30, 40)]


SUBST_SPEC = ScenarioSpec(family="selectivity", users=4, slots=4, opt_count=4, cost=F("0.3"), seed=2, trials=37)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_uneven_slices_match_one_worker(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def run(workers):
        records = []
        cells = sweep(SUBST_SPEC, ("subst_on", "regret"), (F("0.1"), F("0.3"), F("0.9")),
                      workers=workers, detail_sink=records.append)
        return {key: cell.columns() for key, cell in cells.items()}, records

    assert run(workers) == run(1)  # 37 trials: slices of 12-13 at 3 workers, 9-10 at 4
    assert multiprocessing.active_children() == []


def test_a_helper_error_is_raised_and_no_helper_is_left(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # A mechanism tuple that bypasses ExperimentConfig: run_mechanism raises
    # in each helper.
    with pytest.raises(ConfigError, match="add_on cannot run on substitutable games") as raised:
        sweep(SUBST_SPEC, ("add_on",), (F("0.3"),), trials=8, workers=2)
    assert multiprocessing.active_children() == []
    assert isinstance(raised.value.__cause__, harness.HelperTraceback)
    assert 'in run_mechanism\n    raise ConfigError(' in str(raised.value.__cause__)  # the helper's frames


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched draw reaches the helpers only when they fork"
)
def test_a_helper_that_exits_unsent_is_named_with_its_exit_code(monkeypatch):
    real_draw = scenarios.draw

    def dying_draw(spec, trial):
        if trial == 1:
            os._exit(3)
        if trial == 5:  # the other helper is still busy when the sweep raises
            time.sleep(60)
        return real_draw(spec, trial)

    monkeypatch.setattr(scenarios, "draw", dying_draw)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"helper for trials 0\.\.3 exited with code 3"):
        sweep(SUBST_SPEC, ("subst_on",), (F("0.3"),), trials=8, workers=2)
    assert time.perf_counter() - started < 30  # the busy helper was terminated, not waited for
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -2, True, False, 2.0, "2"])
def test_sweep_and_run_experiment_reject_bad_workers(tmp_path, workers):
    message = f"workers: expected an integer >= 1, got {workers!r}"
    with pytest.raises(ConfigError) as raised:
        sweep(SUBST_SPEC, ("subst_on",), (F("0.3"),), trials=4, workers=workers)
    assert str(raised.value) == message
    with pytest.raises(ConfigError) as raised:
        run_experiment(config_from_dict(config_dict()), tmp_path / "out", workers=workers)
    assert str(raised.value) == message
    assert not (tmp_path / "out").exists()


def test_workers_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("OPTSHARE_WORKERS", "not-a-number")
    with pytest.raises(ConfigError):
        default_workers()
    for bad in ("0", "-3"):
        monkeypatch.setenv("OPTSHARE_WORKERS", bad)
        with pytest.raises(ConfigError, match="OPTSHARE_WORKERS: must be >= 1"):
            default_workers()
    monkeypatch.setenv("OPTSHARE_WORKERS", "2")
    assert default_workers() == 2
    monkeypatch.delenv("OPTSHARE_WORKERS")
    assert default_workers() == 1


def test_cli_run_rejects_bad_workers(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_dict()))
    monkeypatch.setenv("OPTSHARE_WORKERS", "-3")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "OPTSHARE_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"cost_sweep": {"start": "abc", "stop": "0.3", "step": "0.1"}}, "cost_sweep.start"),
        ({"cost_sweep": {"start": "0.1", "stop": [1], "step": "0.1"}}, "cost_sweep.stop"),
        ({"cost_sweep": {"start": "0.1", "stop": "0.3", "step": "x"}}, "cost_sweep.step"),
        ({"cost_sweep": {"start": "0.1", "stop": "1e9", "step": "1e-9"}}, "cost_sweep"),
        ({"cost_sweep": "0.1"}, "cost_sweep"),
        ({"scenario": 5}, "scenario"),
        ({"scenario": {"family": "collab_size", "users": 6.5}}, "scenario.users"),
        ({"scenario": {"family": "collab_size", "trials": True}}, "scenario.trials"),
        ({"scenario": {"family": "collab_size", "seed": "7"}}, "scenario.seed"),
        ({"scenario": {"family": "collab_size", "cost": "cheap"}}, "scenario.cost"),
        ({"mechanisms": "add_on"}, "mechanisms: expected a list of strings"),
        ({"mechanisms": ["add_on", 7]}, "mechanisms: expected a list of strings"),
        ({"output": 5}, "output"),
        ({"output": ""}, "output"),
        ({"details": "no"}, "details"),
        ({"scenario": {"family": "collab_size", "trials": 1_000_001}}, "scenario.trials"),
        ({"scenario": {"family": "collab_size", "users": 1_001}}, "scenario.users"),
        ({"scenario": {"family": "collab_size", "cost": "1e400"}}, "scenario.cost"),
        ({"cost_sweep": ["0.1", "1e-400"]}, "cost_sweep[1]"),
        ({"cost_sweep": {"start": "0.1", "stop": "9" * 401, "step": "0.1"}}, "cost_sweep.stop"),
        ({"mechanisms": ["add_on", "add_on"]}, "mechanisms[1]"),
        ({"mechanisms": ["add_on", "regret", "add_on"]}, "mechanisms[2]"),
        ({"cost_sweep": ["0.5", "0.5"]}, "cost_sweep[1]"),
        ({"cost_sweep": ["0.5", "0.2", "1/2"]}, "cost_sweep[2]"),
        ({"cost_sweep": {"start": "0.3", "stop": "0.1", "step": "0.1"}}, "cost_sweep: start 3/10 exceeds stop 1/10"),
        ({"cost_sweep": []}, "cost_sweep: at least one cost point required"),
    ],
)
def test_cli_run_rejects_malformed_config(tmp_path, capsys, change, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_dict(**change)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}" in err
    assert not (tmp_path / "exp.csv").exists()


@pytest.mark.parametrize("name, content", [("a_directory", None), ("latin1.json", b'{"output": "\xe9"}')])
def test_cli_run_rejects_unreadable_config(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


# JSON that the decoder itself refuses past the syntax: an integer of more
# than 4300 digits, and arrays nested deeper than the recursion limit.
HUGE_SEED = json.dumps(config_dict()).replace('"seed": 11', '"seed": ' + "9" * 5001)
HUGE_SLOTS = json.dumps({"schema": 1, "kind": "additive_online", "slots": 0}).replace('"slots": 0', '"slots": ' + "9" * 5001)
DEEP_ARRAYS = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [HUGE_SEED, DEEP_ARRAYS], ids=["huge_seed", "deep_arrays"])
def test_cli_run_rejects_json_the_decoder_refuses(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "config error: config: invalid JSON" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", [HUGE_SLOTS, DEEP_ARRAYS], ids=["huge_slots", "deep_arrays"])
def test_cli_replay_rejects_json_the_decoder_refuses(tmp_path, capsys, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    assert main(["replay", "--game", str(path), "--mechanism", "add_on"]) == 2
    captured = capsys.readouterr()
    assert "config error: game: invalid JSON" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("games", ["0", "-5"])
def test_cli_verify_rejects_empty_runs(capsys, games):
    assert main(["verify", "--suite", "cost_recovery", "--games", games]) == 2
    captured = capsys.readouterr()
    assert "--games" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("games", [MAX_GAMES + 1, 10**12])
def test_cli_verify_rejects_runs_past_the_bound(capsys, suite, games):
    assert main(["verify", "--suite", suite, "--games", str(games)]) == 2
    captured = capsys.readouterr()
    assert f"config error: --games: must be from 1 to {MAX_GAMES} (got {games})" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "break_it, field",
    [
        (lambda game: game["bids"][0].pop("user"), "bids[0].user"),
        (lambda game: game.pop("bids"), "bids"),
        (lambda game: game["bids"][1]["per_slot"].__setitem__(0, "lots"), "bids[1].per_slot[0]"),
        (lambda game: game["catalog"][0].__setitem__("id", "1"), "catalog[0].id"),
        (lambda game: game.__setitem__("bids", {"user": 1}), "bids"),
        (lambda game: game.__setitem__("slots", 1001), "slots"),  # one past the bound
    ],
)
def test_cli_replay_rejects_malformed_game(tmp_path, capsys, break_it, field):
    with open(os.path.join(os.path.dirname(__file__), "..", "scripts", "games", "staggered_arrivals.json")) as fh:
        game = json.load(fh)
    break_it(game)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    assert main(["replay", "--game", str(path), "--mechanism", "add_on"]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "break_it, field",
    [
        (lambda game: game["bids"][1]["per_slot"].__setitem__(0, "1e400"), "bids[1].per_slot[0]"),
        (lambda game: game["catalog"][0].__setitem__("cost", "1" * 401), "catalog[0].cost"),
    ],
)
def test_cli_replay_rejects_money_beyond_the_bound(tmp_path, capsys, break_it, field):
    test_cli_replay_rejects_malformed_game(tmp_path, capsys, break_it, field)


def one_slot_game(cost: str, values) -> dict:
    """An additive_online game file: one optimization at ``cost`` and one
    one-slot bid per value, in slots 1, 2, ... 20, 1, ..."""
    bids = [{"user": i + 1, "opt": 1, "start": i % 20 + 1, "end": i % 20 + 1, "per_slot": [v]} for i, v in enumerate(values)]
    return {"schema": 1, "kind": "additive_online", "slots": min(len(bids), 20), "catalog": [{"id": 1, "cost": cost}], "bids": bids}


def first_primes(n: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


@pytest.mark.parametrize("mechanism", ["add_on", "regret"])
@pytest.mark.parametrize(
    "game, field",
    [
        # 60 values over pairwise coprime 91-digit denominators: their total
        # value's denominator had over 4300 digits, and printing it raised
        (one_slot_game("1e-100", [f"1/{10**90 + 2 * i + 1}" for i in range(60)]), "bids[10].per_slot[0]"),
        (one_slot_game("1e-100", [f"1/{p}" for p in first_primes(1600)]), "bids"),
    ],
)
def test_cli_replay_rejects_a_game_past_its_size_bounds(tmp_path, capsys, game, field, mechanism):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    assert main(["replay", "--game", str(path), "--mechanism", mechanism]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err
    assert captured.out == ""


def test_a_game_at_the_size_bounds_loads():
    assert len(game_from_dict(one_slot_game("1", ["1"] * MAX_BIDS)).bids) == MAX_BIDS
    # coprime denominators, each short enough for a money field, whose lcm
    # has MAX_SCALE_DIGITS digits and is at least half of 10**MAX_SCALE_DIGITS
    half = 5 * 10 ** (MAX_SCALE_DIGITS - 1)
    two, three = 2**1100, 3**690
    rest = next(r for r in itertools.count(-(-half // (two * three))) if r % 6 in (1, 5))
    assert half <= two * three * rest < 10**MAX_SCALE_DIGITS
    values = [f"1/{three}", f"1/{rest}"]
    assert len(game_from_dict(one_slot_game(f"1/{two}", values)).bids) == 2
    with pytest.raises(GameError, match=r"bids\[2\]\.per_slot\[0\]: the game's common scale"):
        game_from_dict(one_slot_game(f"1/{two}", values + [f"1/{2 * two}"]))


PINNED_SUBSTITUTES = os.path.join(os.path.dirname(__file__), "..", "scripts", "games", "pinned_substitutes.json")


def test_shipped_substitutable_game_ties_and_keeps_a_lapsed_pin():
    game = load_game(PINNED_SUBSTITUTES)
    phases = subst_on(game.catalog, game.horizon, game.bids).slot_phases
    assert (phases[1][0].opt, phases[1][0].serviced, phases[1][0].tied_with) == (1, {1, 2}, (2,))
    # user 1's window ends in slot 1, but the pin still counts: user 3 joins at 60 / 3
    assert (phases[2][0].opt, phases[2][0].serviced, phases[2][0].share) == (1, {1, 2, 3}, F(20))


# stdout recorded before the phase loop took pin counts
REPLAYS = {
    "subst_on": (30, 20, 20, 40, 0, "130", "100", "30", "10"),
    "regret": (0, 0, 0, 0, 0, "10", "60", "-50", "-60"),
}


@pytest.mark.parametrize("mechanism", sorted(REPLAYS))
def test_replay_of_the_shipped_substitutable_game(capsys, mechanism):
    assert main(["replay", "--game", PINNED_SUBSTITUTES, "--mechanism", mechanism]) == 0
    template = """user 1 pays {}
user 2 pays {}
user 3 pays {}
user 4 pays {}
user 5 pays {}
total value {}
total cost {}
total utility {}
cloud balance {}
"""
    assert capsys.readouterr().out == template.format(*REPLAYS[mechanism])
