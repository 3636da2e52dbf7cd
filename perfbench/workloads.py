"""Workloads: their inputs from the benchmark seed, and exact output checks.

A workload is a list of operations repeated in rounds.  A sweep operation is
one config's full cost sweep through ``harness.run_experiment``, exactly as
``optshare run`` does it; its CSV must match the sha256 that record.py stored
for that config and seed on the reference commit (``digests.json``).  A verify operation
is one ``verification.run_suite`` call, which must return no violation,
except the pay-your-bid control, which must be caught.

Round r of a run with seed n uses slot ``(n + r) % SEED_SLOTS``: each sweep
config gets the scenario seed ``base + slot``, where ``base`` is the seed of
the shipped config, and each suite call the seed ``slot``.  A run repeats no
input until it has used every slot, and runs with nearby seeds share most of
their inputs, so their spread is the machine's, not the inputs'.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".perfbench"

SEED_SLOTS = 64
HELD_OUT_OFFSET = 1_000_003  # recorded, never used by a run; for checks on unseen input

# Sweep workloads name their configs (files under configs/) and the worker
# count handed to run_experiment; verify_suites names its suite list.
WORKLOADS = {
    "sweep_additive": {"configs": ("collab_small", "collab_large"), "workers": 1},
    "sweep_subst": {"configs": ("selectivity_3of4", "selectivity_3of12"), "workers": 1},
    "verify_suites": {"suites": "verify_suites"},
    "sweep_parallel": {"configs": ("collab_small_t256",), "workers": 2},
}

# Random games a suite call checks per unit of ``games``: truthfulness runs
# four mechanisms plus the pay-your-bid control, cost_recovery and
# degeneration four game families each; the control alone checks one.
GAMES_PER_UNIT = {"truthfulness": 5, "cost_recovery": 4, "degeneration": 4}
CONTROL = "naive_pay_bid"


class Op(NamedTuple):
    label: str
    games: int
    run: Callable[[], str | None]  # failure message, None when the output is exact


def import_optshare():
    """Import optshare from this checkout's src/ and nowhere else."""
    package = SRC / "optshare"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: optshare sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import optshare

    if Path(optshare.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported optshare from {optshare.__file__}, not {package}")
    return optshare


def load_digests(path=DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass(frozen=True)
class Plan:
    """A loaded, validated workload: everything a round needs."""

    name: str
    configs: tuple = ()  # (ExperimentConfig, recorded digests) per sweep config
    workers: int = 1
    suites: tuple = ()  # (suite, games, mechanism) per verify call

    def round(self, seed: int, r: int) -> list[Op]:
        slot = (seed + r) % SEED_SLOTS
        if self.suites:
            return [_suite_op(s, g, m, slot) for s, g, m in self.suites]
        return [
            sweep_op(with_seed(config, config.scenario.seed + slot), self.workers, digests["sha256"][slot], self.name)
            for config, digests in self.configs
        ]


def load_plan(name: str, digests_path=DIGESTS) -> Plan:
    """Load and validate a workload's configs; raises on anything malformed."""
    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r} (have {', '.join(WORKLOADS)})")
    spec = WORKLOADS[name]
    if "suites" in spec:
        return Plan(name, suites=load_suites(CONFIGS / f"{spec['suites']}.json"))
    from optshare.harness import load_config

    recorded = load_digests(digests_path)
    configs = []
    for cname in spec["configs"]:
        config = load_config(CONFIGS / f"{cname}.json")
        digests = recorded[cname]
        recorded_for = (digests["trials"], digests["base_seed"], len(digests["sha256"]))
        if recorded_for != (config.scenario.trials, config.scenario.seed, SEED_SLOTS):
            raise SystemExit(f"perfbench: {cname}: digests were recorded for another trial count, seed or slot count")
        configs.append((config, digests))
    return Plan(name, configs=tuple(configs), workers=spec["workers"])


def load_suites(path) -> tuple:
    from optshare.verification import SUITES, TRUTHFUL_MECHANISMS

    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["suites"]
    out = []
    for i, entry in enumerate(entries):
        suite, games, mechanism = entry["suite"], entry["games"], entry.get("mechanism")
        if suite not in SUITES or suite not in GAMES_PER_UNIT:
            raise SystemExit(f"perfbench: suites[{i}]: unsupported suite {suite!r}")
        if not isinstance(games, int) or games < 1:
            raise SystemExit(f"perfbench: suites[{i}].games: must be a positive integer")
        if mechanism is not None and (suite != "truthfulness" or mechanism not in (*TRUTHFUL_MECHANISMS, CONTROL)):
            raise SystemExit(f"perfbench: suites[{i}].mechanism: unsupported {mechanism!r}")
        out.append((suite, games, mechanism))
    return tuple(out)


def with_seed(config, seed: int):
    return dataclasses.replace(config, scenario=dataclasses.replace(config.scenario, seed=seed))


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep_op(config, workers: int, digest: str, out_name: str) -> Op:
    """One config's full cost sweep; one game is one (trial, cost point)."""
    from optshare import harness

    label = f"{config.output} seed {config.scenario.seed}"

    def run():
        # Looked up at call time so a traced run goes through the wrappers.
        csv = harness.run_experiment(config, OUT / out_name, workers=workers)[0]
        got = sha256_file(csv)
        return None if got == digest else f"{label}: CSV sha256 {got}, recorded {digest}"

    return Op(label, config.scenario.trials * len(config.cost_sweep), run)


def _suite_op(suite: str, games: int, mechanism: str | None, seed: int) -> Op:
    from optshare import verification

    label = f"{suite}{'/' + mechanism if mechanism else ''} seed {seed} games {games}"

    def run():
        violations = verification.run_suite(suite, seed=seed, games=games, mechanism=mechanism)
        if mechanism == CONTROL:
            # The control is gameable: no violation means the search did no work.
            return None if violations else f"{label}: pay-your-bid control not caught"
        if violations:
            return f"{label}: {len(violations)} violation(s), first: {violations[0].message}"
        return None

    unit = 1 if mechanism else GAMES_PER_UNIT[suite]
    return Op(label, games * unit, run)
