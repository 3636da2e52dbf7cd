#!/usr/bin/env python3
"""Run the full trend experiments and write one CSV per configuration.

Usage: python scripts/run_trends.py [--out results] [--trials N]

The configurations are the files in ``scripts/configs/``, each loaded as
``optshare run --config`` loads it; ``--trials`` replaces their trials per
cost point.

With default trials (10^4 per cost point) this takes a few minutes on one
core; set OPTSHARE_WORKERS to parallelize across processes.  Output CSVs are
deterministic for a given config.
"""

import argparse
import pathlib
import sys
import time
from dataclasses import replace

from optshare.harness import ConfigError, default_workers, load_config, run_experiment
from optshare.scenarios import ScenarioError

EXIT_CONFIG = 2  # as ``optshare run``: 1 means a property violation
CONFIGS = pathlib.Path(__file__).resolve().parent / "configs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--trials", type=int, default=None, help="override trials per cost point")
    args = parser.parse_args(argv)
    try:
        configs = {path.stem: load_config(path) for path in sorted(CONFIGS.glob("*.json"))}
        if args.trials is not None:
            configs = {name: replace(c, scenario=replace(c.scenario, trials=args.trials)) for name, c in configs.items()}
        workers = default_workers()
    except (ConfigError, ScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, config in configs.items():
        t0 = time.perf_counter()
        try:
            paths = run_experiment(config, args.out, workers=workers)
        except OSError as exc:
            print(f"config error: --out: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"{name}: {paths[0]} [{time.perf_counter() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
