#!/usr/bin/env python3
"""Record the reference CSV digests the sweep workloads check against.

    python3 perfbench/record.py      # rewrites perfbench/digests.json

For every sweep config under configs/ it runs the full cost sweep serially
at the config's trial count, once per seed slot (scenario seed base + k,
k < SEED_SLOTS) and once at the held-out seed (base + HELD_OUT_OFFSET), and
stores the sha256 of each CSV.  Run it only on a commit whose outputs are the
reference: the digests are what later commits must reproduce byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def record(name: str) -> dict:
    from optshare.harness import load_config, run_experiment

    config = load_config(workloads.CONFIGS / f"{name}.json")
    base = config.scenario.seed

    def digest(offset: int) -> str:
        seeded = workloads.with_seed(config, base + offset)
        return workloads.sha256_file(run_experiment(seeded, workloads.OUT / "record", workers=1)[0])

    return {
        "trials": config.scenario.trials,
        "base_seed": base,
        "sha256": [digest(k) for k in range(workloads.SEED_SLOTS)],
        "held_out": digest(workloads.HELD_OUT_OFFSET),
    }


def main() -> int:
    workloads.import_optshare()
    names = sorted({c for spec in workloads.WORKLOADS.values() for c in spec.get("configs", ())})
    digests = {}
    for name in names:
        digests[name] = record(name)
        print(f"{name}: {workloads.SEED_SLOTS} slots + held-out recorded", file=sys.stderr)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
