#!/usr/bin/env python3
"""Run one workload once per seed and report each end-to-end metric's
median, quartiles and quartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep_subst --seeds 10 [--json out.json]

Seeds are 0..N-1 and each run lasts run_seconds.  Every run must be correct.
The unscaled games/s and CPU per game that each run prints on stderr are
summarized too, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


UNSCALED = ("unscaled.games_per_s", "unscaled.cpu_per_game_ms")


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({out['failed']}/{out['attempted']} operations)")
    values = {name: m["value"] for name, m in out["metrics"].items()}
    for line in proc.stderr.splitlines():
        name, _, rest = line.partition(" = ")
        if name in UNSCALED:
            values[name] = float(rest.split()[0])
    return values


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [run_once(args.workload, s) for s in range(args.seeds)]
    summary = {name: summarize([r[name] for r in runs]) for name in (*bounds, *UNSCALED)}
    for name, s in summary.items():
        print(f"{args.workload:15} {name:24} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
              f"  spread {s['spread']:.4f}  bound {bounds.get(name, '-')}")
    if args.json:
        Path(args.json).write_text(json.dumps({args.workload: summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
