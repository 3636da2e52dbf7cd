"""Command-line interface: run experiment sweeps, verify property suites,
and replay single games.

Exit codes: 0 ok, 1 property violation, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import MECHANISMS
from .core import GameError
from .gamefiles import load_game
from .harness import ConfigError, default_workers, load_config, run_experiment
from .verification import MAX_GAMES, SUITES, replay_lines, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optshare",
        description="Cost-sharing mechanisms for shared optimizations: experiments and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--games", type=int, default=None, help="corpus size (suite-specific default)")
    p_verify.add_argument(
        "--mechanism",
        default=None,
        help="truthfulness only: restrict to one mechanism (naive_pay_bid is the gameable control)",
    )

    p_replay = sub.add_parser("replay", help="run one mechanism on a serialized game")
    p_replay.add_argument("--game", required=True, help="game JSON file")
    p_replay.add_argument("--mechanism", required=True, choices=tuple(MECHANISMS))
    return parser


def cmd_run(args) -> int:
    flag = "--config"  # the flag whose path a failed file operation was on
    try:
        config = load_config(args.config)
        flag = "--out"
        written = run_experiment(config, args.out, workers=default_workers())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {flag}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.games is not None and not 1 <= args.games <= MAX_GAMES:
        print(f"config error: --games: must be from 1 to {MAX_GAMES} (got {args.games})", file=sys.stderr)
        return EXIT_CONFIG
    try:
        violations = run_suite(args.suite, seed=args.seed, games=args.games, mechanism=args.mechanism)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if violations:
        print(f"FAIL {args.suite}: {len(violations)} violation(s)")
        for v in violations:
            print(f"- {v.message}")
            if v.game:
                print(f"  game: {v.game}")
        return EXIT_VIOLATION
    print(f"PASS {args.suite}")
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        lines = replay_lines(args.mechanism, load_game(args.game))
    except (GameError, ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
