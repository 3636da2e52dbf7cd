"""Command-line interface: run experiment sweeps, verify property suites,
and replay single games.

Exit codes: 0 ok, 1 property violation, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import sys

from .additive_online import add_on
from .analysis import score
from .core import (
    AdditiveOfflineGame,
    AdditiveOnlineMultiGame,
    GameError,
    OnlineAdditiveGame,
    SubstOfflineGame,
    SubstOnlineGame,
)
from .gamefiles import load_game, money_str
from .harness import ConfigError, default_workers, load_config, run_experiment
from .regret import regret_run
from .shapley import add_off
from .substitutable import subst_off, subst_on
from .verification import SUITES, run_suite

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
    p_replay.add_argument(
        "--mechanism", required=True, choices=("add_off", "add_on", "subst_off", "subst_on", "regret")
    )
    return parser


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        written = run_experiment(config, args.out, workers=default_workers())
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.games is not None and args.games < 1:
        print(f"config error: --games: must be >= 1 (got {args.games})", file=sys.stderr)
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
        game = load_game(args.game)
        result, metrics, payments = _replay(args.mechanism, game)
    except (GameError, ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for user in sorted(payments):
        print(f"user {user} pays {money_str(payments[user])}")
    print(f"total value {money_str(metrics.total_value)}")
    print(f"total cost {money_str(metrics.total_cost)}")
    print(f"total utility {money_str(metrics.total_utility)}")
    print(f"cloud balance {money_str(metrics.cloud_balance)}")
    return EXIT_OK


def _replay(mechanism: str, game):
    if mechanism == "add_off":
        if not isinstance(game, AdditiveOfflineGame):
            raise ConfigError("add_off replays additive_offline games")
        outcome, ledger = add_off(game.catalog, game.bids)
        payments = {b.user: ledger.total_for(b.user) for b in game.bids}
        return (outcome, ledger), score(game, (outcome, ledger)), payments
    if mechanism == "add_on":
        if not isinstance(game, OnlineAdditiveGame):
            raise ConfigError("add_on replays single-optimization additive_online games")
        trace = add_on(game)
        return trace, score(game, trace), trace.payments
    if mechanism == "subst_off":
        if not isinstance(game, SubstOfflineGame):
            raise ConfigError("subst_off replays substitutable_offline games")
        res = subst_off(game.catalog, game.bids)
        payments = {b.user: res.payments.total_for(b.user) for b in game.bids}
        return res, score(game, res), payments
    if mechanism == "subst_on":
        if not isinstance(game, SubstOnlineGame):
            raise ConfigError("subst_on replays substitutable_online games")
        trace = subst_on(game.catalog, game.horizon, game.bids)
        return trace, score(game, trace), trace.payments
    # regret: runs on either online kind
    if isinstance(game, OnlineAdditiveGame):
        trace = regret_run((game.optimization,), game.horizon, game.bids)
    elif isinstance(game, (AdditiveOnlineMultiGame, SubstOnlineGame)):
        trace = regret_run(game.catalog, game.horizon, game.bids)
    else:
        raise ConfigError("regret replays online games")
    return trace, score(game, trace), trace.payments


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
