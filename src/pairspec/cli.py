"""Command-line entry point.

Subcommands::

    pairspec sample   --config cfg.json --out results/
    pairspec boundary --config cfg.json --out results/
    pairspec verify   [--config cfg.json] [--strict]
    pairspec sweep    --config cfg.json --out results/

All subcommands share the flags --config (JSON experiment config; built-in
defaults when omitted), --out (output directory), --seed (override the
config's base seed), --threads (0: one per CPU; 1: every trial on the
calling thread; 2 or more: large verify trials overlap their halves on
one helper thread; output is the same for every value) and --strict
(promote advisory check failures to fatal).  Exit codes:
0 success, 1 verification failure, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import PairspecError
from .harness import (
    ExperimentConfig,
    cmd_boundary,
    cmd_sample,
    cmd_sweep,
    cmd_verify,
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config JSON")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument(
        "--seed", type=int, metavar="U64", help="override the config base seed"
    )
    common.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="0 = one per CPU, 1 = calling thread only; output is the same for every value",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="treat advisory check failures as fatal",
    )

    parser = argparse.ArgumentParser(
        prog="pairspec",
        description="Spectra of correlated Gaussian matrix products "
        "versus their predicted supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "sample", parents=[common], help="write eigenvalue clouds to CSV"
    )
    sub.add_parser(
        "boundary", parents=[common], help="write the predicted support boundary"
    )
    sub.add_parser(
        "verify", parents=[common], help="run verification checks, write report"
    )
    sub.add_parser(
        "sweep", parents=[common], help="verify over a (tau, alpha) grid"
    )
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        config = ExperimentConfig.from_json(text)
    else:
        config = ExperimentConfig()
    overrides: dict = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.strict:
        overrides["strict"] = True
    if args.out is not None:
        overrides["out_dir"] = args.out
    return replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "sample":
            path = cmd_sample(config, out_dir=args.out)
            print(f"wrote {path}")
            return 0
        if args.command == "boundary":
            path = cmd_boundary(config, out_dir=args.out)
            print(f"wrote {path}")
            return 0
        if args.command == "verify":
            report, path = cmd_verify(config, out_dir=args.out)
            for check in report.checks:
                print(f"{check.name}: {check.status}")
            print(f"overall: {report.overall} ({path})")
            return report.exit_code
        paths, code = cmd_sweep(config, out_dir=args.out)
        print(f"wrote {len(paths)} reports to {paths[0].parent}")
        return code
    except PairspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
