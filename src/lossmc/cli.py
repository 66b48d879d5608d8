"""Command line entry point.

Subcommands map one-to-one onto the report methods:

    lossmc simulate   --config cfg.json [--seed S] [--out csv --path r.csv]
    lossmc sla        --config cfg.json ...
    lossmc panjer     --config cfg.json ...
    lossmc particle   --config cfg.json ...
    lossmc rare-event --config cfg.json ...
    lossmc table1     --preset sigma05 [--scale 0.01] ...

Failures print a single JSON object on stderr ({"error": ..., "detail": ...})
and exit nonzero, so wrappers can parse the outcome either way.
"""
from __future__ import annotations

import argparse
import json
import sys

from .report import ExperimentConfig, emit_report, reproduce_table1, run_experiment

_SUBCOMMAND_KIND = {
    "simulate": "mc",
    "sla": "sla",
    "panjer": "panjer",
    "particle": "particle",
    "rare-event": "rare-event",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", choices=("csv", "json"), default=None,
                        help="report format (default: config output, else csv)")
    parser.add_argument("--path", default=None,
                        help="output file (default: report.<fmt> in cwd)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for simulation methods")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossmc",
        description="Compound-loss quantile estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name, help=f"run the {name} method")
        _add_common(p)
    t1 = sub.add_parser("table1", help="three-method benchmark comparison")
    t1.add_argument("--preset", choices=("sigma05", "sigma1"), required=True)
    t1.add_argument("--scale", type=float, default=1.0,
                    help="budget multiplier in (0, 1]")
    _add_common(t1)
    return parser


def _load_config(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    if not args.config:
        raise ValueError(f"{args.command} requires --config")
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.method.get("kind") != kind:
        raise ValueError(
            f"config method.kind is {cfg.method.get('kind')!r} but the "
            f"{args.command} subcommand runs {kind!r}"
        )
    if args.seed is not None:
        cfg.seed = int(args.seed)
    if args.threads is not None:
        cfg.threads = int(args.threads)
    if args.out is not None:
        cfg.output = args.out
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "table1":
            report = reproduce_table1(args.preset, args.scale)
            fmt = args.out or "csv"
        else:
            cfg = _load_config(args, _SUBCOMMAND_KIND[args.command])
            report = run_experiment(cfg)
            fmt = cfg.output
        path = args.path or f"report.{fmt}"
        emit_report(report, fmt, path)
    except Exception as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)}) + "\n")
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
