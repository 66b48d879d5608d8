"""Command line entry point.

Subcommands map one-to-one onto the report methods:

    lossmc simulate   --config cfg.json [--seed S] [--threads K] [--out csv --path r.csv]
    lossmc sla        --config cfg.json ...
    lossmc panjer     --config cfg.json ...
    lossmc particle   --config cfg.json ...
    lossmc rare-event --config cfg.json ...
    lossmc table1     --preset sigma05 [--scale 0.01] [--out csv --path t.csv]

Failures, usage errors included, print a single JSON object on stderr
({"error": ..., "detail": ...}) and exit 2, so wrappers can parse the
outcome either way.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .report import (
    _METHODS, _TABLE1, ExperimentConfig, emit_report, reproduce_table1, run_experiment,
)

# subcommand -> method kind; crude Monte Carlo runs as "simulate"
_SUBCOMMAND_KIND = {("simulate" if kind == "mc" else kind): kind for kind in _METHODS}


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so that ``main`` reports them as JSON."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", choices=("csv", "json"), default=None,
                        help="report format (default: config output, else csv)")
    parser.add_argument("--path", default=None,
                        help="output file (default: report.<fmt> in cwd)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lossmc",
        description="Compound-loss quantile estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name, help=f"run the {name} method")
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        _add_output(p)
        # only crude Monte Carlo reads a thread count
        if name == "simulate":
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads for the simulation")
    t1 = sub.add_parser("table1", help="three-method benchmark comparison")
    t1.add_argument("--preset", choices=tuple(_TABLE1), required=True)
    t1.add_argument("--scale", type=float, default=1.0,
                    help="budget multiplier in (0, 1]")
    _add_output(t1)
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
    # replace() re-runs the config's validation on the overridden fields
    overrides = {"seed": args.seed, "threads": getattr(args, "threads", None),
                 "output": args.out}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "table1":
            report = reproduce_table1(args.preset, args.scale)
            fmt = args.out or "csv"
        else:
            cfg = _load_config(args, _SUBCOMMAND_KIND[args.command])
            report = run_experiment(cfg)
            fmt = cfg.output
        path = args.path or f"report.{fmt}"
        emit_report(report, fmt, path)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:
        # run_experiment notes which method kind failed, ahead of the message
        detail = ": ".join([*getattr(exc, "__notes__", ()), str(exc)])
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "detail": detail}) + "\n")
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
