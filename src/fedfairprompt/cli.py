"""Command line interface: gen-data, run, sweep, and report.

Every flag value is routed through the config parser so a bad
``--alpha`` fails with the same field-naming message as a bad line in a
config file. Exit status is nonzero iff any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .config import Config, parse_config, parse_value
from .data import Dataset, save_embeddings
from .encoder import VisionEncoder
from .federation import encoder_config, load_splits
from .harness import PRESETS, SWEEP_AXES, run_experiment, run_preset, sweep
from .metrics import METRIC_NAMES

# (CLI flag, Config field, help text)
_FLAGS = (
    ("seed", "master_seed", "master seed for every derived stream"),
    ("out", "out_dir", "output directory"),
    ("method", "method", "training method (fvlfp, fedavg_baseline, wo-cdfp, wo-dsop, wo-fpf)"),
    ("alpha", "alpha", "Dirichlet concentration for the client partition"),
    ("clients", "clients", "number of federated clients"),
    ("rounds", "rounds", "federation rounds"),
    ("mu", "mu", "hinge margin of the group-neutrality regularizer"),
    ("lambda1", "lambda1", "weight of the fairness term in the local loss"),
    ("k", "subspace_rank", "demographic subspace rank"),
)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    for flag, _field, text in _FLAGS:
        parser.add_argument(f"--{flag}", metavar="V", help=text)


def _build_config(args: argparse.Namespace) -> Config:
    overrides = {field: getattr(args, flag) for flag, field, _text in _FLAGS
                 if getattr(args, flag) is not None}
    return parse_config(args.config, overrides)


def _print_summary(summary: dict) -> None:
    for key in ("method", "rounds_completed", *METRIC_NAMES):
        value = summary[key]
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{key}: {text}")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = replace(_build_config(args), data_dir="")
    encoder = VisionEncoder(encoder_config(config))
    os.makedirs(config.out_dir, exist_ok=True)
    for name, split in zip(("train", "val", "test"), load_splits(config, encoder)):
        # one frozen-encoder feature row per image: the mean patch
        # embedding, the stand-in for features from an external encoder
        features = split.features.mean(axis=1, keepdims=True)
        path = os.path.join(config.out_dir, f"{name}.emb")
        save_embeddings(
            Dataset(features=features, labels=split.labels, groups=split.groups,
                    kind="features"),
            path,
        )
        print(f"wrote {path} ({len(split)} samples, dim {features.shape[2]})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run_experiment(config)
    print(f"outputs in {config.out_dir}")
    _print_summary(report.summary())
    if report.incomplete:
        print(f"run failed: {report.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if bool(args.preset) == bool(args.axis) or (args.preset and args.values):
        raise ValueError("sweep needs exactly one of --preset or --axis/--values")
    config = _build_config(args)
    if args.preset:
        result = run_preset(args.preset, config, args.replicates)
        sweeps, what = result.sweeps.values(), f"preset {args.preset}"
    else:
        if not args.values:
            raise ValueError("--axis needs --values (comma separated)")
        values = [parse_value(args.axis, v) for v in args.values.split(",")]
        result = sweep(config, args.axis, values, replicates=args.replicates)
        sweeps, what = [result], f"sweep over {args.axis}"
    print(result.table(), end="")
    if not result.failed:
        return 0
    for swept in sweeps:
        for cell in swept.cells:
            if cell.failed:  # a raised error, or the failure of a flagged run
                print(f"{swept.axis}={cell.value} replicate {cell.replicate}: {cell.error}",
                      file=sys.stderr)
    print(f"{what} had failed cells", file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.out
    json_path = os.path.join(run_dir, "report.json")
    md_path = os.path.join(run_dir, "summary.md")
    if not os.path.exists(json_path):
        raise ValueError(f"no report.json under {run_dir}")
    with open(json_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(md_path, "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    if payload.get("incomplete"):
        print(f"run failed: {payload.get('failure', '')}", file=sys.stderr)
        return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfairprompt",
        description="fairness-aware federated prompt learning on a frozen encoder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write train/val/test embedding files")
    _add_common_flags(gen)
    gen.set_defaults(func=_cmd_gen_data)

    run = sub.add_parser("run", help="single federation run")
    _add_common_flags(run)
    run.set_defaults(func=_cmd_run)

    sw = sub.add_parser("sweep", help="axis sweep or named preset")
    _add_common_flags(sw)
    sw.add_argument("--preset", choices=sorted(PRESETS), help="named table preset")
    sw.add_argument("--axis", choices=SWEEP_AXES, help="config field to sweep")
    sw.add_argument("--values", metavar="V1,V2,...",
                    help="swept values; write --values=-1,0.5 when the first is negative")
    sw.add_argument("--replicates", type=int, default=3, metavar="R",
                    help="replicates per cell (default 3)")
    sw.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="print the summary of a finished run")
    rep.add_argument("--out", metavar="DIR", default="runs",
                     help="run directory (default runs)")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
