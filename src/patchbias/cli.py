"""Command line front end: generate | patchify | analyze | train | report."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import PatchBiasError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchbias",
        description="Synthetic patch-bias pipeline: data, composition analysis, debiased training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument(
            "--out", default=None,
            help=f"output root; overrides ${harness.ENV_OUT_ROOT} and the config's out_root",
        )
        return p

    add("generate", "render the synthetic image corpus")
    add("patchify", "tile images into labeled patch records")
    analyze = add("analyze", "composition histograms and bias reports")
    analyze.add_argument("--predictions", default=None, help="prediction CSV to overlay on the histograms")
    add("train", "run the full training grid")
    add("report", "assemble the final results table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # each stage validates the config and resolves the output root itself
        config = harness.load_config(args.config)
        if args.command == "generate":
            harness.cmd_generate(config, args.out)
        elif args.command == "patchify":
            harness.cmd_patchify(config, args.out)
        elif args.command == "analyze":
            harness.cmd_analyze(config, args.out, predictions=args.predictions)
        elif args.command == "train":
            harness.cmd_train(config, args.out)
        else:
            harness.cmd_report(config, args.out)
    except PatchBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
