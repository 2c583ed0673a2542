"""Command line front end for the convergence benchmark."""

from __future__ import annotations

import argparse
import sys

from .assembly import dump_kappa
from .bench import PRESETS, build_kappa, parse_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslqr",
        description="Multiscale LQR/Riccati convergence benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a convergence study")
    run_p.add_argument("config", help="key = value config file")

    sub.add_parser("presets", help="list built-in experiment presets")

    dk = sub.add_parser("dump-kappa",
                        help="write the diffusion coefficient grid of a "
                             "config to a plain-text file")
    dk.add_argument("config")
    dk.add_argument("out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            width = max(len(name) for name in PRESETS)
            for name in sorted(PRESETS):
                _, desc = PRESETS[name]
                print(f"{name:<{width}}  {desc}")
        elif args.command == "dump-kappa":
            dump_kappa(build_kappa(parse_config(args.config)), args.out)
            print(f"wrote {args.out}")
        elif args.command == "run":
            cfg = parse_config(args.config)
            run_experiment(cfg, log=print)
            print(f"wrote {cfg.output}")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
