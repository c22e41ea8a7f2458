"""Command-line front end.

    waveop-lab <check> [--config cfg.json] [--out DIR] [--seed N]
                       [--threads N] [--check NAME ...]

where <check> is one of the named checks or ``all``.  Each check maps
to exactly one acceptance criterion and names it in its output line.
Exit status: 0 when every executed check passes, 1 when a check fails
or raises (reports are still written), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import parallel
from .config import ConfigError, load_config
from .experiments import CHECKS, run_suite


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="waveop-lab",
        description="desk-scale checks for low-energy wave-operator kernels")
    p.add_argument("command", choices=sorted(CHECKS) + ["all"],
                   help="check to run, or 'all'")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None,
                   help="output directory (default: config, then $WAVEOP_LAB_OUT)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count for independent lambda nodes (0 = serial)")
    p.add_argument("--check", action="append", default=None, metavar="NAME",
                   help="with 'all': restrict to these named checks (repeatable)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    overrides = {k: v for k, v in (("seed", args.seed), ("threads", args.threads))
                 if v is not None}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parallel.set_threads(cfg.threads)
    out_dir = args.out or os.environ.get("WAVEOP_LAB_OUT") or cfg.out_dir

    if args.command == "all":
        names = list(CHECKS)
        if args.check:
            bad = [c for c in args.check if c not in CHECKS]
            if bad:
                print(f"unknown check names: {bad}", file=sys.stderr)
                return 2
            names = [n for n in names if n in set(args.check)]
    else:
        names = [args.command]

    def progress(res):
        extra = "" if res.passed else " | " + "; ".join(res.failures)
        print(f"{res.line()} ({res.runtime_s:.1f}s){extra}")

    report = run_suite(cfg, names, out_dir=out_dir, progress=progress)
    n_fail = sum(not r.passed for r in report.results)
    print(f"{len(report.results) - n_fail}/{len(report.results)} checks passed; "
          f"reports in {out_dir}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
