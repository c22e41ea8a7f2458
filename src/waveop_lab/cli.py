"""Command-line front end.

    waveop-lab <check> [<check> ...] [--config cfg.json] [--out DIR]
                       [--seed N] [--threads N]

where each <check> is one of the named checks or ``all``; the checks
run in their suite order.  Each check maps to exactly one acceptance
criterion and names it in its output line.
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
    p.add_argument("checks", nargs="+", choices=sorted(CHECKS) + ["all"], metavar="check",
                   help=f"checks to run ({', '.join(CHECKS)}), or 'all'")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None,
                   help="output directory (default: $WAVEOP_LAB_OUT, then the config's out_dir)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count for independent lambda nodes (0 = serial)")
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

    names = [n for n in CHECKS if n in args.checks or "all" in args.checks]

    def progress(res):
        extra = "" if res.passed else " | " + "; ".join(res.failures)
        print(f"{res.line()} ({res.runtime_s:.1f}s){extra}")

    results = run_suite(cfg, names, out_dir=out_dir, progress=progress)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; reports in {out_dir}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
