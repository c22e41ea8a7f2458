"""Passes of a workload in a fresh process, as a user's run would make them.

    python3 perfbench/one_pass.py --workload NAME --seed N --out DIR
                                  [--trace] [--setup-only] [--seconds S]

The process sets up (imports, config load and validation, a
``SuiteContext`` with its potentials built) and prints ``READY``; the
parent times set-up from process start to that line.  It then runs the
workload's checks through ``experiments.run_suite`` with reports
written to DIR, and prints one JSON line: the pass's wall and CPU time,
its peak resident memory and each check's status.  With ``--trace`` the
per-module wrappers are installed first and their record is written to
DIR/trace.json.

With ``--seconds S`` the process makes a warm-up pass into DIR/pass0,
then timed passes into DIR/pass1, DIR/pass2, ... until the next one
would end more than S seconds after the warm-up began (at least one
timed pass).  Its JSON line then lists every pass.  The peak resident
memory is read after the warm-up, so it is that of set-up and one
pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from waveop_lab import experiments, parallel  # noqa: E402
from waveop_lab.config import load_config  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads()}


def run_pass(cfg, checks, out: str) -> dict:
    """One pass of the checks, reports written to ``out``."""
    statuses = {}

    def progress(res):
        statuses[res.name] = res.status

    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        experiments.run_suite(cfg, checks, out_dir=out, progress=progress)
    except Exception as exc:  # a raising check is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    for name in checks:
        statuses.setdefault(name, "ERROR")
    return {"wall_s": wall, "cpu_s": cpu, "statuses": statuses, "error": error}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(dict(wl["overrides"], seed=args.seed, out_dir=args.out), fh)
    cfg = load_config(cfg_path)
    parallel.set_threads(cfg.threads)
    ctx = experiments.SuiteContext(cfg)
    ctx.potential()
    ctx.expansion_potential()
    ctx.rep_potential()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.seconds is not None:
        t_start = time.perf_counter()
        passes = [run_pass(cfg, wl["checks"], os.path.join(args.out, "pass0"))]
        rss_mb = _peak_rss_mb()
        while True:
            passes.append(run_pass(cfg, wl["checks"],
                                   os.path.join(args.out, f"pass{len(passes)}")))
            if time.perf_counter() - t_start + passes[-1]["wall_s"] > args.seconds:
                break
        print(json.dumps({"passes": passes, "peak_rss_mb": rss_mb, "env": environment()}),
              flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    record = run_pass(cfg, wl["checks"], args.out)
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    record.update(peak_rss_mb=_peak_rss_mb(), env=environment())
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
