"""Benchmark of the waveop-lab verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics: set-up is probed in fresh processes, then one fresh process
makes a warm-up pass of the workload and timed passes until the next
one would end after S seconds (at least one timed pass).  Each metric
is the median over the run's samples.  ``--trace 1`` makes one
untraced and one traced pass and reports the per-module metrics of the
traced one.

Every pass is checked: each check must PASS, every seed-independent
measured number must match reference.json within DRIFT_TOL, and the
traced pass must write the same report and CSVs as the untraced one.
The metrics are printed as a table with units, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DRIFT_TOL, WORKLOADS, drift_values, max_rel_drift  # noqa: E402

SETUP_PROBES = 7
# every process a run starts must have ended this long after the run began
RUN_DEADLINE_S = 170.0
_T0 = time.perf_counter()

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# per-module metric -> (trace stat, field, unit)
PER_LAYER = {
    "resolvent.m_tilde.calls": ("resolvent.m_tilde", "calls", "count"),
    "resolvent.m_tilde.s": ("resolvent.m_tilde", "s", "s"),
    "resolvent.linalg_inv.calls": ("resolvent.linalg_inv", "calls", "count"),
    "resolvent.linalg_inv.s": ("resolvent.linalg_inv", "s", "s"),
    "resolvent.expansion_terms.s": ("resolvent.expansion_terms", "s", "s"),
    "kernels.K3Evaluator.eval_pairs.calls": ("kernels.K3Evaluator.eval_pairs", "calls", "count"),
    "kernels.K3Evaluator.eval_pairs.s": ("kernels.K3Evaluator.eval_pairs", "s", "s"),
    "kernels.make_psi_batch.calls": ("kernels.make_psi_batch", "calls", "count"),
    "kernels.make_psi_batch.points": ("kernels.make_psi_batch", "points", "count"),
    "kernels.make_psi_batch.s": ("kernels.make_psi_batch", "s", "s"),
    "quadrature.integrate_adaptive.calls": ("quadrature.integrate_adaptive", "calls", "count"),
    "quadrature.integrate_adaptive.points": ("quadrature.integrate_adaptive", "points", "count"),
    "quadrature.integrate_adaptive.s": ("quadrature.integrate_adaptive", "s", "s"),
    "quadrature.integrate_adaptive.self_s": ("quadrature.integrate_adaptive", "self_s", "s"),
    "specfun.eval_F.calls": ("specfun.eval_F", "calls", "count"),
    "specfun.eval_F.points": ("specfun.eval_F", "points", "count"),
    "specfun.eval_F.s": ("specfun.eval_F", "s", "s"),
    "singular.schur_growth.s": ("singular.schur_growth", "s", "s"),
    "potential.build_potential.s": ("potential.build_potential", "s", "s"),
    "parallel.pmap.calls": ("parallel.pmap", "calls", "count"),
    "parallel.pmap.items": ("parallel.pmap", "points", "count"),
}
PER_LAYER.update({f"experiments.check.{c}.s": (f"experiments.check.{c}", "s", "s")
                  for wl in WORKLOADS.values() for c in wl["checks"]})

# per-module metrics that are not span statistics
PER_LAYER_EXTRA = {
    "quadrature.integrate_adaptive.err_ratio_max": "ratio",
    "quadrature.integrate_adaptive.accuracy_errors": "count",
    "resolvent.linalg_inv.gflop": "GFLOP",
    "suite.fail_ratio": "ratio",
    "suite.max_rel_drift": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    """Environment of a pass: BLAS threads pinned to the cores we may use."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def run_pass(workload: str, seed: int, out: str, trace=False, setup_only=False,
             seconds=None) -> dict:
    """Run one pass (or, given ``seconds``, a timed series of passes) in a
    fresh process; returns its record with setup_s."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - _T0))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass process exceeded the run's {RUN_DEADLINE_S:g} s "
                         f"in {out}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"pass process failed (exit {proc.returncode}) in {out}")
    record = json.loads(rest.strip().splitlines()[-1]) if not setup_only else {}
    record["setup_s"] = setup_s
    return record


def check_pass(workload: str, record: dict, out: str, reference: dict) -> dict:
    """Statuses and drift of one pass."""
    checks = WORKLOADS[workload]["checks"]
    failed = sum(record["statuses"].get(c) != "PASS" for c in checks)
    drift, missing = max_rel_drift(drift_values(out, checks), reference)
    return {"attempted": len(checks), "failed": failed, "drift": drift, "missing": missing}


def _same_outputs(a: str, b: str, names) -> bool:
    files = ["report.json"] + [f"{n}.csv" for n in names
                               if os.path.exists(os.path.join(a, f"{n}.csv"))]
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


def measure(workload: str, seed: int, seconds: float, out_root: str, reference: dict):
    t_start = time.perf_counter()
    setups = [run_pass(workload, seed, os.path.join(out_root, f"probe{i}"),
                       setup_only=True)["setup_s"] for i in range(SETUP_PROBES)]
    rec = run_pass(workload, seed, out_root,
                   seconds=max(0.0, seconds - (time.perf_counter() - t_start)))
    setups.append(rec["setup_s"])
    passes = rec["passes"]
    gates = [check_pass(workload, p, os.path.join(out_root, f"pass{k}"), reference)
             for k, p in enumerate(passes)]
    walls = [p["wall_s"] for p in passes[1:]]
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": rec["peak_rss_mb"]}
    notes = {"timed_passes": len(walls), "setup_samples": len(setups),
             "warmup_wall_s": passes[0]["wall_s"], "wall_s_all": walls,
             "cpu_s_all": [p["cpu_s"] for p in passes[1:]], "setup_s_all": setups,
             "env": rec["env"]}
    return metrics, gates, notes


def trace(workload: str, seed: int, out_root: str, reference: dict):
    plain_out = os.path.join(out_root, "untraced")
    traced_out = os.path.join(out_root, "traced")
    plain = run_pass(workload, seed, plain_out)
    traced = run_pass(workload, seed, traced_out, trace=True)
    gates = [check_pass(workload, plain, plain_out, reference),
             check_pass(workload, traced, traced_out, reference)]
    same = _same_outputs(plain_out, traced_out, WORKLOADS[workload]["checks"])
    with open(os.path.join(traced_out, "trace.json")) as fh:
        tr = json.load(fh)
    stats = tr["stats"]
    metrics = {}
    for name, (stat, field, _unit) in PER_LAYER.items():
        metrics[name] = stats.get(stat, {}).get(field, 0)
    attempted = sum(g["attempted"] for g in gates)
    metrics.update({
        "quadrature.integrate_adaptive.err_ratio_max": tr["quadrature_err_ratio_max"],
        "quadrature.integrate_adaptive.accuracy_errors": tr["quadrature_accuracy_errors"],
        "resolvent.linalg_inv.gflop": tr["linalg_inv_gflop"],
        "suite.fail_ratio": sum(g["failed"] for g in gates) / attempted,
        "suite.max_rel_drift": max(g["drift"] for g in gates),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    notes = {"untraced_wall_s": plain["wall_s"], "outputs_identical": same,
             "linalg_inv_sizes": tr["linalg_inv_sizes"], "env": traced["env"]}
    return metrics, gates, notes, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "waveop_lab", "experiments.py")):
        print("perfbench: src/waveop_lab not found; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]

    out_root = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        if args.trace:
            metrics, gates, notes, same = trace(args.workload, args.seed, out_root, reference)
            units = {n: u for n, (_, _, u) in PER_LAYER.items()}
            units.update(PER_LAYER_EXTRA)
        else:
            metrics, gates, notes = measure(args.workload, args.seed, args.seconds,
                                            out_root, reference)
            same = True
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    drift = max(g["drift"] for g in gates)
    missing = sorted({m for g in gates for m in g["missing"]})
    correct = failed == 0 and drift <= DRIFT_TOL and not missing and same

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "fail_ratio": failed / attempted, "max_rel_drift": drift,
               "drift_values_gated": len(reference), "missing": missing, **notes}
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=2)
    for name, value in metrics.items():
        print(f"{name:50s} {value:>16.6g} {units[name]}")
    print(json.dumps(summary, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
