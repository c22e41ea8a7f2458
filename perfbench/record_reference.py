"""Record the drift reference: the seed-independent numbers of each workload.

    python3 perfbench/record_reference.py

Runs one pass of every workload at two seeds, requires the gated
numbers to agree between the seeds (so they really are seed-independent)
and writes the first seed's values to perfbench/reference.json.  Run it
only at a commit whose numbers are the agreed reference.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import run_pass  # noqa: E402
from workloads import WORKLOADS, drift_values, max_rel_drift  # noqa: E402

SEEDS = (7, 8)


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        values = []
        for seed in SEEDS:
            out = os.path.join(HERE, "out", "reference", f"{name}-seed{seed}")
            rec = run_pass(name, seed, out)
            bad = {c: s for c, s in rec["statuses"].items() if s != "PASS"}
            if bad:
                print(f"{name} seed {seed}: checks not passing: {bad}", file=sys.stderr)
                return 1
            values.append(drift_values(out, wl["checks"]))
        gap, missing = max_rel_drift(values[1], values[0])
        if missing or gap > 1e-12:
            print(f"{name}: gated numbers depend on the seed (gap {gap:.3g}, "
                  f"missing {missing})", file=sys.stderr)
            return 1
        reference[name] = values[0]
        print(f"{name}: {len(values[0])} numbers", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
