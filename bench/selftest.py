"""Tracer completeness self-test.

    python3 bench/selftest.py

Runs one traced repetition of each workload at seed 42 and compares the
layer counts with the values pinned below: the counts of the frame_hebb
sources on which the benchmark was defined. A tracer that wrapped only
``frame_hebb.gaussian.sample`` and not the names imported from it would see
a fraction of these calls. A change that alters the call structure on purpose
(sharing sample batches, for example) updates the pins and says why.
"""

from __future__ import annotations

import math
import sys
import time

import run

SEED = 42

PINNED = {
    "verify-default": {
        "gaussian.sample.calls": 1078,
        "gaussian.sample.rows": 18_133_000,
        "gaussian.sample.distinct_row_ratio": 11_467_000 / 18_133_000,
        "linalg.build_covariance.calls": 2062,
    },
    "frame-wide": {
        "frames.frame_operator_analytic.calls": 4,
        "linalg.kron.calls": 6,
        "linalg.commutation_matrix.calls": 6,
        "gaussian.sample.calls": 1002,
        "gaussian.sample.rows": 9192,
        "checks.records_kept_ratio": 7 / 9,
    },
    "train-stream": {
        "gaussian.sample.calls": 20_002,
        "gaussian.sample.rows": 2_000_200,
        "closed_updates": 40_002,
    },
}


def main() -> int:
    env = run.child_env()
    mismatches = []
    for workload, pins in PINNED.items():
        workdir = run.RESULTS / "selftest" / workload
        deadline = time.perf_counter() + run.RUN_DEADLINE_S
        rep = run.run_rep(workload, SEED, workdir, env, deadline, traced=True)
        mismatches += [f"{workload}: {p}" for p in rep.problems]
        m = run.layer_metrics(run.layer_table(rep), rep.records)
        m["closed_updates"] = (m["rules.oja_update_closed.calls"]
                               + m["rules.eghr_update_closed.calls"])
        for name, want in pins.items():
            got = m[name]
            ok = math.isclose(got, want, rel_tol=1e-12)
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<15} {name:<40} "
                  f"{got:>14.6g} (pinned {want:.6g})")
            if not ok:
                mismatches.append(f"{workload}: {name} = {got}, pinned {want}")
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
