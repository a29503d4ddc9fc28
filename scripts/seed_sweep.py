"""Seed sweep of the checks whose values depend on the sample stream.

    python3 scripts/seed_sweep.py [--src SRC] [--seeds 4000:4300]

Runs every command of SWEEPS at every seed of the half-open range, in this
process, against the ``frame_hebb`` package under SRC (default: this tree's
``src``): both empirical ``train-stream`` commands of the benchmark
(``train --nx 8 --nu 3 --sigma diagonal:4,3.5,3,2,1.5,1,0.8,0.6 --mode
empirical --steps 10000 --batch-size 100 --threshold 0.15``, one per rule),
``equivalence --checks mc-rate-eghr,stein-identity`` (stein-identity samples
nothing, but its covariances follow the seed) and ``frame-check --checks
derivation-chain-agreement,derivation-mc-target`` at the default config.
Prints, per command and check, the seeds whose record failed and the worst
margin abs_error / tolerance with its seed (a record passes at a margin of
at most 1; for ``train-final`` it is the final subspace_error over 0.15),
then the commands that exited with a code other than 0 or 1. Pass another
tree's ``src`` to compare two versions seed by seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAIN = ["train", "--nx", "8", "--nu", "3", "--sigma", "diagonal:4,3.5,3,2,1.5,1,0.8,0.6",
         "--mode", "empirical", "--steps", "10000", "--batch-size", "100", "--threshold", "0.15"]
# name: (argv without --seed and --out, the CSV it writes)
SWEEPS = {
    "train oja": ([*TRAIN, "--rule", "oja"], "train.csv"),
    "train eghr": ([*TRAIN, "--rule", "eghr"], "train.csv"),
    "equivalence": (["equivalence", "--checks", "mc-rate-eghr,stein-identity"],
                    "equivalence.csv"),
    "frame-check": (["frame-check", "--checks",
                     "derivation-chain-agreement,derivation-mc-target"], "frame_check.csv"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", default="4000:4300", help="start:stop, stop excluded")
    args = parser.parse_args()
    start, stop = (int(s) for s in args.seeds.split(":"))
    sys.path.insert(0, str(args.src.resolve()))
    from frame_hebb import cli
    from frame_hebb.records import read_records_csv

    print(f"frame_hebb from {Path(cli.__file__).parent}, seeds {start}..{stop - 1}")
    failed, worst, other = {}, {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(start, stop):
            for name, (argv, csv_name) in SWEEPS.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*argv, "--seed", str(seed), "--out", tmp])
                if code not in (0, 1):
                    other.append((name, seed, code))
                    continue
                for record in read_records_csv(Path(tmp) / csv_name):
                    key = f"{name}: {record.check_name}"
                    failed.setdefault(key, [])
                    if not record.passed:
                        failed[key].append(seed)
                    margin = record.abs_error / record.tolerance
                    worst[key] = max(worst.get(key, (-1.0, None)), (margin, seed))
    for key in failed:
        print(f"{key}: {stop - start} seeds, failed on {len(failed[key])} {failed[key]}, "
              f"worst margin {worst[key][0]:.6f} (seed {worst[key][1]})")
    print(f"other exits {other}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
