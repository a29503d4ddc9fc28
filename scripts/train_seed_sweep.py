"""Seed sweep of the benchmark's two empirical ``train`` commands.

    python3 scripts/train_seed_sweep.py [--src SRC] [--seeds 4000:4300]

Runs ``frame-hebb train --nx 8 --nu 3 --sigma diagonal:4,3.5,3,2,1.5,1,0.8,0.6
--mode empirical --steps 10000 --batch-size 100 --threshold 0.15`` for both
rules at every seed of the half-open range, in this process, against the
``frame_hebb`` package under SRC (default: this tree's ``src``). Prints, per
rule, the number of runs whose ``train-final`` check failed or that exited
with another code, and the worst final ``subspace_error`` with its seed.
Pass another tree's ``src`` to compare two sample streams seed by seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["--nx", "8", "--nu", "3", "--sigma", "diagonal:4,3.5,3,2,1.5,1,0.8,0.6",
        "--mode", "empirical", "--steps", "10000", "--batch-size", "100",
        "--threshold", "0.15"]


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
    with tempfile.TemporaryDirectory() as tmp:
        for rule in ("oja", "eghr"):
            failed, other, worst = [], [], (-1.0, None)
            for seed in range(start, stop):
                argv = ["train", "--rule", rule, "--seed", str(seed), "--out", tmp, *ARGS]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code not in (0, 1):
                    other.append((seed, code))
                    continue
                record = read_records_csv(Path(tmp) / "train.csv")[0]
                if not record.passed:
                    failed.append(seed)
                worst = max(worst, (record.value, seed))
            print(f"{rule}: {stop - start} seeds, train-final failed on {len(failed)} "
                  f"{failed}, other exits {other}, worst final subspace_error "
                  f"{worst[0]:.4f} (seed {worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
