"""frame-hebb benchmark: times the CLI end to end and, traced, layer by layer.

    python3 bench/run.py --workload verify-default --seed 42 --seconds 40 --trace 0

Each ``frame-hebb`` command of a workload runs in a fresh child process, one
at a time, the way users run the CLI; the workload seed is passed as
``--seed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller result,
with machine notes, every repetition and a sha256 per CSV, is written to
``bench/results/<workload>-seed<seed>-trace<trace>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CHILD = BENCH / "child.py"

# One BLAS thread: on the 2-CPU reference machine it gave the narrowest
# run-to-run spread, and it makes every run the plain single-threaded
# baseline of the same problem.
BLAS_THREADS = 1
# Set-up spawns per round. They are spread over the whole run, like the
# repetitions, so that a burst of load on a shared machine cannot cover all
# of them.
SETUP_SPAWNS = 2
# Spawns per round of ``child.py reference``, a fixed task with no
# frame_hebb code. A shared host's speed drifts by up to 1.5x over minutes,
# so the gated wall metric divides each repetition's wall time by the mean
# reference wall time of its own round.
REFERENCE_SPAWNS = 2
# Every run must end within 180 s; a child still running at this point is
# killed and counted as failed.
RUN_DEADLINE_S = 165.0

EQUIVALENCE_CHECKS = [
    "closed-equivalence", "fixed-point-sharing", "stein-identity",
    "mc-rate-oja", "mc-rate-eghr",
]
FRAME_CHECKS = [
    "frame-bounds", "kernel-annihilation", "restricted-inverse",
    "coefficient-identity", "cancellation-identity", "isserlis-analytic",
    "isserlis-empirical", "mc-rate-frame-operator", "mc-rate-frame-expansion",
    "derivation-chain-agreement", "derivation-mc-target",
]
# The Monte-Carlo checks are left out at nx=32: their tolerances are sized
# for nx=4 and n=1e6, and at n=4096 they fail on statistics, not on a defect.
WIDE_CHECKS = [
    "frame-bounds", "kernel-annihilation", "restricted-inverse",
    "coefficient-identity", "cancellation-identity", "isserlis-analytic",
    "derivation-chain-agreement",
]
TRAIN_SIGMA = "diagonal:4,3.5,3,2,1.5,1,0.8,0.6"


@dataclass(frozen=True)
class Command:
    """One ``frame-hebb`` invocation: subcommand, flag overrides (the keys of
    ``load_config``) and the check names its records CSV must hold."""

    name: str
    overrides: dict
    expect_checks: tuple[str, ...]

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [self.name, "--seed", str(seed), "--out", str(out)]
        for key, value in self.overrides.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args


def _train(rule: str, mode: str, steps: int, **extra) -> Command:
    overrides = dict(nx=8, nu=3, sigma=TRAIN_SIGMA, rule=rule, mode=mode,
                     steps=steps, **extra)
    return Command("train", overrides, ("train-final",))


WORKLOADS = {
    "verify-default": (
        Command("equivalence", {}, tuple(EQUIVALENCE_CHECKS)),
        Command("frame-check", {}, tuple(FRAME_CHECKS)),
    ),
    "frame-wide": (
        Command("frame-check",
                dict(nx=32, nu=4, samples=4096, checks=",".join(WIDE_CHECKS)),
                tuple(WIDE_CHECKS)),
    ),
    "train-stream": (
        _train("oja", "closed", 20000),
        _train("eghr", "closed", 20000),
        _train("oja", "empirical", 10000, batch_size=100, threshold=0.15),
        _train("eghr", "empirical", 10000, batch_size=100, threshold=0.15),
    ),
}

CHECK_NAMES = EQUIVALENCE_CHECKS + FRAME_CHECKS + ["train-final"]

# Span names in the traced run, as the layer metrics name them.
CALL_COUNTED = [
    "gaussian.sample", "rules.oja_update_closed", "rules.eghr_update_closed",
    "rules.as_weights", "rules.subspace_error", "frames.frame_operator_analytic",
    "frames.frame_operator_empirical", "frames.restricted_inverse_apply",
    "linalg.kron", "linalg.commutation_matrix", "linalg.build_covariance",
]
SELF_TIMED = [
    "gaussian.sample", "gaussian.stein_check", "gaussian.isserlis_fourth_moment",
    "rules.oja_update_empirical", "rules.eghr_update_empirical",
    "rules.oja_update_closed", "rules.eghr_update_closed", "rules.as_weights",
    "rules.subspace_error", "rules.train",
    "frames.frame_operator_analytic", "frames.frame_operator_empirical",
    "frames.frame_expansion_reconstruct", "frames.derive_eghr_from_oja",
    "frames.restricted_inverse_apply",
    "linalg.kron", "linalg.commutation_matrix", "linalg.build_covariance",
    "checks.closed-equivalence", "checks.fixed-point-sharing",
    "checks.stein-identity", "checks.mc-rate-oja", "checks.mc-rate-eghr",
    "checks.frame-bounds", "checks.kernel-annihilation",
    "checks.restricted-inverse", "checks.coefficient-cancellation-identity",
    "checks.isserlis", "checks.mc-rate-frame-operator",
    "checks.mc-rate-frame-expansion", "checks.derivation",
    "records.write_records_csv", "config.load_config",
]


def _layer_metric_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALL_COUNTED}
    units["gaussian.sample.rows"] = "count"
    units["gaussian.sample.distinct_row_ratio"] = "ratio"
    units["linalg.kron.bytes"] = "bytes_computed"
    units.update({f"{n}.self_s": "s" for n in SELF_TIMED})
    units["checks.records_kept_ratio"] = "ratio"
    units.update({f"checks.{c}.margin": "ratio" for c in CHECK_NAMES})
    units["trace.overhead_s"] = "s"
    return units


LAYER_METRICS = _layer_metric_units()
END_TO_END_METRICS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    spawn_ns: int


def spawn(argv: list[str], log: Path, env: dict, deadline: float) -> Exit:
    """Run ``argv`` to completion with stdout and stderr in ``log``; the peak
    RSS comes from the child's own rusage. A child still running at
    ``deadline`` (perf_counter time) is killed."""
    with open(log, "wb") as out:
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
        ])
    ready = False
    pidfd = os.pidfd_open(pid)
    try:
        ready = bool(select.select([pidfd], [], [], max(0.0, deadline - t0))[0])
    finally:
        os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL
    cpu = usage.ru_utime + usage.ru_stime
    return Exit(code, wall, cpu, usage.ru_maxrss / 1024.0, spawn_ns)


def measure_setup(command: Command, seed: int, log: Path, env: dict,
                  deadline: float) -> float:
    """Seconds from spawn until a command is ready to run its first check."""
    overrides = json.dumps({"seed": seed, **command.overrides})
    argv = [sys.executable, str(CHILD), "setup", overrides]
    res = spawn(argv, log, env, deadline)
    if res.code != 0:
        raise RuntimeError(f"set-up probe exited {res.code}; see {log}")
    return (int(log.read_text().split()[-1]) - res.spawn_ns) / 1e9


# ---------------------------------------------------------------------------
# One repetition of a workload


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        if not fh.readline().startswith("# frame-hebb-csv"):
            return []  # a trajectory CSV
        return list(csv.DictReader(fh))


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    digests: dict[str, str]
    records: list[dict]
    attempted: int
    failed: int
    problems: list[str]
    spans: list[Path]


def run_rep(name: str, seed: int, workdir: Path, env: dict, deadline: float,
            traced: bool) -> Rep:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    wall, cpu, rss, attempted, failed = 0.0, 0.0, 0.0, 0, 0
    digests, records, problems, spans = {}, [], [], []
    for k, command in enumerate(WORKLOADS[name]):
        label = f"{k}-{command.name}"
        out = workdir / label
        args = command.argv(seed, out)
        span_path = workdir / f"{label}.spans.npz"
        if traced:
            argv = [sys.executable, str(CHILD), "trace", str(span_path)] + args
        else:
            argv = [sys.executable, "-m", "frame_hebb.cli"] + args
        res = spawn(argv, workdir / f"{label}.log", env, deadline)
        if traced:
            if span_path.is_file():
                spans.append(span_path)
            else:
                problems.append(f"{label} saved no spans")
        wall += res.wall_s
        cpu += res.cpu_s
        rss = max(rss, res.maxrss_mb)
        attempted += 1
        if res.code != 0:
            failed += 1
            problems.append(f"{label} exited {res.code}")
        found = []
        for csv_path in sorted(out.glob("*.csv")) if out.is_dir() else []:
            digests[f"{label}/{csv_path.name}"] = sha256(csv_path)
            for row in read_records(csv_path):
                row["command"] = label
                found.append(row["check_name"])
                records.append(row)
                attempted += 1
                if row["passed"] != "true":
                    failed += 1
                    problems.append(f"{label} {row['check_name']} FAIL")
        if found != list(command.expect_checks):
            problems.append(f"{label} wrote checks {found}, "
                            f"expected {list(command.expect_checks)}")
    return Rep(wall, cpu, rss, digests, records, attempted, failed, problems, spans)


# ---------------------------------------------------------------------------
# Traced repetitions -> layer metrics


def layer_table(rep: Rep) -> dict:
    """Calls, self time and amounts per span name, summed over the commands
    of one traced repetition. A span's self time is its duration minus the
    time covered by its direct children."""
    import numpy as np

    table: dict[str, dict] = {}
    bindings: dict[str, int] = {}
    for path in rep.spans:
        with np.load(path) as f:
            t = {k: f[k] for k in f.files}
        dur = t["end"] - t["start"]
        has_parent = t["parent"] >= 0
        child = np.bincount(t["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        for k, name in enumerate(t["names"].tolist()):
            sel = t["name_index"] == k
            row = table.setdefault(name, dict(calls=0, self_s=0.0, amount=0,
                                              first_amount=0))
            row["calls"] += int(sel.sum())
            row["self_s"] += float(self_s[sel].sum())
            row["amount"] += int(t["amount"][sel].sum())
            row["first_amount"] += int(t["amount"][sel & t["first_draw"]].sum())
        bindings = json.loads(str(t["bindings"]))
    return {"spans": table, "bindings": bindings}


def margins(records: list[dict]) -> dict[str, float]:
    """error / tolerance per check (the worst one when a check repeats)."""
    out: dict[str, float] = {}
    for r in records:
        err = float(r["rel_error"] if r["metric"] == "rel" else r["abs_error"])
        m = err / float(r["tolerance"])
        out[r["check_name"]] = max(m, out.get(r["check_name"], m))
    return out


def layer_metrics(table: dict, records: list[dict]) -> dict[str, float]:
    spans = table["spans"]
    zero = dict(calls=0, self_s=0.0, amount=0, first_amount=0)
    get = lambda n: spans.get(n, zero)
    m: dict[str, float] = {}
    for n in CALL_COUNTED:
        m[f"{n}.calls"] = get(n)["calls"]
    for n in SELF_TIMED:
        m[f"{n}.self_s"] = get(n)["self_s"]
    sample = get("gaussian.sample")
    m["gaussian.sample.rows"] = sample["amount"]
    m["gaussian.sample.distinct_row_ratio"] = (
        sample["first_amount"] / sample["amount"] if sample["amount"] else 1.0)
    m["linalg.kron.bytes"] = get("linalg.kron")["amount"]
    produced = sum(v["amount"] for n, v in spans.items() if n.startswith("checks."))
    # train writes a record the CLI makes itself, with no check function.
    produced += sum(1 for r in records if r["check_name"] == "train-final")
    m["checks.records_kept_ratio"] = len(records) / produced if produced else 1.0
    found = margins(records)
    for c in CHECK_NAMES:
        m[f"checks.{c}.margin"] = found.get(c, 0.0)
    return m


# ---------------------------------------------------------------------------
# Machine notes


def machine_notes() -> dict:
    import numpy as np

    notes = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]
        notes["blas"] = {k: {f: v.get(f) for f in ("name", "version",
                                                   "openblas configuration")}
                         for k, v in cfg.items()}
    except (KeyError, TypeError, ValueError) as exc:
        notes["blas"] = f"unavailable: {exc}"
    try:
        with open("/proc/cpuinfo") as fh:
            info = dict(map(str.strip, line.split(":", 1)) for line in fh if ":" in line)
        notes["cpu_model"] = info.get("model name", "")
    except OSError:
        notes["cpu_model"] = platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    notes["caches"] = caches
    return notes


# ---------------------------------------------------------------------------
# A run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    scratch = RESULTS / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    notes = machine_notes()

    first = WORKLOADS[workload][0]
    # One untimed warm-up spawn writes the bytecode and fills the file cache.
    measure_setup(first, seed, scratch / "setup-warmup.log", env, deadline)

    setup: list[float] = []
    reference: list[float] = []
    plain: list[Rep] = []
    traced: list[Rep] = []
    rounds: list[float] = []
    t_measure = time.perf_counter()
    # Repeat while the next round is expected to end inside the window, and
    # at least twice, so that two runs of the same inputs can be compared
    # byte for byte.
    while len(plain) + len(traced) < 2 or (
        time.perf_counter() - t_measure + median(rounds) <= seconds
        and time.perf_counter() + 2 * max(rounds) < deadline
    ):
        t_round = time.perf_counter()
        k = len(plain)
        for j in range(SETUP_SPAWNS):
            setup.append(measure_setup(first, seed, scratch / f"setup-{k}-{j}.log",
                                       env, deadline))
        ref = [spawn([sys.executable, str(CHILD), "reference"],
                     scratch / f"reference-{k}-{j}.log", env, deadline)
               for j in range(REFERENCE_SPAWNS)]
        if any(r.code != 0 for r in ref):
            raise RuntimeError(f"reference task exited {[r.code for r in ref]}")
        reference.append(fmean(r.wall_s for r in ref))
        plain.append(run_rep(workload, seed, scratch / f"rep{k}", env, deadline, False))
        if trace:
            traced.append(run_rep(workload, seed, scratch / f"rep{k}-traced",
                                  env, deadline, True))
        rounds.append(time.perf_counter() - t_round)
    reps = plain + traced

    problems = [p for r in reps for p in r.problems]
    digests = plain[0].digests
    for r in reps[1:]:
        if r.digests != digests:
            problems.append("CSV bytes differ between repetitions of the same seed")
            break
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    walls = [r.wall_s for r in plain]
    end_to_end = {
        "wall_s": median(walls),
        "reference_s": median(reference),
        "wall_rel": median(w / r for w, r in zip(walls, reference)),
        "setup_s": median(setup),
        "peak_rss_mb": median([r.maxrss_mb for r in plain]),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": notes,
        "commands": [[c.name] + c.argv(seed, Path("OUT"))[1:] for c in WORKLOADS[workload]],
        "repetitions": len(plain),
        "wall_s_samples": walls,
        "cpu_s_samples": [r.cpu_s for r in plain],
        "setup_s_samples": setup,
        "reference_s_samples": reference,
        "peak_rss_mb_samples": [r.maxrss_mb for r in plain],
        "csv_sha256": digests,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "end_to_end": end_to_end,
    }
    if workload == "train-stream":
        steps = sum(c.overrides["steps"] for c in WORKLOADS[workload])
        result["train_steps_per_s"] = steps / end_to_end["wall_s"]

    if trace:
        tables = [layer_table(r) for r in traced]
        per_rep = [layer_metrics(t, r.records) for t, r in zip(tables, traced)]
        layer = {n: median([m[n] for m in per_rep]) for n in per_rep[0]}
        traced_wall = median([r.wall_s for r in traced])
        layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]
        result.update({
            "traced_wall_s_samples": [r.wall_s for r in traced],
            "layers": layer,
            "spans": tables[0]["spans"],
            "bindings": tables[0]["bindings"],
        })
        metrics = {n: {"value": layer[n], "unit": u} for n, u in LAYER_METRICS.items()}
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u}
                   for n, u in END_TO_END_METRICS.items()}

    result["summary"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "frame_hebb" / "cli.py").is_file():
        print(f"error: no frame_hebb sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
