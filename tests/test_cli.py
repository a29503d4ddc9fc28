"""End-to-end CLI behavior: exit codes, CSV artifacts, determinism, report."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frame_hebb
from frame_hebb import checks, frames, gaussian, linalg, rules
from frame_hebb.checks import MC_SEED_INDEX, RATE_BATCHES, RATE_MIN_SAMPLES
from frame_hebb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    EXIT_PASS,
    _selected_checks,
    main,
)
from frame_hebb.frames import SKEW_DOMAIN_RTOL
from frame_hebb.gaussian import CHUNK_ROWS, derive_seed
from frame_hebb.linalg import skew_part
from frame_hebb.records import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    TRAJECTORY_SCHEMA_VERSION,
    ExperimentRecord,
    read_records_csv,
    write_records_csv,
)
from test_records import INCONSISTENT_ROWS, write_inconsistent_row

FAST = ["--samples", "20000"]
CHEAP_EQUIV = ["--checks", "closed-equivalence,fixed-point-sharing"]
CHEAP_FRAME = ["--checks", "frame-bounds,kernel-annihilation,restricted-inverse"]


def run(args):
    return main([str(a) for a in args])


def run_process(args):
    """Run the CLI in a child process, so stderr holds any traceback."""
    src = str(Path(frame_hebb.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "frame_hebb.cli"] + [str(a) for a in args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestEquivalence:
    def test_default_cheap_checks_pass(self, tmp_path):
        assert run(["equivalence", "--out", tmp_path] + FAST + CHEAP_EQUIV) == EXIT_PASS
        records = read_records_csv(tmp_path / "equivalence.csv")
        assert {r.check_name for r in records} == {
            "closed-equivalence",
            "fixed-point-sharing",
        }
        assert all(r.passed for r in records)

    def test_nu_above_nx_is_config_error(self, tmp_path, capsys):
        code = run(["equivalence", "--out", tmp_path, "--nx", "2", "--nu", "5"])
        assert code == EXIT_CONFIG_ERROR
        assert "nu" in capsys.readouterr().err

    def test_stein_identity_runs_at_one_sample(self, tmp_path):
        # the cubature rule samples nothing, so no --samples is too few
        proc = run_process(["equivalence", "--out", tmp_path, "--samples", 1,
                            "--checks", "stein-identity"])
        assert proc.returncode == EXIT_PASS
        assert proc.stdout.startswith("[PASS] stein-identity")
        (record,) = read_records_csv(tmp_path / "equivalence.csv")
        assert record.check_name == "stein-identity" and record.passed

    def test_small_sample_rejected_before_any_check_runs(self, tmp_path, monkeypatch):
        # the mc-rate-* checks of a full equivalence need RATE_MIN_SAMPLES
        ran = []
        monkeypatch.setattr(checks, "closed_equivalence_check",
                            lambda *args, **kwargs: ran.append(args))
        assert run(["equivalence", "--out", tmp_path, "--samples", 100]) == EXIT_CONFIG_ERROR
        assert ran == []
        assert not (tmp_path / "equivalence.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["equivalence", "--out", a] + FAST + CHEAP_EQUIV)
        run(["equivalence", "--out", b] + FAST + CHEAP_EQUIV)
        assert (a / "equivalence.csv").read_bytes() == (b / "equivalence.csv").read_bytes()


class TestFrameCheck:
    def test_cheap_checks_pass(self, tmp_path):
        assert run(["frame-check", "--out", tmp_path] + FAST + CHEAP_FRAME) == EXIT_PASS
        records = read_records_csv(tmp_path / "frame_check.csv")
        assert len(records) == 3 and all(r.passed for r in records)

    def test_single_check_single_row(self, tmp_path):
        run(["frame-check", "--out", tmp_path, "--checks", "coefficient-identity"])
        records = read_records_csv(tmp_path / "frame_check.csv")
        assert [r.check_name for r in records] == ["coefficient-identity"]

    def test_near_degenerate_covariance_rejected(self, tmp_path, capsys):
        code = run(
            ["frame-check", "--out", tmp_path, "--sigma", "random-spd:1e-10,1.0"]
            + CHEAP_FRAME
        )
        assert code == EXIT_CONFIG_ERROR
        assert "ill-conditioned" in capsys.readouterr().err

    def test_unknown_check_rejected_at_parse(self, tmp_path):
        code = run(["frame-check", "--out", tmp_path, "--checks", "bogus"])
        assert code == EXIT_CONFIG_ERROR

    def test_single_sample_is_input_error(self, tmp_path):
        # isserlis-empirical needs two samples; that is bad input, not a crash
        proc = run_process(["frame-check", "--out", tmp_path, "--samples", "1"])
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr.startswith("input error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_single_sample_empirical_operator_alone_is_input_error(self, tmp_path):
        # no rate check is selected, so only the operator's own guard can refuse
        proc = run_process(["frame-check", "--out", tmp_path, "--samples", "1",
                            "--checks", "isserlis-empirical"])
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr == "input error: need >= 2 samples for the frame operator, got 1\n"
        assert not (tmp_path / "frame_check.csv").exists()

    def test_small_sample_rates_rejected_before_any_check_runs(self, tmp_path, monkeypatch):
        # below RATE_MIN_SAMPLES the fitted slope is biased: exit 2, not FAIL
        ran = []
        monkeypatch.setattr(checks, "frame_bounds_check",
                            lambda *args, **kwargs: ran.append(args))
        code = run(["frame-check", "--out", tmp_path, "--samples", RATE_MIN_SAMPLES - 1])
        assert code == EXIT_CONFIG_ERROR
        assert ran == []
        assert not (tmp_path / "frame_check.csv").exists()

    def test_single_sample_without_empirical_operator_runs(self, tmp_path):
        proc = run_process(["frame-check", "--out", tmp_path, "--samples", "1",
                            "--checks", "isserlis-analytic"])
        assert proc.returncode == EXIT_PASS
        assert "Traceback" not in proc.stderr
        records = read_records_csv(tmp_path / "frame_check.csv")
        assert [r.check_name for r in records] == ["isserlis-analytic"]


@pytest.mark.parametrize(
    "argv",
    [
        ["equivalence", "--checks", "frame-bounds"],
        ["equivalence", "--checks", "train-final"],
        ["frame-check", "--checks", "closed-equivalence,train-final"],
        ["frame-check", "--checks", "frame-bounds,closed-equivalence"],
    ],
)
def test_selection_without_command_checks_is_config_error(tmp_path, argv):
    # every selected name must be one of the command's checks: a name the
    # command does not run must not be dropped, or pass vacuously
    proc = run_process(argv + ["--out", tmp_path])
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert proc.stderr.startswith("config error:")
    assert argv[0] in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, name", [("equivalence", "mc-rate-oja"),
                                           ("frame-check", "mc-rate-frame-operator")])
def test_repeated_check_name_selected_once(command, name):
    # the selection is the command's own names in CSV order, so a name given
    # twice reaches MonteCarloBatches as one rate kind
    assert _selected_checks(command, (name, name)) == [name]


class TestTrain:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--batch-size", "-5"],
            ["--learning-rate", "nan"],
            ["--learning-rate", "inf"],
            ["--threshold", "nan"],
        ],
    )
    def test_bad_trainer_value_is_config_error(self, tmp_path, flags):
        proc = run_process(["train", "--out", tmp_path, "--nx", "3", "--nu", "1",
                            "--steps", "3"] + flags)
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode", ["empirical", "closed"])
    def test_batch_size_above_maximum_is_config_error_before_any_draw(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # 1e12 rows a step would draw for hours; the bound refuses it first.
        def no_chunks(self):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(gaussian.SampleBatch, "chunks", no_chunks)
        for size in (rules.MAX_BATCH_SIZE + 1, 10**12):
            code = run(["train", "--out", tmp_path, "--mode", mode, "--batch-size", size,
                        "--steps", "1"])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG_ERROR
            assert err.startswith("config error:") and f"{rules.MAX_BATCH_SIZE:,}" in err
            assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "identity", "--nx", "4", "--nu", "2"],
            ["--sigma", "diagonal:3,3,1", "--nx", "3", "--nu", "1"],
        ],
    )
    def test_no_gap_at_cut_is_input_error(self, tmp_path, flags):
        # the principal nu-subspace is not unique, so subspace_error has no target
        proc = run_process(["train", "--out", tmp_path] + flags)
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr.startswith("input error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "train.csv").exists()

    def test_identity_without_cut_runs(self, tmp_path):
        proc = run_process(["train", "--out", tmp_path, "--sigma", "identity",
                            "--nx", "3", "--nu", "3", "--steps", "50"])
        assert proc.returncode == EXIT_PASS
        assert proc.stderr == ""

    def test_closed_oja_converges(self, tmp_path):
        code = run(
            ["train", "--out", tmp_path, "--nx", "5", "--nu", "2",
             "--sigma", "diagonal:5,4,3,2,1", "--steps", "5000"]
        )
        assert code == EXIT_PASS
        records = read_records_csv(tmp_path / "train.csv")
        assert records[0].check_name == "train-final"
        assert records[0].value <= 1e-6
        lines = (tmp_path / "train_trajectory.csv").read_text().splitlines()
        assert lines[0] == f"# {TRAJECTORY_SCHEMA_VERSION}"
        assert lines[1] == "step,subspace_error,orthonormality_residual,update_norm"
        assert len(lines) > 3

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = run(
            ["train", "--out", tmp_path, "--nx", "5", "--nu", "2",
             "--sigma", "diagonal:5,4,3,2,1", "--learning-rate", "10"]
        )
        assert code == EXIT_DIVERGED
        assert "step" in capsys.readouterr().err

    def test_non_finite_step_exits_diverged(self, tmp_path, capsys, monkeypatch):
        # NaN compares false with the norm bound; the guard must still fire
        monkeypatch.setattr(
            rules, "oja_update_closed", lambda w, cov: np.full(w.shape, np.nan)
        )
        code = run(["train", "--out", tmp_path, "--nx", "3", "--nu", "1"])
        assert code == EXIT_DIVERGED
        assert "step 1" in capsys.readouterr().err

    def test_fixed_point_start_stays_flat(self, tmp_path):
        # seed chosen arbitrarily; the trained metric must already be tiny
        code = run(
            ["train", "--out", tmp_path, "--nx", "3", "--nu", "1",
             "--sigma", "diagonal:3,2,1", "--steps", "50", "--threshold", "1e-6"]
        )
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED)

    def test_weights_stepped_onto_dependent_rows_are_input_error(self, tmp_path, capsys):
        # Seed 3 gives W0 = [[2.0409...]]; at this learning rate one closed-form
        # subspace step lands on W = [[0.0]] exactly, whose row space is empty.
        code = run(["train", "--out", tmp_path, "--seed", "3", "--nx", "1", "--nu", "1",
                    "--sigma", "identity", "--rule", "oja", "--mode", "closed",
                    "--learning-rate", "0.31592074440327056", "--steps", "2",
                    "--record-every", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("input error:") and "rank deficient" in err
        assert len(err.splitlines()) == 1

    def test_empirical_mode_runs(self, tmp_path):
        code = run(
            ["train", "--out", tmp_path, "--nx", "3", "--nu", "1",
             "--sigma", "diagonal:4,2,1", "--mode", "empirical",
             "--steps", "4000", "--threshold", "0.2"]
        )
        assert code == EXIT_PASS


class TestReport:
    def test_aggregates_and_passes(self, tmp_path):
        run(["equivalence", "--out", tmp_path] + FAST + CHEAP_EQUIV)
        run(["frame-check", "--out", tmp_path] + FAST + CHEAP_FRAME)
        run(["train", "--out", tmp_path, "--nx", "5", "--nu", "2",
             "--sigma", "diagonal:5,4,3,2,1"])
        assert run(["report", "--out", tmp_path]) == EXIT_PASS

    def test_report_output_grouped(self, tmp_path, capsys):
        run(["frame-check", "--out", tmp_path] + FAST + CHEAP_FRAME)
        capsys.readouterr()
        assert run(["report", "--out", tmp_path]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "frame machinery" in out
        assert "overall: PASS" in out

    def test_missing_directory(self, tmp_path):
        assert run(["report", "--out", tmp_path / "nope"]) == EXIT_CONFIG_ERROR

    def test_empty_directory(self, tmp_path):
        assert run(["report", "--out", tmp_path]) == EXIT_CONFIG_ERROR

    def test_corrupt_csv_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,records\nfile,at,all\n")
        assert run(["report", "--out", tmp_path]) == EXIT_CONFIG_ERROR
        assert "bad.csv" in capsys.readouterr().err

    def test_mixed_pass_fail_reports_fail(self, tmp_path, capsys):
        records = [
            ExperimentRecord("good", value=0.0, reference=0.0, tolerance=1.0,
                             seed=1, group="g"),
            ExperimentRecord("bad", value=9.0, reference=0.0, tolerance=1.0,
                             seed=1, group="g"),
        ]
        write_records_csv(tmp_path / "mixed.csv", records)
        assert run(["report", "--out", tmp_path]) == EXIT_CHECK_FAILED
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("case", INCONSISTENT_ROWS)
    def test_row_whose_columns_disagree_with_its_numbers_is_corrupt(self, tmp_path, capsys,
                                                                      case):
        # the tolerance applies to abs_error only, and every derived column
        # must be what the row's value, reference and tolerance give
        write_inconsistent_row(tmp_path / "edited.csv", case)
        assert run(["report", "--out", tmp_path]) == EXIT_CONFIG_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: unreadable records CSV")
        assert "edited.csv" in out.err and len(out.err.splitlines()) == 1

    def test_a_check_value_edited_to_fail_is_refused(self, tmp_path, capsys):
        # The value of a passing record edited far above its tolerance: the
        # stored abs_error and passed columns no longer follow from it.
        assert run(["equivalence", "--checks", "closed-equivalence", "--out", tmp_path]) == 0
        path = tmp_path / "equivalence.csv"
        (value,) = (r.value for r in read_records_csv(path))
        path.write_text(path.read_text().replace(f",{value!r},", ",0.5,", 1))
        capsys.readouterr()
        assert run(["report", "--out", tmp_path]) == EXIT_CONFIG_ERROR
        assert "PASS" not in capsys.readouterr().out

    def test_trajectory_files_skipped(self, tmp_path):
        run(["train", "--out", tmp_path, "--nx", "3", "--nu", "1",
             "--sigma", "diagonal:3,2,1", "--steps", "100"])
        # train writes both a trajectory and a records CSV; report must
        # aggregate the records and ignore the curves
        assert run(["report", "--out", tmp_path]) in (EXIT_PASS, EXIT_CHECK_FAILED)


class TestConfigFile:
    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[run]\nnx = 3\nnu = 1\nseed = 9\nsamples = 20000\n"
            "sigma = diagonal:3,2,1\nchecks = frame-bounds\n"
        )
        out = tmp_path / "results"
        assert run(["frame-check", "--config", cfg, "--out", out]) == EXIT_PASS
        records = read_records_csv(out / "frame_check.csv")
        assert [r.check_name for r in records] == ["frame-bounds"]
        assert records[0].seed == 9

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nseed = 9\nchecks = frame-bounds\n")
        out = tmp_path / "results"
        run(["frame-check", "--config", cfg, "--out", out, "--seed", "123"])
        assert read_records_csv(out / "frame_check.csv")[0].seed == 123


# Each trainer value is drawn from {0, negative, nan, inf, valid}; the learning
# rate has two valid values, the second large enough to diverge.
LEARNING_RATES = ["0", "-0.5", "nan", "inf", "0.02", "50"]
THRESHOLDS = ["0", "-0.5", "nan", "inf", "0.5"]
BATCH_SIZES = ["0", "-5", "nan", "inf", "16"]


@st.composite
def train_argv(draw):
    nx = draw(st.integers(1, 4))
    sigma = draw(st.sampled_from(
        ["identity", "random-spd", "diagonal:" + ",".join(str(nx - i) for i in range(nx))]
    ))
    argv = ["train", "--nx", nx, "--nu", draw(st.integers(1, 4)), "--sigma", sigma,
            "--rule", draw(st.sampled_from(["oja", "eghr"])),
            "--mode", draw(st.sampled_from(["closed", "empirical"])),
            "--steps", draw(st.integers(-1, 3))]
    for flag, values in (("--learning-rate", LEARNING_RATES),
                         ("--threshold", THRESHOLDS),
                         ("--batch-size", BATCH_SIZES)):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


stein_argv = st.builds(
    lambda n: ["equivalence", "--checks", "stein-identity", "--samples", n],
    st.sampled_from([-1, 0, 1, 2, 3, 50]),
)


# Cheap checks of both commands, and train-final, which no check command runs.
CHEAP_CHECKS = {"equivalence": ["fixed-point-sharing"],
                "frame-check": ["frame-bounds", "kernel-annihilation",
                                "restricted-inverse", "isserlis-analytic"]}
SELECTABLE = [c for checks in CHEAP_CHECKS.values() for c in checks] + ["train-final"]

selection_argv = st.tuples(
    st.sampled_from(sorted(CHEAP_CHECKS)),
    st.lists(st.sampled_from(SELECTABLE), min_size=1, max_size=3, unique=True),
    st.integers(1, 4),
    st.integers(1, 3),
)


# --samples around one chunk of the sample stream, and --sigma specs: valid
# ones (the last ill-conditioned), then degenerate and malformed ones (exit 2).
CONTRACT_SAMPLES = [1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
VALID_SIGMAS = ["identity", "diagonal:4,3,2,1", "random-spd", "random-spd:1e-2,1e2"]
# Eigenvalue scales outside linalg.EIGENVALUE_WINDOW, whose moments overflow
# or underflow.
EXTREME_SCALES = ["1e300", "1e160", "1e150", "1e-160", "1e-300"]
BAD_SIGMAS = ["diagonal:1,1,1,0", "diagonal:1,2"] + [
    "diagonal:" + ",".join([scale] * 4) for scale in EXTREME_SCALES]
# Checks whose work scales with --samples: cheap at nx=4.
SAMPLED_CHECKS = {"equivalence": "mc-rate-oja,mc-rate-eghr",
                  "frame-check": "isserlis-empirical,derivation-chain-agreement,"
                                 "derivation-mc-target"}


def _plant(path, data: bytes = b"", directory: bool = False):
    """Create a file holding data, or a directory, at path; return path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if directory:
        path.mkdir()
    else:
        path.write_bytes(data)
    return path


def _link(path, target: str):
    """Create a symlink at path to target, which need not exist; return path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.symlink_to(target)
    return path


UNDECODABLE = b"\xff\xfe\x00 not utf-8\n"
SHORT_ROW = f"# {CSV_SCHEMA_VERSION}\n{','.join(CSV_COLUMNS)}\ntraining,x\n".encode()
TRAIN_CHEAP = ["--nx", 3, "--nu", 1, "--sigma", "diagonal:3,2,1", "--steps", 10]
# A path component longer than the usual file-name limit of 255 bytes.
LONG_NAME = "a" * 300
# 25 names of 200 bytes each: every name fits, the 5024-byte path does not fit
# the usual path limit of 4096 bytes.
LONG_PATH = Path(*["d" * 200] * 25)

# Inputs checked once at the command's boundary: each builds its argv in a
# fresh directory d, plants what it needs there, and names what the one
# stderr line must contain.
BOUNDARY_INPUTS = {
    "negative seed, equivalence": lambda d: (
        ["equivalence", "--seed", -1, "--sigma", "identity",
         "--checks", "closed-equivalence", "--out", d / "out"], "config error: seed"),
    "negative seed, frame-check": lambda d: (
        ["frame-check", "--seed", -1, "--sigma", "identity",
         "--checks", "frame-bounds", "--out", d / "out"], "config error: seed"),
    "negative seed, train": lambda d: (
        ["train", "--seed", -1, "--sigma", "identity", "--nx", 2, "--nu", 2,
         "--steps", 2, "--out", d / "out"], "config error: seed"),
    "report over an undecodable CSV": lambda d: (
        ["report", "--out", _plant(d / "out" / "x.csv", UNDECODABLE).parent], "x.csv"),
    "report over a directory named *.csv": lambda d: (
        ["report", "--out", _plant(d / "out" / "x.csv", directory=True).parent], "x.csv"),
    "report over a records CSV with a short row": lambda d: (
        ["report", "--out", _plant(d / "out" / "x.csv", SHORT_ROW).parent], "x.csv"),
    "config path is a directory": lambda d: (
        ["equivalence", "--config", _plant(d / "cfg", directory=True),
         "--checks", "closed-equivalence", "--out", d / "out"], "config error:"),
    "undecodable config file": lambda d: (
        ["equivalence", "--config", _plant(d / "run.cfg", UNDECODABLE),
         "--checks", "closed-equivalence", "--out", d / "out"], "config error:"),
    "--out names a file": lambda d: (
        ["equivalence", "--checks", "closed-equivalence",
         "--out", _plant(d / "out", b"keep")], "config error:"),
    "--out lies under a file": lambda d: (
        ["equivalence", "--checks", "closed-equivalence",
         "--out", _plant(d / "out", b"keep") / "sub"], "config error:"),
    "train --checks": lambda d: (
        ["train", "--checks", "frame-bounds", "--out", d / "out"] + TRAIN_CHEAP,
        "config error: frame-bounds"),
    "too few samples for an mc-rate check, equivalence": lambda d: (
        ["equivalence", "--checks", "closed-equivalence,mc-rate-eghr",
         "--samples", RATE_MIN_SAMPLES - 1, "--out", d / "out"],
        f"input error: need >= {RATE_MIN_SAMPLES} samples for the mc-rate checks"),
    "too few samples for the mc-rate checks of a full frame-check": lambda d: (
        ["frame-check", "--samples", 5000, "--out", d / "out"],
        f"input error: need >= {RATE_MIN_SAMPLES} samples for the mc-rate checks"),
    "non-finite eigenvalue in a diagonal --sigma": lambda d: (
        ["frame-check", "--checks", "frame-bounds", "--sigma", "diagonal:1,nan,1,1",
         "--out", d / "out"], "config error: bad diagonal sigma spec"),
    "infinite eigenvalue in a diagonal --sigma": lambda d: (
        ["frame-check", "--checks", "frame-bounds", "--sigma", "diagonal:1,inf,1,1",
         "--out", d / "out"], "config error: bad diagonal sigma spec"),
    "infinite random-spd --sigma range": lambda d: (
        ["frame-check", "--checks", "frame-bounds", "--sigma", "random-spd:1,inf",
         "--out", d / "out"], "config error: bad random-spd sigma spec"),
    "an nx whose covariance exceeds physical memory": lambda d: (
        ["frame-check", "--nx", 1_000_000, "--nu", 1, "--sigma", "identity",
         "--checks", "frame-bounds", "--out", d / "out"],
        "config error: the covariance at nx=1,000,000 would hold"),
    "train with checks in its config file": lambda d: (
        ["train", "--config", _plant(d / "run.cfg", b"[run]\nchecks = frame-bounds\n"),
         "--out", d / "out"] + TRAIN_CHEAP, "config error: frame-bounds"),
    "--out with a name too long": lambda d: (
        ["equivalence", "--checks", "closed-equivalence", "--out", d / LONG_NAME],
        "config error: output directory"),
    "--out with a name too long below a directory to be made": lambda d: (
        ["equivalence", "--checks", "closed-equivalence", "--out", d / "new" / LONG_NAME],
        "config error: output directory"),
    "train with an out too long in its config file": lambda d: (
        ["train", "--config", _plant(d / "run.cfg", f"[run]\nout = {d / LONG_NAME}\n".encode())]
        + TRAIN_CHEAP, "config error: output directory"),
    "an out with a NUL byte in the config file": lambda d: (
        ["equivalence", "--config", _plant(d / "run.cfg", f"[run]\nout = {d}/a\0b\n".encode()),
         "--checks", "closed-equivalence"], "config error: output directory"),
    "--out longer than the path limit, equivalence": lambda d: (
        ["equivalence", "--checks", "closed-equivalence", "--out", d / LONG_PATH],
        "config error: output directory"),
    "--out longer than the path limit, train": lambda d: (
        ["train", "--out", d / LONG_PATH] + TRAIN_CHEAP, "config error: output directory"),
    "empirical eghr with one-row batches": lambda d: (
        ["train", "--rule", "eghr", "--mode", "empirical", "--batch-size", 1, "--steps", 1,
         "--out", d / "out"], "config error: empirical eghr needs batch_size >= 2"),
    "report --out with a name too long": lambda d: (
        ["report", "--out", d / LONG_NAME], "error: output directory"),
    "--out through a symlink loop": lambda d: (
        ["equivalence", "--checks", "closed-equivalence",
         "--out", _link(d / "loop", "loop") / "sub"],
        "config error: output directory"),
    "--out through a dangling symlink": lambda d: (
        ["equivalence", "--checks", "closed-equivalence",
         "--out", _link(d / "dangling", "nowhere")],
        "config error: output directory"),
}


def _spy_everywhere(monkeypatch, fn):
    """Rebind fn in every frame_hebb module that holds it to a wrapper that
    keeps each result; return the list of results."""
    results = []

    def spy(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("frame_hebb"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return results


class TestOneCovariancePerRun:
    def test_frame_check_builds_the_covariance_once_and_s_once(self, tmp_path, monkeypatch):
        covs = _spy_everywhere(monkeypatch, linalg.build_covariance)
        operators = _spy_everywhere(monkeypatch, frames.frame_operator_analytic)
        code = run(["frame-check", "--out", tmp_path] + FAST)
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED)
        assert len(covs) == 1
        # Every reader of S gets the same array: the results are kept alive,
        # so distinct builds would have distinct ids.
        assert len(operators) == 5
        assert len({id(s) for s in operators}) == 1
        assert operators[0] is covs[0].frame_operator

    def test_equivalence_never_builds_s(self, tmp_path, monkeypatch):
        covs = _spy_everywhere(monkeypatch, linalg.build_covariance)
        operators = _spy_everywhere(monkeypatch, frames.frame_operator_analytic)
        assert run(["equivalence", "--out", tmp_path]) == EXIT_PASS
        assert operators == []
        # The run's covariance alone: stein-identity draws its covariances
        # like the sweeps, from their drawn spectra.
        assert len(covs) == 1
        assert "frame_operator" not in vars(covs[0])


class TestMonteCarloDraws:
    """Each check command draws RATE_BATCHES batches of --samples rows, which
    all its Monte-Carlo checks read; stein-identity draws nothing."""

    N = 200_000

    def draws(self, monkeypatch, tmp_path, argv):
        batches = _spy_everywhere(monkeypatch, gaussian.sample)
        assert run(argv + ["--samples", self.N, "--out", tmp_path]) == EXIT_PASS
        return [(b.n, b.seed) for b in batches]

    def shared(self):
        return [(self.N, derive_seed(42, MC_SEED_INDEX + i)) for i in range(RATE_BATCHES)]

    def test_frame_check_draws_two_batches(self, monkeypatch, tmp_path):
        # the coefficient sweep draws its x like W, from its own generator
        draws = self.draws(monkeypatch, tmp_path, ["frame-check"])
        assert draws == self.shared()

    def test_equivalence_draws_two_batches(self, monkeypatch, tmp_path):
        draws = self.draws(monkeypatch, tmp_path, ["equivalence"])
        assert draws == self.shared()

    def test_derivation_alone_draws_one_batch(self, monkeypatch, tmp_path):
        draws = self.draws(monkeypatch, tmp_path, ["frame-check", "--checks",
                                                   "isserlis-empirical,derivation-mc-target"])
        assert draws == self.shared()[:1]

    def test_isserlis_analytic_draws_none(self, monkeypatch, tmp_path):
        draws = self.draws(monkeypatch, tmp_path, ["frame-check", "--checks", "isserlis-analytic"])
        assert draws == []


class TestNoDenseObjectOffTheSPaths:
    def test_matrix_checks_build_no_nx2_object(self, monkeypatch):
        # The coefficient sweep, the derivation chain and the expansion rate
        # work on nx x nx matrices: at nx=64, where one S holds 128 MB, none
        # of them forms a Kronecker product, a commutation matrix or S.
        spies = {name: _spy_everywhere(monkeypatch, getattr(linalg, name))
                 for name in ("kron", "commutation_matrix")}
        builds = []
        build_s = linalg.CovarianceModel.frame_operator.func

        def frame_operator(cov):
            builds.append(cov)
            return build_s(cov)

        monkeypatch.setattr(linalg.CovarianceModel, "frame_operator", property(frame_operator))
        cov = linalg.build_covariance(linalg.random_spd(64, (0.5, 2.0), seed=5))
        batches = checks.MonteCarloBatches(cov, 4, 5, RATE_MIN_SAMPLES,
                                           kinds=("frame-expansion",), derivation=True)
        records = [
            *checks.coefficient_identity_checks(5, [(64, 4)], trials=3),
            *checks.derivation_checks(batches),
            *checks.mc_rate_check(batches),
        ]
        assert len(records) == 5
        assert spies == {"kron": [], "commutation_matrix": []}
        assert builds == []


def _snapshot(d) -> dict:
    """Each entry below d: a link's target, True for a directory, or a
    file's bytes."""
    return {p: os.readlink(p) if p.is_symlink() else p.is_dir() or p.read_bytes()
            for p in d.rglob("*")}


class TestExitCodeContract:
    @pytest.mark.parametrize("case", BOUNDARY_INPUTS)
    def test_bad_input_exits_2_with_one_line_and_writes_nothing(self, tmp_path, case):
        argv, needle = BOUNDARY_INPUTS[case](tmp_path)
        planted = _snapshot(tmp_path)
        proc = run_process(argv)
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert needle in proc.stderr
        assert _snapshot(tmp_path) == planted

    @pytest.mark.parametrize("sigma", VALID_SIGMAS + BAD_SIGMAS)
    @pytest.mark.parametrize("samples", CONTRACT_SAMPLES)
    def test_frame_check_samples_and_sigma_map_to_an_exit_code(
        self, tmp_path, capsys, samples, sigma
    ):
        code = run(["frame-check", "--checks", SAMPLED_CHECKS["frame-check"],
                    "--samples", samples, "--sigma", sigma, "--out", tmp_path])
        assert code in ((EXIT_CONFIG_ERROR,) if sigma in BAD_SIGMAS
                        else (EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR))
        assert "Traceback" not in capsys.readouterr().err

    # One valid --sigma spec per sample count. Below RATE_MIN_SAMPLES the rate
    # checks exit 2 before drawing, and a bad --sigma exits 2 before any check
    # runs.
    @pytest.mark.parametrize(
        "samples, sigma",
        list(zip(CONTRACT_SAMPLES + [100_000], VALID_SIGMAS + VALID_SIGMAS))
        + [(100_000, sigma) for sigma in BAD_SIGMAS],
    )
    def test_equivalence_samples_and_sigma_map_to_an_exit_code(
        self, tmp_path, capsys, samples, sigma
    ):
        code = run(["equivalence", "--checks", SAMPLED_CHECKS["equivalence"],
                    "--samples", samples, "--sigma", sigma, "--out", tmp_path])
        assert code in ((EXIT_CONFIG_ERROR,) if sigma in BAD_SIGMAS
                        else (EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR))
        assert "Traceback" not in capsys.readouterr().err

    # Checks that draw their own covariances and never read the configured
    # one: a bad --sigma still exits 2 on them, with no CSV written.
    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    @pytest.mark.parametrize("command, selection", [
        ("equivalence", "closed-equivalence,fixed-point-sharing"),
        ("frame-check", "coefficient-identity,cancellation-identity"),
    ])
    def test_bad_sigma_exits_2_on_checks_that_never_read_it(
        self, tmp_path, capsys, command, selection, sigma
    ):
        code = run([command, "--checks", selection, "--sigma", sigma, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith(("config error:", "input error:"))
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_degenerate_sigma_is_input_error_on_closed_form_checks(self, tmp_path):
        proc = run_process(["equivalence", "--checks", "closed-equivalence,fixed-point-sharing",
                            "--sigma", "diagonal:1,1,1,0", "--out", tmp_path])
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr.startswith("input error: covariance is degenerate")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "equivalence.csv").exists()

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("command, samples", [("frame-check", 100),
                                                  ("equivalence", 100_000)])
    def test_extreme_sigma_scale_is_input_error(self, tmp_path, capsys, command, samples,
                                                scale):
        code = run([command, "--sigma", f"diagonal:{scale},{scale}", "--nx", 2, "--nu", 1,
                    "--samples", samples, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("input error:") and "window" in err
        assert len(err.splitlines()) == 1

    def test_frame_operator_beyond_physical_memory_exits_2(self, tmp_path):
        # S at nx=1000 would hold 7.3 TiB. The guard refuses it before any
        # allocation, so the run costs the covariance build alone.
        proc = run_process(["frame-check", "--nx", 1000, "--nu", 1, "--checks", "frame-bounds",
                            "--sigma", "identity", "--samples", 100, "--out", tmp_path])
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("input error: the frame operator S at nx=1000")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "frame_check.csv").exists()

    @pytest.mark.parametrize("command", list(checks.COMMANDS))
    def test_monte_carlo_chunk_beyond_physical_memory_exits_2(self, tmp_path, capsys,
                                                              monkeypatch, command):
        # At 1e12 samples a block, and so a chunk, holds 1e9 rows: 32 GB of
        # draws at nx=4. The guard refuses it before any check draws a row.
        def no_chunks(self):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(gaussian.SampleBatch, "chunks", no_chunks)
        code = run([command, "--samples", 10**12, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("input error: a chunk of 1,000,000,000 rows at nx=4 would hold")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sigma", [
        "identity", "diagonal:" + ",".join(["1"] * 64), "random-spd", "random-spd:1,2"],
        ids=["identity", "diagonal", "random-spd", "random-spd-range"])
    def test_covariance_above_physical_memory_exits_2_before_building(
        self, tmp_path, monkeypatch, capsys, sigma
    ):
        # 64 KiB of physical memory: the 64 x 64 covariance's build would hold
        # 320 KiB, so every spec exits 2 before it makes an nx x nx array.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        code = run(["frame-check", "--nx", 64, "--nu", 1, "--sigma", sigma,
                    "--checks", "frame-bounds", "--out", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.splitlines() == [
            "config error: the covariance at nx=64 would hold 0.0 GiB at its peak, "
            "more than the 0.0 GiB of physical memory"]
        assert not (tmp_path / "out").exists()

    def test_skew_domain_error_is_unreachable(self, tmp_path, monkeypatch):
        # cli.main leaves SkewDomainError unmapped. Every matrix the check
        # commands hand to the restricted inverse is exactly symmetric
        # (sym_part, x x^T - Sigma) or Sigma (I - W^T W) Sigma for a random W,
        # whose skew part is roundoff: even at the conditioning the covariance
        # gate still admits it stays a thousandth of the tolerance.
        ratios = []
        real = frames._symmetric_domain

        def spy(m, what):
            for one in np.reshape(m, (-1, *m.shape[-2:])):  # m may be a stack
                skew = np.linalg.norm(skew_part(one))
                ratios.append(skew / (SKEW_DOMAIN_RTOL * (1.0 + np.linalg.norm(one))))
            return real(m, what)

        monkeypatch.setattr(frames, "_symmetric_domain", spy)
        # coefficient-identity draws its own covariances: one run covers it
        runs = [("coefficient-identity", "random-spd", 4, 2)] + [
            ("restricted-inverse,derivation-chain-agreement", sigma, nx, nu)
            for sigma in ("random-spd", "random-spd:1e-2,1e2", "random-spd:1,1e4")
            for nx, nu in ((2, 1), (6, 3))
        ]
        for checks, sigma, nx, nu in runs:
            code = run(["frame-check", "--checks", checks, "--sigma", sigma,
                        "--nx", nx, "--nu", nu, "--samples", 100, "--out", tmp_path])
            assert code in (EXIT_PASS, EXIT_CHECK_FAILED)
        assert len(ratios) > 1000
        assert max(ratios) < 1e-3

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(argv=train_argv() | stein_argv)
    def test_every_input_maps_to_an_exit_code(self, argv):
        with tempfile.TemporaryDirectory() as out:
            try:
                code = run(argv + ["--out", out])
            except SystemExit as exc:  # argparse rejects a non-integer count
                code = exc.code
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_DIVERGED)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(draw=selection_argv)
    def test_check_selection_maps_to_an_exit_code(self, draw):
        command, names, nx, nu = draw
        with tempfile.TemporaryDirectory() as out:
            code = run([command, "--checks", ",".join(names), "--nx", nx, "--nu", nu,
                        "--samples", 100, "--out", out])
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_DIVERGED)
        if not set(names) <= set(CHEAP_CHECKS[command]):
            assert code == EXIT_CONFIG_ERROR
