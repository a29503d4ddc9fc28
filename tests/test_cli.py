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
from frame_hebb import checks, frames, rules
from frame_hebb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_DIVERGED,
    EXIT_PASS,
    TRAJECTORY_SCHEMA_VERSION,
    main,
)
from frame_hebb.frames import SKEW_DOMAIN_RTOL
from frame_hebb.gaussian import CHUNK_ROWS, STEIN_MIN_SAMPLES
from frame_hebb.linalg import skew_part, unvec
from frame_hebb.records import make_record, read_records_csv, write_records_csv

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

    @pytest.mark.parametrize("samples", [1, 100, STEIN_MIN_SAMPLES - 1])
    def test_small_sample_stein_is_input_error(self, tmp_path, samples):
        # below STEIN_MIN_SAMPLES the Stein band misses its false-failure rate
        proc = run_process(["equivalence", "--out", tmp_path, "--samples", samples,
                            "--checks", "stein-identity"])
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stderr.startswith("input error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_small_sample_stein_rejected_before_any_check_runs(self, tmp_path, monkeypatch):
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
            rules, "_oja_closed", lambda w, sigma, eye: np.full(w.shape, np.nan)
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
            make_record("good", value=0.0, reference=0.0, tolerance=1.0,
                        seed=1, group="g"),
            make_record("bad", value=9.0, reference=0.0, tolerance=1.0,
                        seed=1, group="g"),
        ]
        write_records_csv(tmp_path / "mixed.csv", records)
        assert run(["report", "--out", tmp_path]) == EXIT_CHECK_FAILED
        assert "overall: FAIL" in capsys.readouterr().out

    def test_rel_metric_row_is_corrupt(self, tmp_path, capsys):
        # the tolerance applies to abs_error only; a "rel" row is not a record
        path = tmp_path / "rel.csv"
        write_records_csv(path, [make_record("good", value=0.0, reference=0.0,
                                             tolerance=1.0, seed=1, group="g")])
        path.write_text(path.read_text().replace(",abs,", ",rel,"))
        assert run(["report", "--out", tmp_path]) == EXIT_CONFIG_ERROR
        assert "rel.csv" in capsys.readouterr().err

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
SAMPLED_CHECKS = {"equivalence": "stein-identity",
                  "frame-check": "isserlis-empirical,derivation-chain-agreement,"
                                 "derivation-mc-target"}


class TestExitCodeContract:
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

    # stein-identity draws its own covariances, so --sigma only has to pass
    # the config gate: one spec per sample count is enough. Below
    # STEIN_MIN_SAMPLES it exits 2 before drawing.
    @pytest.mark.parametrize(
        "samples, sigma",
        list(zip(CONTRACT_SAMPLES + [STEIN_MIN_SAMPLES], VALID_SIGMAS + VALID_SIGMAS))
        + [(STEIN_MIN_SAMPLES, sigma) for sigma in BAD_SIGMAS],
    )
    def test_equivalence_samples_and_sigma_map_to_an_exit_code(
        self, tmp_path, capsys, samples, sigma
    ):
        code = run(["equivalence", "--checks", SAMPLED_CHECKS["equivalence"],
                    "--samples", samples, "--sigma", sigma, "--out", tmp_path])
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("command, samples", [("frame-check", 100),
                                                  ("equivalence", STEIN_MIN_SAMPLES)])
    def test_extreme_sigma_scale_is_input_error(self, tmp_path, capsys, command, samples,
                                                scale):
        code = run([command, "--sigma", f"diagonal:{scale},{scale}", "--nx", 2, "--nu", 1,
                    "--samples", samples, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("input error:") and "window" in err
        assert len(err.splitlines()) == 1

    def test_skew_domain_error_is_unreachable(self, tmp_path, monkeypatch):
        # cli.main leaves SkewDomainError unmapped. Every vector the check
        # commands hand to the restricted inverse is exactly symmetric
        # (sym_part, x x^T - Sigma) or vec(Sigma (I - W^T W) Sigma) for a
        # random W, whose skew part is roundoff: even at the conditioning the
        # covariance gate still admits it stays a thousandth of the tolerance.
        ratios = []
        real = frames._symmetric_domain

        def spy(v, cov, what):
            skew = np.linalg.norm(skew_part(unvec(np.asarray(v, dtype=float), cov.dim)))
            ratios.append(skew / (SKEW_DOMAIN_RTOL * (1.0 + np.linalg.norm(v))))
            return real(v, cov, what)

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
