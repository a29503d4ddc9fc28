"""Config resolution: file values, flag overrides, validation."""

import numpy as np
import pytest

from frame_hebb.config import ConfigError, RunConfig, load_config


def test_defaults():
    cfg = RunConfig()
    assert (cfg.nx, cfg.nu, cfg.seed) == (4, 2, 42)
    assert cfg.sigma_spec.startswith("random-spd")
    assert cfg.resolved_learning_rate() == 0.02
    assert cfg.resolved_batch_size() == 0


def test_empirical_mode_defaults():
    cfg = RunConfig(mode="empirical")
    assert cfg.resolved_learning_rate() == 0.002
    assert cfg.resolved_batch_size() == 100


def test_nu_above_nx_rejected():
    with pytest.raises(ConfigError):
        RunConfig(nx=2, nu=5)


def test_unknown_check_names_rejected():
    with pytest.raises(ConfigError):
        RunConfig(checks=("no-such-check",))


def test_sigma_identity():
    np.testing.assert_array_equal(
        RunConfig(sigma_spec="identity").build_sigma(), np.eye(4)
    )


def test_sigma_diagonal():
    cfg = RunConfig(nx=3, sigma_spec="diagonal:3,2,1")
    np.testing.assert_array_equal(cfg.build_sigma(), np.diag([3.0, 2.0, 1.0]))


def test_sigma_diagonal_length_mismatch():
    with pytest.raises(ConfigError):
        RunConfig(nx=4, sigma_spec="diagonal:3,2,1")


def test_sigma_random_spd_seeded():
    a = RunConfig(seed=5).build_sigma()
    b = RunConfig(seed=5).build_sigma()
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, RunConfig(seed=6).build_sigma())


def test_sigma_unknown_spec():
    with pytest.raises(ConfigError):
        RunConfig(sigma_spec="wishart")


def test_bad_learning_rate():
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"threshold": float("nan")},
        {"threshold": float("inf")},
        {"threshold": 0.0},
        {"batch_size": -5},
        {"batch_size": -5, "mode": "empirical"},
    ],
)
def test_bad_trainer_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
[run]
nx = 5
nu = 2
seed = 7
samples = 1234
sigma = diagonal:5,4,3,2,1
checks = frame-bounds, kernel-annihilation

[trainer]
rule = eghr
learning_rate = 0.01
steps = 99
"""
    )
    cfg = load_config(path)
    assert cfg.nx == 5 and cfg.seed == 7 and cfg.n_samples == 1234
    assert cfg.checks == ("frame-bounds", "kernel-annihilation")
    assert cfg.rule == "eghr" and cfg.steps == 99

    # flags win over file values
    cfg = load_config(path, overrides={"seed": 99, "steps": 5})
    assert cfg.seed == 99 and cfg.steps == 5
    assert cfg.nx == 5  # untouched file value survives


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nnx = not-a-number\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_checks_all_keyword():
    assert load_config(None, overrides={"checks": "all"}).checks is None
