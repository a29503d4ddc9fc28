"""Config resolution: file values, flag overrides, validation."""

import numpy as np
import pytest

from frame_hebb.cli import EXIT_CONFIG_ERROR, _build_parser, _config_from_args, main
from frame_hebb.config import SETTINGS, ConfigError, RunConfig, load_config
from frame_hebb.rules import MAX_BATCH_SIZE


def test_defaults():
    cfg = RunConfig()
    assert (cfg.nx, cfg.nu, cfg.seed) == (4, 2, 42)
    assert cfg.sigma.startswith("random-spd")
    assert cfg.trainer.learning_rate == 0.02
    assert cfg.trainer.batch_size == 0


def test_empirical_mode_defaults():
    cfg = RunConfig(mode="empirical")
    assert cfg.trainer.learning_rate == 0.002
    assert cfg.trainer.batch_size == 100


def test_nu_above_nx_rejected():
    with pytest.raises(ConfigError):
        RunConfig(nx=2, nu=5)


@pytest.mark.parametrize("samples", [0, -1])
def test_samples_below_one_rejected(samples):
    # the checks' draws take their n from here, and sample trusts it
    with pytest.raises(ConfigError, match="samples"):
        RunConfig(samples=samples)


def test_sigma_identity():
    np.testing.assert_array_equal(
        RunConfig(sigma="identity").build_sigma(), np.eye(4)
    )


def test_sigma_diagonal():
    cfg = RunConfig(nx=3, sigma="diagonal:3,2,1")
    np.testing.assert_array_equal(cfg.build_sigma(), np.diag([3.0, 2.0, 1.0]))


def test_sigma_diagonal_length_mismatch():
    with pytest.raises(ConfigError):
        RunConfig(nx=4, sigma="diagonal:3,2,1")


def test_sigma_is_made_once_and_read_only():
    cfg = RunConfig()
    assert cfg.build_sigma() is cfg.build_sigma()
    assert not cfg.build_sigma().flags.writeable


def test_sigma_random_spd_seeded():
    a = RunConfig(seed=5).build_sigma()
    b = RunConfig(seed=5).build_sigma()
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, RunConfig(seed=6).build_sigma())


def test_sigma_unknown_spec():
    with pytest.raises(ConfigError):
        RunConfig(sigma="wishart")


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
        {"batch_size": MAX_BATCH_SIZE + 1, "mode": "empirical"},
        {"batch_size": MAX_BATCH_SIZE + 1},
    ],
)
def test_bad_trainer_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_largest_batch_size_accepted():
    cfg = RunConfig(mode="empirical", batch_size=MAX_BATCH_SIZE)
    assert cfg.trainer.batch_size == MAX_BATCH_SIZE


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
    assert cfg.nx == 5 and cfg.seed == 7 and cfg.samples == 1234
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


@pytest.mark.parametrize("section", ["RUN", "train", "extra", "DEFAULT"])
def test_unknown_section_exits_2_naming_it(tmp_path, capsys, section):
    # Section names are case-sensitive: [RUN] is not [run], and its nx would
    # otherwise be dropped without a word; so would [DEFAULT]'s, alone.
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\nnx = 3\n")
    with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
        load_config(path)
    code = main(["equivalence", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG_ERROR
    assert err == [f"config error: unknown section [{section}] in config file {path}; "
                   "expected [run] or [trainer]"]
    assert not (tmp_path / "out").exists()


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


RUN_FLAGS = ["-h", "--help", "--config", "--seed", "--nx", "--nu", "--samples", "--sigma",
             "--out", "--checks"]
TRAINER_FLAGS = ["--rule", "--mode", "--learning-rate", "--steps", "--batch-size",
                 "--record-every", "--threshold"]


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


def test_option_strings_of_each_subcommand_in_order():
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in _subparsers().items()}
    assert options == {
        "equivalence": RUN_FLAGS,
        "frame-check": RUN_FLAGS,
        "train": RUN_FLAGS + TRAINER_FLAGS,
        "report": ["-h", "--help", "--out"],
    }


def test_rule_and_mode_choices():
    choices = {a.dest: a.choices for a in _subparsers()["train"]._actions if a.choices}
    assert choices == {"rule": ("oja", "eghr"), "mode": ("closed", "empirical")}


# One valid value of each setting, none of them its default.
SETTING_VALUES = {
    "seed": "7", "nx": "5", "nu": "3", "samples": "1234", "sigma": "random-spd:1,3",
    "out": "elsewhere", "checks": "frame-bounds", "rule": "eghr", "mode": "empirical",
    "learning_rate": "0.01", "steps": "9", "batch_size": "17", "record_every": "3",
    "threshold": "0.5",
}


@pytest.mark.parametrize("section, key", [(section, key) for section, keys in
                                          SETTINGS.items() for key in keys])
def test_file_value_and_flag_give_equal_configs(tmp_path, section, key):
    value = SETTING_VALUES[key]
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    from_file = load_config(path)
    args = _build_parser().parse_args(["train", "--" + key.replace("_", "-"), value])
    from_flag = _config_from_args(args)
    assert from_file == from_flag != RunConfig()
