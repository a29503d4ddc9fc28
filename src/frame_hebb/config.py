"""Run configuration: a checked-in INI-style config file plus flag overrides,
resolved into one validated RunConfig. Flags win over file values; nothing is
read from the environment, so a (config, seed) pair pins a run completely.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import random_spd


class ConfigError(ValueError):
    """Invalid configuration; surfaced as exit code 2 by the CLI."""


EQUIVALENCE_CHECKS = [
    "closed-equivalence",
    "fixed-point-sharing",
    "stein-identity",
    "mc-rate-oja",
    "mc-rate-eghr",
]

FRAME_CHECKS = [
    "frame-bounds",
    "kernel-annihilation",
    "restricted-inverse",
    "coefficient-identity",
    "cancellation-identity",
    "isserlis-analytic",
    "isserlis-empirical",
    "mc-rate-frame-operator",
    "mc-rate-frame-expansion",
    "derivation-chain-agreement",
    "derivation-mc-target",
]

# Every named check the CLI can run, with its report group: the group of the
# one command that runs it.
CHECK_GROUPS = {
    **dict.fromkeys(EQUIVALENCE_CHECKS, "learning-rule identities"),
    **dict.fromkeys(FRAME_CHECKS, "frame machinery"),
    "train-final": "training",
}


def _finite_positive(x: float) -> bool:
    return bool(np.isfinite(x)) and x > 0


@dataclass(frozen=True)
class RunConfig:
    nx: int = 4
    nu: int = 2
    sigma_spec: str = "random-spd:0.5,2.0"
    seed: int = 42
    n_samples: int = 1_000_000
    output_dir: Path = Path("results")
    checks: tuple[str, ...] | None = None  # None means "all"
    rule: str = "oja"
    mode: str = "closed"
    learning_rate: float | None = None  # resolved per mode when unset
    steps: int = 5000
    batch_size: int | None = None
    record_every: int = 50
    threshold: float = 1e-6

    def __post_init__(self):
        if self.nx < 1 or self.nu < 1:
            raise ConfigError(f"nx and nu must be >= 1, got nx={self.nx}, nu={self.nu}")
        if self.nu > self.nx:
            raise ConfigError(f"nu must be <= nx, got nu={self.nu} > nx={self.nx}")
        if self.n_samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.n_samples}")
        if self.rule not in ("oja", "eghr"):
            raise ConfigError(f"unknown rule {self.rule!r}")
        if self.mode not in ("closed", "empirical"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if self.learning_rate is not None and not _finite_positive(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.batch_size is not None and self.mode == "empirical" and self.batch_size < 1:
            raise ConfigError("empirical mode needs batch_size >= 1")
        if not _finite_positive(self.threshold):
            raise ConfigError(f"threshold must be finite and > 0, got {self.threshold}")
        if self.checks is not None:
            unknown = [c for c in self.checks if c not in CHECK_GROUPS]
            if unknown:
                raise ConfigError(
                    f"unknown check names {unknown}; known checks: "
                    f"{sorted(CHECK_GROUPS)}"
                )
        self.build_sigma()  # fail fast on a bad sigma spec

    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.02 if self.mode == "closed" else 0.002

    def resolved_batch_size(self) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 0 if self.mode == "closed" else 100

    def build_sigma(self) -> np.ndarray:
        """Materialize the covariance described by ``sigma_spec``."""
        spec = self.sigma_spec.strip()
        if spec == "identity":
            return np.eye(self.nx)
        if spec.startswith("diagonal:"):
            try:
                vals = [float(v) for v in spec.split(":", 1)[1].split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad diagonal sigma spec {spec!r}") from exc
            if len(vals) != self.nx:
                raise ConfigError(
                    f"diagonal sigma spec lists {len(vals)} eigenvalues, nx={self.nx}"
                )
            return np.diag(vals)
        if spec.startswith("random-spd"):
            rest = spec.split(":", 1)
            if len(rest) == 1:
                lo, hi = 0.5, 2.0
            else:
                try:
                    lo, hi = (float(v) for v in rest[1].split(","))
                except ValueError as exc:
                    raise ConfigError(f"bad random-spd sigma spec {spec!r}") from exc
            try:
                return random_spd(self.nx, (lo, hi), seed=self.seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        raise ConfigError(
            f"unknown sigma spec {spec!r}; expected identity, "
            "diagonal:<v1,...,vnx>, or random-spd[:<lo,hi>]"
        )


_RUN_KEYS = {
    "nx": int,
    "nu": int,
    "seed": int,
    "samples": int,
    "sigma": str,
    "out": str,
    "checks": str,
}
_TRAINER_KEYS = {
    "rule": str,
    "mode": str,
    "learning_rate": float,
    "steps": int,
    "batch_size": int,
    "record_every": int,
    "threshold": float,
}


def _parse_checks(raw: str) -> tuple[str, ...] | None:
    names = [c.strip() for c in raw.split(",") if c.strip()]
    if not names or names == ["all"]:
        return None
    return tuple(names)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional config file and flag overrides.

    ``overrides`` uses the same keys as the file ({run} and {trainer} keys
    flattened); values already typed. Flags win over file values.
    """
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section, keys in (("run", _RUN_KEYS), ("trainer", _TRAINER_KEYS)):
            if not parser.has_section(section):
                continue
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                try:
                    values[key] = keys[key](raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {key!r} in [{section}]: {raw!r}"
                    ) from exc
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    kwargs: dict = {}
    renames = {"samples": "n_samples", "sigma": "sigma_spec", "out": "output_dir"}
    for key, val in values.items():
        name = renames.get(key, key)
        if name == "output_dir":
            val = Path(val)
        if name == "checks" and isinstance(val, str):
            val = _parse_checks(val)
        kwargs[name] = val
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
