"""Run configuration: a checked-in INI-style config file plus flag overrides,
resolved into one validated RunConfig. Flags win over file values; nothing is
read from the environment, so a (config, seed) pair pins a run completely.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .linalg import random_spd, require_memory
from .rules import TrainerConfig

# Every run setting, once: config-file section -> key -> type. A key is also
# the setting's flag (``learning_rate`` is ``--learning-rate``), its
# ``load_config`` override and its RunConfig field; the flags follow this order.
SETTINGS = {
    "run": {"seed": int, "nx": int, "nu": int, "samples": int, "sigma": str,
            "out": Path, "checks": str},
    "trainer": {"rule": str, "mode": str, "learning_rate": float, "steps": int,
                "batch_size": int, "record_every": int, "threshold": float},
}
# (learning_rate, batch_size) of each training mode, for the unset ones.
MODE_DEFAULTS = {"closed": (0.02, 0), "empirical": (0.002, 100)}
# Peak of building the run's covariance, in nx x nx arrays: the spec's matrix
# and build_covariance's factors and residuals (9, traced at nx=400).
SIGMA_BUILD_ARRAYS = 10


class ConfigError(ValueError):
    """Invalid configuration; surfaced as exit code 2 by the CLI."""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


@dataclass(frozen=True)
class RunConfig:
    nx: int = 4
    nu: int = 2
    sigma: str = "random-spd:0.5,2.0"  # a covariance spec; see build_sigma
    seed: int = 42
    samples: int = 1_000_000
    out: Path = Path("results")
    checks: tuple[str, ...] | None = None  # None means "all"
    rule: str = "oja"
    mode: str = "closed"
    learning_rate: float | None = None  # MODE_DEFAULTS when unset
    steps: int = 5000
    batch_size: int | None = None  # MODE_DEFAULTS when unset
    record_every: int = 50
    threshold: float = 1e-6
    # rule..record_every are inputs only: read them from trainer, which holds
    # them checked and with the mode's defaults filled in.
    trainer: TrainerConfig = field(init=False)

    def __post_init__(self):
        if self.nx < 1 or self.nu < 1:
            raise ConfigError(f"nx and nu must be >= 1, got nx={self.nx}, nu={self.nu}")
        if self.nu > self.nx:
            raise ConfigError(f"nu must be <= nx, got nu={self.nu} > nx={self.nx}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ConfigError(f"threshold must be finite and > 0, got {self.threshold}")
        # An unknown mode gets closed's defaults; TrainerConfig rejects it.
        default_lr, default_batch = MODE_DEFAULTS.get(self.mode, MODE_DEFAULTS["closed"])
        try:
            object.__setattr__(self, "trainer", TrainerConfig(
                rule=self.rule, mode=self.mode, steps=self.steps,
                learning_rate=default_lr if self.learning_rate is None else self.learning_rate,
                batch_size=default_batch if self.batch_size is None else self.batch_size,
                record_every=self.record_every, seed=self.seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Only a config file can give a NUL byte, which no path can hold;
        # lexists would answer False for it, and the write raise ValueError.
        if "\0" in os.fspath(self.out):
            raise ConfigError(f"output directory {os.fspath(self.out)!r}: a path cannot "
                              "hold a NUL byte")
        try:
            # lexists: a symlink loop or a dangling link is found, and
            # pathconf, which follows it, raises ELOOP or ENOENT.
            existing = next(p for p in (self.out, *self.out.parents) if os.path.lexists(p))
            name_max = os.pathconf(existing, "PC_NAME_MAX")
            path_max = os.pathconf(existing, "PC_PATH_MAX")
        except OSError as exc:  # a path too long, say
            raise ConfigError(f"output directory {self.out}: {exc.strerror}") from exc
        if not existing.is_dir():
            raise ConfigError(f"output directory {self.out}: {existing} is a file")
        if len(os.fsencode(self.out)) + 1 + name_max >= path_max:
            raise ConfigError(f"output directory {self.out}: the path leaves no room for a "
                              f"{name_max}-byte file name below the {path_max}-byte path limit")
        # A name below existing is not looked up, so the probe cannot see it.
        if any(len(os.fsencode(p)) > name_max for p in self.out.relative_to(existing).parts):
            raise ConfigError(f"output directory {self.out}: a name is longer than "
                              f"{name_max} bytes")
        self.build_sigma()  # fail fast on a bad sigma spec

    def build_sigma(self) -> np.ndarray:
        """Materialize the covariance described by the ``sigma`` spec. An nx
        at which the covariance's build would not fit in physical memory is a
        ConfigError, raised before any nx x nx array is made."""
        try:
            require_memory(8 * SIGMA_BUILD_ARRAYS * self.nx**2,
                           f"the covariance at nx={self.nx:,}")
        except DimensionError as exc:
            raise ConfigError(str(exc)) from exc
        spec = self.sigma.strip()
        if spec == "identity":
            return np.eye(self.nx)
        if spec.startswith("diagonal:"):
            try:
                vals = [_finite_float(v) for v in spec.split(":", 1)[1].split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad diagonal sigma spec {spec!r}: {exc}") from exc
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
                    lo, hi = (_finite_float(v) for v in rest[1].split(","))
                except ValueError as exc:
                    raise ConfigError(f"bad random-spd sigma spec {spec!r}: {exc}") from exc
            try:
                return random_spd(self.nx, (lo, hi), seed=self.seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        raise ConfigError(
            f"unknown sigma spec {spec!r}; expected identity, "
            "diagonal:<v1,...,vnx>, or random-spd[:<lo,hi>]"
        )


def _parse_checks(raw: str) -> tuple[str, ...] | None:
    names = [c.strip() for c in raw.split(",") if c.strip()]
    if not names or names == ["all"]:
        return None
    return tuple(names)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional config file and flag overrides.

    ``overrides`` uses the keys of ``SETTINGS``, with values already typed; a
    None value is no override. Flags win over file values.
    """
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section, keys in SETTINGS.items():
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
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    if isinstance(values.get("checks"), str):
        values["checks"] = _parse_checks(values["checks"])
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
