"""The half of the benchmark that runs inside each spawned process.

    python3 bench/child.py setup <overrides.json>
        Import ``frame_hebb.cli``, call ``load_config`` with the given flag
        overrides and ``build_covariance`` on the configured Sigma, then print
        the CLOCK_MONOTONIC time in ns at which a command would be ready to
        run its first check.

    python3 bench/child.py trace <spans.npz> <frame-hebb args...>
        Run one ``frame-hebb`` command with the public function of every layer
        wrapped in a span recorder, and save the spans to ``<spans.npz>``.

    python3 bench/child.py reference
        Run a fixed task that uses no frame_hebb code; its wall time tells
        how fast the machine is at that moment.

The tracer only wraps public functions from the outside. Modules import the
layer functions by name (``from .gaussian import sample``), so a wrapper is
rebound in every ``frame_hebb`` module that holds the original function;
wrapping ``frame_hebb.gaussian.sample`` alone would miss most calls.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Public functions traced per layer; the layer is the module name.
LAYER_FUNCTIONS = {
    "gaussian": ("sample", "stein_check", "isserlis_fourth_moment"),
    "rules": (
        "oja_update_empirical",
        "eghr_update_empirical",
        "oja_update_closed",
        "eghr_update_closed",
        "as_weights",
        "subspace_error",
        "train",
    ),
    "frames": (
        "frame_operator_analytic",
        "frame_operator_empirical",
        "frame_expansion_reconstruct",
        "derive_eghr_from_oja",
        "restricted_inverse_apply",
    ),
    "linalg": ("kron", "commutation_matrix", "build_covariance"),
    "records": ("write_records_csv",),
    "config": ("load_config",),
}

# Check functions, each traced as one span named after the checks it runs.
# Functions returning one record take the record's check name (this splits
# mc_rate_check by kind); the three that return several records share a span.
CHECK_FUNCTIONS = {
    "closed_equivalence_check": None,
    "fixed_point_sharing_check": None,
    "stein_identity_check": None,
    "frame_bounds_check": None,
    "kernel_annihilation_check": None,
    "restricted_inverse_check": None,
    "mc_rate_check": None,
    "coefficient_identity_checks": "coefficient-cancellation-identity",
    "isserlis_checks": "isserlis",
    "derivation_checks": "derivation",
}


def _import_cli():
    sys.path.insert(0, str(SRC))
    import frame_hebb.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"frame_hebb imported from {cli.__file__}, not from {SRC}")
    return cli


class Tracer:
    """Span recorder: one row per call with name, start, end and parent, plus
    an ``amount`` (rows drawn, bytes built, records returned) and, for
    ``sample``, whether the draw's (Sigma, n, seed) is new in this process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.amounts: list[int] = []
        self.first_draw: list[bool] = []
        self._stack = [-1]
        self._draws: set = set()

    def wrap(self, name, fn, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        amounts, first_draw, stack = self.amounts, self.first_draw, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0)
            first_draw.append(False)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            starts[i] = t0
            if after is not None:
                after(i, out)
            return out

        return wrapper

    def _after_sample(self, i, batch):
        self.amounts[i] = batch.n
        key = (batch.covariance.sigma.tobytes(), batch.n, batch.seed)
        if key not in self._draws:
            self._draws.add(key)
            self.first_draw[i] = True

    def _after_kron(self, i, out):
        self.amounts[i] = out.nbytes

    def _after_check(self, label):
        def after(i, out):
            records = out if isinstance(out, (list, tuple)) else [out]
            self.amounts[i] = len(records)
            self.names[i] = "checks." + (label or records[0].check_name)

        return after

    def install(self) -> dict[str, int]:
        """Rebind every traced function in every loaded frame_hebb module;
        return how many module bindings each wrapper replaced."""
        modules = [m for n, m in sys.modules.items()
                   if n == "frame_hebb" or n.startswith("frame_hebb.")]
        targets = []
        for layer, fns in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"frame_hebb.{layer}"]
            for fn in fns:
                after = {"sample": self._after_sample, "kron": self._after_kron}.get(fn)
                targets.append((getattr(mod, fn), f"{layer}.{fn}", after))
        checks = sys.modules["frame_hebb.checks"]
        for fn, label in CHECK_FUNCTIONS.items():
            targets.append((getattr(checks, fn), f"checks.{fn}", self._after_check(label)))

        bindings = {}
        for orig, name, after in targets:
            wrapper = self.wrap(name, orig, after)
            bindings[name] = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        bindings[name] += 1
        return bindings

    def save(self, path, bindings: dict[str, int]) -> None:
        import numpy as np

        unique = sorted(set(self.names))
        index = {n: k for k, n in enumerate(unique)}
        np.savez(
            path,
            names=np.array(unique),
            name_index=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            amount=np.array(self.amounts, dtype=np.int64),
            first_draw=np.array(self.first_draw, dtype=bool),
            bindings=np.array(json.dumps(bindings)),
        )


def run_setup(overrides_json: str) -> int:
    cli = _import_cli()
    overrides = json.loads(overrides_json)
    config = cli.load_config(None, overrides)
    cli.build_covariance(config.build_sigma())
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    return 0


def run_reference() -> int:
    """Start-up, a large Gaussian draw, dense BLAS and a loop of small array
    updates: the same kinds of work as the workloads, in fixed amounts."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = np.diag(np.arange(1.0, 9.0))
    x = rng.standard_normal((500_000, 8)) @ np.linalg.cholesky(m).T
    m = x.T @ x / len(x)
    a = rng.standard_normal((768, 768))
    w = rng.standard_normal((3, 8)) / 8
    eye = np.eye(8)
    for _ in range(10_000):
        w = w + 1e-3 * (w @ m) @ (eye - w.T @ w)
    print(float(np.trace(a @ a.T) + w.sum()))
    return 0


def run_traced(spans_path: str, argv: list[str]) -> int:
    cli = _import_cli()
    tracer = Tracer()
    bindings = tracer.install()
    main = tracer.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        tracer.save(spans_path, bindings)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(run_setup(*rest))
    if mode == "trace":
        sys.exit(run_traced(rest[0], rest[1:]))
    if mode == "reference":
        sys.exit(run_reference())
    raise SystemExit(f"unknown mode {mode!r}")
