"""The traced benchmark run (``bench/run.py --trace 1``) wraps frame_hebb
functions by name; every name it lists must exist in the library."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from frame_hebb.gaussian import SampleBatch

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    # bench/child.py imports only the standard library at its top level.
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_bind():
    child = load_child()
    targets = [(layer, fn) for layer, fns in child.LAYER_FUNCTIONS.items() for fn in fns]
    targets += [("checks", fn) for fn in child.CHECK_FUNCTIONS]
    missing = [
        f"{layer}.{fn}"
        for layer, fn in targets
        if not callable(getattr(importlib.import_module(f"frame_hebb.{layer}"), fn, None))
    ]
    assert not missing


def test_sample_batch_fields_read_by_tracer():
    fields = {f.name for f in dataclasses.fields(SampleBatch)}
    assert {"n", "seed", "covariance"} <= fields
