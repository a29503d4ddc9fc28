"""ExperimentRecord invariants and CSV round-tripping."""

import math

import pytest

from frame_hebb.records import (
    CSV_SCHEMA_VERSION,
    NONFINITE_VALUE,
    ExperimentRecord,
    check_record,
    digest_inputs,
    make_record,
    read_records_csv,
    write_records_csv,
)


def test_make_record_pass_fail_logic():
    rec = make_record("t", value=1.0, reference=1.0 + 1e-15, tolerance=1e-12, seed=1)
    assert rec.passed and rec.metric == "abs"
    rec = make_record("t", value=2.0, reference=1.0, tolerance=1e-12, seed=1)
    assert not rec.passed


def test_tolerance_applies_to_abs_error():
    # rel_error 0.1 is within the tolerance, abs_error 10 is not
    rec = make_record("t", value=110.0, reference=100.0, tolerance=1.0, seed=1)
    assert rec.rel_error == pytest.approx(0.1)
    assert not rec.passed


def test_rel_error_falls_back_to_abs_at_zero_reference():
    rec = make_record("t", value=3e-13, reference=0.0, tolerance=1e-12, seed=1)
    assert rec.rel_error == rec.abs_error == pytest.approx(3e-13)
    assert rec.passed


def record_fields(**overrides):
    fields = dict(
        check_name="t", inputs_digest="", value=5.0, reference=0.0,
        abs_error=5.0, rel_error=5.0, metric="abs", tolerance=1e-12,
        passed=False, wall_time_ms=0.0, seed=0,
    )
    return {**fields, **overrides}


def test_inconsistent_passed_flag_rejected():
    with pytest.raises(ValueError):
        ExperimentRecord(**record_fields(passed=True))


def test_non_finite_fields_rejected():
    with pytest.raises(ValueError):
        make_record("t", value=math.nan, reference=0.0, tolerance=1.0, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("reference", [0.0, -0.5])
def test_a_check_records_a_non_finite_value_as_a_failure(value, reference):
    # A gap or, with reference -0.5, a fitted slope: the record is written.
    record = check_record("t", value, 1.0, 0, reference)
    assert record.value == NONFINITE_VALUE
    assert not record.passed


def test_unknown_metric_rejected():
    for metric in ("between", ""):
        with pytest.raises(ValueError):
            ExperimentRecord(**record_fields(metric=metric))


def test_rel_metric_rejected():
    # passed agrees with rel_error <= tolerance; the row must still be refused
    with pytest.raises(ValueError, match="metric"):
        ExperimentRecord(**record_fields(metric="rel", rel_error=0.5, tolerance=1.0,
                                         passed=True))


def test_csv_round_trip(tmp_path):
    records = [
        make_record("alpha", value=1 / 3, reference=0.0, tolerance=1.0,
                    seed=7, inputs_digest="abc", group="g1"),
        make_record("beta", value=2.0, reference=1.0, tolerance=1e-3,
                    seed=8, group="g2"),
    ]
    path = tmp_path / "out.csv"
    write_records_csv(path, records)
    text = path.read_text()
    assert text.startswith(f"# {CSV_SCHEMA_VERSION}\n")
    assert "0.33333333333333331" in text  # 17 significant digits
    loaded = read_records_csv(path)
    assert [r.check_name for r in loaded] == ["alpha", "beta"]
    assert [r.metric for r in loaded] == ["abs", "abs"]
    assert loaded[0].value == records[0].value  # bit-exact float round trip
    assert loaded[0].passed and not loaded[1].passed
    assert loaded[1].group == "g2"


def test_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# some-other-schema\na,b\n1,2\n")
    with pytest.raises(ValueError):
        read_records_csv(path)


def test_digest_is_stable_and_input_sensitive():
    a = digest_inputs(nx=4, seed=1)
    assert a == digest_inputs(nx=4, seed=1)
    assert a != digest_inputs(nx=5, seed=1)
    assert len(a) == 12
