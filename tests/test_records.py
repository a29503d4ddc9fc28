"""ExperimentRecord invariants and CSV round-tripping."""

import math

import numpy as np
import pytest

from frame_hebb.records import (
    CSV_SCHEMA_VERSION,
    NONFINITE_VALUE,
    ExperimentRecord,
    check_record,
    digest_inputs,
    read_records_csv,
    write_records_csv,
)


def test_record_pass_fail_logic():
    rec = ExperimentRecord("t", value=1.0, reference=1.0 + 1e-15, tolerance=1e-12, seed=1)
    assert rec.passed and rec.metric == "abs"
    rec = ExperimentRecord("t", value=2.0, reference=1.0, tolerance=1e-12, seed=1)
    assert not rec.passed


def test_tolerance_applies_to_abs_error():
    # rel_error 0.1 is within the tolerance, abs_error 10 is not
    rec = ExperimentRecord("t", value=110.0, reference=100.0, tolerance=1.0, seed=1)
    assert rec.rel_error == pytest.approx(0.1)
    assert not rec.passed


def test_rel_error_falls_back_to_abs_at_zero_reference():
    rec = ExperimentRecord("t", value=3e-13, reference=0.0, tolerance=1e-12, seed=1)
    assert rec.rel_error == rec.abs_error == pytest.approx(3e-13)
    assert rec.passed


def test_numpy_scalars_are_stored_as_python_numbers(tmp_path):
    # An np.bool_ verdict would be written as True, not true.
    rec = ExperimentRecord("t", value=np.float64(0.5), tolerance=np.float64(1.0),
                           seed=np.int64(3), reference=np.float64(0.0))
    assert type(rec.value) is float and type(rec.seed) is int
    assert type(rec.passed) is bool
    write_records_csv(tmp_path / "t.csv", [rec])
    assert read_records_csv(tmp_path / "t.csv")[0].passed


def test_non_finite_fields_rejected():
    with pytest.raises(ValueError):
        ExperimentRecord("t", value=math.nan, reference=0.0, tolerance=1.0, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("reference", [0.0, -0.5])
def test_a_check_records_a_non_finite_value_as_a_failure(value, reference):
    # A gap or, with reference -0.5, a fitted slope: the record is written.
    record = check_record("t", value, 1.0, 0, reference)
    assert record.value == NONFINITE_VALUE
    assert not record.passed


def test_csv_round_trip(tmp_path):
    records = [
        ExperimentRecord("alpha", value=1 / 3, reference=0.0, tolerance=1.0,
                         seed=7, inputs_digest="abc", group="g1"),
        ExperimentRecord("beta", value=2.0, reference=1.0, tolerance=1e-3,
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


# A row written for value 5, reference 0 and tolerance 1, and edits of its
# columns that no longer agree with those numbers.
INCONSISTENT_ROWS = {
    "passed flag": (",false,", ",true,"),
    "metric between": (",abs,", ",between,"),
    "empty metric": (",abs,", ",,"),
    # passed agrees with rel_error <= tolerance; the row must still be refused
    "rel metric": (",5,5,abs,1,false,", ",5,0.5,rel,1,true,"),
    "value": (",5,0,", ",0.5,0,"),
}


def write_inconsistent_row(path, case):
    write_records_csv(path, [ExperimentRecord("t", value=5.0, tolerance=1.0, seed=0)])
    old, new = INCONSISTENT_ROWS[case]
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("case", INCONSISTENT_ROWS)
def test_read_rejects_a_row_whose_columns_disagree_with_its_numbers(tmp_path, case):
    path = tmp_path / "t.csv"
    write_inconsistent_row(path, case)
    # line 3 of the file: the schema line and the header come first
    with pytest.raises(ValueError, match="^line 3: .* but the row's numbers give"):
        read_records_csv(path)


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
