"""Negative controls, one per check command: a sampler that draws at
1.2 Sigma while every closed form keeps Sigma is a real defect, and each
command must catch it with a Monte-Carlo check. A check that passes on the
wrong covariance shows nothing about the right one."""

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.cli import EXIT_CHECK_FAILED, main
from frame_hebb.records import read_records_csv


@pytest.fixture
def wide_sampler(monkeypatch):
    """Every drawn row scaled by sqrt(1.2): rows of covariance 1.2 Sigma."""
    real = gaussian.SampleBatch.chunks
    scale = np.sqrt(1.2)

    def chunks(self):
        for x in real(self):
            yield scale * x

    monkeypatch.setattr(gaussian.SampleBatch, "chunks", chunks)


@pytest.mark.parametrize("command, csv_name, selection", [
    ("equivalence", "equivalence.csv", ["mc-rate-oja", "mc-rate-eghr"]),
    ("frame-check", "frame_check.csv", ["isserlis-empirical", "mc-rate-frame-operator"]),
])
def test_wrong_covariance_fails_every_selected_check(wide_sampler, tmp_path, command,
                                                     csv_name, selection):
    code = main([command, "--seed", "42", "--samples", "100000",
                 "--checks", ",".join(selection), "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    records = read_records_csv(tmp_path / csv_name)
    assert [r.check_name for r in records] == selection
    assert not any(r.passed for r in records), [(r.check_name, r.value) for r in records]
