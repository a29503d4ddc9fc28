"""Negative controls, one per check command: a sampler that draws at
1.2 Sigma while every closed form keeps Sigma is a real defect, and each
command must catch it with a Monte-Carlo check. A check that passes on the
wrong covariance shows nothing about the right one. A sweep covariance built
from a wrongly paired spectrum, which no residual gate stops, must fail the
identities that read its inverse."""

import numpy as np
import pytest

from frame_hebb import gaussian, linalg
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


@pytest.fixture
def mispaired_spectrum(monkeypatch):
    """Every drawn covariance keeps its Sigma, but Q's first two columns swap
    after Sigma is formed, so its model pairs two eigenvalues with the wrong
    eigenvectors and its inverse (Q Lambda^-1) Q^T is not Sigma's."""
    real = linalg._random_spds

    def swapped(rng, k, n, eig_range):
        s, lam, q = real(rng, k, n, eig_range)
        return s, lam, q[:, :, [1, 0, *range(2, n)]]

    monkeypatch.setattr(linalg, "_random_spds", swapped)


def test_mispaired_spectrum_fails_the_coefficient_sweep(mispaired_spectrum, tmp_path):
    # fixed-point-sharing cannot tell: any nu eigenvectors make a fixed point,
    # whatever eigenvalues they are paired with.
    selection = ["coefficient-identity", "cancellation-identity"]
    code = main(["frame-check", "--seed", "42", "--nx", "4", "--checks", ",".join(selection),
                 "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    records = read_records_csv(tmp_path / "frame_check.csv")
    assert [r.check_name for r in records] == selection
    assert not any(r.passed for r in records), [(r.check_name, r.value) for r in records]
