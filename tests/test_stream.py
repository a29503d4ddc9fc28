"""The chunked sample stream: chunks concatenate to the whole-batch draw, and
every estimator summed over chunks equals its whole-batch formula (bit for
bit on one chunk) while its peak memory does not grow with n."""

import tracemalloc

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.checks import mc_rate_check, stein_identity_check
from frame_hebb.frames import (
    derive_eghr_from_oja,
    frame_expansion_reconstruct,
    frame_operator_empirical,
    restricted_inverse_apply,
)
from frame_hebb.gaussian import (
    CHUNK_ROWS,
    STEIN_MIN_SAMPLES,
    SampleBatch,
    SteinMean,
    monomial,
    monomial_exponents,
    monomial_grad,
    sample,
    stein_check,
)
from frame_hebb.linalg import build_covariance, random_spd, vec
from frame_hebb.rules import eghr_update_empirical, oja_update_empirical

C = CHUNK_ROWS


@pytest.fixture(scope="module")
def cov3():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=90))


@pytest.fixture(scope="module")
def w23():
    return np.random.default_rng(91).uniform(-1.0, 1.0, (2, 3))


# The whole-batch formulas the chunked estimators replaced, on x = batch.data.

def oja_formula(w, x):
    u = x @ w.T
    return u.T @ (x - u @ w) / x.shape[0]


def gain_hebbian_formula(w, x, center=None):
    u = x @ w.T
    s = (x * x).sum(axis=1) - (u * u).sum(axis=1)
    if center is None:
        center = float(s.sum() / s.size)
    g = 0.5 * (s - center)
    return (u * g[:, None]).T @ x / x.shape[0]


def operator_formula(cov, x):
    n, d = x.shape
    rows = np.einsum("ki,kj->kji", x, x).reshape(n, d * d) - vec(cov.sigma)
    s = np.zeros((d * d, d * d))
    s += rows.T @ rows
    s /= n
    return (s + s.T) / 2.0


def expansion_formula(m, cov, x):
    """(recon, mean coefficient)."""
    d = restricted_inverse_apply(cov, m)
    buf = x @ d
    np.multiply(buf, x, out=buf)
    coeffs = buf @ np.ones(cov.dim) - float(np.sum(d * cov.sigma))
    coeff_mean = float(np.mean(coeffs))
    np.multiply(x, coeffs[:, None], out=buf)
    return x.T @ buf / x.shape[0] - coeff_mean * cov.sigma, coeff_mean


def derivation_formula(w, cov, x):
    """(frame route, direct route)."""
    m = cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma
    recon, coeff_mean = expansion_formula(m, cov, x)
    frame_route = w @ (recon + coeff_mean * cov.sigma)
    center = np.trace(cov.sigma) - float(np.sum((w @ cov.sigma) * w))
    return frame_route, gain_hebbian_formula(w, x, center)


def stein_formula(cov, exponents, x):
    """(mean, band) of the Stein residuals, one row per exponent vector."""
    xt = np.ascontiguousarray(x.T)
    means, bands = [], []
    for a in exponents:
        support, partials = monomial_grad(xt, a)
        resid = monomial(xt, a) * xt - cov.sigma[:, support] @ partials
        means.append(resid.mean(axis=1))
        bands.append(np.maximum(4.0 * resid.std(axis=1, ddof=1) / np.sqrt(x.shape[0]), 1e-12))
    return np.array(means), np.array(bands)


def estimates(w, cov, batch):
    """Every chunked estimator on one batch, and its whole-batch formula on
    the same rows, as (name, chunked, formula) triples."""
    x = batch.data
    m = cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma
    res = derive_eghr_from_oja(w, cov, batch)
    frame_route, direct_route = derivation_formula(w, cov, x)
    exps = monomial_exponents(cov.dim)
    stein_mean, stein_band = batch.feed(SteinMean(cov.sigma, exps))[0]
    stein_ref = stein_formula(cov, exps, x)
    return [
        ("oja", oja_update_empirical(w, batch), oja_formula(w, x)),
        ("eghr", eghr_update_empirical(w, batch), gain_hebbian_formula(w, x)),
        ("operator", frame_operator_empirical(batch), operator_formula(cov, x)),
        ("expansion", frame_expansion_reconstruct(m, batch), expansion_formula(m, cov, x)[0]),
        ("frame-route", res.frame_route, frame_route),
        ("direct-route", res.direct_route, direct_route),
        ("stein-mean", stein_mean, stein_ref[0]),
        ("stein-band", stein_band, stein_ref[1]),
    ]


class TestChunkStream:
    @pytest.mark.parametrize("nx", [1, 4, 100])
    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 3 * C + 7])
    def test_chunks_concatenate_to_the_whole_draw(self, nx, n):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=nx))
        chunks = list(sample(cov, n, seed=5).chunks())
        whole = np.random.default_rng(5).standard_normal((n, nx)) @ cov.chol.T
        assert np.array_equal(np.concatenate(chunks), whole)
        # C rows a chunk, the remainder joins the last one
        assert [len(c) for c in chunks] == [C] * (len(chunks) - 1) + [n - C * (len(chunks) - 1)]
        assert len(chunks[-1]) < 2 * C and (len(chunks) == 1 or len(chunks[-1]) >= C)

    def test_given_rows_are_chunked_the_same_way(self, cov3):
        x = np.random.default_rng(6).standard_normal((2 * C + 3, 3))
        chunks = list(SampleBatch.from_rows(x, cov3).chunks())
        assert [len(c) for c in chunks] == [C, C + 3]
        assert np.array_equal(np.concatenate(chunks), x)

    def test_from_rows_checks_shape(self, cov3):
        for bad in (np.zeros((0, 3)), np.zeros((4, 2)), np.zeros(3)):
            with pytest.raises(ValueError):
                SampleBatch.from_rows(bad, cov3)

    def test_each_pass_draws_the_same_rows(self, cov3):
        batch = sample(cov3, C + 9, seed=7)
        assert np.array_equal(batch.data, batch.data)


class TestChunkedEstimators:
    @pytest.mark.parametrize("n", [2, 500, C + 5])  # C + 5 rows are one chunk
    def test_one_chunk_is_the_whole_batch_formula(self, cov3, w23, n):
        batch = sample(cov3, n, seed=92)
        assert len(list(batch.chunks())) == 1
        for name, got, want in estimates(w23, cov3, batch):
            assert np.array_equal(got, want), name

    def test_several_chunks_agree_with_the_whole_batch_formula(self, cov3, w23):
        batch = sample(cov3, 2 * C + 5, seed=93)
        assert len(list(batch.chunks())) == 2
        for name, got, want in estimates(w23, cov3, batch):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name

    def test_many_small_chunks_agree_with_the_whole_batch_formula(
        self, cov3, w23, monkeypatch
    ):
        monkeypatch.setattr(gaussian, "CHUNK_ROWS", 7)  # 60 rows: 7 x 7 and 11
        for batch in (sample(cov3, 60, seed=94),
                      SampleBatch.from_rows(np.random.default_rng(95).standard_normal((60, 3)), cov3)):
            assert len(list(batch.chunks())) == 8
            for name, got, want in estimates(w23, cov3, batch):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak memory is set by one chunk, not by n: going from n = 4C to
    n = 16C rows may not raise the traced peak by half."""

    @pytest.mark.parametrize("estimator", [
        "oja_update_empirical", "eghr_update_empirical", "frame_operator_empirical",
        "derive_eghr_from_oja", "stein_check", "mc_rate_check",
    ])
    def test_peak_does_not_grow_with_n(self, cov3, w23, estimator):
        run = {
            "oja_update_empirical": lambda n: oja_update_empirical(w23, sample(cov3, n, 1)),
            "eghr_update_empirical": lambda n: eghr_update_empirical(w23, sample(cov3, n, 1)),
            "frame_operator_empirical": lambda n: frame_operator_empirical(sample(cov3, n, 1)),
            "derive_eghr_from_oja": lambda n: derive_eghr_from_oja(w23, cov3, sample(cov3, n, 1)),
            "stein_check": lambda n: stein_check(cov3, monomial_exponents(3), n, 1),
            "mc_rate_check": lambda n: mc_rate_check(
                ("oja", "eghr", "frame-operator", "frame-expansion"), cov3, 2, 1,
                ns=(C, n), replicates=1),
        }[estimator]
        small, large = traced_peak(lambda: run(4 * C)), traced_peak(lambda: run(16 * C))
        assert large <= 1.5 * small, (small, large)

    def test_stein_identity_peak_stays_below_12_mb(self):
        # one (dim, rows) function at a time: a stacked block of all 15
        # functions at dim 4 would take 16.5 MB per temporary
        stein_identity_check(42, STEIN_MIN_SAMPLES)  # warm up imports and caches
        assert traced_peak(lambda: stein_identity_check(42, STEIN_MIN_SAMPLES)) < 12e6
