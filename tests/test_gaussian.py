"""Sampling determinism, moment estimators, and the Gaussian identities."""

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.checks import stein_identity_check
from frame_hebb.errors import DimensionError, SampleSizeError
from frame_hebb.gaussian import (
    STEIN_MIN_SAMPLES,
    SampleBatch,
    derive_seed,
    isserlis_fourth_moment,
    monomial,
    monomial_exponents,
    monomial_grad,
    monomial_name,
    sample,
    stein_check,
)
from frame_hebb.linalg import (
    build_covariance,
    commutation_matrix,
    random_spd,
    vec,
)


@pytest.fixture(scope="module")
def cov2():
    return build_covariance(np.diag([2.0, 1.0]))


class TestSampling:
    def test_mean_within_clt_band(self):
        n = 10**5
        batch = sample(build_covariance(np.eye(2)), n, seed=11)
        assert np.all(np.abs(batch.data.mean(axis=0)) <= 4.0 / np.sqrt(n))

    def test_empirical_covariance_close(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        batch = sample(cov, 10**5, seed=12)
        emp = batch.data.T @ batch.data / batch.n
        assert np.linalg.norm(emp - cov.sigma) / np.linalg.norm(cov.sigma) <= 0.05

    def test_determinism(self, cov2):
        a = sample(cov2, 1000, seed=7)
        b = sample(cov2, 1000, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self, cov2):
        a = sample(cov2, 100, seed=1)
        b = sample(cov2, 100, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_invalid_count(self, cov2):
        with pytest.raises(ValueError):
            sample(cov2, 0, seed=1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(42, 3) != derive_seed(43, 3)


def reference_test_functions(dim):
    """(name, f, grad) of the hand-written monomials the exponent vectors
    replaced, in their order; the reference for the bitwise parity test."""

    def one_hot(j, col):
        def g(x):
            out = np.zeros_like(x)
            out[:, j] = col(x)
            return out

        return g

    fns = [("const", lambda x: np.ones(x.shape[0]), np.zeros_like)]
    for j in range(dim):
        fns += [
            (f"x{j}", lambda x, j=j: x[:, j],
             lambda x, j=j: np.eye(dim)[j] * np.ones((x.shape[0], 1))),
            (f"x{j}^2", lambda x, j=j: x[:, j] ** 2, one_hot(j, lambda x, j=j: 2.0 * x[:, j])),
            (f"x{j}^3", lambda x, j=j: x[:, j] ** 3,
             one_hot(j, lambda x, j=j: 3.0 * x[:, j] ** 2)),
        ]
    if dim >= 2:

        def cross_grad(x):
            out = np.zeros_like(x)
            out[:, 0] = x[:, 1]
            out[:, 1] = x[:, 0]
            return out

        def cross_sq_grad(x):
            out = np.zeros_like(x)
            out[:, 0] = 2.0 * x[:, 0] * x[:, 1]
            out[:, 1] = x[:, 0] ** 2
            return out

        fns += [("x0*x1", lambda x: x[:, 0] * x[:, 1], cross_grad),
                ("x0^2*x1", lambda x: x[:, 0] ** 2 * x[:, 1], cross_sq_grad)]
    return fns


class TestMonomials:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_equal_to_hand_written_functions(self, dim):
        # Bit for bit but for the cubes, which are x^2 * x rather than pow.
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=60 + dim))
        x = sample(cov, 1000, seed=61).data
        xt = np.ascontiguousarray(x.T)
        exps = monomial_exponents(dim)
        ref = reference_test_functions(dim)
        assert [monomial_name(a) for a in exps] == [name for name, _, _ in ref]
        for a, (name, f, grad) in zip(exps, ref):
            support, partials = monomial_grad(xt, a)
            g = np.zeros_like(xt)
            g[support] = partials
            if 3 in a:
                np.testing.assert_allclose(monomial(xt, a), f(x), rtol=4e-16, atol=0, err_msg=name)
            else:
                assert np.array_equal(monomial(xt, a), f(x)), name
            assert np.array_equal(g, grad(x).T), name
            assert list(support) == [j for j, p in enumerate(a) if p], name

    def test_names(self):
        assert [monomial_name(a) for a in [(0, 0, 0), (0, 1, 0), (2, 0, 0), (2, 1, 3)]] == [
            "const", "x1", "x0^2", "x0^2*x1*x2^3"]


class TestSteinCheck:
    N = STEIN_MIN_SAMPLES

    def test_linear_function(self, cov2):
        assert stein_check(cov2, [(0, 1)], self.N, seed=21)[0].passed

    def test_constant_function(self, cov2):
        assert stein_check(cov2, [(0, 0)], self.N, seed=22)[0].passed

    def test_square_function_odd_moment(self, cov2):
        # f = x0^2 on diag(2,1): both sides of component 0 estimate E[x0^3] = 0.
        (rec,) = stein_check(cov2, [(2, 0)], self.N, seed=23)
        assert rec.check_name == "stein-x0^2"
        assert rec.passed

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_all_builtins_random_spd(self, dim):
        cov = build_covariance(random_spd(dim, (0.5, 2.0), seed=30 + dim))
        exps = monomial_exponents(dim)
        records = stein_check(cov, exps, self.N, seed=derive_seed(77, dim))
        assert [r.check_name for r in records] == [f"stein-{monomial_name(a)}" for a in exps]
        for rec in records:
            assert rec.passed, f"{rec.check_name} at dim {dim}: {rec.value} > {rec.tolerance}"

    @pytest.mark.parametrize("a", [(), (1,), (0, 0, 1)])
    def test_wrong_length_exponents_rejected(self, cov2, a):
        for exps in ([a], [(0, 1), a]):
            with pytest.raises(DimensionError):
                stein_check(cov2, exps, self.N, seed=5)

    def test_negative_exponent_rejected(self, cov2):
        with pytest.raises(ValueError, match="negative"):
            stein_check(cov2, [(0, 1), (-1, 0)], self.N, seed=5)

    @pytest.mark.parametrize("n", [1, 2, 100, STEIN_MIN_SAMPLES - 1])
    def test_too_few_samples_rejected(self, cov2, n):
        # below the minimum the band misses its false-failure rate
        with pytest.raises(SampleSizeError):
            stein_check(cov2, [(0, 0)], n, seed=5)

    def test_record_is_reproducible(self, cov2):
        a = stein_check(cov2, [(0, 0), (1, 1)], self.N, seed=5)
        b = stein_check(cov2, [(0, 0), (1, 1)], self.N, seed=5)
        assert [(r.value, r.tolerance) for r in a] == [(r.value, r.tolerance) for r in b]

    def test_one_draw_per_dimension(self, monkeypatch):
        calls = []
        real = gaussian.sample

        def spy(cov, n, seed):
            calls.append((cov.dim, n))
            return real(cov, n, seed)

        monkeypatch.setattr(gaussian, "sample", spy)
        dims = (1, 2, 4)
        assert stein_identity_check(42, self.N, dims=dims).passed
        assert calls == [(dim, self.N) for dim in dims]

    def test_wrong_covariance_fails(self, monkeypatch):
        # Negative control: rows of covariance 1.2 Sigma, checked against Sigma.
        cov = build_covariance(random_spd(2, (0.5, 2.0), seed=31))
        wide = build_covariance(1.2 * cov.sigma)
        rows = sample(wide, self.N, seed=24).data
        monkeypatch.setattr(gaussian, "sample",
                            lambda c, n, seed: SampleBatch.from_rows(rows, c, seed))
        records = stein_check(cov, monomial_exponents(2), self.N, seed=24)
        assert not all(r.passed for r in records)
        assert not stein_check(cov, [(0, 1)], self.N, seed=24)[0].passed


class TestIsserlisFourthMoment:
    def test_univariate_standard_normal(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_allclose(isserlis_fourth_moment(cov), [[3.0]])

    def test_identity_covariance_closed_form(self):
        cov = build_covariance(np.eye(2))
        t = commutation_matrix(2)
        v = vec(np.eye(2))
        expected = np.eye(4) + t + np.outer(v, v)
        np.testing.assert_allclose(isserlis_fourth_moment(cov), expected, atol=1e-14)

    def test_monte_carlo_agreement(self, cov2):
        analytic = isserlis_fourth_moment(cov2)
        x = sample(cov2, 10**6, seed=41).data
        rows = np.einsum("ki,kj->kji", x, x).reshape(x.shape[0], 4)
        emp = rows.T @ rows / x.shape[0]
        err = np.abs(emp - analytic)
        assert np.max(err / np.maximum(np.abs(analytic), 1.0)) <= 0.05

    def test_symmetric_psd(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=50))
        m = isserlis_fourth_moment(cov)
        np.testing.assert_array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-10 * np.linalg.norm(m)
