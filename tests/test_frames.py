"""Frame vectors, the frame operator, bounds, inverses, coefficients,
expansions, and the derivation chain."""

import tracemalloc

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.errors import DimensionError, SampleSizeError, SkewDomainError
from frame_hebb.frames import (
    ExpansionMean,
    cancellation_coefficient,
    derive_eghr_from_oja,
    frame_bounds,
    frame_coefficient,
    frame_expansion_reconstruct,
    frame_operator_analytic,
    frame_operator_empirical,
    frame_vector,
    restricted_inverse_apply,
)
from frame_hebb.gaussian import SampleBatch, isserlis_fourth_moment, sample
from frame_hebb.linalg import (
    build_covariance,
    commutation_matrix,
    kron,
    random_spd,
    skew_part,
    sym_part,
    unvec,
    vec,
)
from frame_hebb.rules import eghr_g, eghr_update_closed, oja_update_closed


@pytest.fixture(scope="module")
def cov21():
    return build_covariance(np.diag([2.0, 1.0]))


@pytest.fixture(scope="module")
def cov_rand3():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=60))


class TestFrameVector:
    def test_zero_sample(self):
        cov = build_covariance(np.eye(2))
        np.testing.assert_array_equal(
            frame_vector(np.zeros(2), cov), [-1.0, 0.0, 0.0, -1.0]
        )

    def test_unit_variance_unit_sample(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_array_equal(frame_vector(np.array([1.0]), cov), [0.0])

    def test_reconstructs_outer_product(self, cov_rand3):
        x = sample(cov_rand3, 1, seed=61).data[0]
        m = unvec(frame_vector(x, cov_rand3), 3)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_allclose(
            m + cov_rand3.sigma, np.outer(x, x), rtol=1e-14, atol=1e-14
        )

    def test_kron_form_agrees(self, cov_rand3):
        x = sample(cov_rand3, 1, seed=62).data[0]
        np.testing.assert_array_equal(
            frame_vector(x, cov_rand3), np.kron(x, x) - vec(cov_rand3.sigma)
        )

    def test_mean_zero_componentwise(self, cov21):
        n = 10**6
        x = sample(cov21, n, seed=63).data
        rows = np.einsum("ki,kj->kji", x, x).reshape(n, 4) - vec(cov21.sigma)
        band = 4.0 * rows.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(rows.mean(axis=0)) <= band)

    def test_dimension_mismatch(self, cov21):
        with pytest.raises(DimensionError):
            frame_vector(np.zeros(3), cov21)


@pytest.fixture(scope="module")
def dense_reference_cases():
    """(cov, S, fourth moment) by dense products for random-spd, diagonal and
    identity Sigma at several nx: S = K + K @ T with K = Sigma kron Sigma and
    T the commutation matrix, the moment S + vec(Sigma) vec(Sigma)^T, each
    then symmetrized as (A + A.T) / 2."""
    cases = []
    for nx in (1, 2, 3, 8, 32):
        for sigma in (
            random_spd(nx, (0.5, 2.0), seed=nx),
            np.diag(np.linspace(2.0, 1.0, nx)),
            np.eye(nx),
        ):
            cov = build_covariance(sigma)
            sk = kron(cov.sigma, cov.sigma)
            s = sk + sk @ commutation_matrix(nx)
            vs = vec(cov.sigma)
            m4 = s + np.outer(vs, vs)
            cases.append((cov, (s + s.T) / 2.0, (m4 + m4.T) / 2.0))
    return cases


class TestFrameOperatorAnalytic:
    def test_scalar_case(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_array_equal(frame_operator_analytic(cov), [[2.0]])

    def test_is_built_once_per_covariance_and_read_only(self, cov21):
        s = frame_operator_analytic(cov21)
        assert frame_operator_analytic(cov21) is s
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            s += 1.0

    def test_identity_covariance_spectrum(self):
        cov = build_covariance(np.eye(2))
        s = frame_operator_analytic(cov)
        np.testing.assert_allclose(s, np.eye(4) + commutation_matrix(2), atol=1e-15)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(s)), [0.0, 2.0, 2.0, 2.0], atol=1e-12
        )

    def test_diagonal_covariance_spectrum(self, cov21):
        s = frame_operator_analytic(cov21)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(s)), [0.0, 2.0, 4.0, 8.0], atol=1e-12
        )

    def test_matches_kron_form_and_kills_skew(self, cov_rand3, dense_reference_cases):
        s = frame_operator_analytic(cov_rand3)
        t = commutation_matrix(3)
        ref = kron(cov_rand3.sigma, cov_rand3.sigma) @ (np.eye(9) + t)
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)
        # The gather build equals the dense product bit for bit, and S is
        # exactly symmetric without a symmetrization step.
        for cov, s_ref, _ in dense_reference_cases:
            s_gather = frame_operator_analytic(cov)
            assert np.array_equal(s_gather, s_ref), cov.dim
            assert np.array_equal(s_gather, s_gather.T), cov.dim
        rng = np.random.default_rng(64)
        for _ in range(20):
            k = skew_part(rng.standard_normal((3, 3)))
            bound = 1e-12 * np.linalg.norm(s) * np.linalg.norm(k)
            assert np.linalg.norm(s @ vec(k)) <= bound


class TestFrameOperatorEmpirical:
    def test_zero_dispersion_batch(self):
        # In one dimension x = +-1 gives x x^T identical to the unit
        # covariance, so every frame vector vanishes.
        cov = build_covariance(np.eye(1))
        batch = SampleBatch.from_rows([[1.0], [-1.0], [1.0], [-1.0]], cov)
        np.testing.assert_array_equal(frame_operator_empirical(batch), [[0.0]])

    def test_monte_carlo_agreement(self, cov21):
        emp = frame_operator_empirical(sample(cov21, 10**6, seed=65))
        ref = frame_operator_analytic(cov21)
        assert np.linalg.norm(emp - ref) / np.linalg.norm(ref) <= 0.05

    def test_kills_skew_for_any_batch(self, cov_rand3):
        s = frame_operator_empirical(sample(cov_rand3, 500, seed=66))
        rng = np.random.default_rng(67)
        for _ in range(10):
            k = skew_part(rng.standard_normal((3, 3)))
            bound = 1e-12 * np.linalg.norm(s) * np.linalg.norm(k)
            assert np.linalg.norm(s @ vec(k)) <= bound

    def test_symmetric_psd(self, cov_rand3):
        s = frame_operator_empirical(sample(cov_rand3, 1000, seed=68))
        np.testing.assert_array_equal(s, s.T)
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12 * np.linalg.norm(s)

    def test_needs_two_samples(self, cov21):
        batch = SampleBatch.from_rows(np.zeros((1, 2)), cov21)
        with pytest.raises(SampleSizeError):
            frame_operator_empirical(batch)


class TestFrameBounds:
    def test_identity_two_dim(self):
        b = frame_bounds(build_covariance(np.eye(2)))
        assert (b.lower, b.upper_tight, b.upper_trace) == (2.0, 2.0, 6.0)

    def test_diagonal_two_dim(self, cov21):
        b = frame_bounds(cov21)
        assert (b.lower, b.upper_tight, b.upper_trace) == (2.0, 8.0, 14.0)

    def test_isotropic(self):
        c = 1.7
        b = frame_bounds(build_covariance(c * np.eye(3)))
        assert b.lower == pytest.approx(2 * c**2, rel=1e-12)
        assert b.upper_tight == pytest.approx(2 * c**2, rel=1e-12)

    def test_trace_bound_equals_operator_trace(self, cov_rand3):
        b = frame_bounds(cov_rand3)
        s = frame_operator_analytic(cov_rand3)
        assert b.upper_trace == pytest.approx(np.trace(s), rel=1e-12)
        assert b.lower <= b.upper_tight <= b.upper_trace

    def test_quadratic_form_sandwiched(self, cov_rand3):
        s = frame_operator_analytic(cov_rand3)
        b = frame_bounds(cov_rand3)
        rng = np.random.default_rng(69)
        for _ in range(200):
            v = vec(sym_part(rng.standard_normal((3, 3))))
            v /= np.linalg.norm(v)
            q = v @ s @ v
            assert b.lower - 1e-10 <= q <= b.upper_tight + 1e-10


class TestRestrictedInverse:
    def test_identity_covariance_halves(self):
        cov = build_covariance(np.eye(2))
        v = vec(sym_part(np.arange(4.0).reshape(2, 2)))
        np.testing.assert_allclose(restricted_inverse_apply(cov, v), v / 2.0)

    def test_diagonal_closed_form(self, cov21):
        v = vec(np.diag([8.0, 1.0]))
        np.testing.assert_allclose(
            restricted_inverse_apply(cov21, v), vec(np.diag([1.0, 0.5])), atol=1e-14
        )

    def test_skew_input_rejected(self, cov21):
        with pytest.raises(SkewDomainError):
            restricted_inverse_apply(cov21, vec([[0.0, 1.0], [-1.0, 0.0]]))

    def test_inverts_operator_on_sym(self, cov_rand3):
        s = frame_operator_analytic(cov_rand3)
        rng = np.random.default_rng(70)
        for _ in range(50):
            v = vec(sym_part(rng.standard_normal((3, 3))))
            r = restricted_inverse_apply(cov_rand3, v)
            assert np.linalg.norm(s @ r - v) <= 1e-10 * np.linalg.norm(v)


class TestFrameCoefficient:
    def test_zero_vector(self, cov_rand3):
        x = sample(cov_rand3, 1, seed=71).data[0]
        assert frame_coefficient(np.zeros(9), x, cov_rand3) == 0.0

    def test_equals_gain_for_sandwich_vector(self):
        rng = np.random.default_rng(72)
        for trial in range(50):
            nx = int(rng.integers(2, 6))
            nu = int(rng.integers(1, nx + 1))
            cov = build_covariance(
                random_spd(nx, (0.5, 2.0), seed=int(rng.integers(2**63)))
            )
            w = rng.uniform(-1, 1, (nu, nx))
            x = sample(cov, 1, seed=int(rng.integers(2**63))).data[0]
            v = vec(cov.sigma @ (np.eye(nx) - w.T @ w) @ cov.sigma)
            g = eghr_g(x, w, cov)
            assert frame_coefficient(v, x, cov) == pytest.approx(
                g, abs=1e-12 * max(1.0, abs(g))
            )

    def test_identity_covariance_hand_value(self):
        cov = build_covariance(np.eye(2))
        assert frame_coefficient(
            vec(np.eye(2)), np.array([2.0, 0.0]), cov
        ) == pytest.approx(1.0, abs=1e-14)


class TestCancellationCoefficient:
    def test_matches_frame_coefficient(self, cov_rand3):
        rng = np.random.default_rng(73)
        for _ in range(50):
            w = rng.uniform(-1, 1, (2, 3))
            x = sample(cov_rand3, 1, seed=int(rng.integers(2**63))).data[0]
            v = vec(cov_rand3.sigma @ (np.eye(3) - w.T @ w) @ cov_rand3.sigma)
            c = frame_coefficient(v, x, cov_rand3)
            assert cancellation_coefficient(w, x, cov_rand3) == pytest.approx(
                c, abs=1e-12 * max(1.0, abs(c))
            )

    def test_identity_weights_vanish(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=74))
        for x in sample(cov, 5, seed=75).data:
            assert cancellation_coefficient(np.eye(3), x, cov) == 0.0

    def test_zero_weights_hand_value(self):
        cov = build_covariance(np.eye(2))
        assert cancellation_coefficient(
            np.zeros((1, 2)), np.array([2.0, 0.0]), cov
        ) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self, cov_rand3):
        with pytest.raises(DimensionError):
            cancellation_coefficient(np.ones((1, 2)), np.ones(3), cov_rand3)


class TestFrameExpansion:
    def test_zero_vector_reconstructs_exactly(self, cov_rand3):
        batch = sample(cov_rand3, 100, seed=76)
        np.testing.assert_array_equal(
            frame_expansion_reconstruct(np.zeros(9), batch), np.zeros(9)
        )

    def test_reconstruction_error_small_at_large_n(self, cov21):
        w = np.random.default_rng(77).uniform(-1, 1, (1, 2))
        v = vec(cov21.sigma @ (np.eye(2) - w.T @ w) @ cov21.sigma)
        recon = frame_expansion_reconstruct(v, sample(cov21, 10**6, seed=78))
        assert np.linalg.norm(recon - v) / np.linalg.norm(v) <= 0.05

    @pytest.mark.parametrize("nx", [1, 3, 16])
    def test_vectorized_coefficients_match_scalar_path(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=60))  # nx=3: cov_rand3
        rng = np.random.default_rng(79)
        v = vec(sym_part(rng.standard_normal((nx, nx))))
        batch = sample(cov, 64, seed=80)
        expansion = ExpansionMean(v, cov)
        recon, = batch.feed(expansion)
        coeff_mean = expansion.coeff_mean()
        coeffs = np.array([frame_coefficient(v, x, cov) for x in batch.data])
        xis = np.stack([frame_vector(x, cov) for x in batch.data])
        expected = xis.T @ coeffs / batch.n
        np.testing.assert_allclose(
            recon, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
        )
        assert coeff_mean == pytest.approx(coeffs.mean(), abs=1e-13 * np.abs(coeffs).max())

    def test_memory_stays_at_batch_scale(self):
        # the expansion works on n x nx arrays, never on the n x nx**2 rows
        nx, n = 48, 2000
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=88))
        batch = sample(cov, n, seed=89)
        w = np.random.default_rng(90).uniform(-1, 1, (4, nx))
        v = vec(cov.sigma @ (np.eye(nx) - w.T @ w) @ cov.sigma)
        for run in (lambda: frame_expansion_reconstruct(v, batch),
                    lambda: derive_eghr_from_oja(w, cov, batch)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * batch.data.nbytes


class TestOperatorChunks:
    """The empirical operator sums fixed chunks of centered rows; the sum
    must be bit-identical to a plain loop over the same chunks."""

    def test_matches_reference_loop_across_chunks(self, cov_rand3, monkeypatch):
        monkeypatch.setattr(gaussian, "CHUNK_ROWS", 7)  # 30 rows: chunks 7,7,7,9
        batch = sample(cov_rand3, 30, seed=81)
        s = np.zeros((9, 9))
        for start, stop in ((0, 7), (7, 14), (14, 21), (21, 30)):
            x = batch.data[start:stop]
            rows = np.einsum("ki,kj->kji", x, x).reshape(len(x), 9) - vec(cov_rand3.sigma)
            s += rows.T @ rows
        s /= batch.n
        np.testing.assert_array_equal(frame_operator_empirical(batch), (s + s.T) / 2.0)


class TestIsserlisConsistency:
    def test_fourth_moment_minus_rank_one_is_operator(
        self, cov_rand3, dense_reference_cases
    ):
        m4 = isserlis_fourth_moment(cov_rand3)
        vs = vec(cov_rand3.sigma)
        s = frame_operator_analytic(cov_rand3)
        assert np.linalg.norm(m4 - np.outer(vs, vs) - s) <= 1e-12 * np.linalg.norm(s)
        for cov, _, m4_ref in dense_reference_cases:
            m4 = isserlis_fourth_moment(cov)
            assert np.array_equal(m4, m4_ref), cov.dim
            assert np.array_equal(m4, m4.T), cov.dim


class TestDerivation:
    def test_zero_weights_everything_zero(self, cov21):
        batch = sample(cov21, 200, seed=81)
        res = derive_eghr_from_oja(np.zeros((1, 2)), cov21, batch)
        np.testing.assert_array_equal(res.target, np.zeros((1, 2)))
        np.testing.assert_array_equal(res.frame_route, np.zeros((1, 2)))
        np.testing.assert_array_equal(res.direct_route, np.zeros((1, 2)))
        assert all(r.passed for r in res.records)

    def test_routes_agree_on_any_batch(self, cov_rand3):
        w = np.random.default_rng(82).uniform(-1, 1, (2, 3))
        for n in (10, 1000):
            res = derive_eghr_from_oja(w, cov_rand3, sample(cov_rand3, n, seed=83))
            gap = np.linalg.norm(res.frame_route - res.direct_route)
            assert gap <= 1e-12 * np.linalg.norm(res.direct_route)

    def test_monte_carlo_approaches_target(self, cov_rand3):
        w = np.random.default_rng(84).uniform(-1, 1, (2, 3))
        res = derive_eghr_from_oja(w, cov_rand3, sample(cov_rand3, 10**5, seed=85))
        rel = np.linalg.norm(res.frame_route - res.target) / np.linalg.norm(res.target)
        assert rel <= 0.15
        assert res.records[0].check_name == "derivation-chain-agreement"
        assert res.records[1].check_name == "derivation-mc-target"

    def test_target_is_postmultiplied_subspace_update(self, cov_rand3):
        w = np.random.default_rng(86).uniform(-1, 1, (2, 3))
        res = derive_eghr_from_oja(w, cov_rand3, sample(cov_rand3, 100, seed=87))
        np.testing.assert_array_equal(
            res.target, oja_update_closed(w, cov_rand3) @ cov_rand3.sigma
        )
        assert np.linalg.norm(
            res.target - eghr_update_closed(w, cov_rand3)
        ) <= 1e-12 * np.linalg.norm(res.target)
