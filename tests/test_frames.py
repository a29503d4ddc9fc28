"""Frame elements, the frame operator, bounds, inverses, coefficients,
expansions, and the derivation chain."""

import os
import tracemalloc

import numpy as np
import pytest

from frame_hebb import frames, gaussian
from frame_hebb.checks import CHAIN_AGREEMENT_RTOL
from frame_hebb.errors import DimensionError, SampleSizeError
from frame_hebb.frames import (
    ExpansionMean,
    OperatorMean,
    cancellation_coefficient,
    frame_bounds,
    frame_coefficient,
    frame_element,
    frame_expansion_reconstruct,
    frame_operator_analytic,
    frame_operator_empirical,
    operator_half,
    restricted_inverse_apply,
)
from frame_hebb.gaussian import CHUNK_ROWS, SampleBatch, isserlis_fourth_moment, sample
from frame_hebb.linalg import (
    CovarianceModel,
    build_covariance,
    commutation_matrix,
    dot,
    frobenius,
    kron,
    random_covariances,
    random_spd,
    skew_part,
    sym_part,
    vecs,
)
from frame_hebb.rules import (
    closed_center,
    eghr_g,
    eghr_update_closed,
    expansion_target,
    oja_update_closed,
)
from sweeps import derive_on_own_pass, rows_of


@pytest.fixture(scope="module")
def cov21():
    return build_covariance(np.diag([2.0, 1.0]))


@pytest.fixture(scope="module")
def cov_rand3():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=60))


class TestFrameElement:
    def test_zero_sample(self):
        cov = build_covariance(np.eye(2))
        np.testing.assert_array_equal(frame_element(np.zeros(2), cov), -np.eye(2))

    def test_unit_variance_unit_sample(self):
        cov = build_covariance(np.eye(1))
        np.testing.assert_array_equal(frame_element(np.array([1.0]), cov), [[0.0]])

    def test_reconstructs_outer_product(self, cov_rand3):
        x = rows_of(sample(cov_rand3, 1, seed=61))[0]
        m = frame_element(x, cov_rand3)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_allclose(
            m + cov_rand3.sigma, np.outer(x, x), rtol=1e-14, atol=1e-14
        )

    def test_kron_form_agrees(self, cov_rand3):
        x = rows_of(sample(cov_rand3, 1, seed=62))[0]
        np.testing.assert_array_equal(
            vecs(frame_element(x, cov_rand3)), np.kron(x, x) - vecs(cov_rand3.sigma)
        )

    def test_mean_zero_componentwise(self, cov21):
        n = 10**6
        x = rows_of(sample(cov21, n, seed=63))
        rows = np.einsum("ki,kj->kji", x, x).reshape(n, 4) - vecs(cov21.sigma)
        band = 4.0 * rows.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(rows.mean(axis=0)) <= band)


@pytest.fixture(scope="module")
def dense_reference_cases():
    """(cov, S, fourth moment) by dense products for random-spd, diagonal and
    identity Sigma at several nx: S = K + K @ T with K = Sigma kron Sigma and
    T the commutation matrix, the moment vec(Sigma) vec(Sigma)^T + K + K @ T
    (Isserlis' three pairings in order), each then symmetrized as
    (A + A.T) / 2."""
    cases = []
    for nx in (1, 2, 3, 8, 32):
        for sigma in (
            random_spd(nx, (0.5, 2.0), seed=nx),
            np.diag(np.linspace(2.0, 1.0, nx)),
            np.eye(nx),
        ):
            cov = build_covariance(sigma)
            sk = kron(cov.sigma, cov.sigma)
            skt = sk @ commutation_matrix(nx)
            s = sk + skt
            vs = vecs(cov.sigma)
            m4 = np.outer(vs, vs) + sk + skt
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
            assert np.linalg.norm(s @ vecs(k)) <= bound


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
            assert np.linalg.norm(s @ vecs(k)) <= bound

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
        assert frame_bounds(build_covariance(np.eye(2))) == (2.0, 2.0, 6.0)

    def test_diagonal_two_dim(self, cov21):
        assert frame_bounds(cov21) == (2.0, 8.0, 14.0)

    def test_isotropic(self):
        c = 1.7
        lower, upper_tight, _ = frame_bounds(build_covariance(c * np.eye(3)))
        assert lower == pytest.approx(2 * c**2, rel=1e-12)
        assert upper_tight == pytest.approx(2 * c**2, rel=1e-12)

    def test_trace_bound_equals_operator_trace(self, cov_rand3):
        lower, upper_tight, upper_trace = frame_bounds(cov_rand3)
        s = frame_operator_analytic(cov_rand3)
        assert upper_trace == pytest.approx(np.trace(s), rel=1e-12)
        assert lower <= upper_tight <= upper_trace

    def test_quadratic_form_sandwiched(self, cov_rand3):
        s = frame_operator_analytic(cov_rand3)
        lower, upper_tight, _ = frame_bounds(cov_rand3)
        rng = np.random.default_rng(69)
        for _ in range(200):
            v = vecs(sym_part(rng.standard_normal((3, 3))))
            v /= np.linalg.norm(v)
            q = v @ s @ v
            assert lower - 1e-10 <= q <= upper_tight + 1e-10


SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestRestrictedInverse:
    def test_identity_covariance_halves(self):
        cov = build_covariance(np.eye(2))
        m = sym_part(np.arange(4.0).reshape(2, 2))
        np.testing.assert_allclose(restricted_inverse_apply(cov, m), m / 2.0)

    def test_diagonal_closed_form(self, cov21):
        np.testing.assert_allclose(
            restricted_inverse_apply(cov21, np.diag([8.0, 1.0])), np.diag([1.0, 0.5]),
            atol=1e-14
        )

    @pytest.mark.parametrize("nx", [1, 2, 3, 5])
    def test_is_the_pseudo_inverse_of_s_off_sym(self, nx):
        # S kills the skew matrices, so its Moore-Penrose pseudo-inverse is
        # S^-1 on Sym and zero on the skew part: the closed form on any M.
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=80 + nx))
        pinv = np.linalg.pinv(frame_operator_analytic(cov))
        m = np.random.default_rng(81).standard_normal((4, nx, nx))  # not symmetric
        want = vecs(m) @ pinv.T  # row t is pinv(S) vec(M_t)
        scale = np.linalg.norm(want, axis=1, keepdims=True)
        got = vecs(restricted_inverse_apply(cov, m))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        for t in range(len(m)):
            single = vecs(restricted_inverse_apply(cov, m[t]))
            assert np.all(np.abs(single - want[t]) <= 1e-12 * scale[t])

    def test_skew_matrix_maps_to_zero(self, cov21):
        np.testing.assert_array_equal(restricted_inverse_apply(cov21, SKEW), np.zeros((2, 2)))

    def test_inverts_operator_on_sym(self, cov_rand3):
        s = frame_operator_analytic(cov_rand3)
        rng = np.random.default_rng(70)
        for _ in range(50):
            m = sym_part(rng.standard_normal((3, 3)))
            r = restricted_inverse_apply(cov_rand3, m)
            assert np.linalg.norm(s @ vecs(r) - vecs(m)) <= 1e-10 * np.linalg.norm(m)


class TestFrameCoefficient:
    def test_zero_matrix(self, cov_rand3):
        x = rows_of(sample(cov_rand3, 1, seed=71))[0]
        assert frame_coefficient(np.zeros((3, 3)), frame_element(x, cov_rand3), cov_rand3) == 0.0

    def test_equals_gain_for_sandwich_vector(self):
        rng = np.random.default_rng(72)
        for trial in range(50):
            nx = int(rng.integers(2, 6))
            nu = int(rng.integers(1, nx + 1))
            cov = build_covariance(
                random_spd(nx, (0.5, 2.0), seed=int(rng.integers(2**63)))
            )
            w = rng.uniform(-1, 1, (nu, nx))
            x = rows_of(sample(cov, 1, seed=int(rng.integers(2**63))))[0]
            m = cov.sigma @ (np.eye(nx) - w.T @ w) @ cov.sigma
            g = eghr_g(x, w, cov)
            assert frame_coefficient(m, frame_element(x, cov), cov) == pytest.approx(
                g, abs=1e-12 * max(1.0, abs(g))
            )

    def test_identity_covariance_hand_value(self):
        cov = build_covariance(np.eye(2))
        assert frame_coefficient(
            np.eye(2), frame_element(np.array([2.0, 0.0]), cov), cov
        ) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("nx", [1, 2, 3, 8])
    def test_reads_only_the_symmetric_part(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=82 + nx))
        rng = np.random.default_rng(83)
        m = rng.standard_normal((5, nx, nx))  # not symmetric
        xi = frame_element(rng.standard_normal((5, nx)), cov)
        assert np.array_equal(frame_coefficient(m, xi, cov),
                              frame_coefficient(sym_part(m), xi, cov))
        for t in range(len(m)):
            assert np.array_equal(frame_coefficient(m[t], xi[t], cov),
                                  frame_coefficient(sym_part(m[t]), xi[t], cov))


class TestCancellationCoefficient:
    def test_matches_frame_coefficient(self, cov_rand3):
        rng = np.random.default_rng(73)
        for _ in range(50):
            w = rng.uniform(-1, 1, (2, 3))
            x = rows_of(sample(cov_rand3, 1, seed=int(rng.integers(2**63))))[0]
            residual = np.eye(3) - w.T @ w
            xi = frame_element(x, cov_rand3)
            c = frame_coefficient(cov_rand3.sigma @ residual @ cov_rand3.sigma, xi, cov_rand3)
            assert cancellation_coefficient(residual, xi) == pytest.approx(
                c, abs=1e-12 * max(1.0, abs(c))
            )

    def test_identity_weights_vanish(self):
        cov = build_covariance(random_spd(3, (0.5, 2.0), seed=74))
        w = np.eye(3)
        for x in rows_of(sample(cov, 5, seed=75)):
            assert cancellation_coefficient(np.eye(3) - w.T @ w, frame_element(x, cov)) == 0.0

    def test_zero_weights_hand_value(self):
        cov = build_covariance(np.eye(2))
        w = np.zeros((1, 2))
        assert cancellation_coefficient(
            np.eye(2) - w.T @ w, frame_element(np.array([2.0, 0.0]), cov)
        ) == pytest.approx(1.0, abs=1e-14)


class TestFrameExpansion:
    def test_zero_matrix_reconstructs_exactly(self, cov_rand3):
        batch = sample(cov_rand3, 100, seed=76)
        np.testing.assert_array_equal(
            frame_expansion_reconstruct(np.zeros((3, 3)), batch), np.zeros((3, 3))
        )

    @pytest.mark.parametrize("nx", [2, 3, 6])
    def test_skew_matrix_expands_to_zero(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=84 + nx))
        k = skew_part(np.random.default_rng(85).standard_normal((nx, nx)))
        np.testing.assert_array_equal(frame_expansion_reconstruct(k, sample(cov, 100, seed=76)),
                                      np.zeros((nx, nx)))

    def test_reconstruction_error_small_at_large_n(self, cov21):
        w = np.random.default_rng(77).uniform(-1, 1, (1, 2))
        m = cov21.sigma @ (np.eye(2) - w.T @ w) @ cov21.sigma
        recon = frame_expansion_reconstruct(m, sample(cov21, 10**6, seed=78))
        assert np.linalg.norm(recon - m) / np.linalg.norm(m) <= 0.05

    @pytest.mark.parametrize("nx", [1, 3, 16])
    def test_vectorized_coefficients_match_scalar_path(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=60))  # nx=3: cov_rand3
        rng = np.random.default_rng(79)
        m = sym_part(rng.standard_normal((nx, nx)))
        batch = sample(cov, 64, seed=80)
        expansion = ExpansionMean(m, cov)
        recon, = batch.feed(expansion)
        coeff_mean = expansion.coeff_mean()
        xis = np.stack([frame_element(x, cov) for x in rows_of(batch)])
        coeffs = np.array([frame_coefficient(m, xi, cov) for xi in xis])
        expected = np.tensordot(coeffs, xis, 1) / batch.n
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
        m = cov.sigma @ (np.eye(nx) - w.T @ w) @ cov.sigma
        for run in (lambda: frame_expansion_reconstruct(m, batch),
                    lambda: derive_on_own_pass(w, cov, batch)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * rows_of(batch).nbytes


class TestOperatorChunks:
    """The empirical operator sums fixed chunks of centered half rows; the
    sum must be bit-identical to a plain loop over the same chunks."""

    def test_matches_reference_loop_across_chunks(self, cov_rand3, monkeypatch):
        monkeypatch.setattr(gaussian, "CHUNK_ROWS", 7)  # 30 rows: chunks 7,7,7,9
        batch = sample(cov_rand3, 30, seed=81)
        i, j = np.triu_indices(3)
        s = np.zeros((6, 6))
        for start, stop in ((0, 7), (7, 14), (14, 21), (21, 30)):
            x = rows_of(batch)[start:stop]
            rows = x[:, i] * x[:, j] - cov_rand3.sigma[i, j]
            s += rows.T @ rows
        s /= batch.n
        expand = OperatorMean(cov_rand3).expand
        np.testing.assert_array_equal(frame_operator_empirical(batch),
                                      ((s + s.T) / 2.0)[np.ix_(expand, expand)])


class TestOperatorHalfForm:
    """OperatorMean sums the Gram matrix of the h = nx(nx+1)/2 half rows;
    its block distance from S in half form is the dense one."""

    @pytest.mark.parametrize("nx", [1, 2, 3, 5, 7, 16, 32])
    def test_half_form_from_sigma_is_the_dense_operators_to_the_bit(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=90 + nx))
        i, j = np.triu_indices(nx)
        pos = j * nx + i  # the vec position of each pair i <= j
        dense = frame_operator_analytic(cov)[np.ix_(pos, pos)]
        half = operator_half(cov)
        assert half.shape == (len(pos), len(pos))
        assert np.array_equal(half, dense)

    @pytest.mark.parametrize("nx", [1, 2, 3, 7])
    def test_weighted_half_distance_is_the_dense_distance(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=70 + nx))
        s = frame_operator_analytic(cov)
        mean = OperatorMean(cov)
        x = rows_of(sample(cov, 50, seed=71))
        est = mean.estimate(mean.sums(x), 50)
        h = nx * (nx + 1) // 2
        assert est.shape == (h, h)
        dense = est[np.ix_(mean.expand, mean.expand)]
        want = float(np.linalg.norm(dense - s)) ** 2
        got = mean.distance_sq(est, operator_half(cov))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nx", [1, 2, 3, 7])
    def test_half_form_expands_to_the_dense_operator(self, nx):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=72 + nx))
        s = frame_operator_analytic(cov)
        mean = OperatorMean(cov)
        assert np.array_equal(operator_half(cov)[np.ix_(mean.expand, mean.expand)], s)
        batch = sample(cov, 40, seed=73)
        x = rows_of(batch)
        rows = np.einsum("ki,kj->kji", x, x).reshape(len(x), nx * nx) - vecs(cov.sigma)
        dense = rows.T @ rows / batch.n
        got = frame_operator_empirical(batch)
        assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)

    @pytest.mark.parametrize("nx", [4, 5, 16])
    def test_estimates_are_symmetric_to_the_bit(self, nx):
        # estimate() does not symmetrize: numpy forms rows^T rows through
        # BLAS's symmetric rank-k update, so every Gram, and so every sum and
        # average of them, equals its transpose exactly.
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=90 + nx))
        mean = OperatorMean(cov)
        for rows in np.split(rows_of(sample(cov, 2000, seed=91)), [1, 8, 1008]):
            est = mean.estimate(mean.sums(rows), len(rows))
            assert np.array_equal(est, est.T)
            mean.add(rows)
        result = mean.result()
        assert np.array_equal(result, result.T)

    def test_guards_count_h_columns(self, cov_rand3, monkeypatch):
        # The running sum holds h-wide rows and h x h sums, and its result
        # stays in half form; only dense() builds the nx**2 x nx**2 expansion.
        asked = []
        monkeypatch.setattr(frames, "require_memory", lambda nbytes, what: asked.append(nbytes))
        mean = OperatorMean(cov_rand3)
        h = 6
        assert asked == [8 * (4 * h**2 + 2 * (2 * CHUNK_ROWS - 1) * h)]
        mean.add(rows_of(sample(cov_rand3, 10, seed=74)))
        half = mean.result()
        assert half.shape == (h, h) and len(asked) == 1
        assert mean.dense(half).shape == (9, 9)
        assert asked[1:] == [8 * (9**2 + 2 * h**2)]


class TestIsserlisConsistency:
    def test_fourth_moment_minus_rank_one_is_operator(
        self, cov_rand3, dense_reference_cases
    ):
        m4 = isserlis_fourth_moment(cov_rand3)
        vs = vecs(cov_rand3.sigma)
        s = frame_operator_analytic(cov_rand3)
        assert np.linalg.norm(m4 - np.outer(vs, vs) - s) <= 1e-12 * np.linalg.norm(s)
        for cov, _, m4_ref in dense_reference_cases:
            m4 = isserlis_fourth_moment(cov)
            assert np.array_equal(m4, m4_ref), cov.dim
            assert np.array_equal(m4, m4.T), cov.dim


class TestDenseBuildGuard:
    """Each nx**2 x nx**2 builder raises DimensionError before allocating a
    build larger than physical memory, while the matrix paths run at the same
    nx. At nx=1000 one S would hold 7.3 TiB."""

    @pytest.fixture(scope="class")
    def cov_wide(self):
        # Sigma = I, assembled by hand: the gates' eigendecomposition would
        # cost more than everything the tests run on it.
        eye = np.eye(1000)
        return CovarianceModel(sigma=eye, chol=eye, sigma_inv=eye, eigvals=np.ones(1000),
                               eigvecs=eye)

    @pytest.mark.parametrize("build", [lambda cov: cov.frame_operator,
                                       isserlis_fourth_moment, OperatorMean, operator_half])
    def test_dense_build_refused(self, cov_wide, build):
        with pytest.raises(DimensionError, match="nx=1000 would hold .* physical memory"):
            build(cov_wide)

    @staticmethod
    def physical(monkeypatch, nbytes):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

    def test_fourth_moment_guard_counts_one_array_and_a_row_block(self, monkeypatch):
        # The build holds the moment and one nx**3 row block; a memory of that
        # size, short of the two moments the guard once counted, admits it.
        nx = 8
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=8))
        peak = 8 * (nx**4 + nx**3)
        self.physical(monkeypatch, peak)
        assert isserlis_fourth_moment(cov).shape == (nx * nx, nx * nx)
        self.physical(monkeypatch, peak - 1)
        with pytest.raises(DimensionError, match="fourth moment at nx=8"):
            isserlis_fourth_moment(cov)

    def test_operator_guard_counts_the_longest_blockless_chunk(self, cov_rand3, monkeypatch):
        # A batch drawn without a block ends in a chunk of up to
        # 2 CHUNK_ROWS - 1 rows, each with h = 6 half rows and their factor.
        peak = 8 * (4 * 6**2 + 2 * (2 * CHUNK_ROWS - 1) * 6)
        self.physical(monkeypatch, peak)
        OperatorMean(cov_rand3)
        self.physical(monkeypatch, peak - 1)
        with pytest.raises(DimensionError, match="half-form empirical S at nx=3"):
            OperatorMean(cov_rand3)

    def test_matrix_paths_run(self, cov_wide):
        x = np.random.default_rng(92).standard_normal((20, 1000))
        w = np.random.default_rng(93).uniform(-1, 1, (2, 1000))
        _, frame_route, direct_route = derive_on_own_pass(
            w, cov_wide, SampleBatch.from_rows(x, cov_wide))
        gap = np.linalg.norm(frame_route - direct_route)
        assert gap <= CHAIN_AGREEMENT_RTOL * np.linalg.norm(direct_route)
        assert "frame_operator" not in vars(cov_wide)


class TestDerivation:
    def test_zero_weights_everything_zero(self, cov21):
        batch = sample(cov21, 200, seed=81)
        for route in derive_on_own_pass(np.zeros((1, 2)), cov21, batch):
            np.testing.assert_array_equal(route, np.zeros((1, 2)))

    def test_routes_agree_on_any_batch(self, cov_rand3):
        w = np.random.default_rng(82).uniform(-1, 1, (2, 3))
        for n in (10, 1000):
            _, frame_route, direct_route = derive_on_own_pass(
                w, cov_rand3, sample(cov_rand3, n, seed=83))
            gap = np.linalg.norm(frame_route - direct_route)
            assert gap <= 1e-12 * np.linalg.norm(direct_route)

    def test_monte_carlo_approaches_target(self, cov_rand3):
        w = np.random.default_rng(84).uniform(-1, 1, (2, 3))
        target, frame_route, _ = derive_on_own_pass(w, cov_rand3,
                                                    sample(cov_rand3, 10**5, seed=85))
        rel = np.linalg.norm(frame_route - target) / np.linalg.norm(target)
        assert rel <= 0.15

    def test_target_is_postmultiplied_subspace_update(self, cov_rand3):
        w = np.random.default_rng(86).uniform(-1, 1, (2, 3))
        target = derive_on_own_pass(w, cov_rand3, sample(cov_rand3, 100, seed=87))[0]
        np.testing.assert_array_equal(
            target, oja_update_closed(w, cov_rand3) @ cov_rand3.sigma
        )
        assert np.linalg.norm(
            target - eghr_update_closed(w, cov_rand3)
        ) <= 1e-12 * np.linalg.norm(target)


# Each formula that takes a leading trial axis, with the inputs it takes from
# a stack: (W, x, M, Xi, R, covariances), item by item. M and Xi are the
# coefficient sweep's matrices, R = I - W^T W; R M is not symmetric.
STACKED_FORMULAS = {
    "oja_update_closed": lambda w, x, m, xi, r, cov: oja_update_closed(w, cov),
    "eghr_update_closed": lambda w, x, m, xi, r, cov: eghr_update_closed(w, cov),
    "expansion_target": lambda w, x, m, xi, r, cov: expansion_target(w, cov),
    "closed_center": lambda w, x, m, xi, r, cov: closed_center(w, cov),
    "eghr_g": lambda w, x, m, xi, r, cov: eghr_g(x, w, cov),
    "frame_element": lambda w, x, m, xi, r, cov: frame_element(x, cov),
    "restricted_inverse_apply": lambda w, x, m, xi, r, cov: restricted_inverse_apply(cov, xi),
    "frame_coefficient": lambda w, x, m, xi, r, cov: frame_coefficient(m, xi, cov),
    "cancellation_coefficient": lambda w, x, m, xi, r, cov: cancellation_coefficient(r, xi),
    "sym_part": lambda w, x, m, xi, r, cov: sym_part(r @ m),
    "skew_part": lambda w, x, m, xi, r, cov: skew_part(r @ m),
}


class TestStackedFormulas:
    """A stack of k inputs gives, item by item, the bits of k single calls."""

    K = 5

    def _stack(self, nx):
        rng = np.random.default_rng(nx)
        covs = random_covariances(rng, self.K, nx, (0.5, 2.0))
        w = rng.uniform(-1.0, 1.0, size=(self.K, max(1, nx // 2), nx))
        x = rng.standard_normal((self.K, nx))
        r = np.eye(nx) - np.swapaxes(w, -1, -2) @ w
        m = covs.sigma @ r @ covs.sigma
        return w, x, m, frame_element(x, covs), r, covs

    @pytest.mark.parametrize("nx", [1, 2, 4, 5, 8, 32])
    @pytest.mark.parametrize("name", STACKED_FORMULAS)
    def test_stack_equals_single_calls(self, name, nx):
        formula = STACKED_FORMULAS[name]
        *args, covs = self._stack(nx)
        stacked = formula(*args, covs)
        assert len(stacked) == self.K
        for i in range(self.K):
            single = formula(*(a[i] for a in args), covs[i])
            assert np.shape(single) == np.shape(stacked[i])
            assert np.array_equal(stacked[i], single), i

    @pytest.mark.parametrize("nx", [1, 2, 4, 5, 8, 32])
    def test_single_calls_equal_the_numpy_reductions(self, nx):
        # The per-item dot and norm are those a single matrix had before it
        # could be stacked: a @ b and np.linalg.norm.
        w, x, m, xi, r, covs = self._stack(nx)
        for i in range(self.K):
            assert np.array_equal(dot(x[i], x[i]), x[i] @ x[i])
            assert np.array_equal(frobenius(m[i]), np.linalg.norm(m[i]))
            assert np.array_equal(vecs(m[i]), m[i].flatten(order="F"))
            d = restricted_inverse_apply(covs[i], xi[i])
            assert np.array_equal(frame_coefficient(m[i], xi[i], covs[i]),
                                  sym_part(m[i]).flatten(order="F") @ d.flatten(order="F"))
            assert np.array_equal(cancellation_coefficient(r[i], xi[i]),
                                  (0.5 * r[i]).flatten(order="F") @ xi[i].flatten(order="F"))
            center = np.trace(covs[i].sigma) - np.sum((w[i] @ covs[i].sigma) * w[i])
            assert np.array_equal(closed_center(w[i], covs[i]), center)
            u = w[i] @ x[i]
            assert np.array_equal(eghr_g(x[i], w[i], covs[i]),
                                  0.5 * (float(x[i] @ x[i]) - float(u @ u) - center))

    def test_one_covariance_serves_a_stack(self):
        w, x, m, xi, r, covs = self._stack(4)
        cov = covs[2]
        stacked = eghr_update_closed(w, cov)
        for i in range(self.K):
            assert np.array_equal(stacked[i], eghr_update_closed(w[i], cov))
