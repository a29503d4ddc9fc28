"""The chunked sample stream: chunks concatenate to the whole-batch draw, and
every estimator summed over chunks equals its whole-batch formula (bit for
bit on one chunk) while its peak memory does not grow with n."""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frame_hebb import gaussian
from frame_hebb.checks import (
    RATE_LEVELS,
    RATE_SPLIT,
    BlockSums,
    MonteCarloBatches,
    derivation_checks,
    isserlis_checks,
    kernel_annihilation_check,
    mc_rate_check,
    restricted_inverse_check,
    stein_identity_check,
)
from frame_hebb.frames import (
    ExpansionMean,
    OperatorMean,
    frame_expansion_reconstruct,
    frame_operator_analytic,
    frame_operator_empirical,
    operator_half,
    restricted_inverse_apply,
)
from frame_hebb.gaussian import (
    CHUNK_ROWS,
    RunningSum,
    SampleBatch,
    merge_sums,
    sample,
)
from frame_hebb.linalg import build_covariance, random_spd
from frame_hebb.rules import (
    EghrMean,
    OjaMean,
    closed_center,
    eghr_update_closed,
    eghr_update_empirical,
    expansion_target,
    oja_update_closed,
    oja_update_empirical,
)
from sweeps import derive_on_own_pass

C = CHUNK_ROWS


@pytest.fixture(scope="module")
def cov3():
    return build_covariance(random_spd(3, (0.5, 2.0), seed=90))


@pytest.fixture(scope="module")
def w23():
    return np.random.default_rng(91).uniform(-1.0, 1.0, (2, 3))


# The whole-batch formulas of the chunked estimators, on x = batch.data.

def oja_formula(w, x):
    u = x @ w.T
    return u.T @ (x - u @ w) / x.shape[0]


def gain_hebbian_formula(w, x, center=None):
    """With ``center`` None, the mean of the uncentered g u x^T less mean(g)
    times the mean of u x^T: the gains centered on the batch mean."""
    n = x.shape[0]
    u = x @ w.T
    s = (x * x) @ np.ones(w.shape[1]) - (u * u) @ np.ones(w.shape[0])
    g = 0.5 * (s - (0.0 if center is None else center))
    mean = (u * g[:, None]).T @ x / n
    if center is None:
        mean -= (float(g.sum()) / n) * (u.T @ x / n)
    return mean


def operator_formula(cov, x):
    i, j = np.triu_indices(cov.dim)
    rows = x[:, i] * x[:, j] - cov.sigma[i, j]
    s = rows.T @ rows / x.shape[0]
    expand = OperatorMean(cov).expand
    return ((s + s.T) / 2.0)[np.ix_(expand, expand)]


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


def estimates(w, cov, batch):
    """Every chunked estimator on one batch, and its whole-batch formula on
    the same rows, as (name, chunked, formula) triples."""
    x = batch.data
    m = cov.sigma @ (np.eye(cov.dim) - w.T @ w) @ cov.sigma
    _, frame_route, direct_route = derive_on_own_pass(w, cov, batch)
    formula_frame_route, formula_direct_route = derivation_formula(w, cov, x)
    return [
        ("oja", oja_update_empirical(w, batch), oja_formula(w, x)),
        ("eghr", eghr_update_empirical(w, batch), gain_hebbian_formula(w, x)),
        ("operator", frame_operator_empirical(batch), operator_formula(cov, x)),
        ("expansion", frame_expansion_reconstruct(m, batch), expansion_formula(m, cov, x)[0]),
        ("frame-route", frame_route, formula_frame_route),
        ("direct-route", direct_route, formula_direct_route),
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

    @pytest.mark.parametrize("nx, n, block", [
        (1, 10**6, 1000), (4, 10**6, 1000), (4, 4 * C, 131), (100, 2 * C + 5, 64),
        (100, 4096, 4), (4, 999, 1), (1, 3 * C, C + 1),
    ])
    def test_chunks_start_on_block_boundaries(self, nx, n, block):
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=nx))
        chunks = list(sample(cov, n, seed=5, block=block).chunks())
        whole = np.random.default_rng(5).standard_normal((n, nx)) @ cov.chol.T
        assert np.array_equal(np.concatenate(chunks), whole)
        step = max(C // block, 1) * block  # the largest multiple of block up to C
        assert [len(c) for c in chunks[:-1]] == [step] * (len(chunks) - 1)
        assert step <= len(chunks[-1]) < 2 * step or len(chunks) == 1

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


def _sequential_chunks(rng, cov, n, block):
    """The chunks of a batch drawn one by one on this thread, sizes and all
    worked out here: the reference for the read-ahead."""
    step = max(C // block, 1) * block
    count = max(n // step, 1)
    sizes = [step] * (count - 1) + [n - step * (count - 1)]
    return [rng.standard_normal((m, cov.dim)) @ cov.chol.T for m in sizes]


class TestReadAhead:
    """A batch of several chunks draws the next chunk on a worker thread while
    the reader holds the current one; a lone chunk starts no thread."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """Every call of the one-chunk draw: the thread it ran on and the rows
        it drew, in order."""
        made = []
        draw_into = gaussian._draw_into

        def recorded(rng, z, chol_t, out):
            made.append((threading.current_thread(), len(out)))
            return draw_into(rng, z, chol_t, out)

        monkeypatch.setattr(gaussian, "_draw_into", recorded)
        return made

    @pytest.mark.parametrize("block", [1, 1000])
    @pytest.mark.parametrize("n", [1, C, C + 1, 3 * C + 17])
    def test_chunks_are_the_sequential_draw(self, cov3, draws, n, block):
        want = _sequential_chunks(np.random.default_rng(8), cov3, n, block)
        baseline = threading.active_count()
        chunks = []
        for x in sample(cov3, n, seed=8, block=block).chunks():
            chunks.append(x)
            # the worker is at most one chunk ahead of the reader, and the
            # only thread the pass starts
            assert len(draws) <= len(chunks) + 1
            assert threading.active_count() == baseline + (len(want) > 1)
        assert len(chunks) == len(want)
        assert all(np.array_equal(got, ref) for got, ref in zip(chunks, want))
        assert [rows for _, rows in draws] == ([len(c) for c in want] if len(want) > 1 else [])
        workers = {thread for thread, _ in draws}
        assert len(workers) == (1 if len(want) > 1 else 0)
        assert threading.current_thread() not in workers
        assert threading.active_count() == baseline

    def test_closing_after_the_first_chunk_leaves_no_thread(self, cov3):
        baseline = threading.active_count()
        chunks = sample(cov3, 3 * C + 17, seed=8).chunks()
        next(chunks)
        chunks.close()
        assert threading.active_count() == baseline

    def test_a_failed_draw_reaches_the_reader(self, cov3, monkeypatch):
        draw_into = gaussian._draw_into
        calls = []

        def fail_second(*args):
            calls.append(threading.current_thread())
            if len(calls) == 2:
                raise FloatingPointError("second draw")
            return draw_into(*args)

        monkeypatch.setattr(gaussian, "_draw_into", fail_second)
        baseline = threading.active_count()
        chunks = sample(cov3, 3 * C + 17, seed=8).chunks()
        assert len(next(chunks)) == C
        with pytest.raises(FloatingPointError, match="second draw"):
            next(chunks)
        assert threading.main_thread() not in calls
        assert threading.active_count() == baseline

    def test_a_generator_seed_is_left_where_the_reads_leave_it(self, cov3):
        # Read in full, the batch leaves its Generator where drawing the
        # chunks one by one leaves it. Closed after chunk 0, it leaves it one
        # chunk further, past chunk 1, which was being drawn.
        n = 3 * C + 17
        full, ref = np.random.default_rng(9), np.random.default_rng(9)
        want = _sequential_chunks(ref, cov3, n, 1)
        chunks = list(sample(cov3, n, seed=full).chunks())
        assert all(np.array_equal(got, ref_chunk) for got, ref_chunk in zip(chunks, want))
        assert full.bit_generator.state == ref.bit_generator.state

        early, ref = np.random.default_rng(9), np.random.default_rng(9)
        _sequential_chunks(ref, cov3, 2 * C, 1)  # chunks 0 and 1, C rows each
        chunks = sample(cov3, n, seed=early).chunks()
        next(chunks)
        chunks.close()
        assert early.bit_generator.state == ref.bit_generator.state

    def test_concurrent_passes_under_fast_thread_switching(self, cov3, monkeypatch):
        # Four readers, each with its own worker, hand over 142 chunks of 7
        # rows per pass while the interpreter switches threads every
        # microsecond: every chunk is still the sequential draw.
        monkeypatch.setattr(gaussian, "CHUNK_ROWS", 7)
        wrong = []

        def read(seed):
            for s in range(seed, seed + 5):
                chunks = list(sample(cov3, 1000, seed=s).chunks())
                rng = np.random.default_rng(s)
                if [len(c) for c in chunks] != [7] * 141 + [13] or not all(
                        np.array_equal(c, rng.standard_normal(c.shape) @ cov3.chol.T)
                        for c in chunks):
                    wrong.append(s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(10 * k,)) for k in range(4)]
            for r in readers:
                r.start()
            for r in readers:
                r.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(r.is_alive() for r in readers)
        assert wrong == []


def _run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(gaussian.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)


class TestReadAheadProcess:
    """What the read-ahead leaves to a whole process: its exit, and its
    imports."""

    def test_a_pass_never_closed_does_not_hold_the_interpreter_at_exit(self):
        # The pass's worker is idle at exit, with chunk 1 drawn: the
        # interpreter must still end at once, and print nothing to stderr.
        res = _run_child("""
            from frame_hebb.gaussian import CHUNK_ROWS, sample
            from frame_hebb.linalg import build_covariance, random_spd
            cov = build_covariance(random_spd(3, (0.5, 2.0), seed=90))
            PASS = sample(cov, 3 * CHUNK_ROWS + 17, seed=8).chunks()
            print(len(next(PASS)))
        """)
        assert (res.returncode, res.stdout, res.stderr) == (0, f"{C}\n", "")

    def test_lone_chunk_commands_leave_the_executor_unimported(self, tmp_path):
        # concurrent.futures loads logging: the CLI's import and a train run,
        # whose batches are lone chunks, never load it; a pass of several
        # chunks does.
        res = _run_child(f"""
            import sys
            from frame_hebb.cli import main
            loaded = ["concurrent.futures" in sys.modules]
            code = main(["train", "--mode", "empirical", "--nx", "4", "--nu", "2",
                         "--steps", "300", "--threshold", "0.9", "--out", {str(tmp_path)!r}])
            loaded.append("concurrent.futures" in sys.modules)
            from frame_hebb.gaussian import CHUNK_ROWS, sample
            from frame_hebb.linalg import build_covariance, random_spd
            cov = build_covariance(random_spd(3, (0.5, 2.0), seed=90))
            list(sample(cov, 2 * CHUNK_ROWS, seed=8).chunks())
            loaded.append("concurrent.futures" in sys.modules)
            print(code, *loaded)
        """)
        assert res.stdout.splitlines()[-1:] == ["0 False False True"], res.stderr


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


class TestBlockSums:
    """A batch cut into blocks of m rows, with the chunks starting on block
    boundaries: every complete block of every level gets the estimate the
    public estimator gives on its rows alone, and the whole batch its
    whole-batch formula, tail rows included."""

    M = 4
    N = 1000 * M + 3  # 1000 blocks of M rows, then a tail of 3 rows

    @staticmethod
    def kinds(w, cov):
        m = expansion_target(w, cov)
        # running sum, reference in the form of its estimates, public
        # estimator, whole-batch formula
        return {
            "oja": (OjaMean(w), oja_update_closed(w, cov),
                    lambda b: oja_update_empirical(w, b), lambda x: oja_formula(w, x)),
            "eghr": (EghrMean(w), eghr_update_closed(w, cov),
                     lambda b: eghr_update_empirical(w, b),
                     lambda x: gain_hebbian_formula(w, x)),
            "frame-operator": (OperatorMean(cov),
                               operator_half(frame_operator_analytic(cov), cov.dim),
                               frame_operator_empirical, lambda x: operator_formula(cov, x)),
            "frame-expansion": (ExpansionMean(m, cov), m,
                                lambda b: frame_expansion_reconstruct(m, b),
                                lambda x: expansion_formula(m, cov, x)[0]),
        }

    @pytest.fixture
    def fed(self, cov3, w23, monkeypatch):
        """Each kind's BlockSums after a pass over a batch of many chunks,
        with every block estimate it made, by block size in row order."""
        monkeypatch.setattr(gaussian, "CHUNK_ROWS", 50)  # chunks of 48 rows
        batch = sample(cov3, self.N, seed=96, block=self.M)
        assert len(list(batch.chunks())) > 80
        out = {}
        for kind, (inner, ref, public, formula) in self.kinds(w23, cov3).items():
            blocks = BlockSums(inner, self.M, ref)
            made = {}
            estimate = inner.estimate

            def recording(sums, n, made=made, estimate=estimate):
                made.setdefault(n, []).append(estimate(sums, n))
                return made[n][-1]

            inner.estimate = recording
            batch.feed(blocks)
            inner.estimate = estimate
            out[kind] = (blocks, made, public, formula, ref)
        return batch, out

    @staticmethod
    def dense(blocks, a):
        """An estimate or reference of ``blocks`` in the public estimator's
        form: the operator's half form expanded to nx**2 x nx**2."""
        if not isinstance(blocks.inner, OperatorMean):
            return a
        return a[np.ix_(blocks.inner.expand, blocks.inner.expand)]

    def test_each_block_estimate_is_the_public_estimate_on_its_rows(self, cov3, fed):
        batch, out = fed
        x = batch.data
        sizes = [self.M * RATE_SPLIT**k for k in range(RATE_LEVELS)]
        for kind, (blocks, made, public, _, ref) in out.items():
            assert sorted(made) == sizes + [self.N], kind  # the blocks, then the batch
            ref = self.dense(blocks, ref)
            for size in sizes:
                assert len(made[size]) == 1000 * self.M // size, (kind, size)
                sq = 0.0
                for j, got in enumerate(self.dense(blocks, est) for est in made[size]):
                    want = public(SampleBatch.from_rows(x[j * size:(j + 1) * size], cov3))
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (kind, j)
                    sq += float(np.linalg.norm(got - ref)) ** 2
                level = sizes.index(size)
                assert blocks.count[level] == len(made[size])
                assert blocks.sq[level] == pytest.approx(sq, rel=1e-12)

    def test_whole_batch_is_the_whole_batch_formula(self, fed):
        # The EghrMean sums hold uncentered gains; merged over blocks and
        # chunks, their estimate still centers the gains on the batch mean.
        batch, out = fed
        x = batch.data
        for kind, (blocks, _, _, formula, _) in out.items():
            got, want = self.dense(blocks, blocks.result()), formula(x)
            assert blocks.inner.n == self.N
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), kind

    def test_result_does_not_depend_on_the_reference(self, cov3, w23):
        batch = sample(cov3, self.N, seed=97, block=self.M)
        with_ref, without = (
            BlockSums(EghrMean(w23), self.M, ref) for ref in (eghr_update_closed(w23, cov3), None))
        batch.feed(with_ref, without)
        assert np.array_equal(with_ref.result(), without.result())
        assert without.count == [0] * RATE_LEVELS


def running_sums(cov, w):
    """One instance of every RunningSum subclass, EghrMean with and without a
    center, by name."""
    return {
        "oja": OjaMean(w),
        "eghr": EghrMean(w),
        "eghr-closed": EghrMean(w, closed_center(w, cov)),
        "operator": OperatorMean(cov),
        "expansion": ExpansionMean(expansion_target(w, cov), cov),
    }


RUNNING_SUMS = ("oja", "eghr", "eghr-closed", "operator", "expansion")


class TestRunningSumContract:
    """Every running sum's ``sums`` is a pure function of its rows whose
    results add over consecutive row ranges, and its ``estimate`` reads only
    the sums and the row count."""

    @pytest.fixture
    def rows(self, cov3):
        return sample(cov3, 90, seed=99).data

    def test_every_subclass_is_covered(self, cov3, w23):
        covered = {type(s) for s in running_sums(cov3, w23).values()}
        assert covered == set(RunningSum.__subclasses__())

    @pytest.mark.parametrize("name", RUNNING_SUMS)
    def test_sums_of_two_ranges_merge_to_the_sums_of_both(self, cov3, w23, rows, name):
        s = running_sums(cov3, w23)[name]
        merged = merge_sums(s.sums(rows[:37]), s.sums(rows[37:]))
        for got, want in zip(merged, s.sums(rows), strict=True):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name

    @pytest.mark.parametrize("name", RUNNING_SUMS)
    def test_sums_do_not_depend_on_rows_summed_before(self, cov3, w23, rows, name):
        fresh, used = running_sums(cov3, w23)[name], running_sums(cov3, w23)[name]
        used.add(rows[:40])
        for got, want in zip(used.sums(rows[40:]), fresh.sums(rows[40:]), strict=True):
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", RUNNING_SUMS)
    def test_estimate_does_not_depend_on_rows_summed_since(self, cov3, w23, rows, name):
        other = running_sums(cov3, w23)[name]
        sums = merge_sums(other.sums(rows[:40]), other.sums(rows[40:]))
        s = running_sums(cov3, w23)[name]
        before = s.estimate(sums, rows.shape[0])
        s.add(rows[:40])
        s.add(rows[40:])
        after = s.estimate(sums, rows.shape[0])
        np.testing.assert_array_equal(after, before, err_msg=name)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _all_mc_checks(cov, n):
    batches = MonteCarloBatches(cov, 2, 1, n, kinds=("oja", "eghr", "frame-operator",
                                                     "frame-expansion"),
                                isserlis=True, derivation=True)
    return (*mc_rate_check(batches), *isserlis_checks(cov, 1, batches),
            *derivation_checks(batches))


class TestMemory:
    """Peak memory is set by one chunk, not by n: going from n = 4C to
    n = 16C rows may not raise the traced peak by half."""

    @pytest.mark.parametrize("estimator", [
        "oja_update_empirical", "eghr_update_empirical", "frame_operator_empirical",
        "derive_eghr_from_oja", "monte_carlo_batches",
    ])
    def test_peak_does_not_grow_with_n(self, cov3, w23, estimator):
        run = {
            "oja_update_empirical": lambda n: oja_update_empirical(w23, sample(cov3, n, 1)),
            "eghr_update_empirical": lambda n: eghr_update_empirical(w23, sample(cov3, n, 1)),
            "frame_operator_empirical": lambda n: frame_operator_empirical(sample(cov3, n, 1)),
            "derive_eghr_from_oja": lambda n: derive_on_own_pass(w23, cov3, sample(cov3, n, 1)),
            "monte_carlo_batches": lambda n: _all_mc_checks(cov3, n),
        }[estimator]
        small, large = traced_peak(lambda: run(4 * C)), traced_peak(lambda: run(16 * C))
        assert large <= 1.5 * small, (small, large)

    def test_first_chunk_of_a_huge_batch_reads_in_a_few_mib(self, cov3):
        # The chunks are counted, not listed: reading the first of 1e12 rows
        # holds one chunk (C x 3 doubles, 0.8 MB) and its draw.
        batch = sample(cov3, 10**12, seed=1)
        peak = traced_peak(lambda: next(batch.chunks()))
        assert peak < 4 * 2**20, peak

    def test_stein_identity_peak_stays_below_256_kb(self):
        # The cubature rule has 2 dim**2 + 1 points: at dim 4, 33 rows of 4
        # doubles, about 1 kB per array; the check peaks near 20 kB, mostly
        # interpreter objects. A sampled draw or a dense nx**2 x nx**2 build
        # of the old rule's size (1e4 rows of 4 doubles, 320 kB) fails.
        stein_identity_check(42)  # warm up imports and caches
        assert traced_peak(lambda: stein_identity_check(42)) < 256 * 2**10

    @pytest.mark.parametrize("check", [kernel_annihilation_check, restricted_inverse_check])
    def test_batched_s_products_hold_a_few_trial_stacks(self, check):
        # With S built, each check holds its trials' vec columns, S times
        # them and (restricted-inverse) the columns S^-1 M: a few
        # trials x nx**2 arrays, never an nx**4 one, let alone trials of them.
        nx, trials = 32, 100
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=98))
        cov.frame_operator
        check(cov, 1, trials)  # warm up imports and caches
        peak = traced_peak(lambda: check(cov, 1, trials))
        assert peak <= 4 * trials * 8 * nx**2, peak / (trials * 8 * nx**2)

    def test_isserlis_analytic_peak_is_the_fourth_moment_build(self):
        # With S built, the check holds at its peak the two nx**2 x nx**2
        # arrays that isserlis_fourth_moment's memory guard admits: the gap
        # is formed in the fourth moment's array, not in new temporaries.
        nx = 24
        cov = build_covariance(random_spd(nx, (0.5, 2.0), seed=98))
        cov.frame_operator
        batches = MonteCarloBatches(cov, 1, 1, 100)
        peak = traced_peak(lambda: isserlis_checks(cov, 1, batches))
        assert peak <= 1.05 * 2 * 8 * nx**4, peak / (8 * nx**4)
