"""Helpers shared by the tests: the (nx, nu) pairs of a dimension sweep, a
batch's rows as one array, the derivation chain on a pass of its own, and the
fourth moment built whole, the reference of its row-block build."""

import numpy as np

from frame_hebb.frames import ExpansionMean, derive_eghr_from_oja
from frame_hebb.rules import EghrMean, closed_center, expansion_target


def dim_sweep(max_nx: int = 8, min_nx: int = 2, seed: int = 0) -> list[tuple[int, int]]:
    """(nx, nu) pairs cycling nx through [min_nx, max_nx] with random nu <= nx."""
    rng = np.random.default_rng(seed)
    return [(nx, int(rng.integers(1, nx + 1))) for nx in range(min_nx, max_nx + 1)]


def rows_of(batch) -> np.ndarray:
    """A batch's rows as one n x dim array: the rows of a ``from_rows``
    batch, else its chunks concatenated. The estimators read the chunks."""
    if batch.rows is not None:
        return batch.rows
    return np.concatenate(list(batch.chunks()))


def derive_on_own_pass(w, cov, batch):
    """``derive_eghr_from_oja`` on a pass of its own over ``batch``, which
    feeds the ExpansionMean of Sigma (I - W^T W) Sigma and the EghrMean of W
    with the closed-form center: (target, frame route, direct route)."""
    expansion = ExpansionMean(expansion_target(w, cov), cov)
    direct = EghrMean(w, closed_center(w, cov))
    batch.feed(expansion, direct)
    return derive_eghr_from_oja(w, cov, expansion, direct)


def fourth_moment_three_einsums(cov) -> np.ndarray:
    """Isserlis' fourth moment as one whole-array einsum per pairing, added in
    the order Sigma_ab Sigma_cd + Sigma_ac Sigma_bd + Sigma_ad Sigma_bc: the
    build ``gaussian.isserlis_fourth_moment`` must equal to the bit, while it
    holds one row block of a pairing at a time."""
    nx, s = cov.dim, cov.sigma
    m = np.einsum("ab,cd->abcd", s, s).reshape(nx * nx, nx * nx)
    m += np.einsum("ac,bd->abcd", s, s).reshape(nx * nx, nx * nx)
    m += np.einsum("ad,bc->abcd", s, s).reshape(nx * nx, nx * nx)
    return m
