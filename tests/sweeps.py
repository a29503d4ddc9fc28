"""Helpers shared by the tests: the (nx, nu) pairs of a dimension sweep, and
the derivation chain on a pass of its own."""

import numpy as np

from frame_hebb.frames import ExpansionMean, derive_eghr_from_oja
from frame_hebb.rules import EghrMean, closed_center, expansion_target


def dim_sweep(max_nx: int = 8, min_nx: int = 2, seed: int = 0) -> list[tuple[int, int]]:
    """(nx, nu) pairs cycling nx through [min_nx, max_nx] with random nu <= nx."""
    rng = np.random.default_rng(seed)
    return [(nx, int(rng.integers(1, nx + 1))) for nx in range(min_nx, max_nx + 1)]


def derive_on_own_pass(w, cov, batch):
    """``derive_eghr_from_oja`` on a pass of its own over ``batch``, which
    feeds the ExpansionMean of Sigma (I - W^T W) Sigma and the EghrMean of W
    with the closed-form center: (target, frame route, direct route)."""
    expansion = ExpansionMean(expansion_target(w, cov), cov)
    direct = EghrMean(w, closed_center(w, cov))
    batch.feed(expansion, direct)
    return derive_eghr_from_oja(w, cov, expansion, direct)
