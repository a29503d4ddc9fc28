"""The (nx, nu) pairs of a dimension sweep, shared by the sweep tests."""

import numpy as np


def dim_sweep(max_nx: int = 8, min_nx: int = 2, seed: int = 0) -> list[tuple[int, int]]:
    """(nx, nu) pairs cycling nx through [min_nx, max_nx] with random nu <= nx."""
    rng = np.random.default_rng(seed)
    return [(nx, int(rng.integers(1, nx + 1))) for nx in range(min_nx, max_nx + 1)]
