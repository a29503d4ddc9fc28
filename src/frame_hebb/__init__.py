"""Principal-subspace learning rules and the frame machinery linking them.

The package implements the subspace learning rule and the error-gated
Hebbian rule for PCA, in closed form and from samples, together with the
frame-theoretic toolkit (frame vectors on vectorized symmetric matrices,
the analytic and empirical frame operator, frame bounds, the restricted
inverse, frame coefficients and expansions) that reconstructs the second
rule from the first. Every identity ships as a seeded, tolerance-tagged
check, runnable from the ``frame-hebb`` CLI or the ``checks`` module.
"""

from .config import RunConfig, load_config
from .errors import (
    DegenerateCovarianceError,
    DimensionError,
    DivergenceError,
    RankDeficientError,
    SkewDomainError,
)
from .frames import (
    DerivationResult,
    FrameBounds,
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
from .gaussian import (
    SampleBatch,
    TestFunction,
    builtin_test_functions,
    derive_seed,
    isserlis_fourth_moment,
    sample,
    stein_check,
)
from .linalg import (
    CovarianceModel,
    build_covariance,
    commutation_matrix,
    kron,
    random_spd,
    skew_part,
    sym_part,
    unvec,
    vec,
)
from .records import ExperimentRecord, make_record
from .rules import (
    Trajectory,
    TrainerConfig,
    eghr_g,
    eghr_g_values,
    eghr_update_closed,
    eghr_update_empirical,
    eghr_update_from_g,
    oja_update_closed,
    oja_update_empirical,
    orthonormality_residual,
    subspace_error,
    train,
)

__all__ = [
    "CovarianceModel",
    "DegenerateCovarianceError",
    "DerivationResult",
    "DimensionError",
    "DivergenceError",
    "ExperimentRecord",
    "FrameBounds",
    "RankDeficientError",
    "RunConfig",
    "SampleBatch",
    "SkewDomainError",
    "TestFunction",
    "Trajectory",
    "TrainerConfig",
    "build_covariance",
    "builtin_test_functions",
    "cancellation_coefficient",
    "commutation_matrix",
    "derive_eghr_from_oja",
    "derive_seed",
    "eghr_g",
    "eghr_g_values",
    "eghr_update_closed",
    "eghr_update_empirical",
    "eghr_update_from_g",
    "frame_bounds",
    "frame_coefficient",
    "frame_expansion_reconstruct",
    "frame_operator_analytic",
    "frame_operator_empirical",
    "frame_vector",
    "isserlis_fourth_moment",
    "kron",
    "load_config",
    "make_record",
    "oja_update_closed",
    "oja_update_empirical",
    "orthonormality_residual",
    "random_spd",
    "sample",
    "skew_part",
    "stein_check",
    "subspace_error",
    "sym_part",
    "train",
    "unvec",
    "vec",
]
