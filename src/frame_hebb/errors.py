"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or invalid shapes."""


class DegenerateCovarianceError(ValueError):
    """Covariance failed the positive-definiteness gate, the eigenvalue
    magnitude window or a factorization residual check; downstream analysis
    assumes a non-degenerate covariance whose moments stay finite."""


class SkewDomainError(ValueError):
    """Matrix lies outside Sym, the symmetric matrices, beyond tolerance; the
    restricted inverse is undefined on the skew component."""


class SampleSizeError(ValueError):
    """Too few samples for an estimator (a second moment needs two rows)."""


class RankDeficientError(ValueError):
    """Weight matrix rows are linearly dependent, so its row space has lower
    dimension than requested and subspace metrics are undefined."""


class DivergenceError(RuntimeError):
    """Training iterate blew up. Carries the step at which the guard fired."""

    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(
            f"weight norm {norm:.3e} exceeded divergence guard at step {step}"
        )
