"""Exception types shared across the package."""


class KrymatError(Exception):
    """Base class for all krymat errors."""


class DimensionMismatchError(KrymatError):
    """Operands have incompatible shapes."""


class AsymmetricMatrixError(KrymatError):
    """A matrix required to be symmetric is not."""


class DeflationUnsupportedError(KrymatError):
    """A Krylov block became (numerically) rank deficient.

    Deflation of rank-deficient blocks is not implemented; full-rank bases
    are assumed throughout.
    """


class IndefiniteMatrixError(KrymatError):
    """A matrix required to be definite produced a (near-)singular
    eigenvalue-sum denominator or a significantly indefinite spectrum."""


class FactorizationError(KrymatError):
    """A matrix factorization (QR, Cholesky, LU, eigendecomposition) failed."""


class NonFiniteOperatorError(KrymatError):
    """An operator's apply or solve returned a block whose norm is not
    finite (a NaN or inf entry, or an overflow)."""


class RecurrenceMismatchError(KrymatError):
    """The second Lanczos pass regenerated coefficients that do not match the
    stored ones, which signals a nondeterministic operator."""


class ConvergenceError(KrymatError):
    """Iteration cap reached before the convergence tolerance was met."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []
