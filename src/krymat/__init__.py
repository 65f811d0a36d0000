"""Low-rank solvers for large symmetric Lyapunov and Sylvester equations.

Galerkin projection onto block standard or extended Krylov subspaces, with
residual norms evaluated from the projected block tridiagonal matrix alone
and an optional two-pass basis regeneration that holds three basis blocks
(in extended mode also the second half of every block, so the second pass
needs no solves with A).  Stored and regenerated blocks reach the solution
factor through the same workspace of n x 32 columns.
"""

from .errors import (
    AsymmetricMatrixError,
    ConvergenceError,
    DeflationUnsupportedError,
    DimensionMismatchError,
    FactorizationError,
    IndefiniteMatrixError,
    KrymatError,
    NonFiniteOperatorError,
    RecurrenceMismatchError,
)
from .kernels import (
    BlockTridiagonal,
    economy_qr,
    partial_eig_blocktridiag,
    sym_tridiag_eig,
    truncated_spd_factor,
    truncated_svd_factor,
)
from .operators import (
    LinearOperator,
    SparseFactorization,
    SparseOperator,
    TransformedOperator,
    cholesky_transform,
    validate_symmetric,
)
from .basis import KrylovBasis, extended_step, init_basis, lanczos_step
from .residual import ResidualValue, ctri_lyapunov, ctri_sylvester
from .reduced import naive_residual, solve_reduced_lyapunov
from .solvers import (
    LowRankSolution,
    SolveOptions,
    solve_lyapunov,
    solve_sylvester_one_sided,
    solve_sylvester_two_sided,
    true_lyapunov_residual,
    true_sylvester_residual,
    two_pass_recover,
)
from .problems import gen_fd2d, gen_fd3d_split, gen_operator, gen_rhs, laplacian1d

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrixError",
    "BlockTridiagonal",
    "ConvergenceError",
    "DeflationUnsupportedError",
    "DimensionMismatchError",
    "FactorizationError",
    "IndefiniteMatrixError",
    "KrylovBasis",
    "KrymatError",
    "LinearOperator",
    "LowRankSolution",
    "NonFiniteOperatorError",
    "RecurrenceMismatchError",
    "ResidualValue",
    "SolveOptions",
    "SparseFactorization",
    "SparseOperator",
    "TransformedOperator",
    "cholesky_transform",
    "ctri_lyapunov",
    "ctri_sylvester",
    "economy_qr",
    "extended_step",
    "gen_fd2d",
    "gen_fd3d_split",
    "gen_operator",
    "gen_rhs",
    "init_basis",
    "lanczos_step",
    "laplacian1d",
    "naive_residual",
    "partial_eig_blocktridiag",
    "solve_lyapunov",
    "solve_reduced_lyapunov",
    "solve_sylvester_one_sided",
    "solve_sylvester_two_sided",
    "sym_tridiag_eig",
    "true_lyapunov_residual",
    "true_sylvester_residual",
    "truncated_spd_factor",
    "truncated_svd_factor",
    "two_pass_recover",
    "validate_symmetric",
]
