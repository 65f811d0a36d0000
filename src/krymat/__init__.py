"""Low-rank solvers for large symmetric Lyapunov and Sylvester equations.

Galerkin projection onto block standard or extended Krylov subspaces, with
residual norms evaluated from the projected block tridiagonal matrix alone
and an optional two-pass basis regeneration that caps basis storage at three
blocks.
"""

from .errors import (
    AsymmetricMatrixError,
    ConvergenceError,
    DeflationUnsupportedError,
    DimensionMismatchError,
    FactorizationError,
    IndefiniteMatrixError,
    KrymatError,
    RecurrenceMismatchError,
)
from .kernels import (
    BlockTridiagonal,
    PartialSpectral,
    TruncatedFactor,
    band_tridiagonalize,
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
from .basis import BasisWindow, ProjectionState, extended_step, init_basis, lanczos_step
from .residual import ResidualValue, ctri_lyapunov, ctri_sylvester, residual_one_sided
from .reduced import (
    ReducedSolution,
    kronecker_solve,
    naive_one_sided_residual,
    naive_residual,
    naive_sylvester_residual,
    solve_reduced_lyapunov,
    solve_reduced_one_sided,
    solve_reduced_sylvester,
)
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
    "BasisWindow",
    "BlockTridiagonal",
    "ConvergenceError",
    "DeflationUnsupportedError",
    "DimensionMismatchError",
    "FactorizationError",
    "IndefiniteMatrixError",
    "KrymatError",
    "LinearOperator",
    "LowRankSolution",
    "PartialSpectral",
    "ProjectionState",
    "RecurrenceMismatchError",
    "ReducedSolution",
    "ResidualValue",
    "SolveOptions",
    "SparseFactorization",
    "SparseOperator",
    "TransformedOperator",
    "TruncatedFactor",
    "band_tridiagonalize",
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
    "kronecker_solve",
    "lanczos_step",
    "laplacian1d",
    "naive_one_sided_residual",
    "naive_residual",
    "naive_sylvester_residual",
    "partial_eig_blocktridiag",
    "residual_one_sided",
    "solve_lyapunov",
    "solve_reduced_lyapunov",
    "solve_reduced_one_sided",
    "solve_reduced_sylvester",
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
