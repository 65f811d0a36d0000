"""Residual norms from projected data alone.

The Frobenius norm of the residual matrix is evaluated from the
eigendecomposition of the projected block tridiagonal matrix T, without
solving the reduced equation.  The basis keeps T in LAPACK band storage,
which goes as it is to one LAPACK eigensolve; it forms every eigenvector,
although the formula reads only the first and last block rows.  Writing
T = Q diag(lam) Q^T and splitting the reduced solution along
eigencomponents, each row of the relevant product picks up a diagonal
scaling 1/(lam_i + lam_j), applied as an elementwise division, never a
matrix inverse.

For the Lyapunov equation the norm is

    ||R||^2 = 2 * sum_i || e_i^T S D_i^{-1} W ||^2,
    S = (Q^T E1 g)(g^T E1^T Q),  W = (Q^T Em) tau^T,  D_i = lam_i I + Lam,

which needs only the first and last block row of Q.  The Sylvester variants
replace S by the mixed product of the two eigenbases and sum one term per
side (no factor 2); the one-sided variant runs over the eigenvalues of the
small coefficient matrix instead.  The rows e_i^T S D_i^{-1} form -Ytilde,
the reduced solution in eigen coordinates; each check returns it with Q, and
the solvers factor the converged check's copy with no further eigensolve.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import guarded_denominators, partial_eig_blocktridiag


@dataclass
class ResidualValue:
    """Absolute residual norm, its normalized value and the check's eigen-data.

    For Lyapunov problems the normalization is beta^2 = ||C||_F^2; Sylvester
    problems use ||C1||_F * ||C2||_F.  ``spectra`` holds the (eigenvalues,
    eigenvectors) pair of T (and of J, two-sided); ``neg_ytilde`` is -Ytilde,
    the reduced solution in eigen coordinates (transposed one-sided: rows
    over B's).
    """

    res: float
    relative: float
    spectra: tuple
    neg_ytilde: np.ndarray


def _eigen_side(t, gamma, tau_next):
    """Eigenvalues lam and eigenvectors Q of a projected matrix T, then
    Q1^T gamma and Qm^T tau^T, Q1 and Qm the first and last block rows of Q."""
    lam, q = partial_eig_blocktridiag(t)
    tau = np.atleast_2d(np.asarray(tau_next, dtype=float))
    return lam, q, q[: t.block_size].T @ gamma, q[-t.block_size:].T @ tau.T


def ctri_lyapunov(t, gamma, tau_next, rhs_norm=None):
    """Lyapunov residual norm from the projected matrix, sqrt(2)||Y Em tau^T||_F,
    without forming Y.

    ``gamma`` is the coefficient of C in the first basis block; ``tau_next``
    the coupling block to the next basis block (its nonzero upper part is
    enough in extended mode).  ``rhs_norm`` overrides the normalization
    beta^2, which defaults to ||gamma||_F^2 = ||C||_F^2.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    lam, q, u, w = _eigen_side(t, gamma, tau_next)
    neg_ytilde = (u @ u.T) / guarded_denominators(lam, lam)
    res = float(np.sqrt(2.0) * np.linalg.norm(neg_ytilde @ w))
    beta2 = float(rhs_norm) if rhs_norm is not None else float(np.sum(gamma * gamma))
    return ResidualValue(res, res / beta2, ((lam, q),), neg_ytilde)


def ctri_sylvester(t, j, gamma1, gamma2, tau_next, iota_next, rhs_norm=None):
    """Two-sided Sylvester residual norm from the two projected matrices.

    Evaluates ||R||^2 = ||tau Em^T Y||^2 + ||Y Em iota^T||^2 through the
    eigenbases of T and J without forming Y.
    """
    gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=float))
    gamma2 = np.atleast_2d(np.asarray(gamma2, dtype=float))
    lam, q, u, f = _eigen_side(t, gamma1, tau_next)
    ups, p, v, g = _eigen_side(j, gamma2, iota_next)
    sd = (u @ v.T) / guarded_denominators(lam, ups)
    res = float(np.sqrt(np.linalg.norm(sd.T @ f) ** 2 + np.linalg.norm(sd @ g) ** 2))
    if rhs_norm is None:
        rhs_norm = np.linalg.norm(gamma1) * np.linalg.norm(gamma2)
    return ResidualValue(res, res / float(rhs_norm), ((lam, q), (ups, p)), sd)


def residual_one_sided(t, tau_next, s_input, upsilon, rhs_norm=None):
    """One-sided Sylvester residual norm ||tau Em^T Y||_F for small B.

    ``s_input`` is P^T C2 g1^T (eigenvectors of B against the right-hand
    side) and ``upsilon`` the eigenvalues of B, both computed once per solve.
    """
    s_input = np.asarray(s_input, dtype=float)
    upsilon = np.asarray(upsilon, dtype=float)
    lam, q, u, w = _eigen_side(t, s_input.T, tau_next)
    neg_ytilde_t = u.T / guarded_denominators(upsilon, lam)
    res = float(np.linalg.norm(neg_ytilde_t @ w))
    relative = res / float(rhs_norm) if rhs_norm is not None else res
    return ResidualValue(res, relative, ((lam, q),), neg_ytilde_t)
