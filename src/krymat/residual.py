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
the reduced solution in eigen coordinates, which ``reduced_solution`` forms.

Each check uses LAPACK's eigenvectors as returned.  Flipping the sign of
eigenvector i flips row i of -Ytilde and of W, so the norm comes out the
same to the last bit.  The check keeps its -Ytilde and eigenvectors, and at
convergence the solvers build the factor from them as they are: the signs
cancel in X ~ Z Z^T, so no second eigensolve and no second -Ytilde is made.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import guarded_denominators, partial_eig_blocktridiag


def reduced_solution(spectra, rhs, upsilon=None):
    """-Ytilde, the reduced solution in eigen coordinates.

    ``spectra`` holds the (eigenvalues, eigenvectors) pair of T (and of J,
    two-sided) and ``rhs`` the right-hand side's coefficients in the first
    basis block of each: (gamma,) for Lyapunov, (gamma1, gamma2) two-sided.
    One-sided, ``rhs`` is (S^T,), ``upsilon`` holds the eigenvalues of B and
    the result is transposed (rows over B's).
    """
    u = [q[: g.shape[0]].T @ g for (_, q), g in zip(spectra, rhs)]
    lam = spectra[0][0]
    if upsilon is not None:
        return u[0].T / guarded_denominators(upsilon, lam)
    return (u[0] @ u[-1].T) / guarded_denominators(lam, spectra[-1][0])


@dataclass
class ResidualValue:
    """Absolute residual norm, its normalized value and the check's eigen-data.

    For Lyapunov problems the normalization is beta^2 = ||C||_F^2; Sylvester
    problems use ||C1||_F * ||C2||_F.  ``spectra`` holds the (eigenvalues,
    eigenvectors) pair of T (and of J, two-sided) as LAPACK returned them,
    and ``y`` the -Ytilde that the check formed from them with
    ``reduced_solution`` (transposed one-sided, rows over B's eigenvalues).
    """

    res: float
    relative: float
    spectra: tuple
    y: np.ndarray


def _last_rows(t, q, tau_next):
    """Qm^T tau^T, Qm the last block row of the eigenvectors Q of T."""
    tau = np.atleast_2d(np.asarray(tau_next, dtype=float))
    return q[-t.block_size:].T @ tau.T


def ctri_lyapunov(t, gamma, tau_next, rhs_norm=None):
    """Lyapunov residual norm from the projected matrix, sqrt(2)||Y Em tau^T||_F,
    without forming Y.

    ``gamma`` is the coefficient of C in the first basis block; ``tau_next``
    the coupling block to the next basis block (its nonzero upper part is
    enough in extended mode).  ``rhs_norm`` overrides the normalization
    beta^2, which defaults to ||gamma||_F^2 = ||C||_F^2.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    spectra = (partial_eig_blocktridiag(t),)
    w = _last_rows(t, spectra[0][1], tau_next)
    y = reduced_solution(spectra, (gamma,))
    res = float(np.sqrt(2.0) * np.linalg.norm(y @ w))
    beta2 = float(rhs_norm) if rhs_norm is not None else float(np.sum(gamma * gamma))
    return ResidualValue(res, res / beta2, spectra, y)


def ctri_sylvester(t, j, gamma1, gamma2, tau_next, iota_next, rhs_norm=None):
    """Two-sided Sylvester residual norm from the two projected matrices.

    Evaluates ||R||^2 = ||tau Em^T Y||^2 + ||Y Em iota^T||^2 through the
    eigenbases of T and J without forming Y.
    """
    gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=float))
    gamma2 = np.atleast_2d(np.asarray(gamma2, dtype=float))
    spectra = (partial_eig_blocktridiag(t), partial_eig_blocktridiag(j))
    f = _last_rows(t, spectra[0][1], tau_next)
    g = _last_rows(j, spectra[1][1], iota_next)
    y = reduced_solution(spectra, (gamma1, gamma2))
    res = float(np.sqrt(np.linalg.norm(y.T @ f) ** 2 + np.linalg.norm(y @ g) ** 2))
    if rhs_norm is None:
        rhs_norm = np.linalg.norm(gamma1) * np.linalg.norm(gamma2)
    return ResidualValue(res, res / float(rhs_norm), spectra, y)


def residual_one_sided(t, tau_next, s_input, upsilon, rhs_norm):
    """One-sided Sylvester residual norm ||tau Em^T Y||_F for small B.

    ``s_input`` is P^T C2 g1^T (eigenvectors of B against the right-hand
    side) and ``upsilon`` the eigenvalues of B, both computed once per solve.
    ``rhs_norm`` is the normalization ||C1||_F ||C2||_F, which, unlike the
    other checks' defaults, cannot be recovered from ``s_input``.
    """
    s_input = np.asarray(s_input, dtype=float)
    upsilon = np.asarray(upsilon, dtype=float)
    spectra = (partial_eig_blocktridiag(t),)
    w = _last_rows(t, spectra[0][1], tau_next)
    y_t = reduced_solution(spectra, (s_input.T,), upsilon)
    res = float(np.linalg.norm(y_t @ w))
    return ResidualValue(res, res / float(rhs_norm), spectra, y_t)
