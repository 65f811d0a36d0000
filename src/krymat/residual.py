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

For the Sylvester equation the norm is

    ||R||^2 = ||tau Em^T Y||^2 + ||Y Em iota^T||^2,

read through the eigenbases of T and J: -Ytilde, the reduced solution in
eigen coordinates, has rows over T's eigenvalues and columns over J's, and
``reduced_solution`` forms it.  The Lyapunov equation is the symmetric
case, J = T, whose two terms are equal (the factor sqrt(2)).  With B small
and dense the second side is B itself, given exactly by its eigenpairs: it
has no coupling block, so its term drops out.

Each check uses LAPACK's eigenvectors as returned.  Flipping the sign of
eigenvector i flips row i of -Ytilde and of the coupling term, so the norm
comes out the same to the last bit.  The check keeps its -Ytilde and
eigenvectors, and at convergence the solvers build the factor from them as
they are: the signs cancel in X ~ Z Z^T, so no second eigensolve and no
second -Ytilde is made.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import guarded_denominators, partial_eig_blocktridiag


def reduced_solution(spectra, u):
    """-Ytilde, the reduced solution in eigen coordinates.

    ``spectra`` holds the (eigenvalues, eigenvectors) pair of T (and of the
    second side, Sylvester) and ``u`` the right-hand side's coefficients in
    the eigenbasis of each, Q1^T gamma.  Rows run over T's eigenvalues.
    """
    return (u[0] @ u[-1].T) / guarded_denominators(spectra[0][0], spectra[-1][0])


@dataclass
class ResidualValue:
    """Absolute residual norm, its normalized value and the check's eigen-data.

    For Lyapunov problems the normalization is beta^2 = ||C||_F^2; Sylvester
    problems use ||C1||_F * ||C2||_F.  ``spectra`` holds the (eigenvalues,
    eigenvectors) pair of T (and of J, or of B one-sided) as LAPACK returned
    them, and ``y`` the -Ytilde that the check formed from them with
    ``reduced_solution``, rows over T's eigenvalues.
    """

    res: float
    relative: float
    spectra: tuple
    y: np.ndarray


def _projection(t, gamma, tau_next):
    """The (eigenvalues, eigenvectors) pair of T, Q1^T gamma and Qm^T tau^T,
    Q1 and Qm the first and last block rows of the eigenvectors."""
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    tau = np.atleast_2d(np.asarray(tau_next, dtype=float))
    lam, q = partial_eig_blocktridiag(t)
    return (lam, q), q[: gamma.shape[0]].T @ gamma, q[-t.block_size:].T @ tau.T


def ctri_lyapunov(t, gamma, tau_next, rhs_norm=None):
    """Lyapunov residual norm from the projected matrix, sqrt(2)||Y Em tau^T||_F,
    without forming Y.

    ``gamma`` is the coefficient of C in the first basis block; ``tau_next``
    the coupling block to the next basis block (its nonzero upper part is
    enough in extended mode).  ``rhs_norm`` overrides the normalization
    beta^2, which defaults to ||gamma||_F^2 = ||C||_F^2.
    """
    spectrum, u, w = _projection(t, gamma, tau_next)
    y = reduced_solution((spectrum,), (u,))
    res = float(np.sqrt(2.0) * np.linalg.norm(y @ w))
    beta2 = float(rhs_norm) if rhs_norm is not None else float(np.sum(np.square(gamma)))
    return ResidualValue(res, res / beta2, (spectrum,), y)


def ctri_sylvester(t, j, gamma1, gamma2, tau_next, iota_next=None, rhs_norm=None):
    """Sylvester residual norm sqrt(||tau Em^T Y||^2 + ||Y Em iota^T||^2)
    from the eigenbases of both sides, without forming Y.

    Two-sided, ``j`` is the projection J of B and ``gamma2`` the coefficient
    of C2 in its first basis block.  One-sided (``iota_next`` None), ``j`` is
    the exact (eigenvalues, eigenvectors) pair (ups, P) of the small B and
    ``gamma2`` is P^T C2; that side has no coupling term.  ``rhs_norm``
    defaults to ||gamma1||_F ||gamma2||_F = ||C1||_F ||C2||_F.
    """
    spectrum_t, u1, f = _projection(t, gamma1, tau_next)
    if iota_next is None:
        spectrum_j, u2 = j, np.atleast_2d(np.asarray(gamma2, dtype=float))
    else:
        spectrum_j, u2, g = _projection(j, gamma2, iota_next)
    y = reduced_solution((spectrum_t, spectrum_j), (u1, u2))
    res2 = np.linalg.norm(y.T @ f) ** 2
    if iota_next is not None:
        res2 += np.linalg.norm(y @ g) ** 2
    if rhs_norm is None:
        rhs_norm = np.linalg.norm(gamma1) * np.linalg.norm(gamma2)
    res = float(np.sqrt(res2))
    return ResidualValue(res, res / float(rhs_norm), (spectrum_t, spectrum_j), y)
