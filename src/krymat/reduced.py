"""Classical path for the projected Lyapunov equation.

These routines form the full reduced solution Y the classical way
(eigendecomposition plus substitution, O(k^3)) and evaluate the residual
norm from it.  They are the "expensive" side that ``bench-residual``
measures the cheap evaluation against, so the eigensolver is the classic QL
driver rather than the fastest available one.
"""

import numpy as np
import scipy.linalg

from .kernels import guarded_denominators


def solve_reduced_lyapunov(t, gamma):
    """Solve T Y + Y T + E1 g g^T E1^T = 0 by eigendecomposition substitution.

    ``t`` is a ``BlockTridiagonal``; returns Y as a dense array.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    # classic QL ('ev') keeps the classical path honestly cubic
    lam, q = scipy.linalg.eigh(t.to_dense(), driver="ev")
    denom = guarded_denominators(lam, lam)
    u = q[: gamma.shape[0], :].T @ gamma
    ytilde = -(u @ u.T) / denom
    y = q @ ytilde @ q.T
    return 0.5 * (y + y.T)


def naive_residual(y, tau_next):
    """Residual norm sqrt(2) ||Y E_m tau^T||_F from the full reduced solution."""
    tau = np.atleast_2d(np.asarray(tau_next, dtype=float))
    ell = tau.shape[1]
    return np.sqrt(2.0) * np.linalg.norm(y[:, -ell:] @ tau.T)
