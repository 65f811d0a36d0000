"""Operator abstraction over the large coefficient matrices.

The solvers only ever touch A through block products ``A @ V`` and, for the
extended Krylov space, block solves ``A \\ V``.  Operators are immutable
after construction and safe to share between solves.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    FactorizationError,
)

#: Dense Cholesky is used for the generalized-equation transform; refuse
#: to densify mass matrices beyond this order.
DENSE_CHOLESKY_LIMIT = 4096


def validate_symmetric(a):
    """Return ``a`` as CSR after checking exact symmetry.

    Asymmetric input is an error, never silently symmetrized; the message
    names the first offending entry pair.
    """
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("matrix is %dx%d, not square" % a.shape)
    diff = (a - a.T).tocoo()
    bad = diff.data != 0.0
    if bad.any():
        i = int(diff.row[bad][0])
        j = int(diff.col[bad][0])
        raise AsymmetricMatrixError(
            "matrix is not symmetric: entry (%d, %d) = %.17g but (%d, %d) = %.17g"
            % (i, j, a[i, j], j, i, a[j, i])
        )
    return a


class SparseFactorization:
    """Sparse LU factorization (SuperLU with fill-reducing column ordering)
    of a symmetric matrix, used for block inverse-applies."""

    def __init__(self, a):
        try:
            self._lu = spla.splu(sp.csc_matrix(a))
        except RuntimeError as exc:
            raise FactorizationError("sparse factorization failed: %s" % exc)
        self.n = a.shape[0]

    def solve(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionMismatchError(
                "factorization is order %d, block has %d rows" % (self.n, v.shape[0])
            )
        return self._lu.solve(v)


class LinearOperator:
    """Symmetric operator interface: block apply and optional inverse apply."""

    n = 0
    definite = False

    def apply(self, v):
        raise NotImplementedError

    @property
    def can_solve(self):
        return False

    def solve(self, v):
        raise NotImplementedError("operator has no inverse-apply capability")


class SparseOperator(LinearOperator):
    """Operator backed by a sparse symmetric matrix.

    The factorization backing ``solve`` is built lazily on first use and
    cached; construction itself stays cheap for apply-only workloads.
    """

    def __init__(self, a, definite=True):
        self.matrix = validate_symmetric(a)
        self.n = self.matrix.shape[0]
        self.definite = definite
        self._fact = None

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionMismatchError(
                "operator is order %d, block has %d rows" % (self.n, v.shape[0])
            )
        return self.matrix @ v

    @property
    def can_solve(self):
        return True

    def factorization(self):
        if self._fact is None:
            self._fact = SparseFactorization(self.matrix)
        return self._fact

    def solve(self, v):
        return self.factorization().solve(v)


class TransformedOperator(LinearOperator):
    """Congruence transform L^{-1} A L^{-T} for a mass matrix E = L L^T.

    Lets a generalized equation  A X E + E X A + C C^T = 0  be treated as a
    standard one without ever forming the transformed matrix.
    """

    def __init__(self, cholesky_l, a, definite=True):
        self._l = cholesky_l
        self.matrix = validate_symmetric(a)
        self.n = self.matrix.shape[0]
        self.definite = definite

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionMismatchError(
                "operator is order %d, block has %d rows" % (self.n, v.shape[0])
            )
        w = scipy.linalg.solve_triangular(self._l, v, lower=True, trans="T")
        return scipy.linalg.solve_triangular(self._l, self.matrix @ w, lower=True)

    def transform_rhs(self, c):
        """Map the right-hand side factor C to L^{-1} C."""
        return scipy.linalg.solve_triangular(self._l, c, lower=True)

    def untransform_factor(self, z):
        """Map a solution factor of the transformed equation back: L^{-T} Z."""
        return scipy.linalg.solve_triangular(self._l, z, lower=True, trans="T")


def cholesky_transform(e, a):
    """Build the operator L^{-1} A L^{-T} from an SPD mass matrix E = L L^T.

    E is densified for the Cholesky factorization, which caps the practical
    order at ``DENSE_CHOLESKY_LIMIT``.
    """
    e = validate_symmetric(e)
    if e.shape[0] > DENSE_CHOLESKY_LIMIT:
        raise FactorizationError(
            "mass matrix of order %d exceeds the dense Cholesky limit %d"
            % (e.shape[0], DENSE_CHOLESKY_LIMIT)
        )
    try:
        lower = scipy.linalg.cholesky(e.toarray(), lower=True)
    except np.linalg.LinAlgError:
        raise FactorizationError("mass matrix is not positive definite")
    return TransformedOperator(lower, a)


def estimate_max_eigenvalue(op, iters=30, seed=0):
    """Crude Lanczos estimate of the largest eigenvalue, as a definiteness
    diagnostic for operators flagged negative definite."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(op.n)
    q /= np.linalg.norm(q)
    alphas, betas = [], []
    q_prev = np.zeros_like(q)
    beta = 0.0
    for _ in range(min(iters, op.n)):
        w = op.apply(q[:, None])[:, 0] - beta * q_prev
        alpha = q @ w
        w -= alpha * q
        alphas.append(alpha)
        beta = np.linalg.norm(w)
        if beta == 0.0:
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    if len(betas) == len(alphas):
        betas = betas[:-1]
    lam = scipy.linalg.eigh_tridiagonal(
        np.array(alphas), np.array(betas), eigvals_only=True
    )
    return float(lam[-1])
