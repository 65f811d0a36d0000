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
    KrymatError,
)

#: Dense Cholesky is used for the generalized-equation transform; refuse
#: to densify mass matrices beyond this order.
DENSE_CHOLESKY_LIMIT = 4096


def validate_symmetric(a, name="matrix"):
    """Return ``a`` as CSR after checking that its entries are finite and
    that it is exactly symmetric.

    Bad input is an error, never silently mended; the message names the
    matrix by ``name`` and gives the first non-finite entry, or else the
    first asymmetric entry pair.
    """
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("%s is %dx%d, not square" % ((name,) + a.shape))
    finite = np.isfinite(a.data)
    if not finite.all():
        k = int(np.argmin(finite))
        i = np.searchsorted(a.indptr, k, side="right") - 1
        raise KrymatError("%s entry (%d, %d) = %.17g is not finite"
                          % (name, i, a.indices[k], a.data[k]))
    if a.has_canonical_format:  # then equal CSR arrays mean equal matrices
        t = a.T.tocsr()
        if (np.array_equal(t.indptr, a.indptr) and np.array_equal(t.indices, a.indices)
                and np.array_equal(t.data, a.data)):
            return a
    diff = (a - a.T).tocoo()
    bad = diff.data != 0.0
    if bad.any():
        i = int(diff.row[bad][0])
        j = int(diff.col[bad][0])
        raise AsymmetricMatrixError(
            "%s is not symmetric: entry (%d, %d) = %.17g but (%d, %d) = %.17g"
            % (name, i, j, a[i, j], j, i, a[j, i])
        )
    return a


class SparseFactorization:
    """Sparse LU factorization of a symmetric matrix, used for block
    inverse-applies.

    SuperLU orders rows and columns alike by minimum degree on the pattern
    of A + A^T (``MMD_AT_PLUS_A`` with ``SymmetricMode``).  On the 2-D grid
    operators L + U then hold about 0.56x the entries that SuperLU's
    default COLAMD column ordering, which ignores the symmetry, makes.
    SuperLU's threshold partial pivoting is kept, so symmetric indefinite
    matrices, even with zero diagonal entries, factor as well.
    """

    def __init__(self, a):
        try:
            self._lu = spla.splu(sp.csc_matrix(a), permc_spec="MMD_AT_PLUS_A",
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise FactorizationError("sparse factorization failed: %s" % exc) from exc
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

    def __init__(self, cholesky_l, a):
        self._l = cholesky_l
        self.matrix = validate_symmetric(a, "A")
        self.n = self.matrix.shape[0]

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
    e = validate_symmetric(e, "E")
    if e.shape[0] > DENSE_CHOLESKY_LIMIT:
        raise FactorizationError(
            "mass matrix of order %d exceeds the dense Cholesky limit %d"
            % (e.shape[0], DENSE_CHOLESKY_LIMIT)
        )
    try:
        lower = scipy.linalg.cholesky(e.toarray(), lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("mass matrix is not positive definite") from exc
    return TransformedOperator(lower, a)

