import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from krymat import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    FactorizationError,
    KrymatError,
    SparseFactorization,
    SparseOperator,
    validate_symmetric,
)
from krymat.problems import gen_fd2d, laplacian1d

from conftest import random_sparse_negdef


class TestValidation:
    def test_asymmetric_value_rejected_with_entry_pair(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.5, 1.0]]))
        with pytest.raises(AsymmetricMatrixError) as err:
            validate_symmetric(a)
        assert "(0, 1)" in str(err.value) or "(1, 0)" in str(err.value)

    def test_asymmetric_pattern_rejected(self):
        a = sp.csr_matrix((np.array([1.0]), (np.array([0]), np.array([1]))), shape=(3, 3))
        with pytest.raises(AsymmetricMatrixError):
            validate_symmetric(a)

    @pytest.mark.parametrize("row, col, value", [
        (5, 5, np.nan), (5, 5, np.inf), (2, 3, -np.inf),
    ])
    def test_non_finite_entry_rejected_before_symmetry(self, row, col, value):
        # a NaN on the diagonal used to read as an asymmetric pair
        # "(5, 5) = nan but (5, 5) = nan"; the off-diagonal case is also
        # asymmetric, and the non-finite entry is named first
        a = laplacian1d(8).tolil()
        a[row, col] = value
        with pytest.raises(KrymatError, match=r"^matrix entry \(%d, %d\) = %s is not finite$"
                           % (row, col, value)) as err:
            validate_symmetric(a)
        assert not isinstance(err.value, AsymmetricMatrixError)

    def test_messages_name_the_matrix(self):
        bad = laplacian1d(4).tolil()
        bad[0, 1] = 0.5
        with pytest.raises(AsymmetricMatrixError, match=r"^E is not symmetric: "):
            validate_symmetric(bad, "E")
        with pytest.raises(AsymmetricMatrixError, match=r"^A is not symmetric: "):
            validate_symmetric(bad, "A")
        with pytest.raises(DimensionMismatchError, match=r"^B is 2x3, not square$"):
            validate_symmetric(np.zeros((2, 3)), "B")

    def test_symmetric_accepted(self):
        a = validate_symmetric(laplacian1d(5))
        assert a.shape == (5, 5)

    def test_symmetric_in_any_storage_order_accepted(self):
        # unsorted column indices and a duplicate entry leave the CSR arrays
        # unequal to the transpose's, so the entry-wise comparison decides
        a = sp.csr_matrix((np.array([1.0, -2.0, 0.5, 0.5, 1.0, -2.0]),
                           np.array([1, 0, 1, 1, 0, 1]), np.array([0, 2, 6])),
                          shape=(2, 2))
        assert not a.has_canonical_format
        assert (validate_symmetric(a).toarray() == [[-2.0, 1.0], [1.0, -1.0]]).all()
        a.data[0] = 1.5  # entry (0, 1)
        with pytest.raises(AsymmetricMatrixError, match=r"\(0, 1\) = 1.5 but \(1, 0\) = 1$"):
            validate_symmetric(a)


class TestBlockApply:
    def test_identity(self):
        op = SparseOperator(sp.eye(4, format="csr"), definite=False)
        v = np.arange(8.0).reshape(4, 2)
        assert np.allclose(op.apply(v), v)

    def test_laplacian_stencil(self):
        op = SparseOperator(sp.diags([[1.0, 1], [-2.0, -2, -2], [1.0, 1]], (-1, 0, 1)).tocsr())
        e2 = np.zeros((3, 1))
        e2[1] = 1.0
        assert np.allclose(op.apply(e2)[:, 0], [1.0, -2.0, 1.0])

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(1)
        a = random_sparse_negdef(rng, 100)
        op = SparseOperator(a)
        v = rng.standard_normal((100, 3))
        assert np.allclose(op.apply(v), a.toarray() @ v, atol=1e-12)

    def test_symmetry_of_apply(self):
        rng = np.random.default_rng(12)
        a = random_sparse_negdef(rng, 60)
        op = SparseOperator(a)
        u = rng.standard_normal((60, 1))
        v = rng.standard_normal((60, 1))
        left = (u.T @ op.apply(v)).item()
        right = (v.T @ op.apply(u)).item()
        scale = sp.linalg.norm(a) * np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(left - right) <= 1e-12 * scale


class TestBlockSolve:
    def test_negated_identity(self):
        op = SparseOperator((-sp.eye(5)).tocsr())
        v = np.arange(10.0).reshape(5, 2)
        assert np.allclose(op.solve(v), -v)

    def test_diagonal(self):
        op = SparseOperator(sp.diags([-1.0, -2.0, -4.0]).tocsr())
        v = np.ones((3, 1))
        assert np.allclose(op.solve(v)[:, 0], [-1.0, -0.5, -0.25])

    def test_multiply_back_2d_laplacian(self):
        a = gen_fd2d("laplacian2d", 8)  # order 64
        op = SparseOperator(a)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((64, 4))
        y = op.factorization().solve(v)
        assert np.linalg.norm(a @ y - v) <= 1e-10 * np.linalg.norm(v)

    def test_multiply_back_many_rhs(self):
        rng = np.random.default_rng(5)
        a = random_sparse_negdef(rng, 80)
        fact = SparseFactorization(a)
        v = rng.standard_normal((80, 100))
        assert np.linalg.norm(a @ fact.solve(v) - v) <= 1e-10 * np.linalg.norm(v)

    def test_singular_matrix_errors_at_factorization(self):
        singular = sp.csr_matrix((3, 3))
        with pytest.raises(FactorizationError) as err:
            SparseFactorization(singular)
        assert isinstance(err.value.__cause__, RuntimeError)


def _indefinite_zero_diagonal(k, seed):
    """The symmetric saddle matrix [[0, B], [B^T, 0]]: indefinite, and every
    diagonal entry is zero, so the factorization must pivot off the diagonal."""
    b = sp.random(k, k, density=0.2, random_state=seed) + sp.eye(k)
    return sp.bmat([[None, b], [b.T, None]]).tocsr()


class TestSymmetricOrdering:
    @pytest.mark.parametrize("make", [
        lambda: gen_fd2d("fd2d-exp", 64),
        lambda: _indefinite_zero_diagonal(40, 1),
    ], ids=["fd2d-exp-64", "indefinite-zero-diagonal"])
    def test_solves_to_roundoff(self, make):
        a = make()
        assert a.shape[0] > 1 and (a - a.T).nnz == 0
        rng = np.random.default_rng(11)
        v = rng.standard_normal((a.shape[0], 3))
        y = SparseFactorization(a).solve(v)
        assert np.linalg.norm(a @ y - v) <= 1e-12 * np.linalg.norm(v)

    def test_fill_well_below_default_column_ordering(self):
        # pins the symmetric minimum-degree ordering, not a timing: on this
        # grid the ratio is about 0.57
        a = gen_fd2d("fd2d-exp", 64)
        lu = SparseFactorization(a)._lu
        default = spla.splu(sp.csc_matrix(a))
        assert lu.L.nnz + lu.U.nnz <= 0.75 * (default.L.nnz + default.U.nnz)
