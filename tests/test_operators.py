import numpy as np
import pytest
import scipy.sparse as sp

from krymat import (
    AsymmetricMatrixError,
    FactorizationError,
    SparseFactorization,
    SparseOperator,
    cholesky_transform,
    validate_symmetric,
)
from krymat.operators import estimate_max_eigenvalue
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

    def test_symmetric_accepted(self):
        a = validate_symmetric(laplacian1d(5))
        assert a.shape == (5, 5)


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
        with pytest.raises(FactorizationError):
            SparseFactorization(singular)


class TestCholeskyTransform:
    def test_identity_mass_matrix(self):
        a = laplacian1d(6)
        op = cholesky_transform(sp.eye(6, format="csr"), a)
        rng = np.random.default_rng(0)
        v = rng.standard_normal((6, 2))
        assert np.allclose(op.apply(v), a @ v)

    def test_scalar_scaling(self):
        op = cholesky_transform(4.0 * sp.eye(3), (-sp.eye(3)).tocsr())
        v = np.eye(3)
        assert np.allclose(op.apply(v), -0.25 * np.eye(3))

    def test_generalized_eigenvalues(self):
        import scipy.linalg

        rng = np.random.default_rng(7)
        w = rng.standard_normal((10, 10))
        e = sp.csr_matrix(w @ w.T + 10 * np.eye(10))
        a = laplacian1d(10)
        op = cholesky_transform(e, a)
        transformed = op.apply(np.eye(10))
        lam = np.sort(np.linalg.eigvalsh(0.5 * (transformed + transformed.T)))
        expected = np.sort(scipy.linalg.eigh(a.toarray(), e.toarray(), eigvals_only=True))
        assert np.allclose(lam, expected, atol=1e-10 * np.abs(expected).max())

    def test_not_spd_rejected(self):
        with pytest.raises(FactorizationError):
            cholesky_transform((-sp.eye(4)).tocsr(), (-sp.eye(4)).tocsr())

    def test_rhs_and_factor_transforms_invert(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((8, 8))
        e = sp.csr_matrix(w @ w.T + 8 * np.eye(8))
        op = cholesky_transform(e, laplacian1d(8))
        c = rng.standard_normal((8, 2))
        lc = op.transform_rhs(c)
        assert np.allclose(op.untransform_factor(op._l.T @ c), c)
        assert np.allclose(op._l @ lc, c)


def test_negative_definiteness_diagnostic():
    rng = np.random.default_rng(11)
    a = random_sparse_negdef(rng, 120)
    op = SparseOperator(a)
    assert estimate_max_eigenvalue(op) < 0.0
