import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from scipy.stats import kstest

from krymat import OptionError
from krymat.operators import validate_symmetric
from krymat.problems import (
    FD2D_KINDS, PROBLEM_KINDS, _coefficients, gen_fd2d, gen_fd3d_split, gen_operator,
    gen_rhs, laplacian1d,
)


def _fd2d_by_triplets(kind, n):
    """The five-point operator assembled from (row, column, value) triplets
    through COO, the pairs across the x boundary left out: the reference
    that the CSR arrays ``gen_fd2d`` builds directly must equal."""
    a_fun, b_fun = _coefficients(kind)
    h = 1.0 / (n + 1)
    idx = np.arange(1, n + 1) * h
    x, y = np.meshgrid(idx, idx, indexing="ij")
    a_east, a_west = a_fun(x + 0.5 * h, y) / h**2, a_fun(x - 0.5 * h, y) / h**2
    b_north, b_south = b_fun(x, y + 0.5 * h) / h**2, b_fun(x, y - 0.5 * h) / h**2

    def flat(v):
        return v.reshape(-1, order="F")

    size = n * n
    rows, cols = [np.arange(size)], [np.arange(size)]
    vals = [-flat(a_east + a_west + b_north + b_south)]
    east = flat(a_east)[: size - 1].copy()
    east[n - 1:: n] = 0.0
    nz = east != 0.0
    i = np.arange(size - 1)[nz]
    rows += [i, i + 1]
    cols += [i + 1, i]
    vals += [east[nz], east[nz]]
    north = flat(b_north)[: size - n]
    i = np.arange(size - n)
    rows += [i, i + n]
    cols += [i + n, i]
    vals += [north, north]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(size, size)).tocsr()


class TestFd2d:
    def test_constant_coefficients_give_five_point_stencil(self):
        n = 4
        h = 1.0 / (n + 1)
        a = gen_fd2d("laplacian2d", n).toarray()
        center = 1 + 1 * n  # node (1, 1), all four neighbours interior
        assert np.isclose(a[center, center], -4.0 / h**2)
        for neighbour in (center - 1, center + 1, center - n, center + n):
            assert np.isclose(a[center, neighbour], 1.0 / h**2)

    def test_exact_symmetry(self):
        for kind in ("fd2d-exp", "fd2d-trig"):
            a = gen_fd2d(kind, 9)
            diff = (a - a.T).tocoo()
            assert diff.nnz == 0 or np.all(diff.data == 0.0)
            validate_symmetric(a)

    def test_negative_definite(self):
        for kind in ("fd2d-exp", "fd2d-trig"):
            a = gen_fd2d(kind, 16)
            lam_max = np.linalg.eigvalsh(a.toarray())[-1]
            assert lam_max < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
    @pytest.mark.parametrize("kind", FD2D_KINDS)
    def test_csr_arrays_equal_the_triplet_assembly(self, kind, n):
        a, ref = gen_fd2d(kind, n), _fd2d_by_triplets(kind, n)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(ref, name)), name
        assert a.indices.dtype == a.indptr.dtype == ref.indices.dtype == np.int32
        assert a.has_canonical_format

    def test_definiteness_diagnostic_passes(self):
        for kind in ("fd2d-exp", "fd2d-trig", "laplacian2d"):
            assert eigsh(gen_fd2d(kind, 12), k=1, which="LA")[0][0] < 0.0


class TestFd3dSplit:
    def test_smallest_grid_b(self):
        _, b = gen_fd3d_split(2)
        h = 1.0 / 3.0
        expected = 10.0 / h**2 * np.array([[-2.0, 1.0], [1.0, -2.0]])
        assert np.allclose(b.toarray(), expected)

    def test_kronecker_assembly_of_3d_operator(self):
        # the split must reproduce the direct 7-point discretization of
        # (e^{-xy} u_x)_x + (e^{xy} u_y)_y + 10 u_zz, z ordered outermost
        n = 3
        a, b = gen_fd3d_split(n)
        full = sp.kron(sp.eye(n), a) + sp.kron(b, sp.eye(n * n))
        h = 1.0 / (n + 1)
        idx = np.arange(1, n + 1) * h
        direct = np.zeros((n**3, n**3))
        for k in range(n):          # z
            for j in range(n):      # y
                for i in range(n):  # x
                    row = i + j * n + k * n * n
                    x, y = idx[i], idx[j]
                    ae = np.exp(-(x + 0.5 * h) * y) / h**2
                    aw = np.exp(-(x - 0.5 * h) * y) / h**2
                    bn = np.exp(x * (y + 0.5 * h)) / h**2
                    bs = np.exp(x * (y - 0.5 * h)) / h**2
                    cz = 10.0 / h**2
                    direct[row, row] = -(ae + aw + bn + bs) - 2.0 * cz
                    if i + 1 < n:
                        direct[row, row + 1] = ae
                    if i > 0:
                        direct[row, row - 1] = aw
                    if j + 1 < n:
                        direct[row, row + n] = bn
                    if j > 0:
                        direct[row, row - n] = bs
                    if k + 1 < n:
                        direct[row, row + n * n] = cz
                    if k > 0:
                        direct[row, row - n * n] = cz
        assert np.allclose(full.toarray(), direct, rtol=0.0, atol=1e-12)

    def test_both_factors_negative_definite(self):
        a, b = gen_fd3d_split(8)
        assert np.linalg.eigvalsh(a.toarray())[-1] < 0.0
        assert np.linalg.eigvalsh(b.toarray())[-1] < 0.0


class TestRhs:
    def test_normalized(self):
        c = gen_rhs(50, 3, seed=0)
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-15

    def test_deterministic(self):
        assert np.array_equal(gen_rhs(40, 2, seed=9), gen_rhs(40, 2, seed=9))

    def test_uniform_before_normalization(self):
        # the normalization scales every entry alike, so the entries over
        # their largest are uniform draws over the largest draw, which lies
        # within about 1e-4 of 1 for 10000 draws
        c = gen_rhs(2500, 4, seed=1)
        assert c.min() > 0.0
        stat = kstest((c / c.max()).ravel(), "uniform")
        assert stat.pvalue > 0.01


def test_grid_refinement_eigenvalue_scaling():
    # the most negative eigenvalue scales like 1/h^2
    extremes = []
    for n in (8, 16, 32):
        a = gen_fd2d("laplacian2d", n)
        extremes.append(abs(np.linalg.eigvalsh(a.toarray())[0]))
    for small, large in zip(extremes, extremes[1:]):
        assert 3.5 <= large / small <= 4.5


def test_laplacian1d_matches_stencil():
    b = laplacian1d(3).toarray()
    h = 1.0 / 4.0
    assert np.allclose(b, (np.diag([-2.0] * 3) + np.diag([1.0] * 2, 1)
                           + np.diag([1.0] * 2, -1)) / h**2)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_gen_operator_returns_a_and_b_of_every_kind(kind):
    a, b = gen_operator(kind, 3)
    assert a.shape == ((3, 3) if kind == "laplacian1d" else (9, 9))
    if kind == "fd2d-pair":
        assert (b != gen_fd2d("fd2d-trig", 3)).nnz == 0
    elif kind == "fd3d-split":
        assert b.shape == (3, 3)
    else:
        assert b is None


def test_unknown_kind_is_an_option_error():
    with pytest.raises(OptionError, match="unknown problem kind 'fd3d'"):
        gen_operator("fd3d", 3)
