import numpy as np
import pytest
import scipy.linalg

from krymat import (
    BlockTridiagonal,
    DimensionMismatchError,
    IndefiniteMatrixError,
    economy_qr,
    partial_eig_blocktridiag,
    sym_tridiag_eig,
    truncated_spd_factor,
    truncated_svd_factor,
)
from krymat.kernels import band_tridiagonalize, rank_deficient

from conftest import block_tridiagonal, random_block_tridiagonal


class TestEconomyQR:
    def test_identity_columns(self):
        w = np.eye(3)[:, :2]
        q, r = economy_qr(w)
        assert np.allclose(q, w)
        assert np.allclose(r, np.eye(2))

    def test_three_four_five_column(self):
        q, r = economy_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(q, [[0.6], [0.8]])
        assert np.allclose(r, [[5.0]])

    def test_multiply_back_random(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((50, 4))
        q, r = economy_qr(w)
        assert np.linalg.norm(q @ r - w) <= 1e-13 * np.linalg.norm(w)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-13

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        q, _ = economy_qr(rng.standard_normal((20, 5)))
        q2, r2 = economy_qr(q)
        assert np.linalg.norm(r2 - np.eye(5)) <= 1e-12
        assert np.allclose(q2, q)

    def test_rank_deficiency_detection(self):
        u = np.ones((10, 1))
        w = np.hstack([u, 2.0 * u])
        _, r = economy_qr(w)
        assert rank_deficient(r)
        _, r = economy_qr(np.random.default_rng(0).standard_normal((10, 3)))
        assert not rank_deficient(r)


    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
    def test_one_column_matches_householder(self, scale):
        w = scale * np.random.default_rng(3).standard_normal((200, 1))
        q, r = economy_qr(w)
        q_ref, r_ref = np.linalg.qr(w)
        sign = np.sign(r_ref[0, 0])
        assert r[0, 0] >= 0.0
        assert abs(q[:, 0] @ q[:, 0] - 1.0) <= 1e-14
        assert np.max(np.abs(q - sign * q_ref)) <= 1e-14
        assert abs(r[0, 0] - sign * r_ref[0, 0]) <= 1e-14 * r[0, 0]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, widths", [
        (45, range(1, 41)), (576, range(1, 41)), (160, (129, 140)),
    ], ids=["n45", "n576", "blocked"])
    def test_bit_equal_to_scipy_economic_qr(self, n, widths, order):
        # widths past LAPACK's crossover (128 columns) take the blocked path
        # only with scipy's optimal workspace; a single column is normalized
        # by its scaled norm instead
        rng = np.random.default_rng(n)
        for width in widths:
            w = np.asarray(rng.standard_normal((n, width)), order=order)
            q, r = economy_qr(w)
            if width == 1:
                norm = scipy.linalg.blas.dnrm2(w[:, 0])
                q_ref, r_ref = w / norm, np.array([[norm]])
            else:
                q_ref, r_ref = scipy.linalg.qr(w, mode="economic")
                signs = np.sign(np.diag(r_ref))
                signs[signs == 0.0] = 1.0
                q_ref, r_ref = q_ref * signs, signs[:, None] * r_ref
            assert np.array_equal(q, q_ref), width
            assert np.array_equal(r, r_ref), width
            assert q.flags.c_contiguous

    def test_zero_column_is_rank_deficient(self):
        with np.errstate(all="raise"):
            q, r = economy_qr(np.zeros((5, 1)))
        assert np.array_equal(r, [[0.0]])
        assert rank_deficient(r)
        assert np.array_equal(q, np.eye(5, 1))


class TestBandTridiagonalize:
    def test_block_size_one_is_identity(self):
        t = block_tridiagonal(
            [np.array([[-2.0]]), np.array([[-3.0]]), np.array([[-1.5]])],
            [np.array([[1.0]]), np.array([[0.5]])],
        )
        d, e, p = band_tridiagonalize(t)
        assert np.array_equal(d, [-2.0, -3.0, -1.5])
        assert np.array_equal(e, [1.0, 0.5])
        assert np.array_equal(p, np.eye(3))

    def test_small_against_dense_householder(self):
        rng = np.random.default_rng(5)
        t = random_block_tridiagonal(rng, 2, 2)
        d, e, _ = band_tridiagonalize(t)
        f = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        # same spectrum as the dense matrix it is similar to
        assert np.allclose(
            np.linalg.eigvalsh(f), np.linalg.eigvalsh(t.to_dense()), atol=1e-12
        )

    def test_spectrum_preserved_random(self):
        rng = np.random.default_rng(3)
        t = random_block_tridiagonal(rng, 4, 10)
        d, e, _ = band_tridiagonalize(t)
        f = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        td = t.to_dense()
        assert np.allclose(
            np.linalg.eigvalsh(f),
            np.linalg.eigvalsh(td),
            atol=1e-12 * np.linalg.norm(td),
        )

    @pytest.mark.parametrize("ell,m,triangular", [
        (2, 5, False), (3, 4, False), (2, 13, True), (5, 3, True), (4, 1, False),
    ])
    def test_full_transformation_accumulation(self, ell, m, triangular):
        rng = np.random.default_rng(ell * 100 + m)
        t = random_block_tridiagonal(rng, ell, m, triangular=triangular)
        d, e, p = band_tridiagonalize(t)
        k = t.dim
        f = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        td = t.to_dense()
        assert np.linalg.norm(p.T @ p - np.eye(k)) <= 1e-12 * k
        assert np.linalg.norm(p.T @ td @ p - f) <= 1e-11 * np.linalg.norm(td)


def _assert_hand_eigenvectors(g):
    """The eigenvectors of [[a, 1], [1, a]], (1, -1)/sqrt(2) then
    (1, 1)/sqrt(2), each up to the sign LAPACK happens to give it."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, ref in zip(g.T, ([inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2])):
        assert np.allclose(col, ref) or np.allclose(col, np.negative(ref))


class TestSymTridiagEig:
    def test_single_entry(self):
        lam, g = sym_tridiag_eig(np.array([-2.0]), np.array([]))
        assert np.allclose(lam, [-2.0])
        assert np.allclose(g, [[1.0]])

    def test_two_by_two(self):
        lam, g = sym_tridiag_eig(np.array([0.0, 0.0]), np.array([1.0]))
        assert np.allclose(lam, [-1.0, 1.0])
        _assert_hand_eigenvectors(g)

    def test_discrete_laplacian_analytic(self):
        n = 100
        lam, g = sym_tridiag_eig(np.full(n, -2.0), np.ones(n - 1))
        k = np.arange(1, n + 1)
        expected = np.sort(2.0 * np.cos(k * np.pi / (n + 1)) - 2.0)
        assert np.max(np.abs(lam - expected)) <= 1e-12
        f = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) \
            + np.diag(np.ones(n - 1), -1)
        assert np.linalg.norm(g.T @ g - np.eye(n)) <= 1e-12 * np.sqrt(n)
        assert np.linalg.norm(f @ g - g * lam) <= 1e-12 * np.linalg.norm(f)


class TestPartialEig:
    def test_single_block_gives_full_eigenvectors(self):
        rng = np.random.default_rng(2)
        t = random_block_tridiagonal(rng, 3, 1)
        lam, q = partial_eig_blocktridiag(t)
        lam_ref, q_ref = np.linalg.eigh(t.to_dense())
        assert np.allclose(lam, lam_ref, atol=1e-12)
        # the first and last block rows are both the whole eigenvector
        # matrix, equal to the reference up to column signs
        assert np.allclose(np.abs(q[:3]), np.abs(q_ref), atol=1e-12)
        assert np.array_equal(q[:3], q[-3:])

    def test_hand_two_by_two(self):
        t = block_tridiagonal(
            [np.array([[-2.0]]), np.array([[-2.0]])], [np.array([[1.0]])]
        )
        lam, q = partial_eig_blocktridiag(t)
        assert np.allclose(lam, [-3.0, -1.0])
        _assert_hand_eigenvectors(q)

    def test_rows_match_dense_eigendecomposition(self):
        rng = np.random.default_rng(9)
        t = random_block_tridiagonal(rng, 3, 10)
        lam_got, q_got = partial_eig_blocktridiag(t)
        lam, q = np.linalg.eigh(t.to_dense())
        assert np.allclose(lam_got, lam, atol=1e-11 * np.abs(lam).max())
        # agreement up to a per-column sign
        for rows, ref in ((q_got[:3], q[:3]), (q_got[-3:], q[-3:]), (q_got, q)):
            signs = np.ones(t.dim)
            piv = np.argmax(np.abs(ref), axis=0)
            for j in range(t.dim):
                if abs(ref[piv[j], j]) > 1e-14 and abs(rows[piv[j], j]) > 1e-14:
                    signs[j] = np.sign(ref[piv[j], j] * rows[piv[j], j])
            assert np.allclose(rows * signs, ref, atol=1e-9)

    def test_eigenvalues_match_dense_multiset(self):
        rng = np.random.default_rng(21)
        for ell, m in [(1, 17), (2, 8), (4, 5)]:
            t = random_block_tridiagonal(rng, ell, m)
            lam_got, _ = partial_eig_blocktridiag(t)
            lam = np.linalg.eigvalsh(t.to_dense())
            assert np.max(np.abs(lam_got - lam)) <= 1e-11 * np.linalg.norm(
                t.to_dense()
            )


def _dense_band_eig(t):
    """The eigendecomposition through a band copied out of ``to_dense``,
    with LAPACK's eigenvector signs, as the library returns them."""
    bw = min(t.band.shape[0], max(t.dim, 2)) - 1
    a = t.to_dense()
    band = np.zeros((bw + 1, t.dim))
    for i in range(bw + 1):
        band[i, :t.dim - i] = np.diagonal(a, -i)
    if bw == 1:
        return sym_tridiag_eig(band[0], band[1, :-1])
    return scipy.linalg.eig_banded(band, lower=True)


def _tridiagonal_blocks():
    """Blocks with ell = 2 whose global pattern is tridiagonal, in a band of
    two rows."""
    d1 = np.array([[-2.0, 0.7], [0.7, -3.0]])
    d2 = np.array([[-2.5, 0.4], [0.4, -4.0]])
    off = np.array([[0.0, 0.9], [0.0, 0.0]])  # couples rows 2 and 1 only
    return block_tridiagonal([d1, d2], [off], bandwidth=1)


@pytest.mark.parametrize("make, band_rows", [
    (lambda rng: random_block_tridiagonal(rng, 1, 30), 2),
    (lambda rng: _tridiagonal_blocks(), 2),
    (lambda rng: random_block_tridiagonal(rng, 2, 12, triangular=True), 3),
    (lambda rng: random_block_tridiagonal(rng, 3, 8), 6),
    (lambda rng: random_block_tridiagonal(rng, 4, 1), 8),
], ids=["scalar", "blocked-tridiagonal", "triangular", "general", "one-block"])
def test_partial_eig_never_forms_the_dense_matrix(monkeypatch, make, band_rows):
    t = make(np.random.default_rng(31))
    assert t.band.shape[0] == band_rows
    lam, q = _dense_band_eig(t)

    def refuse(self):
        raise AssertionError("the check formed the dense projection")

    monkeypatch.setattr(BlockTridiagonal, "to_dense", refuse)
    lam_got, q_got = partial_eig_blocktridiag(t)
    assert np.array_equal(lam_got, lam)
    assert np.array_equal(q_got, q)


class TestTruncatedFactors:
    def test_identity_keeps_full_rank(self):
        f, _ = truncated_spd_factor(np.eye(3), 1e-12)
        assert f.shape[1] == 3
        assert np.linalg.norm(f @ f.T - np.eye(3)) <= 1e-14

    def test_forced_truncation(self):
        f, discarded = truncated_spd_factor(np.diag([1.0, 1e-20]), 1e-12)
        assert f.shape[1] == 1
        assert np.allclose(np.abs(f), [[1.0], [0.0]])
        assert discarded <= 1e-12

    def test_outer_product_rank_one(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        f, _ = truncated_spd_factor(np.outer(v, v), 1e-12)
        assert f.shape[1] == 1
        assert min(np.linalg.norm(f[:, 0] - v), np.linalg.norm(f[:, 0] + v)) <= 1e-12

    def test_factor_columns_orthogonal(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((8, 8))
        y = w @ w.T
        f, _ = truncated_spd_factor(y, 1e-12)
        gram = f.T @ f
        assert np.linalg.norm(gram - np.diag(np.diag(gram))) <= 1e-12 * np.linalg.norm(gram)
        assert np.linalg.norm(f @ f.T - y) <= 1e-11 * np.linalg.norm(y)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteMatrixError):
            truncated_spd_factor(np.diag([1.0, -1.0]), 1e-12)

    def test_svd_zero_matrix(self):
        f1, f2, _ = truncated_svd_factor(np.zeros((4, 3)), 1e-12)
        assert f1.shape[1] == 0 and f2.shape[1] == 0
        assert f1.shape == (4, 0) and f2.shape == (3, 0)

    def test_svd_rank_one(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        y = np.outer(u, v)
        f1, f2, _ = truncated_svd_factor(y, 1e-12)
        assert f1.shape[1] == 1
        assert np.linalg.norm(f1 @ f2.T - y) <= 1e-14

    def test_svd_multiply_back(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((8, 8))
        f1, f2, _ = truncated_svd_factor(y, 1e-12)
        assert np.linalg.norm(f1 @ f2.T - y) <= 1e-12


def test_sym_tridiag_eig_survives_tight_clusters():
    # glued Wilkinson matrices produce eigenvalue clusters that are nearly
    # machine-identical, the classic stress case for MRRR-type solvers
    w = 10
    d_single = np.abs(np.arange(-w, w + 1)).astype(float)
    e_single = np.ones(2 * w)
    blocks = 4
    d = np.tile(d_single, blocks)
    e = np.concatenate(
        sum(([e_single, np.array([1e-14])] for _ in range(blocks - 1)), [])
        + [e_single]
    )
    lam, g = sym_tridiag_eig(d, e)
    k = d.size
    f = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.linalg.norm(g.T @ g - np.eye(k)) <= 1e-12 * np.sqrt(k)
    assert np.linalg.norm(f @ g - g * lam) <= 1e-12 * np.linalg.norm(f)
    assert np.allclose(lam, np.linalg.eigvalsh(f), atol=1e-12 * np.linalg.norm(f))


def test_band_tridiagonalize_blocked_but_already_tridiagonal():
    t = _tridiagonal_blocks()
    d, e, p = band_tridiagonalize(t)
    f = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.array_equal(f, t.to_dense())
    # every Householder reflector of a tridiagonal matrix is the identity
    assert np.array_equal(p, np.eye(4))


@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("n_blocks", [1, 4])
def test_to_dense_matches_blockwise_assembly(ell, n_blocks):
    rng = np.random.default_rng(ell * 10 + n_blocks)
    diag = [rng.standard_normal((ell, ell)) for _ in range(n_blocks)]
    diag = [d + d.T for d in diag]
    off = [rng.standard_normal((ell, ell)) for _ in range(n_blocks - 1)]
    ref = np.zeros((n_blocks * ell, n_blocks * ell))
    for i, blk in enumerate(diag):
        ref[i * ell:(i + 1) * ell, i * ell:(i + 1) * ell] = blk
    for i, blk in enumerate(off):
        ref[(i + 1) * ell:(i + 2) * ell, i * ell:(i + 1) * ell] = blk
        ref[i * ell:(i + 1) * ell, (i + 1) * ell:(i + 2) * ell] = blk.T
    assert np.array_equal(block_tridiagonal(diag, off).to_dense(), ref)


@pytest.mark.parametrize("shape", [(6,), (1, 6), (5, 6), (3, 7)])
def test_band_shape_is_checked(shape):
    # block size 2: a band needs 2 to 4 rows and whole block columns
    with pytest.raises(DimensionMismatchError):
        BlockTridiagonal(2, np.zeros(shape))
