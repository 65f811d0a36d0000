import numpy as np
import pytest
import scipy.sparse as sp

from krymat import (
    DeflationUnsupportedError,
    DimensionMismatchError,
    SparseOperator,
    extended_step,
    init_basis,
    lanczos_step,
)
from krymat.basis import mgs_twice
from krymat.problems import gen_fd2d, laplacian1d


def _diag_op(values):
    return SparseOperator(sp.diags(values).tocsr())


def _full_basis(basis, m):
    return np.concatenate(basis.stored[:m], axis=1)


def _mgs_twice_matmul(w, older, current):
    """mgs_twice with every block product written as a matmul."""
    diag_sum = np.zeros((current.shape[1], w.shape[1]))
    for _ in range(2):
        if older is not None:
            w = w - older @ (older.T @ w)
        alpha = current.T @ w
        diag_sum += alpha
        w = w - current @ alpha
    return w, diag_sum


@pytest.mark.parametrize("with_older", [False, True])
@pytest.mark.parametrize("width", [1, 2])
def test_mgs_twice_on_one_column_blocks_matches_matmul(with_older, width):
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((300, 2)))[0]
    older, current = (q[:, :1] if with_older else None), q[:, 1:]
    w = rng.standard_normal((300, width))
    got, want = mgs_twice(w, older, current), _mgs_twice_matmul(w, older, current)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestInitBasis:
    def test_canonical_vector(self):
        op = _diag_op([-1.0, -2, -3, -4, -5])
        c = np.zeros((5, 1))
        c[0] = 1.0
        basis = init_basis(op, c)
        v1 = basis.stored[0]
        assert np.allclose(v1, c)
        assert np.allclose(basis.gamma, [[1.0]])

    def test_gamma_is_column_norm(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((8, 1))
        c /= np.linalg.norm(c)
        op = _diag_op(-np.arange(1.0, 9.0))
        basis = init_basis(op, c)
        assert np.isclose(basis.gamma[0, 0], 1.0)

    def test_extended_collinear_start_is_breakdown(self):
        op = _diag_op([-1.0] * 5)
        c = np.zeros((5, 1))
        c[0] = 1.0
        with pytest.raises(DeflationUnsupportedError):
            init_basis(op, c, space="extended")

    def test_rank_deficient_rhs_rejected(self):
        op = _diag_op([-1.0, -2, -3])
        c = np.ones((3, 2))  # two identical columns
        with pytest.raises(DeflationUnsupportedError):
            init_basis(op, c)


class TestLanczosStep:
    def test_hand_computed_first_diagonal_block(self):
        op = _diag_op([-1.0, -2.0])
        c = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        basis = init_basis(op, c)
        lanczos_step(op, basis)
        assert np.allclose(basis.projected_matrix().to_dense(), [[-1.5]])

    def test_invariant_subspace_breakdown(self):
        # A c = -c: the first step finds the space invariant and finalizes
        # the projection with a zero coupling block instead of breaking down
        op = _diag_op([-1.0] * 4)
        c = np.zeros((4, 1))
        c[0] = 1.0
        basis = init_basis(op, c)
        lanczos_step(op, basis)
        assert basis.exhausted
        assert np.array_equal(basis.coupling(), np.zeros((1, 1)))
        assert np.array_equal(basis.projected_matrix().to_dense(), [[-1.0]])
        with pytest.raises(DeflationUnsupportedError):
            lanczos_step(op, basis)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_projection_taken_earlier_does_not_grow(self, space):
        op = SparseOperator(laplacian1d(40))
        c = np.random.default_rng(11).standard_normal((40, 2))
        step = lanczos_step if space == "standard" else extended_step
        basis = init_basis(op, c, space=space)
        for _ in range(3):
            step(op, basis)
        t = basis.projected_matrix()
        before = t.to_dense().copy()
        step(op, basis)
        assert t.dim // t.block_size == 3
        assert np.array_equal(t.to_dense(), before)
        assert basis.projected_matrix().dim // t.block_size == 4
        # a view taken before the band's capacity doubles (from 8 steps to
        # 16) keeps the old array, which still holds its T
        for _ in range(5):
            step(op, basis)
        assert basis.projected_matrix().band.base is not t.band.base
        assert np.array_equal(t.to_dense(), before)
        assert np.array_equal(basis.projected_matrix(3).to_dense(), before)

    def test_only_completed_steps_can_be_read(self):
        op = SparseOperator(laplacian1d(20))
        basis = init_basis(op, np.ones((20, 1)))
        for m in (0, 1):
            with pytest.raises(DimensionMismatchError):
                basis.projected_matrix(m)
        lanczos_step(op, basis)
        for m in (0, 2):
            with pytest.raises(DimensionMismatchError):
                basis.projected_matrix(m)
            with pytest.raises(DimensionMismatchError):
                basis.coupling(m)
        assert basis.projected_matrix(1).dim == 1

    def test_projection_identity_stored_mode(self):
        # 1-D Laplacian of order 200, block width 2, ten steps
        op = SparseOperator(laplacian1d(200))
        rng = np.random.default_rng(4)
        c = rng.standard_normal((200, 2))
        basis = init_basis(op, c, storage="stored")
        for _ in range(10):
            lanczos_step(op, basis)
        m = basis.n_t_blocks
        v = _full_basis(basis, m)
        assert np.linalg.norm(v.T @ v - np.eye(v.shape[1])) <= 1e-10
        t = basis.projected_matrix().to_dense()
        proj = v.T @ (op.apply(v))
        assert np.linalg.norm(proj - t) <= 1e-10 * np.linalg.norm(proj)
        assert np.linalg.eigvalsh(t)[-1] < 0.0
        # the coupling block continues the projection into the next block
        v_next = basis.stored[m]
        coupling = v_next.T @ op.apply(basis.stored[m - 1])
        assert np.allclose(coupling, basis.coupling(), atol=1e-10)

    def test_windowed_mode_peak_storage(self):
        op = SparseOperator(laplacian1d(100))
        rng = np.random.default_rng(5)
        c = rng.standard_normal((100, 3))
        basis = init_basis(op, c, storage="windowed")
        for _ in range(8):
            lanczos_step(op, basis)
        assert basis.peak_vectors == 3 * 3

    def test_determinism(self):
        op = SparseOperator(laplacian1d(50))
        rng = np.random.default_rng(6)
        c = rng.standard_normal((50, 2))
        runs = []
        for _ in range(2):
            basis = init_basis(op, c.copy(), storage="stored")
            for _ in range(6):
                lanczos_step(op, basis)
            runs.append(np.concatenate(basis.stored, axis=1))
        assert np.array_equal(runs[0], runs[1])


class TestExtendedStep:
    def test_first_block_projection(self):
        op = _diag_op([-1.0, -2.0, -4.0, -8.0])
        rng = np.random.default_rng(2)
        c = rng.standard_normal((4, 1))
        basis = init_basis(op, c, space="extended", storage="stored")
        extended_step(op, basis)
        v1 = basis.stored[0]
        explicit = v1.T @ op.apply(v1)
        assert np.allclose(basis.projected_matrix().to_dense(), explicit, atol=1e-12)

    def test_identity_direction_collision(self):
        op = _diag_op([-1.0] * 6)
        rng = np.random.default_rng(3)
        c = rng.standard_normal((6, 1))
        with pytest.raises(DeflationUnsupportedError):
            init_basis(op, c, space="extended")

    @pytest.mark.parametrize("space, s", [
        pytest.param("extended", s, id=str(s)) for s in (1, 2, 3)
    ] + [
        pytest.param("standard", s, id="standard-%d" % s) for s in (1, 2, 3)
    ])
    def test_projection_identity_2d_laplacian(self, space, s):
        # order 400 (20 x 20 grid), five steps
        op = SparseOperator(gen_fd2d("laplacian2d", 20))
        rng = np.random.default_rng(7)
        c = rng.standard_normal((400, s))
        step = extended_step if space == "extended" else lanczos_step
        basis = init_basis(op, c, space=space, storage="stored")
        for _ in range(5):
            step(op, basis)
        m = basis.n_t_blocks
        v = _full_basis(basis, m)
        t = basis.projected_matrix()
        ell, k = basis.ell, t.dim
        assert t.band.shape[0] == ell + 1
        # past row k the view holds the coupling block to the next basis
        # block, which T excludes
        lower = np.zeros((k + ell, k))
        for i in range(ell + 1):
            lower[np.arange(k) + i, np.arange(k)] = t.band[i]
        assert np.array_equal(lower[k:, k - ell:], basis.coupling())
        proj = v.T @ op.apply(v)
        assert np.linalg.norm(proj - t.to_dense()) <= 1e-9 * np.linalg.norm(proj)
        # structural invariants that keep T in a band of ell + 1 rows: every
        # coupling block is upper triangular, and in extended mode its lower
        # s rows are exact zeros, also long after orthogonality is lost
        windowed = init_basis(op, c, space=space, storage="windowed")
        for b in (basis, windowed):
            while b.n_t_blocks < 30:
                step(op, b)
                coupling = b.coupling()
                assert not np.tril(coupling, -1).any()
                if space == "extended":
                    assert np.array_equal(coupling[s:], np.zeros((s, 2 * s)))

    def test_coupling_block_against_explicit(self):
        op = SparseOperator(laplacian1d(120))
        rng = np.random.default_rng(8)
        c = rng.standard_normal((120, 2))
        basis = init_basis(op, c, space="extended", storage="stored")
        for _ in range(4):
            extended_step(op, basis)
        m = basis.n_t_blocks
        v_next = basis.stored[m]
        explicit = v_next.T @ op.apply(basis.stored[m - 1])
        assert np.allclose(explicit, basis.coupling(), atol=1e-9)
        # the nonzero part is the upper s x 2s slice
        assert np.allclose(basis.coupling()[2:, :], 0.0)
        assert np.allclose(basis.coupling_upper(), basis.coupling()[:2, :])

    def test_invariant_space_is_exhausted(self):
        # order 6 and block size 2: the third step spans the whole space
        op = SparseOperator(laplacian1d(6))
        c = np.random.default_rng(12).standard_normal((6, 1))
        basis = init_basis(op, c, space="extended", storage="stored")
        for _ in range(3):
            extended_step(op, basis)
        assert basis.exhausted
        assert np.array_equal(basis.coupling(), np.zeros((2, 2)))
        v = _full_basis(basis, 3)
        proj = v.T @ op.apply(v)
        t = basis.projected_matrix().to_dense()
        assert np.linalg.norm(proj - t) <= 1e-12 * np.linalg.norm(proj)
        with pytest.raises(DeflationUnsupportedError):
            extended_step(op, basis)

    def test_local_orthogonality_windowed(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 12))
        rng = np.random.default_rng(9)
        c = rng.standard_normal((144, 2))
        basis = init_basis(op, c, space="extended", storage="windowed")
        for _ in range(5):
            extended_step(op, basis)
        older, current = basis.last_two()
        gram = np.hstack([older, current])
        gram = gram.T @ gram
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) <= 1e-10


def test_global_orthogonality_moderate_run():
    op = SparseOperator(gen_fd2d("laplacian2d", 16))
    rng = np.random.default_rng(10)
    c = rng.standard_normal((256, 2))
    basis = init_basis(op, c, storage="stored")
    for _ in range(40):
        lanczos_step(op, basis)
    v = _full_basis(basis, 40)
    assert np.linalg.norm(v.T @ v - np.eye(80)) <= 1e-8


# (n, s, space) whose bases keep orthogonality up to n columns, where the
# block left at k = n is rounding: stepping on would add columns of noise
@pytest.mark.parametrize("n, s, space", [
    (16, 2, "standard"), (16, 2, "extended"), (20, 2, "standard"),
    (20, 2, "extended"), (40, 1, "standard"), (40, 2, "standard"),
])
def test_basis_stops_at_the_order(n, s, space):
    op = SparseOperator(laplacian1d(n))
    step = lanczos_step if space == "standard" else extended_step
    for seed in range(10):
        basis = init_basis(op, np.random.default_rng(seed).random((n, s)), space=space)
        while not basis.exhausted and basis.n_t_blocks * basis.ell <= n:
            step(op, basis)
        assert basis.exhausted and basis.n_t_blocks * basis.ell == n, seed
        v = np.concatenate(basis.stored, axis=1)  # no block past the order
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-6
        proj = v.T @ op.apply(v)
        t = basis.projected_matrix().to_dense()
        assert np.linalg.norm(proj - t) <= 1e-6 * np.linalg.norm(proj)


def test_basis_that_lost_orthogonality_runs_past_the_order():
    # a geometric spectrum loses orthogonality long before 40 steps: the
    # block left at k = n is not rounding, so the recurrence runs on, as
    # Lanczos does, rather than claim an exact projection
    op = _diag_op(-np.geomspace(0.1, 1e3, 40))
    basis = init_basis(op, np.random.default_rng(1).standard_normal((40, 1)))
    for _ in range(45):
        lanczos_step(op, basis)
    assert not basis.exhausted and basis.n_t_blocks == 45
