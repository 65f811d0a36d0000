"""The projected residual evaluation against the full dense reference.

These are the theorem-level tests: for every valid input the cheap path and
the solve-then-evaluate path must produce the same number to near machine
precision.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import krymat.residual
from krymat import (
    BlockTridiagonal,
    FactorizationError,
    IndefiniteMatrixError,
    SparseOperator,
    ctri_lyapunov,
    ctri_sylvester,
    extended_step,
    init_basis,
    lanczos_step,
    partial_eig_blocktridiag,
    sym_tridiag_eig,
)
from krymat.kernels import band_tridiagonalize
from krymat.problems import gen_fd2d, gen_rhs

from conftest import (
    block_tridiagonal,
    count_calls,
    lanczos_block_tridiagonal,
    naive_residual_norm,
    random_block_tridiagonal,
    reduced_solve,
    refined_reduced_lyapunov,
)


def _scalar_bt(value):
    return block_tridiagonal([np.array([[value]])], [])


class TestCtriLyapunov:
    def test_scalar(self):
        # -2y + 1 = 0 gives y = 1/2, residual sqrt(2) * t / 2
        for t in (1.0, 0.25):
            rv = ctri_lyapunov(_scalar_bt(-1.0), np.array([[1.0]]), np.array([[t]]))
            assert np.isclose(rv.res, np.sqrt(2.0) * t / 2.0)
            assert np.isclose(rv.relative, rv.res)

    def test_rhs_confined_to_first_eigendirection(self):
        t = block_tridiagonal(
            [np.array([[-1.0]]), np.array([[-2.0]])], [np.array([[0.0]])]
        )
        rv = ctri_lyapunov(t, np.array([[1.0]]), np.array([[0.7]]))
        assert rv.res <= 1e-14

    @pytest.mark.parametrize("s,m,general", [
        (1, 12, False), (2, 10, False), (4, 6, False), (2, 14, True),
    ])
    def test_matches_naive_path(self, s, m, general):
        rng = np.random.default_rng(100 * s + m)
        t, tau = lanczos_block_tridiagonal(rng, s, m, general)
        gamma = rng.standard_normal((s, s))
        fast = ctri_lyapunov(t, gamma, tau)
        ref = naive_residual_norm(reduced_solve(t, t, gamma, gamma), tau, tau)
        assert abs(fast.res - ref) <= 1e-11 * ref

    def test_scale_covariance(self):
        # scaling C by alpha scales the residual by alpha^2
        rng = np.random.default_rng(42)
        t = random_block_tridiagonal(rng, 2, 5)
        gamma = rng.standard_normal((2, 2))
        tau = rng.standard_normal((2, 2))
        base = ctri_lyapunov(t, gamma, tau)
        scaled = ctri_lyapunov(t, 3.0 * gamma, tau)
        assert np.isclose(scaled.res, 9.0 * base.res, rtol=1e-12)
        assert np.isclose(scaled.relative, base.relative, rtol=1e-12)

    def test_indefinite_rejected(self):
        t = block_tridiagonal(
            [np.array([[-1.0]]), np.array([[1.0]])], [np.array([[0.0]])]
        )
        with pytest.raises(IndefiniteMatrixError):
            ctri_lyapunov(t, np.array([[1.0]]), np.array([[1.0]]))

    def test_nonnegative(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            t = random_block_tridiagonal(rng, 2, 4)
            rv = ctri_lyapunov(
                t, rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            )
            assert rv.res >= 0.0


class TestCtriSylvester:
    def test_scalar(self):
        a, b = 0.8, 0.3
        rv = ctri_sylvester(
            _scalar_bt(-1.0), _scalar_bt(-2.0),
            np.array([[1.0]]), np.array([[1.0]]),
            np.array([[a]]), np.array([[b]]),
        )
        assert np.isclose(rv.res, np.hypot(a, b) / 3.0)

    def test_symmetric_instance_reduces_to_lyapunov(self):
        rng = np.random.default_rng(55)
        t = random_block_tridiagonal(rng, 2, 6)
        gamma = rng.standard_normal((2, 2))
        tau = rng.standard_normal((2, 2))
        sylv = ctri_sylvester(t, t, gamma, gamma, tau, tau)
        lyap = ctri_lyapunov(t, gamma, tau)
        # res_sylv^2 = 2 * (one-sided term)^2 = res_lyap^2
        assert np.isclose(sylv.res, lyap.res, rtol=1e-12)

    @pytest.mark.parametrize("s,m", [(1, 8), (2, 6), (2, 15)])
    def test_matches_naive_path(self, s, m):
        rng = np.random.default_rng(10 * s + m)
        t, tau = lanczos_block_tridiagonal(rng, s, m)
        j, iota = lanczos_block_tridiagonal(rng, s, m)
        g1 = rng.standard_normal((s, s))
        g2 = rng.standard_normal((s, s))
        fast = ctri_sylvester(t, j, g1, g2, tau, iota)
        ref = naive_residual_norm(reduced_solve(t, j, g1, g2), tau, iota)
        assert abs(fast.res - ref) <= 1e-11 * ref

    def test_scale_covariance_in_c1(self):
        rng = np.random.default_rng(60)
        t = random_block_tridiagonal(rng, 2, 5)
        j = random_block_tridiagonal(rng, 2, 5)
        g1, g2, tau, iota = (rng.standard_normal((2, 2)) for _ in range(4))
        base = ctri_sylvester(t, j, g1, g2, tau, iota)
        scaled = ctri_sylvester(t, j, 2.5 * g1, g2, tau, iota)
        assert np.isclose(scaled.res, 2.5 * base.res, rtol=1e-12)


class TestResidualOneSided:
    def test_scalar(self):
        # T = [-1], B = [-2]: Y = 1/3, res = tau / 3 (no sqrt(2) factor)
        one = np.array([[1.0]])  # P, gamma1 and P^T C2
        rv = ctri_sylvester(
            _scalar_bt(-1.0), (np.array([-2.0]), one), one, one, np.array([[0.6]]),
            rhs_norm=1.0,
        )
        assert np.isclose(rv.res, 0.6 / 3.0)
        assert rv.relative == rv.res

    def test_single_column_matches_sylvester_structure(self):
        rng = np.random.default_rng(31)
        t = random_block_tridiagonal(rng, 1, 5)
        gamma1 = np.array([[1.3]])
        c2 = np.array([[0.8]])
        tau = np.array([[0.45]])
        ups = np.array([-2.2])
        rv = ctri_sylvester(t, (ups, np.eye(1)), gamma1, c2, tau, rhs_norm=1.3 * 0.8)
        # same quantity through the dense one-sided solve
        y = reduced_solve(t, np.diag(ups), gamma1, c2)
        assert np.isclose(rv.res, naive_residual_norm(y, tau), rtol=1e-12)

    @pytest.mark.parametrize("s,m,n2", [(2, 5, 7), (1, 9, 4), (2, 16, 6)])
    def test_matches_naive_path(self, s, m, n2):
        rng = np.random.default_rng(1000 + 10 * s + n2)
        t, _ = lanczos_block_tridiagonal(rng, s, m)
        w = rng.standard_normal((n2, n2))
        b = -(w @ w.T) - np.eye(n2)
        ups, p = np.linalg.eigh(b)
        gamma1 = rng.standard_normal((s, s))
        c2 = rng.standard_normal((n2, s))
        tau = rng.standard_normal((s, s))
        rhs_norm = np.linalg.norm(gamma1) * np.linalg.norm(c2)
        fast = ctri_sylvester(t, (ups, p), gamma1, p.T @ c2, tau, rhs_norm=rhs_norm)
        ref = naive_residual_norm(reduced_solve(t, b, gamma1, c2), tau)
        assert abs(fast.res - ref) <= 1e-11 * ref
        assert fast.relative == fast.res / rhs_norm

    @pytest.mark.parametrize("s,m,n2", [(1, 9, 4), (2, 12, 6), (3, 8, 5)])
    def test_one_formula_for_both_forms_of_b(self, s, m, n2):
        # B's exact eigenpairs as the second side give what the two-sided
        # check gives with J = diag(ups) as one block and a zero coupling
        rng = np.random.default_rng(1100 + 10 * s + n2)
        t, tau = lanczos_block_tridiagonal(rng, s, m)
        w = rng.standard_normal((n2, n2))
        ups, p = np.linalg.eigh(-(w @ w.T) - np.eye(n2))
        gamma1 = rng.standard_normal((s, s))
        c2 = rng.standard_normal((n2, s))
        j = BlockTridiagonal(n2, np.vstack([ups, np.zeros(n2)]))
        one = ctri_sylvester(t, (ups, p), gamma1, p.T @ c2, tau)
        two = ctri_sylvester(t, j, gamma1, p.T @ c2, tau, np.zeros((n2, n2)))
        assert abs(one.res - two.res) <= 1e-13 * two.res
        assert np.linalg.norm(one.y - two.y) <= 1e-13 * np.linalg.norm(two.y)
        # the default normalization ||gamma1|| ||P^T C2|| is ||C1|| ||C2||
        rhs_norm = np.linalg.norm(gamma1) * np.linalg.norm(c2)
        assert one.relative == pytest.approx(one.res / rhs_norm, rel=1e-14)


def test_extended_shortcut_zero_lower_block():
    # with a coupling block whose lower half is zero, passing only the upper
    # part must give the same residual
    rng = np.random.default_rng(71)
    s = 2
    t = random_block_tridiagonal(rng, 2 * s, 5)
    gamma = np.zeros((2 * s, s))
    gamma[:s, :s] = rng.standard_normal((s, s))
    tau_full = np.zeros((2 * s, 2 * s))
    tau_full[:s, :] = rng.standard_normal((s, 2 * s))
    full = ctri_lyapunov(t, gamma, tau_full)
    short = ctri_lyapunov(t, gamma, tau_full[:s, :])
    assert abs(full.res - short.res) <= 1e-13 * max(full.res, 1e-30)


def _householder_eig(t):
    """The eigendecomposition through the dense Householder reduction and
    the tridiagonal eigensolver, the reference for the LAPACK banded path."""
    d, e, p = band_tridiagonalize(t)
    lam, g = sym_tridiag_eig(d, e)
    return lam, p @ g


def _banded_and_householder(monkeypatch, evaluate):
    """``evaluate()`` through the library's eigendecomposition and again
    through the Householder reference."""
    banded = evaluate().res
    with monkeypatch.context() as patch:
        patch.setattr(krymat.residual, "partial_eig_blocktridiag", _householder_eig)
        householder = evaluate().res
    return banded, householder


def _clustered_spectrum():
    # 20 values, each repeated four times up to a relative 3e-13: the
    # projections then hold dozens of eigenvalue pairs closer than 1e-12
    centres = -np.geomspace(0.1, 1e3, 20)
    return np.concatenate([centres * (1.0 + 1e-13 * j) for j in range(4)])


def _projection(case):
    """(T, gamma, tau, the bandwidth of T's band)."""
    kind, s, general = case
    rng = np.random.default_rng(300 + 10 * s + general)
    if kind == "lanczos":
        t, tau = lanczos_block_tridiagonal(rng, s, {2: 20, 3: 14, 4: 10}[s], general)
        return t, rng.standard_normal((s, s)), tau, 2 * s - 1 if general else s
    if kind == "clustered":
        t, tau = lanczos_block_tridiagonal(rng, s, 25, spectrum=_clustered_spectrum())
        lam = np.linalg.eigvalsh(t.to_dense())
        assert np.min(np.diff(lam) / np.abs(lam[1:])) < 1e-12
        return t, rng.standard_normal((s, s)), tau, s
    op = SparseOperator(gen_fd2d("fd2d-exp", 12))
    basis = init_basis(op, gen_rhs(144, s, seed=s), space="extended")
    # five steps keep the residual (~3e-5) well above the cancellation
    # floor of the dense reference
    for _ in range(5):
        extended_step(op, basis)
    t = basis.projected_matrix()
    assert t.block_size == 2 * s
    return t, basis.gamma, basis.coupling_upper(), 2 * s


@pytest.mark.parametrize("space", ["standard", "extended"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_lyapunov_reduced_solution_is_exactly_symmetric(space, s):
    # numpy forms u @ u.T by a symmetric rank-k update, so -Ytilde comes out
    # symmetric to the last bit and the factor takes it as it is
    op = SparseOperator(gen_fd2d("fd2d-exp", 12))
    basis = init_basis(op, gen_rhs(144, s, seed=s), space=space)
    step = lanczos_step if space == "standard" else extended_step
    for _ in range(8):
        step(op, basis)
        rv = ctri_lyapunov(basis.projected_matrix(), basis.gamma, basis.coupling_upper())
        assert np.array_equal(rv.y, rv.y.T)


class TestBandedPath:
    """Projections of bandwidth 2 or more go to one LAPACK banded
    eigensolve.  Eigenvector rows are not unique inside clusters, so the
    residual values are compared: against the Householder reference and
    against the dense reduced solve."""

    @pytest.mark.parametrize("case", [
        ("lanczos", 2, False), ("lanczos", 3, False), ("lanczos", 4, False),
        ("lanczos", 2, True), ("lanczos", 3, True), ("lanczos", 4, True),
        ("extended", 2, False), ("clustered", 2, False),
    ], ids=lambda case: "%s-s%d%s" % (case[0], case[1], "-general" * case[2]))
    def test_lyapunov_matches_references(self, monkeypatch, case):
        t, gamma, tau, bandwidth = _projection(case)
        assert t.band.shape[0] == bandwidth + 1
        banded, householder = _banded_and_householder(
            monkeypatch, lambda: ctri_lyapunov(t, gamma, tau))
        dense = naive_residual_norm(reduced_solve(t, t, gamma, gamma), tau, tau)
        assert abs(banded - householder) <= 1e-10 * householder
        assert abs(banded - dense) <= 1e-10 * dense

    def test_sylvester_matches_references(self, monkeypatch):
        rng = np.random.default_rng(410)
        t, tau = lanczos_block_tridiagonal(rng, 3, 12, general=True)
        j, iota = lanczos_block_tridiagonal(rng, 3, 12)
        g1, g2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        banded, householder = _banded_and_householder(
            monkeypatch, lambda: ctri_sylvester(t, j, g1, g2, tau, iota))
        dense = naive_residual_norm(reduced_solve(t, j, g1, g2), tau, iota)
        assert abs(banded - householder) <= 1e-10 * householder
        assert abs(banded - dense) <= 1e-10 * dense

    def test_one_sided_matches_references(self, monkeypatch):
        rng = np.random.default_rng(420)
        t, tau = lanczos_block_tridiagonal(rng, 2, 18, general=True)
        w = rng.standard_normal((5, 5))
        b = -(w @ w.T) - np.eye(5)
        ups, p = np.linalg.eigh(b)
        gamma1 = rng.standard_normal((2, 2))
        c2 = rng.standard_normal((5, 2))
        banded, householder = _banded_and_householder(
            monkeypatch, lambda: ctri_sylvester(
                t, (ups, p), gamma1, p.T @ c2, tau,
                rhs_norm=np.linalg.norm(gamma1) * np.linalg.norm(c2)))
        dense = naive_residual_norm(reduced_solve(t, b, gamma1, c2), tau)
        assert abs(banded - householder) <= 1e-10 * householder
        assert abs(banded - dense) <= 1e-10 * dense


def test_banded_eigensolver_failure_is_typed(monkeypatch):
    def no_convergence(ab, *args, **kwargs):
        k = ab.shape[1]
        return np.zeros(k), np.zeros((k, k)), 2

    monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", no_convergence)
    rng = np.random.default_rng(430)
    t, tau = lanczos_block_tridiagonal(rng, 2, 6)
    with pytest.raises(FactorizationError, match="banded eigensolver") as info:
        ctri_lyapunov(t, rng.standard_normal((2, 2)), tau)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert "info=2" in str(info.value.__cause__)
    # bandwidth 1 never reaches the banded solver
    t, tau = lanczos_block_tridiagonal(rng, 1, 12)
    assert ctri_lyapunov(t, np.array([[1.0]]), tau).res > 0.0


def test_tridiagonal_eigensolver_failure_is_typed(monkeypatch):
    def no_convergence(d, e, *args, **kwargs):
        return d.copy(), np.zeros((d.size, d.size)), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", no_convergence)
    rng = np.random.default_rng(440)
    t, tau = lanczos_block_tridiagonal(rng, 1, 12)
    with pytest.raises(FactorizationError, match="tridiagonal eigensolver") as info:
        ctri_lyapunov(t, np.array([[1.0]]), tau)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert "info=3" in str(info.value.__cause__)


@pytest.mark.parametrize("kind", ["lyapunov-s1", "lyapunov-s2", "two-sided", "one-sided"])
def test_check_is_one_lapack_call_per_projection_without_a_sign_pass(monkeypatch, kind):
    # the residual norm does not depend on the eigenvector signs, so a check
    # takes LAPACK's eigenvectors as they come, through no scipy wrapper
    calls = Counter()
    for name in ("dstevd", "dsbevd"):
        count_calls(monkeypatch, calls, scipy.linalg.lapack, name)
    count_calls(monkeypatch, calls, scipy.linalg, "eig_banded")
    rng = np.random.default_rng(450)
    t, tau = lanczos_block_tridiagonal(rng, 1 if kind == "lyapunov-s1" else 2, 8)
    gamma = rng.standard_normal((t.block_size, t.block_size))
    if kind.startswith("lyapunov"):
        ctri_lyapunov(t, gamma, tau)
    elif kind == "two-sided":
        j, iota = lanczos_block_tridiagonal(rng, 1, 16)
        ctri_sylvester(t, j, gamma, rng.standard_normal((1, 2)), tau, iota)
    else:
        ctri_sylvester(t, (-np.arange(1.0, 4.0), np.eye(3)), gamma,
                       rng.standard_normal((3, 2)), tau, rhs_norm=1.0)
    # T is tridiagonal at s = 1 and J always; T is banded otherwise
    assert calls == {"lyapunov-s1": {"dstevd": 1}, "two-sided": {"dsbevd": 1, "dstevd": 1}
                     }.get(kind, {"dsbevd": 1})


def test_long_lanczos_chain_with_ghost_clusters():
    # 320 steps of the library's own Lanczos, which reorthogonalizes only
    # against its window, on a geometric spectrum: converged extreme Ritz
    # values come back as ghost copies, so T holds eigenvalue clusters down
    # to zero separation, the hard case for tridiagonal eigensolvers
    n, k = 1000, 320
    op = SparseOperator(sp.diags(-np.geomspace(0.1, 1e3, n)).tocsr())
    basis = init_basis(op, np.random.default_rng(1).standard_normal((n, 1)),
                       storage="windowed")
    for _ in range(k):
        lanczos_step(op, basis)
    t, tau = basis.projected_matrix(), basis.coupling_upper()
    td = t.to_dense()
    lam = np.linalg.eigvalsh(td)
    assert np.min(np.diff(lam) / np.abs(lam[1:])) < 1e-14
    rv = ctri_lyapunov(t, basis.gamma, tau)
    # the reference carries the reduced solve beyond double precision: plain
    # Bartels-Stewart is off by about 1e-9 here, eps times the conditioning
    # over the residual's decay
    ref = float(naive_residual_norm(refined_reduced_lyapunov(t, basis.gamma), tau, tau))
    assert abs(rv.res - ref) <= 1e-10 * ref
    ((lam, q),) = rv.spectra
    assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12 * np.sqrt(k)
    assert np.linalg.norm(td @ q - q * lam) <= 1e-12 * np.linalg.norm(td)


@pytest.mark.parametrize("s", [1, 2])
def test_banded_eigensolve_matches_householder_on_ghost_clusters(s):
    # T of order 400 from the library's Lanczos on a geometric spectrum, as
    # above, with ghost clusters down to zero separation.  Eigenvectors
    # inside a cluster are not unique, so the first and last block rows are
    # compared column by column (sign-aligned) between clusters, and through
    # the cluster's projection R R^T inside one
    n, k = 1000, 400
    op = SparseOperator(sp.diags(-np.geomspace(0.1, 1e3, n)).tocsr())
    basis = init_basis(op, np.random.default_rng(1).standard_normal((n, s)),
                       storage="windowed")
    for _ in range(k // s):
        lanczos_step(op, basis)
    t = basis.projected_matrix()
    lam, q = partial_eig_blocktridiag(t)
    lam_ref, q_ref = _householder_eig(t)
    scale = np.max(np.abs(lam))
    assert np.min(np.diff(lam)) < 1e-14 * scale
    assert np.max(np.abs(lam - lam_ref)) <= 1e-13 * scale
    q_ref = q_ref * np.sign(np.sum(q * q_ref, axis=0))
    rows, rows_ref = (np.vstack([v[:s], v[-s:]]) for v in (q, q_ref))
    clusters = np.split(np.arange(k), np.flatnonzero(np.diff(lam) > 1e-8 * scale) + 1)
    assert max(c.size for c in clusters) > 1
    for c in clusters:
        r, r_ref = rows[:, c], rows_ref[:, c]
        if c.size == 1:
            assert np.max(np.abs(r - r_ref)) <= 1e-10
        else:
            assert np.max(np.abs(r @ r.T - r_ref @ r_ref.T)) <= 1e-12
