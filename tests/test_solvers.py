from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import krymat.residual
import krymat.solvers

from krymat import (
    AsymmetricMatrixError,
    ConvergenceError,
    DimensionMismatchError,
    IndefiniteMatrixError,
    KrylovBasis,
    KrymatError,
    LinearOperator,
    NonFiniteOperatorError,
    RecurrenceMismatchError,
    SolveOptions,
    SparseOperator,
    extended_step,
    init_basis,
    lanczos_step,
    solve_lyapunov,
    solve_sylvester_one_sided,
    solve_sylvester_two_sided,
    true_lyapunov_residual,
    truncated_spd_factor,
    two_pass_recover,
)
from krymat.problems import gen_fd2d, gen_rhs, laplacian1d
from krymat.residual import ctri_lyapunov, ctri_sylvester
from krymat.solvers import RECOVERY_COLUMNS

from conftest import (
    count_calls,
    dense_sylvester_residual,
    explicit_lyapunov_residual_ld,
    full_solve,
    refined_reduced_lyapunov,
)


def _diag_op(values):
    return SparseOperator(sp.diags(values).tocsr())


class _DriftingOperator(SparseOperator):
    """Scales the k-th product by 1 + 1e-6 (k - exact_calls) once k exceeds
    ``exact_calls``: a nondeterministic operator."""

    calls = 0
    exact_calls = 0

    def apply(self, v):
        self.calls += 1
        return (1.0 + 1e-6 * max(self.calls - self.exact_calls, 0)) * super().apply(v)


class _BrokenOperator(SparseOperator):
    """Returns ``value`` in entry (0, 0) of its ``bad_call``-th ``method``
    ("apply" or "solve") result, counting from 1."""

    def __init__(self, a, method, bad_call, value):
        super().__init__(a)
        self.method, self.bad_call, self.value, self.calls = method, bad_call, value, 0

    def _spoil(self, method, out):
        if method == self.method:
            self.calls += 1
            if self.calls == self.bad_call:
                out = out.copy()
                out[0, 0] = self.value
        return out

    def apply(self, v):
        return self._spoil("apply", super().apply(v))

    def solve(self, v):
        return self._spoil("solve", super().solve(v))


def _first_pass(op, c, space, storage, m):
    step = lanczos_step if space == "standard" else extended_step
    basis = init_basis(op, c, space=space, storage=storage)
    for _ in range(m):
        step(op, basis)
    return basis


def _stored_and_two_pass(op, c, space, m, storage="windowed"):
    """V Q Ycheck after m steps as one product with the stored basis, Z
    recovered by the library from a basis built with ``storage``, and that
    basis."""
    stored = _first_pass(op, c, space, "stored", m)
    basis = _first_pass(op, c, space, storage, m)
    lam, q = np.linalg.eigh(stored.projected_matrix().to_dense())
    u = q[:stored.ell, :].T @ stored.gamma
    ytilde = -(u @ u.T) / (lam[:, None] + lam[None, :])
    qy = q @ truncated_spd_factor(0.5 * (ytilde + ytilde.T))[0]
    z_stored = np.concatenate(stored.stored[:m], axis=1) @ qy
    return z_stored, two_pass_recover(op, basis, qy), basis


class TestSolveLyapunov:
    def test_invariant_rhs_converges_immediately(self):
        op = _diag_op([-1.0] * 6)
        c = np.zeros((6, 1))
        c[0] = 1.0
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-10, max_m=5))
        assert sol.iterations == 1
        x = sol.z @ sol.z.T
        expected = np.zeros((6, 6))
        expected[0, 0] = 0.5
        assert np.allclose(x, expected, atol=1e-12)
        assert sol.final_residual <= 1e-12

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(3)
        vals = -np.exp(rng.uniform(0.0, 3.0, 60))
        op = _diag_op(vals)
        c = gen_rhs(60, 1, seed=1)
        tol = 1e-8
        sol = solve_lyapunov(op, c, SolveOptions(tol=tol, max_m=60))
        x_ref = full_solve(np.diag(vals), np.diag(vals), c, c)
        err = np.linalg.norm(sol.z @ sol.z.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c @ c.T)

    def test_residual_history_matches_true_residual(self):
        # the recorded cheap residuals are the true residual norms; the
        # explicit oracle runs in extended precision since forming the
        # residual matrix cancels ~ ||A|| ||X|| down to the residual size
        a = gen_fd2d("laplacian2d", 8)  # order 64
        op = SparseOperator(a)
        c = gen_rhs(64, 1, seed=2)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=64))
        ad = a.toarray()
        basis = init_basis(op, c, storage="stored")
        recorded = dict((m, rel) for m, _, rel, _, _ in sol.history)
        beta2 = float(np.linalg.norm(c) ** 2)
        for m in range(1, sol.iterations + 1):
            lanczos_step(op, basis)
            if m not in recorded:
                continue
            y = refined_reduced_lyapunov(basis.projected_matrix(), basis.gamma)
            v = np.concatenate(basis.stored[:m], axis=1)
            truth = explicit_lyapunov_residual_ld(ad, v, y, c) / beta2
            assert abs(recorded[m] - truth) <= 1e-8 * truth

    def test_verify_flag_reports_true_residual(self):
        # audit-grade agreement at a modest tolerance; the QR-based check
        # also holds far below it (next test)
        op = SparseOperator(gen_fd2d("laplacian2d", 8))
        c = gen_rhs(64, 2, seed=3)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-4, max_m=80, verify=True))
        assert sol.verified_residual is not None
        assert abs(sol.verified_residual - sol.final_residual) \
            <= 1e-4 * sol.final_residual + 1e-10

    def test_verify_holds_above_order_20000(self):
        # the QR form's memory is linear in n, so no order is left unverified
        n = 20001
        op = SparseOperator(-sp.diags(np.linspace(1.0, 2.0, n)).tocsr())
        c = gen_rhs(n, 1, seed=5)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-8, max_m=40, verify=True))
        assert sol.verified_residual is not None
        assert abs(sol.verified_residual - sol.final_residual) \
            <= 1e-3 * sol.final_residual

    # the Gram-matrix form this replaced floored near sqrt(eps): at 1e-10
    # and 1e-12 it read 0
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_verified_residual_matches_dense(self, tol):
        a = gen_fd2d("fd2d-exp", 8)
        c = gen_rhs(64, 2, seed=8)
        sol = solve_lyapunov(SparseOperator(a), c,
                             SolveOptions(tol=tol, max_m=64, verify=True))
        al, zl, cl = (m.astype(np.longdouble) for m in (a.toarray(), sol.z, c))
        x = zl @ zl.T
        dense = float(np.linalg.norm(al @ x + x @ al + cl @ cl.T)) \
            / np.linalg.norm(c) ** 2
        assert abs(sol.verified_residual - dense) <= 1e-3 * dense

    def test_check_period_controls_history(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 8))
        c = gen_rhs(64, 1, seed=4)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=80, check_period=5))
        assert all(m % 5 == 0 for m, _, _, _, _ in sol.history)
        assert sol.iterations % 5 == 0

    def test_nonconvergence_raises_with_history(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 10))
        c = gen_rhs(100, 1, seed=5)
        with pytest.raises(ConvergenceError) as err:
            solve_lyapunov(op, c, SolveOptions(tol=1e-12, max_m=3))
        assert len(err.value.history) == 3

    def test_truncation_contract(self):
        op = SparseOperator(gen_fd2d("fd2d-exp", 8))
        c = gen_rhs(64, 2, seed=6)
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-9, max_m=64))
        assert sol.truncation_discarded <= 1e-12
        assert sol.rank <= sol.space_dim

    def test_extended_space_converges_faster(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 12))
        c = gen_rhs(144, 1, seed=7)
        std = solve_lyapunov(op, c, SolveOptions(tol=1e-8, max_m=144))
        ext = solve_lyapunov(
            op, c, SolveOptions(tol=1e-8, max_m=60, space="extended")
        )
        assert ext.iterations < std.iterations
        assert true_lyapunov_residual(op, ext.z, c) / np.linalg.norm(c) ** 2 <= 1e-7


class TestTwoPass:
    def test_single_step_recovery(self):
        op = _diag_op([-1.0] * 6)
        c = np.zeros((6, 1))
        c[0] = 1.0
        stored = solve_lyapunov(op, c, SolveOptions(tol=1e-10, max_m=5))
        windowed = solve_lyapunov(
            op, c, SolveOptions(tol=1e-10, max_m=5, storage="windowed")
        )
        assert np.allclose(stored.z, windowed.z, atol=1e-14)

    @pytest.mark.parametrize("s", [1, 3])
    def test_windowed_equals_stored_at_fixed_depth(self, s):
        op = SparseOperator(gen_fd2d("laplacian2d", 20))  # order 400
        z_stored, z_two_pass, windowed = _stored_and_two_pass(
            op, gen_rhs(400, s, seed=10 + s), "standard", 20)
        rel = np.linalg.norm(z_two_pass - z_stored) / np.linalg.norm(z_stored)
        assert rel <= 1e-12
        assert windowed.peak_vectors == 3 * s

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_peak_vectors_closed_form(self, space, storage):
        s = 2
        op = SparseOperator(gen_fd2d("fd2d-exp", 10))
        sol = solve_lyapunov(op, gen_rhs(100, s, seed=7),
                             SolveOptions(tol=1e-8, space=space, storage=storage))
        ell = s if space == "standard" else 2 * s
        # the check that met tol may lie past the stop: blocks V_1 .. V_m
        # were made, m one past the largest step checked
        m = max(row[0] for row in sol.history) + 1
        assert sol.iterations >= 2
        if storage == "stored":
            expected = ell * (m - 1)  # the in-flight block is not counted
        else:  # the window, and extended mode's retained half-blocks
            expected = 3 * ell + (m * s if space == "extended" else 0)
        assert sol.peak_basis_vectors == expected

    # m blocks fill the recovery workspace twice and end partway through it;
    # both storages recover through that workspace
    @pytest.mark.parametrize("storage, space, s, m", [
        ("windowed", "standard", 1, 70), ("windowed", "extended", 2, 21),
        ("stored", "standard", 1, 70), ("stored", "extended", 2, 21),
    ], ids=["standard-1-70", "extended-2-21",
            "stored-standard-1-70", "stored-extended-2-21"])
    def test_windowed_equals_stored_across_flushes(self, storage, space, s, m):
        per_flush = RECOVERY_COLUMNS // (s if space == "standard" else 2 * s)
        assert 2 * per_flush < m < 3 * per_flush
        op = SparseOperator(gen_fd2d("fd2d-exp", 20))  # order 400
        z_stored, z_two_pass, _ = _stored_and_two_pass(
            op, gen_rhs(400, s, seed=20 + s), space, m, storage)
        rel = np.linalg.norm(z_two_pass - z_stored) / np.linalg.norm(z_stored)
        assert rel <= 1e-12

    # the second pass reproduces a standard-space basis bit for bit, and both
    # storages add the same blocks to Z through the same workspace
    @pytest.mark.parametrize("s, m", [(1, 70), (2, 40), (3, 25)])
    def test_standard_windowed_z_is_stored_z_exactly(self, s, m):
        op = SparseOperator(gen_fd2d("fd2d-exp", 20))  # order 400
        c = gen_rhs(400, s, seed=40 + s)
        qy = np.random.default_rng(s).standard_normal((m * s, 7))
        stored, windowed = (
            two_pass_recover(op, _first_pass(op, c, "standard", storage, m), qy)
            for storage in ("stored", "windowed"))
        assert np.array_equal(windowed, stored)

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    def test_truncation_to_rank_zero(self, storage, monkeypatch):
        # a tail mass above ||Y||_F drops every eigenvalue: Z has no columns
        monkeypatch.setattr(krymat.solvers, "TRUNC_EPS", 1e300)
        op = SparseOperator(gen_fd2d("fd2d-exp", 20))
        sol = solve_lyapunov(op, gen_rhs(400, 1, seed=5), SolveOptions(storage=storage))
        assert sol.rank == 0 and sol.z.shape == (400, 0)

    # the drift starts at a block in the middle of the second workspace fill
    @pytest.mark.parametrize("space, s, m, drift_step", [
        ("standard", 1, 70, 41), ("extended", 2, 21, 13),
    ])
    def test_replay_mismatch_inside_a_later_flush(self, space, s, m, drift_step):
        op = _DriftingOperator(gen_fd2d("fd2d-exp", 20))
        op.exact_calls = 10 ** 9
        basis = _first_pass(op, gen_rhs(400, s, seed=30 + s), space, "windowed", m)
        # the second pass multiplies once per regenerated block, from step 2
        op.exact_calls = op.calls + drift_step - 2
        qy = np.ones((basis.n_t_blocks * basis.ell, 1))
        with pytest.raises(RecurrenceMismatchError, match="at step %d;" % drift_step):
            two_pass_recover(op, basis, qy)

    def test_full_solve_windowed_matches_stored(self):
        op = SparseOperator(gen_fd2d("fd2d-exp", 10))
        c = gen_rhs(100, 2, seed=12)
        stored = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60))
        windowed = solve_lyapunov(
            op, c, SolveOptions(tol=1e-7, max_m=60, storage="windowed")
        )
        assert stored.iterations == windowed.iterations
        assert np.array_equal(stored.z, windowed.z)

    def test_extended_windowed_two_pass(self):
        op = SparseOperator(gen_fd2d("laplacian2d", 12))
        c = gen_rhs(144, 2, seed=13)
        stored = solve_lyapunov(
            op, c, SolveOptions(tol=1e-8, max_m=40, space="extended")
        )
        windowed = solve_lyapunov(
            op, c,
            SolveOptions(tol=1e-8, max_m=40, space="extended", storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        rel = np.linalg.norm(stored.z - windowed.z) / np.linalg.norm(stored.z)
        assert rel <= 1e-12

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_nondeterministic_operator_fails_replay(self, space):
        # the second pass regenerates the basis with a drifted operator, so
        # its first recomputed coupling block misses the stored one
        op = _DriftingOperator(gen_fd2d("fd2d-exp", 8))
        c = gen_rhs(64, 2, seed=1)
        opts = SolveOptions(tol=1e-8, max_m=64, space=space, storage="windowed")
        with pytest.raises(RecurrenceMismatchError, match="at step 2;"):
            solve_lyapunov(op, c, opts)


class TestBrokenOperator:
    """A non-finite block from the operator is a NonFiniteOperatorError that
    names the step and the call, never a factor."""

    @staticmethod
    def _solve(op, space, storage, s=2):
        opts = SolveOptions(tol=1e-6, max_m=200, space=space, storage=storage)
        return solve_lyapunov(op, gen_rhs(400, s, seed=7), opts)

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    @pytest.mark.parametrize("space, step", [("standard", "Lanczos"), ("extended", "extended")])
    def test_nan_from_apply_in_the_first_pass(self, space, step, storage):
        op = _BrokenOperator(gen_fd2d("fd2d-exp", 20), "apply", 5, np.nan)
        with pytest.raises(NonFiniteOperatorError,
                           match="^%s step 5: the operator's apply returned" % step):
            self._solve(op, space, storage)

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    @pytest.mark.parametrize("bad_call, where", [(1, "initial block"),
                                                 (4, "extended step 3")])
    def test_inf_from_solve(self, storage, bad_call, where):
        op = _BrokenOperator(gen_fd2d("fd2d-exp", 20), "solve", bad_call, np.inf)
        with pytest.raises(NonFiniteOperatorError,
                           match="^%s: the operator's solve returned" % where):
            self._solve(op, "extended", storage)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_nan_on_the_last_apply_of_the_second_pass(self, space):
        # s = 1: the second pass factors single columns, so a NaN must
        # neither be normalized to e_1 nor pass the replay check as NaN
        a = gen_fd2d("fd2d-exp", 20)
        m = self._solve(SparseOperator(a), space, "windowed", s=1).iterations
        # one apply per first-pass step, one per regenerated block after v1
        op = _BrokenOperator(a, "apply", m + m - 1, np.nan)
        with pytest.raises(NonFiniteOperatorError,
                           match="^second pass step %d: the operator's apply" % m):
            self._solve(op, space, "windowed", s=1)

    def test_non_finite_regenerated_coupling_fails_replay(self, monkeypatch):
        qr = krymat.solvers.economy_qr
        monkeypatch.setattr(krymat.solvers, "economy_qr",
                            lambda w: (qr(w)[0], np.full((2, 2), np.nan)))
        with pytest.raises(RecurrenceMismatchError, match="at step 2;"):
            self._solve(SparseOperator(gen_fd2d("fd2d-exp", 20)), "standard", "windowed")


class TestSylvesterTwoSided:
    def test_invariant_rhs(self):
        op = _diag_op([-1.0] * 5)
        c = np.zeros((5, 1))
        c[0] = 1.0
        sol = solve_sylvester_two_sided(op, op, c, c, SolveOptions(tol=1e-10, max_m=4))
        assert sol.iterations == 1
        x = sol.z1 @ sol.z2.T
        expected = np.zeros((5, 5))
        expected[0, 0] = 0.5
        assert np.allclose(x, expected, atol=1e-12)

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(14)
        w1 = rng.standard_normal((60, 60))
        w2 = rng.standard_normal((60, 60))
        a = -(w1 @ w1.T) / 60.0 - np.eye(60)
        b = -(w2 @ w2.T) / 60.0 - np.eye(60)
        c1 = gen_rhs(60, 2, seed=15)
        c2 = gen_rhs(60, 2, seed=16)
        tol = 1e-8
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(sp.csr_matrix(b)),
            c1, c2, SolveOptions(tol=tol, max_m=60),
        )
        x_ref = full_solve(a, b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    def test_extended_space_against_kronecker_oracle(self):
        rng = np.random.default_rng(40)
        w1 = rng.standard_normal((50, 50))
        w2 = rng.standard_normal((50, 50))
        a = -(w1 @ w1.T) / 50.0 - np.eye(50)
        b = -(w2 @ w2.T) / 50.0 - np.eye(50)
        c1 = gen_rhs(50, 1, seed=41)
        c2 = gen_rhs(50, 1, seed=42)
        tol = 1e-8
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(sp.csr_matrix(b)),
            c1, c2, SolveOptions(tol=tol, max_m=25, space="extended"),
        )
        x_ref = full_solve(a, b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_windowed_two_pass_matches_stored(self, space):
        a = gen_fd2d("fd2d-exp", 8)
        b = gen_fd2d("fd2d-trig", 8)
        c1 = gen_rhs(64, 2, seed=17)
        c2 = gen_rhs(64, 2, seed=18)
        stored = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-6, max_m=64, space=space),
        )
        windowed = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-6, max_m=64, space=space, storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        for z_s, z_w in ((stored.z1, windowed.z1), (stored.z2, windowed.z2)):
            assert np.linalg.norm(z_s - z_w) <= 1e-12 * np.linalg.norm(z_s)
        if space == "standard":
            # 3s blocks per side; extended mode also retains half-blocks
            assert windowed.peak_basis_vectors == 2 * 3 * 2

    @pytest.mark.parametrize("storage", ["stored", "windowed"])
    def test_one_space_invariant_early(self, storage):
        # the A space is invariant after one step, the B space is not: each
        # basis is stepped only until it alone becomes invariant
        a = -np.eye(6)
        b = gen_fd2d("laplacian2d", 6)
        c1 = np.zeros((6, 1))
        c1[0] = 1.0
        c2 = gen_rhs(36, 1, seed=3)
        sol = solve_sylvester_two_sided(
            SparseOperator(sp.csr_matrix(a)), SparseOperator(b), c1, c2,
            SolveOptions(tol=1e-10, max_m=40, storage=storage),
        )
        assert sol.iterations > 1
        x_ref = full_solve(a, b.toarray(), c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 1e-12 * np.linalg.norm(x_ref)

    def test_true_residual_below_tolerance(self):
        a = gen_fd2d("fd2d-exp", 7)
        b = gen_fd2d("fd2d-trig", 7)
        c1 = gen_rhs(49, 1, seed=19)
        c2 = gen_rhs(49, 1, seed=20)
        tol = 1e-7
        sol = solve_sylvester_two_sided(
            SparseOperator(a), SparseOperator(b), c1, c2,
            SolveOptions(tol=tol, max_m=49),
        )
        truth = dense_sylvester_residual(
            a.toarray(), b.toarray(), sol.z1, sol.z2, c1, c2
        )
        assert truth / (np.linalg.norm(c1) * np.linalg.norm(c2)) <= tol * 1.01


class TestSylvesterOneSided:
    def test_rank_one_b_is_shifted_system(self):
        a = laplacian1d(40)
        b = np.array([[-2.5]])
        c1 = gen_rhs(40, 1, seed=21)
        c2 = np.array([[1.3]])
        sol = solve_sylvester_one_sided(
            SparseOperator(a), b, c1, c2, SolveOptions(tol=1e-10, max_m=40)
        )
        x = sol.z1 @ sol.z2.T
        shifted = a.toarray() + b[0, 0] * np.eye(40)
        x_ref = np.linalg.solve(shifted, -c1 * c2[0, 0])
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_against_kronecker_oracle(self):
        rng = np.random.default_rng(22)
        a = laplacian1d(200)
        w = rng.standard_normal((12, 12))
        b = -(w @ w.T) - np.eye(12)
        c1 = gen_rhs(200, 2, seed=23)
        c2 = gen_rhs(12, 2, seed=24)
        tol = 1e-8
        sol = solve_sylvester_one_sided(
            SparseOperator(a), b, c1, c2, SolveOptions(tol=tol, max_m=200)
        )
        x_ref = full_solve(a.toarray(), b, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    def test_extended_space(self):
        a = gen_fd2d("laplacian2d", 10)
        w = np.diag(-np.arange(1.0, 6.0))
        c1 = gen_rhs(100, 1, seed=43)
        c2 = gen_rhs(5, 1, seed=44)
        tol = 1e-8
        sol = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2,
            SolveOptions(tol=tol, max_m=40, space="extended"),
        )
        x_ref = full_solve(a.toarray(), w, c1, c2)
        err = np.linalg.norm(sol.z1 @ sol.z2.T - x_ref)
        assert err <= 10.0 * tol * np.linalg.norm(c1 @ c2.T)

    @pytest.mark.parametrize("space", ["standard", "extended"])
    def test_windowed_matches_stored(self, space):
        a = gen_fd2d("laplacian2d", 9)
        w = np.diag(-np.arange(1.0, 8.0))
        c1 = gen_rhs(81, 2, seed=25)
        c2 = gen_rhs(7, 2, seed=26)
        stored = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2, SolveOptions(tol=1e-8, max_m=81, space=space)
        )
        windowed = solve_sylvester_one_sided(
            SparseOperator(a), w, c1, c2,
            SolveOptions(tol=1e-8, max_m=81, space=space, storage="windowed"),
        )
        assert stored.iterations == windowed.iterations
        assert np.linalg.norm(stored.z1 - windowed.z1) \
            <= 1e-12 * np.linalg.norm(stored.z1)
        assert np.array_equal(stored.z2, windowed.z2)

    @pytest.mark.parametrize("b, error", [
        (-np.eye(3) + np.diag([0.5, 0.0], 1), AsymmetricMatrixError),
        (-np.ones(3), DimensionMismatchError),
    ], ids=["asymmetric", "one-dimensional"])
    def test_malformed_b_is_a_typed_error(self, b, error):
        with pytest.raises(error):
            solve_sylvester_one_sided(SparseOperator(laplacian1d(10)), b,
                                      gen_rhs(10, 1, seed=1), gen_rhs(3, 1, seed=2))


# both Sylvester solvers look TRUNC_EPS up when they reduce, as the Lyapunov
# solver does: a tail mass above ||Y||_F drops every singular value
@pytest.mark.parametrize("sided", ["two-sided", "one-sided"])
def test_sylvester_truncation_to_rank_zero(sided, monkeypatch):
    monkeypatch.setattr(krymat.solvers, "TRUNC_EPS", 1e300)
    op = SparseOperator(gen_fd2d("laplacian2d", 10))
    c1 = gen_rhs(100, 1, seed=45)
    if sided == "two-sided":
        sol = solve_sylvester_two_sided(op, op, c1, gen_rhs(100, 1, seed=46))
        order_b = 100
    else:
        sol = solve_sylvester_one_sided(op, np.diag(-np.arange(1.0, 6.0)), c1,
                                        gen_rhs(5, 1, seed=46))
        order_b = 5
    assert sol.rank == 0
    assert sol.z1.shape == (100, 0) and sol.z2.shape == (order_b, 0)
    assert sol.truncation_discarded > 0.0


def test_history_deterministic_across_runs():
    op = SparseOperator(gen_fd2d("fd2d-exp", 9))
    c = gen_rhs(81, 2, seed=50)
    runs = []
    for _ in range(2):
        sol = solve_lyapunov(op, c, SolveOptions(tol=1e-7, max_m=60))
        runs.append([(m, dim, rel) for m, dim, rel, _, _ in sol.history])
    assert runs[0] == runs[1]


def test_truncation_changes_residual_within_bound(monkeypatch):
    # dropping tail mass eps from the reduced solution moves X by at most
    # about eps and the true residual by at most ~ 2 ||A|| eps
    a = gen_fd2d("laplacian2d", 9)
    op = SparseOperator(a)
    c = gen_rhs(81, 2, seed=51)
    opts = SolveOptions(tol=1e-7, max_m=60)
    loose = solve_lyapunov(op, c, opts)  # at the library's TRUNC_EPS, 1e-12
    monkeypatch.setattr(krymat.solvers, "TRUNC_EPS", 1e-16)
    tight = solve_lyapunov(op, c, opts)
    assert loose.rank <= tight.rank
    x_diff = np.linalg.norm(tight.z @ tight.z.T - loose.z @ loose.z.T)
    assert x_diff <= 1.5e-12

    def exact_residual(z):
        al = a.toarray().astype(np.longdouble)
        x = z.astype(np.longdouble) @ z.astype(np.longdouble).T
        cl = c.astype(np.longdouble)
        return float(np.linalg.norm(al @ x + x @ al + cl @ cl.T))

    a_norm = np.abs(np.linalg.eigvalsh(a.toarray())).max()
    assert abs(exact_residual(tight.z) - exact_residual(loose.z)) \
        <= 2.0 * a_norm * x_diff + 1e-13


class _ApplyOnlyOperator(LinearOperator):
    """The block product of a matrix and nothing else: no inverse-apply."""

    def __init__(self, a):
        self.n, self._a = a.shape[0], a

    def apply(self, v):
        return self._a @ v


def test_extended_space_needs_an_operator_that_solves():
    op = _ApplyOnlyOperator(laplacian1d(20))
    with pytest.raises(KrymatError, match="extended Krylov space needs solves"):
        solve_lyapunov(op, gen_rhs(20, 1, seed=32), SolveOptions(space="extended"))


@pytest.mark.parametrize("max_m", [0, -3])
def test_max_m_below_one_is_rejected(max_m):
    with pytest.raises(ValueError, match="^max_m must be >= 1$") as err:
        SolveOptions(max_m=max_m)
    assert isinstance(err.value, KrymatError)


@pytest.mark.parametrize("max_m, check_period", [(4, 5), (1, 2)])
def test_check_period_above_max_m_is_rejected(max_m, check_period):
    # unchecked, the solve ran all max_m steps without a single residual check
    with pytest.raises(ValueError, match="^check_period must be <= max_m$"):
        SolveOptions(max_m=max_m, check_period=check_period)
    SolveOptions(max_m=max_m, check_period=max_m)


@pytest.mark.parametrize("field, value", [("max_m", 2.5), ("check_period", 1.5)])
def test_non_integral_count_is_rejected(field, value):
    # unchecked, max_m=2.5 died in range() with a bare TypeError, and
    # check_period=1.5 checked every third iteration
    with pytest.raises(ValueError, match="^%s must be an integer$" % field):
        SolveOptions(**{field: value})
    SolveOptions(**{field: np.int64(2)})  # numpy integers stay accepted


@pytest.mark.parametrize("solver, side", [
    ("lyapunov", 0), ("two-sided", 0), ("two-sided", 1), ("one-sided", 0),
    ("one-sided", 1),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rhs_is_rejected(solver, side, value):
    # unchecked, a NaN in C ran every iteration and then reported a NaN
    # residual, and an Inf failed inside the tridiagonal eigensolver
    op = SparseOperator(gen_fd2d("fd2d-exp", 8))
    rhs = [gen_rhs(64, 2, seed=61), gen_rhs(64, 2, seed=62)]
    if solver == "one-sided":
        rhs[1] = rhs[1][:3]
    rhs[side][1, 1] = value
    with pytest.raises(KrymatError, match="non-finite"):
        if solver == "lyapunov":
            solve_lyapunov(op, rhs[0])
        elif solver == "two-sided":
            solve_sylvester_two_sided(op, op, *rhs)
        else:
            solve_sylvester_one_sided(op, -np.diag([1.0, 4.0, 9.0]), *rhs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_tolerance_is_rejected(value):
    # unchecked, a NaN tol ran all max_m steps
    with pytest.raises(ValueError, match="^tol must be finite$"):
        SolveOptions(tol=value)


def _solve(solver, sign, opts, s=2):
    """One small solve of each kind on A = sign * fd2d-exp (order 64, negative
    definite for sign 1), with B = sign * fd2d-trig two-sided and a small
    negative definite B one-sided, right-hand sides of s columns."""
    a, b = sign * gen_fd2d("fd2d-exp", 8), sign * gen_fd2d("fd2d-trig", 8)
    c1, c2 = gen_rhs(64, s, seed=61), gen_rhs(64, s, seed=62)
    if solver == "lyapunov":
        return solve_lyapunov(SparseOperator(a), c1, opts)
    if solver == "two-sided":
        return solve_sylvester_two_sided(SparseOperator(a), SparseOperator(b), c1, c2,
                                         opts)
    return solve_sylvester_one_sided(SparseOperator(a), -np.diag([1.0, 4.0, 9.0]), c1,
                                     c2[:3], opts)


@pytest.mark.parametrize("space", ["standard", "extended"])
@pytest.mark.parametrize("solver", ["lyapunov", "two-sided", "one-sided"])
def test_no_projection_after_the_converged_check(monkeypatch, solver, space):
    # the factor comes from the converged check's eigen-data: T is taken once
    # per basis per check and never again for the reduction
    calls = []
    projected_matrix = KrylovBasis.projected_matrix

    def counted(basis, m=None):
        calls.append(basis)
        return projected_matrix(basis, m)

    monkeypatch.setattr(KrylovBasis, "projected_matrix", counted)
    sol = _solve(solver, 1.0, SolveOptions(tol=1e-8, max_m=64, check_period=2,
                                            space=space))
    assert len(calls) == (2 if solver == "two-sided" else 1) * len(sol.history)


@pytest.mark.parametrize("solver, message", [
    ("lyapunov", "projected matrix is not negative definite"),
    ("two-sided", "a projected matrix is not negative definite"),
    ("one-sided", "projected matrix is not negative definite"),
])
def test_positive_definite_projection_is_rejected(solver, message):
    # with A (and B) positive definite no eigenvalue sum vanishes, so the
    # check converges, and the reduction refuses the projection
    with pytest.raises(IndefiniteMatrixError, match="^%s$" % message):
        _solve(solver, -1.0, SolveOptions(tol=1e-8, max_m=64))


def _ghost_solve(solver, opts):
    """One solve of each kind whose s = 1 Lanczos runs far past the order
    (40) of a geometric spectrum, so the converged check's eigenvectors hold
    exact zeros in their first row."""
    a = _diag_op(-np.geomspace(0.1, 1e3, 40))
    c1 = np.random.default_rng(1).standard_normal((40, 1))
    if solver == "lyapunov":
        return solve_lyapunov(a, c1, opts)
    if solver == "two-sided":
        return solve_sylvester_two_sided(a, _diag_op(-np.geomspace(1.0, 1e2, 40)), c1,
                                         np.random.default_rng(2).standard_normal((40, 1)),
                                         opts)
    return solve_sylvester_one_sided(a, np.diag(-np.geomspace(0.1, 1.0, 4)), c1,
                                     np.random.default_rng(3).standard_normal((4, 1)),
                                     opts)


_SIGN_CASES = {
    "fd2d": (lambda solver, opts: _solve(solver, 1.0, opts),
             SolveOptions(tol=1e-8, max_m=64, check_period=2)),
    "ghost": (_ghost_solve, SolveOptions(tol=1e-10, max_m=400, check_period=5,
                                         storage="windowed")),
}


def _product(sol):
    return sol.z1 @ (sol.z1 if sol.z2 is None else sol.z2).T


@pytest.mark.parametrize("problem", sorted(_SIGN_CASES))
@pytest.mark.parametrize("solver", ["lyapunov", "two-sided", "one-sided"])
def test_factor_does_not_depend_on_eigenvector_signs(monkeypatch, solver, problem):
    # LAPACK's eigenvector signs are arbitrary.  A flipped eigenvector flips
    # its row of -Ytilde and of the last block row, so every residual is the
    # same to the last bit, and the factor, built from the converged check's
    # -Ytilde as it is, gives the same X to rounding.  Where the eigenvectors
    # hold exact zeros (ghost), the flips also turn zeros into negative zeros
    solve, opts = _SIGN_CASES[problem]
    ref = solve(solver, opts)
    eig = krymat.residual.partial_eig_blocktridiag
    first_row_zeros = []

    def flipped_eig(t):
        lam, q = eig(t)
        first_row_zeros.append(int(np.count_nonzero(q[0, ::3] == 0.0)))
        q[:, ::3] *= -1.0
        return lam, q

    monkeypatch.setattr(krymat.residual, "partial_eig_blocktridiag", flipped_eig)
    calls = Counter()
    count_calls(monkeypatch, calls, krymat.residual, "reduced_solution")
    for name in ("dstevd", "dsbevd"):
        count_calls(monkeypatch, calls, scipy.linalg.lapack, name)
    sol = solve(solver, opts)
    if problem == "ghost":
        assert sum(first_row_zeros) > 0
    assert [row[:3] for row in sol.history] == [row[:3] for row in ref.history]
    assert (sol.iterations, sol.rank) == (ref.iterations, ref.rank)
    assert (sol.z2 is None) == (ref.z2 is None)
    x, x_ref = _product(sol), _product(ref)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    # -Ytilde is formed by the checks alone, each with one LAPACK
    # eigensolve per projection, and never again after the converged one
    assert calls["reduced_solution"] == len(sol.history)
    projections = 2 if solver == "two-sided" else 1
    assert calls["dstevd"] + calls["dsbevd"] == projections * len(sol.history)


def _schedule_problem(solver, s):
    """The operators, right-hand sides and residual check of ``_solve``'s
    problems, formed as the solver forms them."""
    a, c1, c2 = SparseOperator(gen_fd2d("fd2d-exp", 8)), gen_rhs(64, s, 61), gen_rhs(
        64, s, 62)
    if solver == "lyapunov":
        beta2 = float(np.linalg.norm(c1) ** 2)
        return [a], [c1], lambda proj: ctri_lyapunov(*proj, rhs_norm=beta2)
    if solver == "two-sided":
        rhs_norm = float(np.linalg.norm(c1) * np.linalg.norm(c2))
        return ([a, SparseOperator(gen_fd2d("fd2d-trig", 8))], [c1, c2],
                lambda pa, pb: ctri_sylvester(pa[0], pb[0], pa[1], pb[1], pa[2], pb[2],
                                              rhs_norm=rhs_norm))
    c2 = c2[:3]
    rhs_norm = float(np.linalg.norm(c1) * np.linalg.norm(c2))
    ups, p = np.linalg.eigh(-np.diag([1.0, 4.0, 9.0]))
    return [a], [c1], lambda pa: ctri_sylvester(pa[0], (ups, p), pa[1], p.T @ c2, pa[2],
                                                rhs_norm=rhs_norm)


def _every_check(solver, s, opts):
    """The relative residual at every multiple of d (and at the step where
    every basis is exhausted) up to the first that meets tol, from bases
    stepped by hand, as a loop that checks every multiple of d sees them."""
    ops, rhss, residual = _schedule_problem(solver, s)
    step = lanczos_step if opts.space == "standard" else extended_step
    bases = [init_basis(op, c, space=opts.space, storage=opts.storage)
             for op, c in zip(ops, rhss)]
    checks = {}
    for it in range(1, opts.max_m + 1):
        for op, basis in zip(ops, bases):
            if not basis.exhausted:
                step(op, basis)
        if it % opts.check_period == 0 or all(b.exhausted for b in bases):
            checks[it] = residual(*[(b.projected_matrix(), b.gamma, b.coupling_upper())
                                    for b in bases]).relative
            if checks[it] <= opts.tol or all(b.exhausted for b in bases):
                break
    return checks


@pytest.mark.parametrize("schedule", ["growing", "gaps of 8d"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("storage", ["stored", "windowed"])
@pytest.mark.parametrize("space", ["standard", "extended"])
@pytest.mark.parametrize("solver", ["lyapunov", "two-sided", "one-sided"])
def test_stops_where_checking_every_multiple_of_d_stops(monkeypatch, solver, space,
                                                         storage, s, d, schedule):
    # gaps of 8d overshoot the stop, so the scan of the skipped steps finds it
    if schedule != "growing":
        monkeypatch.setattr(krymat.solvers, "_next_gap", lambda gap, d, *_: 8 * d)
    opts = SolveOptions(tol=1e-9, max_m=64, check_period=d, space=space, storage=storage)
    checks = _every_check(solver, s, opts)
    stop = max(checks)
    sol = _solve(solver, 1.0, opts, s)
    assert (sol.iterations, sol.final_residual) == (stop, checks[stop])
    assert sol.space_dim == stop * (s if space == "standard" else 2 * s)
    # every row is a check that the loop above made, bit for bit, or one
    # past the stop, and the last row is the stop
    rows = sol.history
    assert all(checks[m] == res for m, _, res, _, _ in rows if m <= stop)
    assert rows[-1][:3] == (stop, sol.space_dim, sol.final_residual)
    for column in (3, 4):  # the cumulative timers
        assert all(a[column] <= b[column] for a, b in zip(rows, rows[1:]))
    assert len(rows) == len(set(m for m, *_ in rows))


def _synthetic_galerkin(curve, d):
    """``_galerkin`` on an s = 1 Lanczos basis, with the relative residual of
    step m read off ``curve(m)`` instead of computed; the solution and the
    steps checked, in the order checked."""
    op = SparseOperator(gen_fd2d("fd2d-exp", 12))  # order 144
    checked = []

    def residual(proj):
        checked.append(proj[0].dim)  # s = 1: T_m has order m
        return SimpleNamespace(relative=curve(checked[-1]))

    def reduce(rv, basis):
        return np.zeros((op.n, 1)), None, 0.0

    opts = SolveOptions(tol=1e-6, max_m=60, check_period=d)
    return krymat.solvers._galerkin([op], [gen_rhs(144, 1, seed=5)], opts, residual,
                                    reduce, None), checked


# the checks of the backward search below the check at 32 that met tol, and
# the stop, per tail of the curve and d
BACKWARD_SEARCH = {
    ("steep", 1): ([31, 25, 24], 25),  # the slope of 32 and 31 predicts 25
    ("steep", 2): ([30, 26, 24], 26),
    ("flat", 1): ([31, 29, 25, 17], 17),  # no slope: the jumps double
    ("flat", 2): ([30, 26, 18], 18),
    ("bracket", 1): ([31, 29, 25, 17, 21, 19, 20], 21),  # 17 misses: bisect
    ("bracket", 2): ([30, 26, 18, 22, 20], 22),
}


@pytest.mark.parametrize("tail", ["steep", "flat", "bracket"])
@pytest.mark.parametrize("d, forward", [(1, [1, 2, 4, 8, 16]), (2, [2, 4, 8, 16])],
                         ids=["d1", "d2"])
def test_backward_search_from_a_check_past_the_stop(d, forward, tail):
    # the residual falls a tenth of a decade a step to m = 16, so the gaps
    # double and the check after 16 is aimed at 32; past 16 it falls far
    # faster than that slope predicts: half a decade a step ("steep"), at
    # once to 1e-9, where every skipped step meets tol ("flat"), or to 1e-9
    # from m = 21 after a plateau at 1e-3 ("bracket")
    def curve(m):
        if m <= 16:
            return 10.0 ** (-0.1 * m)
        if tail == "steep":
            return 10.0 ** (-1.6 - 0.5 * (m - 16))
        return 1e-3 if tail == "bracket" and m <= 20 else 1e-9

    sol, checked = _synthetic_galerkin(curve, d)
    met, (search, stop) = 32, BACKWARD_SEARCH[tail, d]
    assert stop == next(m for m in range(d, 61, d) if curve(m) <= 1e-6)
    assert met - stop >= 2 * d  # the aim overshot by two periods or more
    assert (sol.iterations, sol.final_residual) == (stop, curve(stop))
    assert checked == forward + [met] + search
    # fewer checks than a walk down from the met check to the first miss
    assert len(search) < len([m for m in range(met - d, forward[-1], -d)
                              if m >= stop - d])
    rows = [row[0] for row in sol.history]
    assert rows == [m for m in checked if m != stop] + [stop]
    assert sol.history[-1][:3] == (stop, stop, curve(stop))
    for column in (3, 4):  # the cumulative timers
        assert all(a[column] <= b[column] for a, b in zip(sol.history, sol.history[1:]))


@pytest.mark.parametrize("solver", ["lyapunov", "two-sided", "one-sided"])
def test_error_at_max_m_names_the_last_multiple_of_d(solver):
    opts = SolveOptions(tol=1e-14, max_m=17, check_period=3)
    checks = _every_check(solver, 2, opts)
    assert max(checks) == 15
    with pytest.raises(ConvergenceError) as err:
        _solve(solver, 1.0, opts)
    assert str(err.value) == ("no convergence to 1.0e-14 within 17 iterations "
                              "(last residual %.3e)" % checks[15])
    assert err.value.history[-1][:3] == (15, 30, checks[15])


@pytest.mark.parametrize("storage", ["stored", "windowed"])
def test_invariance_past_the_last_multiple_of_d_is_checked(storage):
    # the space of diag(-1..-5) and a vector of ones is invariant at m = 5,
    # past the last multiple of d = 3 within max_m = 5: the check at 3 misses,
    # and the solve steps on to where the space becomes invariant
    opts = SolveOptions(tol=1e-12, max_m=5, check_period=3, storage=storage)
    sol = solve_lyapunov(_diag_op(-np.arange(1.0, 6.0)), np.ones((5, 1)), opts)
    assert [row[0] for row in sol.history] == [3, 5]
    assert sol.history[0][2] > opts.tol
    assert (sol.iterations, sol.space_dim) == (5, 5)
    assert sol.final_residual <= opts.tol


@pytest.mark.parametrize("d, checked", [(1, [1, 2, 4, 8]), (3, [3, 6, 8]), (4, [4, 8])],
                         ids=["d1", "d3", "d4"])
def test_invariant_space_that_misses_tol_ends_at_its_check(d, checked):
    # fd2d-exp(4), s = 2: the space spans all 16 dimensions at m = 8, where
    # the residual is rounding, above a tol of 1e-300; that step is due at
    # d = 1 and d = 4 and lies between checks at d = 3, and either way its
    # check is the last
    op = SparseOperator(gen_fd2d("fd2d-exp", 4))
    opts = SolveOptions(tol=1e-300, max_m=40, check_period=d)
    with pytest.raises(ConvergenceError) as err:
        solve_lyapunov(op, gen_rhs(16, 2, seed=51), opts)
    history = err.value.history
    assert [row[0] for row in history] == checked
    assert str(err.value) == ("the Krylov space became invariant at m=8 without "
                              "meeting the tolerance (residual %.3e)" % history[-1][2])


@pytest.mark.parametrize("seed", [3000, 3004, 3008])
def test_d1_monitoring_makes_few_checks(seed):
    # the benchmark's d = 1 configuration: checking every step takes 53-58
    # checks on these seeds, the growing schedule at most 20, same stop
    op = SparseOperator(gen_fd2d("fd2d-exp", 24))
    c = gen_rhs(576, 2, seed)
    opts = SolveOptions(tol=1e-6, max_m=200, storage="windowed")
    sol = solve_lyapunov(op, c, opts)
    assert len(sol.history) <= 20
    basis = init_basis(op, c, storage="windowed")
    beta2 = float(np.linalg.norm(c) ** 2)
    for m in range(1, sol.iterations + 1):
        lanczos_step(op, basis)
        rv = ctri_lyapunov(basis.projected_matrix(), basis.gamma, basis.coupling_upper(),
                           rhs_norm=beta2)
        assert (rv.relative <= opts.tol) == (m == sol.iterations)
    assert rv.relative == sol.final_residual


def test_solve_past_the_order_verifies():
    # a basis that lost orthogonality runs past the order (see
    # test_basis_that_lost_orthogonality_runs_past_the_order); ending it at
    # k = n with a zero coupling would report 0.0 here and verify at 4e-3
    opts = SolveOptions(tol=1e-10, max_m=400, check_period=5, storage="windowed",
                        verify=True)
    sol = solve_lyapunov(_diag_op(-np.geomspace(0.1, 1e3, 40)),
                         np.random.default_rng(1).standard_normal((40, 1)), opts)
    assert sol.iterations > 40
    assert sol.verified_residual <= opts.tol

