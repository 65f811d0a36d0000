"""Outer Galerkin drivers.

All three solvers run one loop that grows a block Krylov basis per large
coefficient matrix and, every ``check_period`` iterations, evaluates the
relative residual norm with the solver's cheap projected formula.  At
convergence the solver factors its reduced solution once in diagonalized
coordinates and maps it back through the basis.  With ``windowed`` storage
the basis is never kept in memory: a second Lanczos pass regenerates it
block by block while the solution factor accumulates.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .basis import extended_step, init_basis, lanczos_step, mgs_twice
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    IndefiniteMatrixError,
    RecurrenceMismatchError,
)
from .kernels import (
    TRUNC_EPS,
    economy_qr,
    guarded_denominators,
    truncated_spd_factor,
    truncated_svd_factor,
)
from .residual import ctri_lyapunov, ctri_sylvester, residual_one_sided

#: Largest operator order for which --verify recomputes the true residual.
VERIFY_LIMIT = 20000

#: Tolerance for the two-pass check that regenerated coupling blocks match
#: the stored ones.
REPLAY_TOL = 1e-8

#: Columns of the per-check history rows, in order.
HISTORY_COLUMNS = (
    "m",
    "space_dim",
    "relative_residual",
    "cum_basis_secs",
    "cum_residual_secs",
)


@dataclass
class SolveOptions:
    """Knobs of the outer iteration.

    ``check_period`` is the d of the papers' experiments: the residual is
    evaluated every d iterations, accepting up to d-1 overshoot iterations.
    """

    tol: float = 1e-6
    max_m: int = 500
    check_period: int = 1
    space: str = "standard"
    storage: str = "stored"
    trunc_eps: float = TRUNC_EPS
    verify: bool = False

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if self.space not in ("standard", "extended"):
            raise ValueError("space must be 'standard' or 'extended'")
        if self.storage not in ("stored", "windowed"):
            raise ValueError("storage must be 'stored' or 'windowed'")


@dataclass
class LowRankSolution:
    """Low-rank factors with convergence history and cost telemetry.

    ``z2`` is None for Lyapunov solutions (X ~ Z Z^T); Sylvester solutions
    carry both factors (X ~ Z1 Z2^T).  History rows follow
    ``HISTORY_COLUMNS``.
    """

    z1: np.ndarray
    z2: np.ndarray = None
    rank: int = 0
    iterations: int = 0
    space_dim: int = 0
    final_residual: float = np.inf
    history: list = field(default_factory=list)
    basis_seconds: float = 0.0
    residual_seconds: float = 0.0
    recovery_seconds: float = 0.0
    peak_basis_vectors: int = 0
    truncation_discarded: float = 0.0
    verified_residual: float = None

    @property
    def z(self):
        return self.z1


def _gram_residual_norm(pairs):
    """Frobenius norm of sum_k U_k W_k^T computed from small Gram matrices."""
    u = np.hstack([p[0] for p in pairs])
    w = np.hstack([p[1] for p in pairs])
    val = np.sum((u.T @ u) * (w.T @ w))
    return float(np.sqrt(max(val, 0.0)))


def true_lyapunov_residual(op, z, c):
    """||A Z Z^T + Z Z^T A + C C^T||_F without forming any n x n matrix."""
    az = op.apply(z)
    return _gram_residual_norm([(az, z), (z, az), (c, c)])


def true_sylvester_residual(op_a, z1, z2, c1, c2, apply_b):
    """||A Z1 Z2^T + Z1 Z2^T B + C1 C2^T||_F via small Gram matrices."""
    az1 = op_a.apply(z1)
    bz2 = apply_b(z2)
    return _gram_residual_norm([(az1, z2), (z1, bz2), (c1, c2)])


def two_pass_recover(op, state, qy, window=None):
    """Second Lanczos pass: regenerate the basis blocks and accumulate
    Z = sum_i V_i (E_i^T Q Ycheck) incrementally, never holding more than the
    three-block window.

    The Gram-Schmidt coefficients are recomputed rather than substituted
    from the first pass: replaying the bare three-term recurrence with fixed
    coefficients is exponentially unstable in finite precision and loses the
    basis after a few hundred steps, while the recomputation is
    self-correcting and reproduces the first pass bit for bit on a
    deterministic operator.  The stored coefficients serve as the divergence
    check instead: a mismatch beyond REPLAY_TOL signals a nondeterministic
    operator.  Extended mode regenerates only the first half-blocks (one
    multiplication by A each), reusing the retained second half-blocks so no
    inverse-applies occur.
    """
    s, ell = state.s, state.ell
    standard = state.space == "standard"
    halves = None if window is None else window.second_halves
    if not standard and halves is None:
        raise DimensionMismatchError(
            "extended two-pass recovery needs the window with stored half-blocks"
        )
    v = economy_qr(state.rhs)[0] if standard else state.v1
    stored_sub = state.sub if standard else state.h_sub
    z = v @ qy[:ell]
    older = None
    for i in range(2, state.n_t_blocks + 1):
        # first s columns of the joint orthogonalization (all of them in
        # standard mode): MGS acts per column, and the leading s columns of
        # the joint QR factor equal the QR of the first half-block alone
        w = op.apply(v[:, :s])
        w, _, _ = mgs_twice(w, older, v)
        v_new, r_hat = economy_qr(w)
        stored = stored_sub[i - 2][:s, :s]
        scale = max(np.linalg.norm(stored), 1e-300)
        if np.linalg.norm(r_hat - stored) > REPLAY_TOL * scale:
            raise RecurrenceMismatchError(
                "second pass regenerated a coupling block that differs from "
                "the stored one at step %d; the operator looks nondeterministic"
                % i
            )
        if halves is not None:
            v_new = np.hstack([v_new, halves[i - 1]])
        z += v_new @ qy[(i - 1) * ell: i * ell]
        older, v = v, v_new
    return z


def _recover_factor(op, window, state, qy):
    """V Q Ycheck: from the stored blocks, or by a second pass when windowed."""
    if window.stored is not None:
        return np.concatenate(window.basis_blocks(state.n_t_blocks), axis=1) @ qy
    return two_pass_recover(op, state, qy, window)


def _galerkin(ops, rhss, opts, residual, reduce, true_residual):
    """The outer loop of every solver: one basis per (operator, right-hand
    side) pair, each stepped until it alone becomes invariant.  Every
    ``check_period`` iterations, and once all are invariant, ``residual``
    gets the projection (T, gamma, tau) of each basis; at convergence
    ``reduce`` gets each (window, state) pair and returns the truncated
    factor, Z1 and Z2 (None for Lyapunov), and with ``opts.verify``
    ``true_residual(z1, z2)`` gives the verified relative residual.
    """
    step = lanczos_step if opts.space == "standard" else extended_step
    tic = time.perf_counter()
    windows, states = zip(*[init_basis(op, c, space=opts.space, storage=opts.storage)
                            for op, c in zip(ops, rhss)])
    t_basis, t_res = time.perf_counter() - tic, 0.0

    history = []
    rv = None
    for it in range(1, opts.max_m + 1):
        tic = time.perf_counter()
        for op, window, state in zip(ops, windows, states):
            if not state.exhausted:
                step(op, window, state, on_zero_residual="finalize")
        t_basis += time.perf_counter() - tic
        exhausted = all(state.exhausted for state in states)
        if it % opts.check_period == 0 or exhausted:
            tic = time.perf_counter()
            rv = residual(*[(st.projected_matrix(), st.gamma, st.coupling_upper())
                            for st in states])
            t_res += time.perf_counter() - tic
            history.append((it, it * states[0].ell, rv.relative, t_basis, t_res))
            if rv.relative <= opts.tol:
                break
            if exhausted:
                spaces = "both Krylov spaces" if len(states) > 1 else "the Krylov space"
                raise ConvergenceError(
                    "%s became invariant at m=%d without meeting the tolerance "
                    "(residual %.3e)" % (spaces, it, rv.relative),
                    history,
                )
    else:
        raise ConvergenceError(
            "no convergence to %.1e within %d iterations (last residual %s)"
            % (opts.tol, opts.max_m, "%.3e" % rv.relative if rv else "never checked"),
            history,
        )

    tic = time.perf_counter()
    fac, z1, z2 = reduce(*zip(windows, states))
    t_rec = time.perf_counter() - tic
    verify = opts.verify and max(op.n for op in ops) <= VERIFY_LIMIT
    return LowRankSolution(
        z1=z1,
        z2=z2,
        rank=fac.rank,
        iterations=it,
        space_dim=it * states[0].ell,
        final_residual=rv.relative,
        history=history,
        basis_seconds=t_basis,
        residual_seconds=t_res,
        recovery_seconds=t_rec,
        peak_basis_vectors=sum(window.peak_vectors for window in windows),
        truncation_discarded=fac.discarded_mass,
        verified_residual=true_residual(z1, z2) if verify else None,
    )


def _diagonalize(state, message):
    """Eigenpairs of the projected matrix, which must be negative definite,
    and gamma in its eigenbasis."""
    lam, q = np.linalg.eigh(state.projected_matrix().to_dense())
    if lam[-1] >= 0.0:
        raise IndefiniteMatrixError(message)
    return lam, q, q[: state.gamma.shape[0], :].T @ state.gamma


def _sylvester_rhs(c1, c2):
    """C1, C2 as 2-D float blocks of equal width, and ||C1||_F ||C2||_F."""
    c1 = np.atleast_2d(np.asarray(c1, dtype=float))
    c2 = np.atleast_2d(np.asarray(c2, dtype=float))
    if c1.shape[1] != c2.shape[1]:
        raise DimensionMismatchError("C1 and C2 must have the same number of columns")
    return c1, c2, float(np.linalg.norm(c1) * np.linalg.norm(c2))


def solve_lyapunov(op, c, options=None):
    """Galerkin projection solver for A X + X A + C C^T = 0.

    Grows the (standard or extended) block Krylov space of A and C until the
    relative residual ||R_m||_F / ||C||_F^2 drops below ``options.tol``,
    then returns X ~ Z Z^T with the reduced solution truncated at
    ``options.trunc_eps``.

    Raises ConvergenceError (with the residual history attached) if
    ``options.max_m`` iterations do not suffice.
    """
    opts = options if options is not None else SolveOptions()
    c = np.atleast_2d(np.asarray(c, dtype=float))
    beta2 = float(np.linalg.norm(c) ** 2)

    def reduce(basis):
        win, st = basis
        lam, q, u = _diagonalize(st, "projected matrix is not negative definite")
        ytilde = -(u @ u.T) / guarded_denominators(lam, lam)
        ytilde = 0.5 * (ytilde + ytilde.T)
        fac = truncated_spd_factor(ytilde, opts.trunc_eps)
        return fac, _recover_factor(op, win, st, q @ fac.factor), None

    return _galerkin(
        [op], [c], opts, lambda proj: ctri_lyapunov(*proj, rhs_norm=beta2), reduce,
        lambda z, _: true_lyapunov_residual(op, z, c) / beta2,
    )


def solve_sylvester_two_sided(op_a, op_b, c1, c2, options=None):
    """Galerkin solver for A X + X B + C1 C2^T = 0 with both sides large.

    Two Krylov spaces of equal dimension are grown, one per coefficient
    matrix; the residual combines the coupling terms of both sides and the
    truncated SVD of the diagonalized reduced solution yields X ~ Z1 Z2^T.
    """
    opts = options if options is not None else SolveOptions()
    c1, c2, rhs_norm = _sylvester_rhs(c1, c2)

    def residual(proj_a, proj_b):
        (t, gamma1, tau), (j, gamma2, iota) = proj_a, proj_b
        return ctri_sylvester(t, j, gamma1, gamma2, tau, iota, rhs_norm=rhs_norm)

    def reduce(basis_a, basis_b):
        (win_a, st_a), (win_b, st_b) = basis_a, basis_b
        message = "a projected matrix is not negative definite"
        lam, q, u = _diagonalize(st_a, message)
        ups, p, v = _diagonalize(st_b, message)
        ytilde = -(u @ v.T) / guarded_denominators(lam, ups)
        fac1, fac2 = truncated_svd_factor(ytilde, opts.trunc_eps)
        z1 = _recover_factor(op_a, win_a, st_a, q @ fac1.factor)
        return fac1, z1, _recover_factor(op_b, win_b, st_b, p @ fac2.factor)

    return _galerkin(
        [op_a, op_b], [c1, c2], opts, residual, reduce,
        lambda z1, z2: true_sylvester_residual(op_a, z1, z2, c1, c2, op_b.apply)
        / rhs_norm,
    )


def solve_sylvester_one_sided(op_a, b, c1, c2, options=None):
    """Galerkin solver for A X + X B + C1 C2^T = 0 with B small and dense.

    B is eigendecomposed once up front; only the A side is reduced.  The
    right factor is recovered directly in the eigenbasis of B.
    """
    opts = options if options is not None else SolveOptions()
    b = np.asarray(b, dtype=float)
    if not np.array_equal(b, b.T):
        raise DimensionMismatchError("small coefficient matrix B must be symmetric")
    c1, c2, rhs_norm = _sylvester_rhs(c1, c2)
    if c2.shape[0] != b.shape[0]:
        raise DimensionMismatchError("C2 does not conform with B")
    ups, p = np.linalg.eigh(b)
    if ups[-1] >= 0.0:
        raise IndefiniteMatrixError("B must be negative definite")
    p_c2 = p.T @ c2

    def residual(proj):
        t, gamma, tau = proj
        return residual_one_sided(t, tau, p_c2 @ gamma.T, ups, rhs_norm=rhs_norm)

    def reduce(basis):
        win, st = basis
        lam, q, u = _diagonalize(st, "projected matrix is not negative definite")
        ytilde = -(u @ (c2.T @ p)) / guarded_denominators(lam, ups)
        fac1, fac2 = truncated_svd_factor(ytilde, opts.trunc_eps)
        return fac1, _recover_factor(op_a, win, st, q @ fac1.factor), p @ fac2.factor

    return _galerkin(
        [op_a], [c1], opts, residual, reduce,
        lambda z1, z2: true_sylvester_residual(op_a, z1, z2, c1, c2, lambda m: b @ m)
        / rhs_norm,
    )
