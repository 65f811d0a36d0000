"""Outer Galerkin drivers.

All three solvers run one loop that grows a block Krylov basis per large
coefficient matrix and, at a growing subset of the multiples of
``check_period``, evaluates the relative residual norm with the solver's
cheap projected formula, which forms the reduced solution in eigen
coordinates (see ``_galerkin``).  At convergence the solver
truncates that check's reduced solution, as the check formed it, and maps
it back through the check's eigenvectors and the basis, one workspace of
blocks at a time, with no further eigensolve.  The blocks come from
the stored basis, or, with ``windowed`` storage, where the basis is never
kept in memory, from a second Lanczos pass that regenerates it block by
block while the solution factor accumulates.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import check_finite, extended_step, init_basis, lanczos_step, mgs_twice
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    IndefiniteMatrixError,
    KrymatError,
    RecurrenceMismatchError,
)
from .kernels import TRUNC_EPS, economy_qr, truncated_spd_factor, truncated_svd_factor
from .operators import validate_symmetric
from .residual import ctri_lyapunov, ctri_sylvester

#: Tolerance for the two-pass check that regenerated coupling blocks match
#: the stored ones.
REPLAY_TOL = 1e-8

#: Width, in columns, of the workspace in which two-pass recovery gathers
#: regenerated blocks before adding them to the factor by one matrix product.
RECOVERY_COLUMNS = 32

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

    ``check_period`` is the d of the papers' experiments: the solve stops at
    the first multiple of d iterations whose residual meets ``tol``,
    accepting up to d-1 overshoot iterations.  It checks a growing subset of
    those steps, and, once one meets ``tol``, the ones it skipped (see
    ``_galerkin``).  It may not exceed ``max_m``, or the solve would end
    without a check.
    """

    tol: float = 1e-6
    max_m: int = 500
    check_period: int = 1
    space: str = "standard"
    storage: str = "stored"
    trunc_eps: float = TRUNC_EPS
    verify: bool = False

    def __post_init__(self):
        for name in ("max_m", "check_period"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError("%s must be an integer" % name)
        for name in ("tol", "trunc_eps"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_m < 1:
            raise ValueError("max_m must be >= 1")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if self.check_period > self.max_m:
            raise ValueError("check_period must be <= max_m")
        if self.trunc_eps < 0.0:
            raise ValueError("trunc_eps must be >= 0")
        if self.space not in ("standard", "extended"):
            raise ValueError("space must be 'standard' or 'extended'")
        if self.storage not in ("stored", "windowed"):
            raise ValueError("storage must be 'stored' or 'windowed'")


@dataclass
class LowRankSolution:
    """Low-rank factors with convergence history and cost telemetry.

    ``z2`` is None for Lyapunov solutions (X ~ Z Z^T); Sylvester solutions
    carry both factors (X ~ Z1 Z2^T).  ``history`` has one row per residual
    check made, in the order made, with the columns ``HISTORY_COLUMNS``: m
    steps back where the skipped steps are checked, the cumulative timers
    never decrease, and the last row is (``iterations``, its space
    dimension, ``final_residual``, ...).
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


def _stacked_r(blocks):
    """R factor of the QR of [blocks], an n x c matrix stacked once in
    Fortran order (the transpose of a C-ordered c x n array) and factored in
    place, so no second n x c copy is made."""
    stacked = np.empty((sum(b.shape[1] for b in blocks), blocks[0].shape[0]))
    np.concatenate([b.T for b in blocks], out=stacked)
    _, r = scipy.linalg.qr(stacked.T, overwrite_a=True, mode="raw", check_finite=False)
    return r


def true_lyapunov_residual(op, z, c):
    """||A Z Z^T + Z Z^T A + C C^T||_F without forming any n x n matrix.

    The residual is U W^T with U = [AZ, Z, C] and W = [Z, AZ, C], which is U
    with its first two column blocks swapped.  So with U = Q R its norm is
    that of the small matrix R (R P)^T, P the swap, from one QR of U.
    Unlike a sum over Gram matrices this does not cancel down to a floor
    near sqrt(eps).
    """
    k = z.shape[1]
    r = _stacked_r([op.apply(z), z, c])
    r_w = np.hstack([r[:, k: 2 * k], r[:, :k], r[:, 2 * k:]])
    return float(np.linalg.norm(r @ r_w.T))


def true_sylvester_residual(op_a, z1, z2, c1, c2, apply_b):
    """||A Z1 Z2^T + Z1 Z2^T B + C1 C2^T||_F as ||R_U R_W^T||_F, from the QR
    of U = [A Z1, Z1, C1] and of W = [Z2, B Z2, C2]."""
    r_u = _stacked_r([op_a.apply(z1), z1, c1])
    r_w = _stacked_r([z2, apply_b(z2), c2])
    return float(np.linalg.norm(r_u @ r_w.T))


def _regenerated(op, basis, m):
    """The first m basis blocks again, from a second Lanczos pass that
    starts at ``basis.v1``.

    The Gram-Schmidt coefficients are recomputed rather than substituted
    from the first pass: replaying the bare three-term recurrence with fixed
    coefficients is exponentially unstable in finite precision and loses the
    basis after a few hundred steps, while the recomputation is
    self-correcting and reproduces the first pass bit for bit on a
    deterministic operator.  The first pass's coefficients serve as the
    divergence check instead, at every step: the upper left s x s block of
    each coupling block in T's band, which is that of the R factor of the
    block it leads to, in both spaces.  A mismatch beyond REPLAY_TOL, or
    one that is not a number, signals a nondeterministic operator; an apply
    that returns a non-finite block raises NonFiniteOperatorError.
    Extended mode regenerates only the first half-blocks (one multiplication
    by A each), reusing the retained second half-blocks so no inverse-applies
    occur.
    """
    s = basis.s
    v = basis.v1
    yield v
    older = None
    for i in range(2, m + 1):
        # first s columns of the joint orthogonalization (all of them in
        # standard mode): MGS acts per column, and the leading s columns of
        # the joint QR factor equal the QR of the first half-block alone
        w, coeffs = mgs_twice(op.apply(v[:, :s]), older, v)
        # a NaN or inf in a column of A v makes every Gram-Schmidt coefficient
        # of that column, and so their sum, a NaN or inf: no extra pass over w
        check_finite(coeffs.sum(), "second pass step %d" % i, "apply")
        v_new, r_hat = economy_qr(w)
        stored = basis.coupling(i - 1)[:s, :s]
        scale = max(np.linalg.norm(stored), 1e-300)
        if not np.linalg.norm(r_hat - stored) <= REPLAY_TOL * scale:  # NaN fails
            raise RecurrenceMismatchError(
                "second pass regenerated a coupling block that differs from "
                "the stored one at step %d; the operator looks nondeterministic"
                % i
            )
        if basis.second_halves is not None:
            v_new = np.hstack([v_new, basis.second_halves[i - 1]])
        yield v_new
        older, v = v, v_new


def two_pass_recover(op, basis, qy):
    """The solution factor Z = V Q Ycheck = sum_i V_i (E_i^T Q Ycheck), over
    the first m = rows(Q Ycheck) / ell blocks: the stopping check's step,
    which may lie before the basis's last.

    The blocks V_i come from ``basis.stored`` in stored mode and from a
    second Lanczos pass in windowed mode, which never holds more than the
    three-block window (see ``_regenerated``).  Either way they are copied
    into one column-major workspace of n x (b ell) columns, b =
    max(RECOVERY_COLUMNS // ell, 1) blocks (fewer when the basis has fewer),
    so each copy is a contiguous column write.  Whenever the workspace is
    full, and once at the end, one GEMM adds it times its rows of Q Ycheck
    into Z in place, so no n x (m ell) copy of the basis and no n x r
    temporary is made.  Like Z, the workspace is recovery storage:
    ``peak_basis_vectors`` counts the basis window only.
    """
    ell, m = basis.ell, qy.shape[0] // basis.ell
    blocks = basis.stored[:m] if basis.stored is not None else _regenerated(op, basis, m)
    buf = np.empty((op.n, min(max(RECOVERY_COLUMNS // ell, 1), m) * ell), order="F")
    z = np.zeros((op.n, qy.shape[1]))

    def flush(used, first_row):
        # Z^T += (rows of Q Ycheck)^T buf^T on the transposes, which are the
        # Fortran-ordered arrays BLAS updates in place; BLAS rejects an empty Z
        if z.size:
            scipy.linalg.blas.dgemm(1.0, qy[first_row: first_row + used].T,
                                    buf[:, :used], trans_b=1, beta=1.0, c=z.T,
                                    overwrite_c=1)

    used = first_row = 0
    for block in blocks:
        if used == buf.shape[1]:
            flush(used, first_row)
            used, first_row = 0, first_row + used
        buf[:, used: used + ell] = block
        used += ell
    flush(used, first_row)
    return z


def _next_gap(gap, d, tol, previous, current):
    """Steps from a check that missed tol, with relative residual ``current``,
    to the next one, ``gap`` steps after a check that read ``previous`` (None
    for the first check).  Half the steps that the log-residual slope between
    the two predicts to tol, at most twice ``gap``, rounded down to a multiple
    of d and at least d; d when the residual did not fall."""
    if previous is None or not current < previous:
        return d
    slope = (math.log(current) - math.log(previous)) / gap  # < 0, or -inf
    predicted = (math.log(tol) - math.log(current)) / slope  # > 0, or 0
    return max(int(min(predicted / 2, 2 * gap) // d) * d, d)


def _galerkin(ops, rhss, opts, residual, reduce, true_residual):
    """The outer loop of every solver: one basis per (operator, right-hand
    side) pair, each stepped until it alone becomes invariant.

    The solve stops at the first multiple of d = ``check_period`` at which
    the residual meets tol, or, if all bases become invariant first, at that
    step, but it checks only a growing subset of those multiples: the first
    at d, each later one ``_next_gap`` steps on, and the last multiple of d
    within ``max_m``, plus the step at which every basis is exhausted.  A
    check that meets tol is followed by checks of the multiples of d that it
    skipped, in increasing order, on the leading blocks of each projection
    (T at step m is a view of the band, so each equals the check that step
    would have made); the first of them that meets tol is the stop, and
    otherwise the check that met it.  This relies on the residual not
    falling below tol and rising above it again between two checks.

    A check passes ``residual`` the projection (T, gamma, tau) of each basis;
    a basis exhausted before the checked step gives its full projection.
    ``reduce`` gets the stopping check's ResidualValue and each basis and
    returns Z1, Z2 (None for Lyapunov) and the truncation's discarded mass,
    and with ``opts.verify`` ``true_residual(z1, z2)`` gives the verified
    relative residual.  History rows are the checks made, in the order made,
    each with the cumulative timers when it was recorded; only when no
    skipped step meets tol does the row of the check that met it move after
    the scan's rows.  So m steps back where a skipped step is the stop, the
    timers never decrease, and the last row is the stop.
    """
    step = lanczos_step if opts.space == "standard" else extended_step
    tic = time.perf_counter()
    bases = [init_basis(op, c, space=opts.space, storage=opts.storage)
             for op, c in zip(ops, rhss)]
    t_basis, t_res = time.perf_counter() - tic, 0.0
    d, history = opts.check_period, []

    def check(m):
        nonlocal t_res
        tic = time.perf_counter()
        rv = residual(*[(b.projected_matrix(min(m, b.n_t_blocks)), b.gamma,
                         b.coupling_upper(min(m, b.n_t_blocks))) for b in bases])
        t_res += time.perf_counter() - tic
        return rv

    def record(m, rv):
        history.append((m, m * bases[0].ell, rv.relative, t_basis, t_res))

    last = 0  # the step of the last check
    due, final, previous = d, opts.max_m // d * d, None
    for it in range(1, opts.max_m + 1):
        tic = time.perf_counter()
        for op, basis in zip(ops, bases):
            if not basis.exhausted:
                step(op, basis)
        t_basis += time.perf_counter() - tic
        exhausted = all(basis.exhausted for basis in bases)
        if it != due and not exhausted:
            continue
        rv = None  # frees the last check's k x k eigen-data before the next
        rv = check(it)
        if rv.relative <= opts.tol:
            met = len(history)
            record(it, rv)
            for m in range(last + d, it, d):  # the multiples of d skipped
                earlier = check(m)
                record(m, earlier)
                if earlier.relative <= opts.tol:
                    it, rv = m, earlier
                    break
            else:  # the check that met tol is the stop: its row goes last
                history.append(history.pop(met)[:3] + (t_basis, t_res))
            break
        record(it, rv)
        if exhausted:
            spaces = "both Krylov spaces" if len(bases) > 1 else "the Krylov space"
            raise ConvergenceError(
                "%s became invariant at m=%d without meeting the tolerance "
                "(residual %.3e)" % (spaces, it, rv.relative),
                history,
            )
        gap = _next_gap(it - last, d, opts.tol, previous, rv.relative)
        last, previous, due = it, rv.relative, min(it + gap, final)
    else:
        raise ConvergenceError(
            "no convergence to %.1e within %d iterations (last residual %.3e)"
            % (opts.tol, opts.max_m, rv.relative),
            history,
        )

    tic = time.perf_counter()
    z1, z2, discarded = reduce(rv, *bases)
    t_rec = time.perf_counter() - tic
    return LowRankSolution(
        z1=z1,
        z2=z2,
        rank=z1.shape[1],
        iterations=it,
        space_dim=it * bases[0].ell,
        final_residual=rv.relative,
        history=history,
        basis_seconds=t_basis,
        residual_seconds=t_res,
        recovery_seconds=t_rec,
        peak_basis_vectors=sum(basis.peak_vectors for basis in bases),
        truncation_discarded=discarded,
        verified_residual=true_residual(z1, z2) if opts.verify else None,
    )


def _eigenvectors(rv, message="projected matrix is not negative definite"):
    """Eigenvectors of the converged check's spectra (of T, and of J or of
    the small B), which must be negative definite, and the -Ytilde that the
    check formed from them, rows over T's eigenvalues.

    Both come as LAPACK and the check left them, with arbitrary eigenvector
    signs: a flipped eigenvector flips its row (or column) of -Ytilde too, so
    the signs cancel in the factor's product X ~ Z Z^T (Z1 Z2^T).
    """
    if any(lam[-1] >= 0.0 for lam, _ in rv.spectra):
        raise IndefiniteMatrixError(message)
    return [q for _, q in rv.spectra], rv.y


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

    def reduce(rv, basis):
        (q,), y = _eigenvectors(rv)
        f, discarded = truncated_spd_factor(-y, opts.trunc_eps)
        return two_pass_recover(op, basis, q @ f), None, discarded

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

    def reduce(rv, basis_a, basis_b):
        (q, p), y = _eigenvectors(rv, "a projected matrix is not negative definite")
        f1, f2, discarded = truncated_svd_factor(-y, opts.trunc_eps)
        z1 = two_pass_recover(op_a, basis_a, q @ f1)
        return z1, two_pass_recover(op_b, basis_b, p @ f2), discarded

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
    b = np.atleast_2d(np.asarray(b, dtype=float))
    validate_symmetric(b, "B")
    c1, c2, rhs_norm = _sylvester_rhs(c1, c2)
    if c2.shape[0] != b.shape[0]:
        raise DimensionMismatchError("C2 does not conform with B")
    if not np.isfinite(c2).all():
        raise KrymatError("right-hand side block C2 has a non-finite entry")
    ups, p = np.linalg.eigh(b)
    if ups[-1] >= 0.0:
        raise IndefiniteMatrixError("B must be negative definite")
    p_c2 = p.T @ c2

    def residual(proj):
        t, gamma, tau = proj
        return ctri_sylvester(t, (ups, p), gamma, p_c2, tau, rhs_norm=rhs_norm)

    def reduce(rv, basis):
        (q, p), y = _eigenvectors(rv)
        f1, f2, discarded = truncated_svd_factor(-y, opts.trunc_eps)
        return two_pass_recover(op_a, basis, q @ f1), p @ f2, discarded

    return _galerkin(
        [op_a], [c1], opts, residual, reduce,
        lambda z1, z2: true_sylvester_residual(op_a, z1, z2, c1, c2, lambda m: b @ m)
        / rhs_norm,
    )
