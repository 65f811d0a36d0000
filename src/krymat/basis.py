"""Block Krylov basis construction.

Builds orthonormal bases of the block standard Krylov space spanned by
[C, AC, A^2 C, ...] or the extended space spanned by [C, A^{-1}C, AC, ...],
together with the projected block tridiagonal matrix.  One step of block
Lanczos orthogonalizes the new block against the previous two by modified
block Gram-Schmidt performed twice, so only a three-block window of the
basis is ever required; the ``stored`` mode additionally retains all blocks.

In extended mode the orthogonalization coefficients form a block tridiagonal
matrix H that differs from the projection T = V' A V; the columns of T are
recovered during the iteration by a short recurrence that uses only the
coefficients and the triangularity of the QR factors.
"""

from collections import deque

import numpy as np
import scipy.linalg

from .errors import DeflationUnsupportedError, DimensionMismatchError, FactorizationError
from .kernels import BlockTridiagonal, economy_qr, rank_deficient

#: Tolerated relative size of the (theoretically zero) lower part of the
#: coupling blocks recovered by the extended-mode recurrence.
STRUCTURE_TOL = 1e-8

#: Residual blocks below this size (relative to the unorthogonalized block)
#: mean the Krylov space hit an invariant subspace: the projection is exact.
ZERO_BLOCK_TOL = 1e-13


class BasisWindow:
    """Sliding window over the basis blocks, optionally storing all of them.

    ``windowed`` keeps the last three blocks (all a step needs); ``stored``
    keeps every block so the solution factor can be assembled directly.
    Extended windowed mode also retains the second half-blocks, which lets a
    second pass regenerate the basis without any inverse-applies.
    """

    def __init__(self, mode, extended=False):
        if mode not in ("windowed", "stored"):
            raise ValueError("storage mode must be 'windowed' or 'stored'")
        self._window = deque(maxlen=3)
        self.stored = [] if mode == "stored" else None
        self.second_halves = [] if (extended and mode == "windowed") else None
        self.generated = 0
        self.peak_vectors = 0

    def push(self, block):
        self._window.append(block)
        self.generated += 1
        if self.stored is not None:
            self.stored.append(block)
        if self.second_halves is not None:
            half = block.shape[1] // 2
            self.second_halves.append(block[:, half:].copy())
        self.peak_vectors = max(self.peak_vectors, self._held_vectors())

    def _held_vectors(self):
        # storage accounting convention: the in-flight block of stored mode
        # is not counted, so a converged run reports ell*m vs 3*ell
        if self.stored is not None:
            return max(self.generated - 1, 1) * self._window[-1].shape[1]
        count = len(self._window) * self._window[-1].shape[1]
        if self.second_halves is not None:
            count += sum(h.shape[1] for h in self.second_halves)
        return count

    def last_two(self):
        """The two most recent blocks, oldest first (None when only one exists)."""
        if len(self._window) == 1:
            return None, self._window[-1]
        return self._window[-2], self._window[-1]

    def basis_blocks(self, m):
        """The first m stored basis blocks (stored mode only)."""
        if self.stored is None:
            raise DimensionMismatchError("basis blocks were not stored")
        return self.stored[:m]


class ProjectionState:
    """Coefficients of the projection accumulated during basis construction.

    The raw modified Gram-Schmidt sums are kept separately from the QR
    factors: the symmetric projected matrix is assembled from them on
    demand, and a second basis pass checks its recomputed coefficients
    against them to detect nondeterministic operators.
    """

    def __init__(self, space, s, gamma, rhs):
        self.space = space
        self.s = s
        self.ell = s if space == "standard" else 2 * s
        self.gamma = gamma
        self.rhs = rhs
        self.m = 1
        # standard mode: per-step diagonal MGS sums and QR factors
        self.diag_raw = []
        self.sub = []
        # extended mode: the same for H, plus the off-diagonal MGS sums the
        # T recurrence reads and the recovered T block columns
        self.h_diag_raw = []
        self.h_off_mgs = []
        self.h_sub = []
        self.t_cols = []
        self.kappa12 = None
        self.kappa22 = None
        self.v1 = None
        self.structure_defect = 0.0
        # set when the space became invariant: the projection is exact and
        # the coupling to any further block is zero
        self.exhausted = False

    @property
    def n_t_blocks(self):
        """Number of completed diagonal blocks of the projected matrix."""
        return self.m - 1

    def _col_block(self, col_idx, row_block):
        col = self.t_cols[col_idx]
        ell = self.ell
        if (row_block + 1) * ell > col.shape[0]:
            return np.zeros((ell, ell))
        return col[row_block * ell:(row_block + 1) * ell, :]

    def projected_matrix(self):
        """The symmetric block tridiagonal projection T accumulated so far."""
        ell, m = self.ell, self.n_t_blocks
        if m < 1:
            raise DimensionMismatchError("no completed projection blocks yet")
        if self.space == "standard":
            diag = [0.5 * (d + d.T) for d in self.diag_raw[:m]]
            off = list(self.sub[:m - 1])
        else:
            diag = []
            off = []
            for i in range(m):
                d = self._col_block(i, i)
                diag.append(0.5 * (d + d.T))
                if i + 1 < m:
                    off.append(self._col_block(i, i + 1))
        return BlockTridiagonal(ell, diag, off)

    def coupling_block(self):
        """tau_{m+1,m}: the block linking the projection to the next basis block."""
        m = self.n_t_blocks
        if self.space == "standard":
            return self.sub[m - 1]
        return self._col_block(m - 1, m)

    def coupling_upper(self):
        """The nonzero upper part of the coupling block (extended mode)."""
        tau = self.coupling_block()
        if self.space == "standard":
            return tau
        return tau[: self.s, :]


def mgs_twice(w, older, current):
    """Orthogonalize w against the window blocks, MGS performed twice.

    Returns the updated w and the summed coefficients (older-block sum is
    None when there is no older block).
    """
    off_sum = None if older is None else np.zeros((older.shape[1], w.shape[1]))
    diag_sum = np.zeros((current.shape[1], w.shape[1]))
    for _ in range(2):
        if older is not None:
            alpha = older.T @ w
            off_sum += alpha
            w = w - older @ alpha
        alpha = current.T @ w
        diag_sum += alpha
        w = w - current @ alpha
    return w, off_sum, diag_sum


def _qr_new_block(w, context):
    q, r = economy_qr(w)
    if rank_deficient(r):
        raise DeflationUnsupportedError(
            "%s produced a rank-deficient block; deflation is not supported" % context
        )
    return q, r


def init_basis(op, c, space="standard", storage="stored"):
    """Set up the first basis block and an empty projection state.

    Standard mode starts from the QR of C; extended mode from the QR of
    [C, A^{-1}C], which doubles the block size.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != op.n:
        raise DimensionMismatchError(
            "right-hand side block of shape %s does not match operator order %d"
            % (c.shape, op.n)
        )
    s = c.shape[1]
    window = BasisWindow(storage, extended=(space == "extended"))
    if space == "standard":
        v1, gamma = _qr_new_block(c, "initial QR of C")
        state = ProjectionState(space, s, gamma, c)
    elif space == "extended":
        w0 = np.hstack([c, op.solve(c)])
        v1, kappa = _qr_new_block(w0, "initial QR of [C, inv(A) C]")
        state = ProjectionState(space, s, kappa[:, :s], c)
        state.kappa12 = kappa[:s, s:]
        state.kappa22 = kappa[s:, s:]
        state.v1 = v1
    else:
        raise ValueError("space must be 'standard' or 'extended'")
    window.push(v1)
    return window, state


def lanczos_step(op, window, state, on_zero_residual="raise"):
    """One step of block Lanczos with block MGS (performed twice).

    Extends the projection by one diagonal block and one coupling block and
    pushes the next basis block into the window.  A residual block that is
    numerically zero means the space became invariant; by default that is
    reported as a breakdown, with ``on_zero_residual="finalize"`` the
    projection is completed with a zero coupling block instead and the state
    is marked exhausted (the projected solution is then exact).
    """
    if state.exhausted:
        raise DeflationUnsupportedError("the Krylov space is already invariant")
    older, current = window.last_two()
    w = op.apply(current)
    scale = np.linalg.norm(w)
    w, _, diag_sum = mgs_twice(w, older, current)
    if on_zero_residual == "finalize" and np.linalg.norm(w) <= ZERO_BLOCK_TOL * scale:
        state.diag_raw.append(diag_sum)
        state.sub.append(np.zeros((state.ell, state.ell)))
        state.m += 1
        state.exhausted = True
        return window, state
    v_next, tau = _qr_new_block(w, "Lanczos step %d" % state.m)
    state.diag_raw.append(diag_sum)
    state.sub.append(tau)
    window.push(v_next)
    state.m += 1
    return window, state


def _right_triangular_solve(rhs, r):
    """Solve X R = rhs for upper triangular R."""
    return scipy.linalg.solve_triangular(r, rhs.T, lower=False, trans="T").T


def _padded(col, rows):
    if col.shape[0] == rows:
        return col
    out = np.zeros((rows, col.shape[1]))
    out[: col.shape[0]] = col
    return out


def extended_step(op, window, state, on_zero_residual="raise"):
    """One step of the extended Krylov iteration.

    The new directions are A V^{(1)} and A^{-1} V^{(2)}; the projection
    column is recovered from the orthogonalization coefficients, the first
    half directly, the second half through the three-term recurrence that
    inverts the upper triangular QR factor of the previous step.  Zero
    residual blocks behave as in ``lanczos_step``.
    """
    if state.exhausted:
        raise DeflationUnsupportedError("the Krylov space is already invariant")
    s, ell = state.s, state.ell
    big_m = state.m
    older, current = window.last_two()
    w = np.hstack([op.apply(current[:, :s]), op.solve(current[:, s:])])
    scale = np.linalg.norm(w)
    w, off_sum, diag_sum = mgs_twice(w, older, current)
    exhausted = (
        on_zero_residual == "finalize"
        and np.linalg.norm(w) <= ZERO_BLOCK_TOL * scale
    )
    if exhausted:
        v_next, theta_sub = None, np.zeros((ell, ell))
    else:
        v_next, theta_sub = _qr_new_block(w, "extended step %d" % big_m)
    state.h_off_mgs.append(off_sum)
    state.h_diag_raw.append(diag_sum)
    state.h_sub.append(theta_sub)

    # T block column big_m (rows 1 .. big_m+1)
    rows = (big_m + 1) * ell
    col = np.zeros((rows, ell))
    col[(big_m - 1) * ell: big_m * ell, :s] = diag_sum[:, :s]
    col[big_m * ell:, :s] = theta_sub[:, :s]
    if off_sum is not None:
        col[(big_m - 2) * ell: (big_m - 1) * ell, :s] = off_sum[:, :s]

    if big_m == 1:
        # base case from the initial QR: T(:,1) kappa2 = E1 kappa1
        rhs = np.zeros((rows, s))
        rhs[:ell] = state.gamma
        rhs -= col[:, :s] @ state.kappa12
        col[:, s:] = _right_triangular_solve(rhs, state.kappa22)
    else:
        # recurrence on the second half-columns of the previous step
        theta_diag2 = state.h_diag_raw[big_m - 2][:, s:]
        theta_sub2 = state.h_sub[big_m - 2][:, s:]
        rhs = np.zeros((rows, s))
        rhs[(big_m - 2) * ell + s: (big_m - 1) * ell] = np.eye(s)
        if big_m >= 3:
            theta_off2 = state.h_off_mgs[big_m - 2][:, s:]
            rhs -= _padded(state.t_cols[big_m - 3], rows) @ theta_off2
        rhs -= _padded(state.t_cols[big_m - 2], rows) @ theta_diag2
        rhs -= col[:, :s] @ theta_sub2[:s, :]
        col[:, s:] = _right_triangular_solve(rhs, theta_sub2[s:, :])

    # the recovered coupling block must have a zero lower s x 2s part;
    # measured against the whole column since the coupling itself shrinks
    # as the iteration converges
    lower = col[big_m * ell + s:, :]
    scale = max(np.linalg.norm(col), 1e-300)
    defect = np.linalg.norm(lower) / scale
    state.structure_defect = max(state.structure_defect, defect)
    if defect > STRUCTURE_TOL:
        raise FactorizationError(
            "extended-mode recurrence lost the block tridiagonal structure "
            "(relative defect %.3e)" % defect
        )
    col[big_m * ell + s:, :] = 0.0

    state.t_cols.append(col)
    if exhausted:
        col[big_m * ell:, :] = 0.0
        state.exhausted = True
    else:
        window.push(v_next)
    state.m += 1
    return window, state
