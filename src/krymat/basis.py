"""Block Krylov basis construction.

Builds orthonormal bases of the block standard Krylov space spanned by
[C, AC, A^2 C, ...] or the extended space spanned by [C, A^{-1}C, AC, ...],
together with the projected block tridiagonal matrix.  One step of block
Lanczos orthogonalizes the new block against the previous two by modified
block Gram-Schmidt performed twice, so only a three-block window of the
basis is ever required; the ``stored`` mode additionally retains all blocks.

In extended mode the orthogonalization coefficients form a block tridiagonal
matrix H that differs from the projection T = V' A V; each step recovers
T's new diagonal and coupling blocks by a short recurrence that uses only
the coefficients and the triangularity of the QR factors.

One ``KrylovBasis`` object per space holds its basis blocks and one LAPACK
band that holds T and every coupling block.  Both step functions share one
orthogonalize-and-factor skeleton, and every step writes T's new blocks into
the band once, so T at any step is a view of it.  A residual block that is
numerically zero means the space became invariant: the step completes T
with a zero coupling block and marks the basis exhausted.  A basis of n
columns whose residual block is rounding is exhausted too, with that block
kept as T's coupling, so no basis outgrows a space it spans.
"""

import math
from collections import deque

import numpy as np
import scipy.linalg

from .errors import (
    DeflationUnsupportedError,
    DimensionMismatchError,
    KrymatError,
    NonFiniteOperatorError,
)
from .kernels import BlockTridiagonal, economy_qr, rank_deficient

#: Residual blocks below this size (relative to the unorthogonalized block)
#: mean the Krylov space hit an invariant subspace: the projection is exact.
ZERO_BLOCK_TOL = 1e-13

#: Once the basis has n columns no new direction exists, so a residual block
#: below this size (relative as above, about sqrt(eps)) is the rounding of a
#: basis that spans the whole space: the basis gets no further block.  A
#: larger one means the recurrence lost orthogonality before reaching n, and
#: it runs on past the order, as Lanczos does.
ORDER_BLOCK_TOL = 1e-8


class KrylovBasis:
    """One block Krylov space: its basis blocks and the projection T on them.

    Basis blocks: the last three, all a step needs.  ``stored`` mode also
    keeps every block in ``stored``, so the solution factor is read from
    them; extended ``windowed`` mode keeps the second half of every block in
    ``second_halves``, which lets a second pass regenerate the basis without
    any inverse-applies.  ``v1``, the first block, is where a second pass
    starts.

    Projection: one array in LAPACK lower band storage, ell + 1 rows, holds
    T and every coupling block O to the next basis block, all upper
    triangular.  Each step writes its block column [D; O] as the next ell
    columns, so T at any step is a view (``projected_matrix``) and every O
    is read from it (``coupling``).  ``gamma`` is the first s columns of the
    initial QR's R factor (of C, or of [C, A^{-1}C] in extended mode), and
    ``r_last`` the R factor of the newest block.  Extended mode also keeps
    ``last_diag_sum``, the Gram-Schmidt sum of the last step's current block.
    """

    def __init__(self, space, storage, v1, r0):
        self.space = space
        self.ell = r0.shape[0]
        self.s = self.ell // 2 if space == "extended" else self.ell
        self.v1 = v1
        self.m = 1
        self._window = deque(maxlen=3)
        self.stored = [] if storage == "stored" else None
        halves = space == "extended" and storage == "windowed"
        self.second_halves = [] if halves else None
        self.gamma = r0[:, : self.s]
        self.r_last = r0
        self.last_diag_sum = None
        # set when the space became invariant, or spans all n dimensions:
        # the basis gets no further block
        self.exhausted = False
        self._band = np.empty((self.ell + 1, 8 * self.ell), order="F")  # 8 steps
        q = np.arange(self.ell)
        self._strip_index = (q + np.arange(self.ell + 1)[:, None], q)
        i, j = np.triu_indices(self.ell)
        self._coupling_index = (i, j, self.ell + i - j)
        self._push(v1)

    def _push(self, block):
        self._window.append(block)
        if self.stored is not None:
            self.stored.append(block)
        if self.second_halves is not None:
            self.second_halves.append(block[:, self.s:].copy())

    @property
    def peak_vectors(self):
        """The most basis vectors held at once: the number held now, since
        blocks are only ever added.  The in-flight block of stored mode is
        not counted, so a converged run reports ell*(m-1) vs 3*ell."""
        if self.stored is not None:
            return max(len(self.stored) - 1, 1) * self.ell
        count = len(self._window) * self.ell
        if self.second_halves is not None:
            count += len(self.second_halves) * self.s
        return count

    def _record(self, strip, v_next):
        """Write this step's strip [D; O], D symmetrized in place, as the
        band's next ell columns (row i of column q is strip[q + i, q]), in
        an array of twice the capacity once full, so a view taken earlier
        keeps its T; then push the next block, or mark the space exhausted."""
        ell, first = self.ell, (self.m - 1) * self.ell
        strip[:ell] = 0.5 * (strip[:ell] + strip[:ell].T)
        if first == self._band.shape[1]:  # the new array keeps Fortran order
            self._band = np.concatenate([self._band, np.empty_like(self._band)], axis=1)
        self._band[:, first: first + ell] = strip[self._strip_index]
        if v_next is None:
            self.exhausted = True
        else:
            self._push(v_next)
        self.m += 1

    def last_two(self):
        """The two most recent blocks, oldest first (None when only one exists)."""
        if len(self._window) == 1:
            return None, self._window[-1]
        return self._window[-2], self._window[-1]

    @property
    def n_t_blocks(self):
        """Number of completed diagonal blocks of the projected matrix."""
        return self.m - 1

    def _completed(self, m):
        m = self.n_t_blocks if m is None else m
        if not 1 <= m <= self.n_t_blocks:
            raise DimensionMismatchError("projection block %d is not completed" % m)
        return m

    def projected_matrix(self, m=None):
        """T_m after step m (default: the latest), a view of the band's first
        m ell columns, which later steps never write; its entries past the
        order, which band storage never reads, hold O_m."""
        return BlockTridiagonal(self.ell, self._band[:, : self._completed(m) * self.ell])

    def coupling(self, m=None):
        """O_m, the coupling block from basis block m to m + 1 (default: the
        latest): entry (i, j), j >= i, is in band row ell + i - j of column
        (m - 1) ell + j, and the strictly lower part is zero."""
        m, (i, j, rows) = self._completed(m), self._coupling_index
        o = np.zeros((self.ell, self.ell))
        o[i, j] = self._band[:, (m - 1) * self.ell: m * self.ell][rows, j]
        return o

    def coupling_upper(self, m=None):
        """The nonzero upper s rows of O_m (all of it in standard mode,
        where s == ell)."""
        return self.coupling(m)[: self.s]


def _times(block, alpha, out):
    """block @ alpha into ``out``; for a one-column block the broadcast
    product, whose entries are the same single products without a matmul
    call."""
    if block.shape[1] == 1:
        return np.multiply(block, alpha, out=out)
    return np.matmul(block, alpha, out=out)


def mgs_twice(w, older, current):
    """Orthogonalize w against the window blocks, MGS performed twice.

    Returns the updated w and the summed coefficients against ``current``,
    which give T's diagonal block; the coefficients against ``older`` (None
    before the second step) only repeat earlier couplings and are not kept.
    Every block product goes into one scratch block; the first subtraction
    makes the new w, which the later ones update in place, so the caller's w
    is left as it was.
    """
    blocks = (current,) if older is None else (older, current)
    diag_sum = np.zeros((current.shape[1], w.shape[1]))
    prod = np.empty(w.shape)
    out = None
    for _ in range(2):
        for block in blocks:
            alpha = block.T @ w
            w = np.subtract(w, _times(block, alpha, prod), out=out)
            out = w
        diag_sum += alpha  # the last alpha of a pass is current's
    return w, diag_sum


def check_finite(value, context, source):
    """Raise NonFiniteOperatorError if ``value`` is not finite.  Callers pass
    a number that is finite exactly when the block that the operator's
    ``source`` ("apply" or "solve") returned is: its norm, or a sum over it."""
    if not math.isfinite(value):
        raise NonFiniteOperatorError("%s: the operator's %s returned a non-finite "
                                     "block" % (context, source))


def _qr_new_block(w, context):
    q, r = economy_qr(w)
    if rank_deficient(r):
        raise DeflationUnsupportedError(
            "%s produced a rank-deficient block; deflation is not supported" % context
        )
    return q, r


def init_basis(op, c, space="standard", storage="stored"):
    """Set up the first basis block and an empty projection.

    Standard mode starts from the QR of C; extended mode from the QR of
    [C, A^{-1}C], which doubles the block size and needs an operator that
    can solve with A.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != op.n:
        raise DimensionMismatchError(
            "right-hand side block of shape %s does not match operator order %d"
            % (c.shape, op.n)
        )
    if not np.isfinite(c).all():
        raise KrymatError("right-hand side block C has a non-finite entry")
    if storage not in ("windowed", "stored"):
        raise ValueError("storage mode must be 'windowed' or 'stored'")
    if space == "standard":
        return KrylovBasis(space, storage, *_qr_new_block(c, "initial QR of C"))
    if space != "extended":
        raise ValueError("space must be 'standard' or 'extended'")
    if not op.can_solve:
        raise KrymatError(
            "the extended Krylov space needs solves with A, which this operator "
            "cannot do; use the standard space"
        )
    solved = op.solve(c)
    check_finite(np.linalg.norm(solved), "initial block", "solve")
    w0 = np.hstack([c, solved])
    return KrylovBasis(space, storage, *_qr_new_block(w0, "initial QR of [C, inv(A) C]"))


def _next_block(op, basis):
    """Orthogonalize the new directions of step ``basis.m`` and factor them.

    The directions are A V_m in standard mode and [A V_m^(1), A^{-1} V_m^(2)]
    in extended mode; if their norm is not finite, NonFiniteOperatorError
    names the step and the call (apply or solve) that made them.  Sets
    ``basis.r_last`` to the R factor of the new block and returns the new
    block with the Gram-Schmidt sum against the current block.  A
    numerically zero residual block means the space became invariant: the
    new block is then None and its R factor zero.  Once the basis holds
    ``op.n`` columns, a block below ORDER_BLOCK_TOL also ends the space: the
    new block is None, but its R factor is kept as T's coupling block, so a
    check at this step measures the residual the rounding leaves.
    """
    if basis.exhausted:
        raise DeflationUnsupportedError("the Krylov space is already invariant")
    older, current = basis.last_two()
    if basis.space == "standard":
        w, context = op.apply(current), "Lanczos step %d"
    else:
        s = basis.s
        w = np.hstack([op.apply(current[:, :s]), op.solve(current[:, s:])])
        context = "extended step %d"
    scale = np.linalg.norm(w)
    if not math.isfinite(scale):  # the first s columns (all, standard) were applied
        check_finite(np.linalg.norm(w[:, : basis.s]), context % basis.m, "apply")
        check_finite(scale, context % basis.m, "solve")
    w, diag_sum = mgs_twice(w, older, current)
    left = np.linalg.norm(w)
    if left <= ZERO_BLOCK_TOL * scale:
        v_next, r = None, np.zeros((basis.ell, basis.ell))
    elif basis.m * basis.ell >= op.n and left <= ORDER_BLOCK_TOL * scale:
        v_next, r = None, economy_qr(w)[1]  # T keeps the coupling it has
    else:
        v_next, r = _qr_new_block(w, context % basis.m)
    basis.r_last = r
    return v_next, diag_sum


def lanczos_step(op, basis):
    """One step of block Lanczos with block MGS (performed twice): T gains
    one diagonal and one coupling block, the basis its next block, or, on
    an invariant space, a zero coupling block and the exhausted mark."""
    v_next, diag_sum = _next_block(op, basis)
    basis._record(np.vstack([diag_sum, basis.r_last]), v_next)


def extended_step(op, basis):
    """One step of the extended Krylov iteration.

    The new directions are A V_m^(1) and A^{-1} V_m^(2).  T's block column m
    comes from the orthogonalization coefficients: its first s columns
    directly, its last s by solving X R = rhs, with R the trailing s x s
    block of the previous step's QR factor (of [C, A^{-1}C] at m = 1).
    That solve works row by row, so only the rows of T's two new blocks are
    formed, the 2 ell x ell strip [D; O]; their right-hand side reads only
    the previous coupling block and Gram-Schmidt sum, so a step's work does
    not grow with m.  The lower s rows of O come out exact zeros, products
    of the zeros of upper triangular factors.  Zero residual blocks behave
    as in ``lanczos_step``.
    """
    s, ell = basis.s, basis.ell
    r_prev = basis.r_last  # of the current block: [C, A^{-1}C]'s at m = 1
    v_next, diag_sum = _next_block(op, basis)
    strip = np.vstack([diag_sum, basis.r_last])  # last s columns solved below
    rhs = np.zeros((2 * ell, s))
    if basis.m == 1:
        # base case from the initial QR: T(:,1) kappa2 = E1 kappa1
        rhs[:ell] = basis.gamma
    else:
        # recurrence: of the older blocks of column m - 1, only its coupling
        # block shares rows with the strip
        rhs[:ell] -= basis.coupling() @ basis.last_diag_sum[:, s:]
    rhs -= strip[:, :s] @ r_prev[:s, s:]
    # X R = rhs as R^T X^T = rhs^T
    strip[:, s:] = scipy.linalg.solve_triangular(r_prev[s:, s:], rhs.T, lower=False,
                                                 trans="T").T
    basis.last_diag_sum = diag_sum
    basis._record(strip, v_next)
