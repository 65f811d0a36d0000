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

One ``KrylovBasis`` object per space holds its basis blocks and T in LAPACK
band storage.  Both step functions share one orthogonalize-and-factor
skeleton, and every step writes T's new blocks into the band once, so T and
its coupling block are read off the basis without rebuilding them.  A residual
block that is numerically zero means the space became invariant: the step
completes T with a zero coupling block and marks the basis exhausted.
"""

from collections import deque

import numpy as np
import scipy.linalg

from .errors import (
    DeflationUnsupportedError,
    DimensionMismatchError,
    KrymatError,
)
from .kernels import BlockTridiagonal, economy_qr, rank_deficient

#: Residual blocks below this size (relative to the unorthogonalized block)
#: mean the Krylov space hit an invariant subspace: the projection is exact.
ZERO_BLOCK_TOL = 1e-13


class KrylovBasis:
    """One block Krylov space: its basis blocks and the projection T on them.

    Basis blocks: the last three, all a step needs.  ``stored`` mode also
    keeps every block in ``stored``, so the solution factor is read from
    them; extended ``windowed`` mode keeps the second half of every block in
    ``second_halves``, which lets a second pass regenerate the basis without
    any inverse-applies.  ``v1``, the first block, is where a second pass
    starts.

    Projection: each step writes T's new block column [D; O], D symmetrized
    and O the coupling block to the next basis block, as ell columns of
    LAPACK lower band storage with ell + 1 rows, which hold all of T since
    every coupling block is upper triangular.  ``last_coupling`` keeps the
    last O whole.  ``r_sub[i]`` is the R factor of basis block i + 1:
    ``r_sub[0]`` that of the initial QR (of C, or of [C, A^{-1}C] in extended
    mode), whose first s columns are ``gamma``, and ``r_sub[i]``, i >= 1,
    that of the block step i makes.  A second basis pass checks its
    recomputed coefficients against them to detect nondeterministic
    operators, and the extended T recurrence reads the previous one.
    Extended mode also keeps ``last_diag_sum``, the Gram-Schmidt
    coefficients of the last step against its current block.
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
        self._band_cols = []
        self.last_coupling = None
        self.r_sub = [r0]
        self.last_diag_sum = None
        # set when the space became invariant: the projection is exact and
        # the coupling to any further block is zero
        self.exhausted = False
        self._push(v1)

    def _push(self, block):
        self._window.append(block)
        if self.stored is not None:
            self.stored.append(block)
        if self.second_halves is not None:
            self.second_halves.append(block[:, self.s:].copy())

    @property
    def gamma(self):
        """The coefficient of C in the first basis block: C = V_1 gamma."""
        return self.r_sub[0][:, : self.s]

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
        """Write this step's strip [D; O], D symmetrized in place, into T's
        band (row i of the step's column q is strip[q + i, q]) and keep O;
        then push the next basis block, or mark the space exhausted."""
        ell = self.ell
        strip[:ell] = 0.5 * (strip[:ell] + strip[:ell].T)
        q = np.arange(ell)
        self._band_cols.append(strip[q + np.arange(ell + 1)[:, None], q])
        self.last_coupling = strip[ell:]
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

    def projected_matrix(self):
        """The symmetric block tridiagonal projection T accumulated so far.

        The band is a new array, so a T taken now does not grow with later
        steps.  The last block column's entries past row k, the coupling to
        the next block, are zeroed: T excludes them.
        """
        if self.n_t_blocks < 1:
            raise DimensionMismatchError("no completed projection blocks yet")
        band = np.concatenate(self._band_cols, axis=1)
        for i in range(1, self.ell + 1):
            band[i, -i:] = 0.0
        return BlockTridiagonal(self.ell, band)

    def coupling_upper(self):
        """The nonzero upper s rows of the coupling block (all of it in
        standard mode, where s == ell)."""
        return self.last_coupling[: self.s]


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
    w0 = np.hstack([c, op.solve(c)])
    return KrylovBasis(space, storage, *_qr_new_block(w0, "initial QR of [C, inv(A) C]"))


def _next_block(op, basis):
    """Orthogonalize the new directions of step ``basis.m`` and factor them.

    The directions are A V_m in standard mode and [A V_m^(1), A^{-1} V_m^(2)]
    in extended mode.  Appends the R factor of the new block to
    ``basis.r_sub`` and returns the new block with the Gram-Schmidt sum
    against the current block.  A numerically zero residual block means the
    space became invariant: the new block is then None and its R factor zero.
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
    w, diag_sum = mgs_twice(w, older, current)
    if np.linalg.norm(w) <= ZERO_BLOCK_TOL * scale:
        v_next, r = None, np.zeros((basis.ell, basis.ell))
    else:
        v_next, r = _qr_new_block(w, context % basis.m)
    basis.r_sub.append(r)
    return v_next, diag_sum


def lanczos_step(op, basis):
    """One step of block Lanczos with block MGS (performed twice): T gains
    one diagonal and one coupling block, the basis its next block, or, on
    an invariant space, a zero coupling block and the exhausted mark."""
    v_next, diag_sum = _next_block(op, basis)
    basis._record(np.vstack([diag_sum, basis.r_sub[-1]]), v_next)


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
    v_next, diag_sum = _next_block(op, basis)
    strip = np.vstack([diag_sum, basis.r_sub[-1]])  # last s columns solved below
    rhs = np.zeros((2 * ell, s))
    if basis.m == 1:
        # base case from the initial QR: T(:,1) kappa2 = E1 kappa1
        rhs[:ell] = basis.gamma
    else:
        # recurrence: of the older blocks of column m - 1, only its coupling
        # block shares rows with the strip
        rhs[:ell] -= basis.last_coupling @ basis.last_diag_sum[:, s:]
    r_prev = basis.r_sub[-2]  # of the current block: [C, A^{-1}C]'s at m = 1
    rhs -= strip[:, :s] @ r_prev[:s, s:]
    # X R = rhs as R^T X^T = rhs^T
    strip[:, s:] = scipy.linalg.solve_triangular(r_prev[s:, s:], rhs.T, lower=False,
                                                 trans="T").T
    if v_next is None:
        strip[ell:] = 0.0
    basis.last_diag_sum = diag_sum
    basis._record(strip, v_next)
