"""Dense small-matrix kernels.

Everything here operates on the projected (small) matrices of the outer
iteration: economy QR, the eigendecomposition of symmetric block
tridiagonal matrices that the residual check and the solution factor share
(one LAPACK call on the band the basis writes), tridiagonal eigensolution,
and truncated low-rank factorizations.  The eigensolves return LAPACK's
eigenvectors as they come, with arbitrary signs: neither the residual norm
nor the solution X ~ Z Z^T built from them depends on the signs, so nothing
fixes them.
``band_tridiagonalize`` is not on any solver path: it is the dense
Householder reference the banded eigensolve is tested against.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    FactorizationError,
    IndefiniteMatrixError,
)

#: Relative threshold below which a triangular diagonal entry flags rank
#: deficiency of the factored block.
RANK_TOL = 1e-12

#: Default tail mass allowed when truncating a low-rank factorization.
TRUNC_EPS = 1e-12

#: Guard for eigenvalue-sum denominators, relative to the spectral radius.
DENOM_TOL = 1e-14


def guarded_denominators(left, right):
    """Pairwise eigenvalue sums left_i + right_j with a singularity guard.

    Raises if any sum is negligible relative to the spectral radius, which
    happens exactly when the underlying matrices are not definite of one
    sign.  Rounding is monotone, so when the largest sum is negative (or the
    smallest positive) the sums do not change sign and the one nearest zero
    is that extreme sum, as rounded; only mixed signs need the k^2 scan.
    """
    denom = left[:, None] + right[None, :]
    lo_l, hi_l, lo_r, hi_r = left.min(), left.max(), right.min(), right.max()
    scale = max(-lo_l, hi_l, -lo_r, hi_r)  # the largest |eigenvalue|
    high, low = hi_l + hi_r, lo_l + lo_r
    nearest = -high if high < 0.0 else low if low > 0.0 else np.min(np.abs(denom))
    if nearest < DENOM_TOL * scale:
        raise IndefiniteMatrixError(
            "eigenvalue-sum denominator is numerically singular; "
            "coefficient matrices must be definite (of one sign)"
        )
    return denom


@dataclass
class BlockTridiagonal:
    """Symmetric block tridiagonal matrix in LAPACK lower band storage.

    ``band[i, c]`` is entry (c + i, c) of the matrix, for c + i below its
    order; entries past the last row are not read (a view of a basis's band
    holds the next coupling block there).  With ``block_size`` ell the band
    has at most 2 ell rows: ell + 1 when the coupling blocks are upper
    triangular, as the Krylov bases make them, 2 ell for general blocks.
    """

    block_size: int
    band: np.ndarray

    def __post_init__(self):
        band = self.band
        if (band.ndim != 2 or not 2 <= band.shape[0] <= 2 * self.block_size
                or band.shape[1] % self.block_size):
            raise DimensionMismatchError("band of shape %s does not fit block size %d"
                                         % (band.shape, self.block_size))

    @property
    def dim(self):
        return self.band.shape[1]

    def to_dense(self):
        k = self.dim
        lower = sum(np.diag(row[: k - i], -i) for i, row in enumerate(self.band[:k]))
        return lower + np.tril(lower, -1).T


def frobenius_norm(x):
    """||x||_F by the arithmetic of ``np.linalg.norm(x)``, to the last bit:
    the square root of the dot product of x, flattened in memory order, with
    itself, without the dispatch of that function."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


@functools.lru_cache(maxsize=64)
def _qr_lwork(n, c):
    """The optimal ``dgeqrf`` workspace for an n x c block, which ``dorgqr``
    shares (c times the block size)."""
    return int(scipy.linalg.lapack.dgeqrf_lwork(n, c)[0])


def economy_qr(w):
    """Economy-size QR with the sign convention diag(R) >= 0.

    The sign normalization makes the factorization unique (for full-rank
    input), which the two-pass basis regeneration relies on.  A single
    column is normalized directly: a zero column gives R = 0, so
    ``rank_deficient`` flags it, and Q = e_1 as from Householder QR, and a
    column whose norm is not finite raises FactorizationError, as does a
    wider block whose R has a diagonal entry that is not finite.  Wider blocks
    go straight to LAPACK's ``dgeqrf`` and ``dorgqr``, the calls that
    ``scipy.linalg.qr(mode="economic")`` makes, without its wrapper, and
    with the optimal workspace that scipy queries, so a block wide enough
    for LAPACK's blocked code takes the same path as in scipy.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < w.shape[1]:
        raise DimensionMismatchError(
            "economy QR needs a tall matrix, got shape %s" % (w.shape,)
        )
    n, c = w.shape
    if c == 1:
        norm = scipy.linalg.blas.dnrm2(w[:, 0])  # scaled: no under/overflow
        if not math.isfinite(norm):
            raise FactorizationError("QR of a column with a non-finite norm")
        q = w / norm if norm > 0.0 else np.eye(n, 1)
        return q, np.array([[norm]])
    lapack, lwork = scipy.linalg.lapack, _qr_lwork(n, c)
    qr, tau, _, _ = lapack.dgeqrf(w, lwork=lwork)
    r = qr[:c].copy()
    if not np.isfinite(r.diagonal()).all():  # a NaN or inf in w spreads to it
        raise FactorizationError("QR of a block with a non-finite entry")
    for i in range(1, c):  # R is the upper triangle; at these widths this
        r[i, :i] = 0.0     # loop costs less than np.triu's mask
    q, _, _ = lapack.dorgqr(qr, tau, lwork=lwork, overwrite_a=1)
    signs = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    # Q comes back in Fortran order; the basis keeps its blocks C-ordered.
    # The Gram products block.T @ w of later steps round by the block's
    # layout: a C-ordered block gives the same bits whatever w's layout, an
    # F-ordered one does not (at widths 2 and 3, and at some n at width 4)
    return np.multiply(q, signs, order="C"), signs[:, None] * r


def rank_deficient(r):
    """Whether an upper triangular QR factor flags a rank-deficient block.

    Uses ``|r_ii| < RANK_TOL * ||R||_F``; since ``||R||_F = ||W||_F`` the test
    is relative to the factored matrix.  The caller decides how to react.
    """
    ref = frobenius_norm(r)
    if ref == 0.0:
        return True
    return bool(np.abs(r.diagonal()).min() < RANK_TOL * ref)


def band_tridiagonalize(t):
    """``(d, e, p)`` with ``P^T T P = tridiag(e, d, e)``, P orthogonal, from
    one dense Householder reduction of T (P = I exactly if T is tridiagonal).

    No solver calls this: followed by ``sym_tridiag_eig`` it is the
    reference that ``partial_eig_blocktridiag`` is tested against.
    """
    h, p = scipy.linalg.hessenberg(t.to_dense(), calc_q=True)
    return np.diag(h).copy(), np.diag(h, -1).copy(), p


def sym_tridiag_eig(d, e):
    """Full eigendecomposition of a symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``.

    One call to LAPACK's divide-and-conquer ``dstevd``, which stays
    orthogonal on the tight eigenvalue clusters of long Lanczos runs.
    Returns ascending eigenvalues and the orthogonal eigenvector matrix as
    LAPACK gives it, with arbitrary column signs.
    """
    if len(d) == 1:  # dstevd's wrapper wants an off-diagonal of length 1
        return np.array(d, dtype=float), np.ones((1, 1))
    lam, g, info = scipy.linalg.lapack.dstevd(d, e)
    if info != 0:
        cause = np.linalg.LinAlgError("LAPACK dstevd returned info=%d" % info)
        raise FactorizationError("tridiagonal eigensolver did not converge") from cause
    return lam, g


def partial_eig_blocktridiag(t):
    """``(eigenvalues, eigenvectors)`` of a block tridiagonal matrix, as
    ``np.linalg.eigh`` returns them, from exactly one LAPACK call.

    The band goes to LAPACK as it is stored, with no dense k x k copy; rows
    past the order k are trimmed, and LAPACK reads no entry past it.  A
    two-row band is tridiagonal and goes to the divide-and-conquer
    tridiagonal eigensolver (``dstevd``); wider bands go to one symmetric
    banded eigensolve (``dsbevd``, O(k^3) with a small constant).  Both
    form every eigenvector: the check reads the first and last block rows,
    and at convergence the solvers map the reduced solution back through
    all of them, with no second eigensolve.  The eigenvectors keep LAPACK's
    arbitrary signs.
    """
    band = t.band[: max(t.dim, 2)]
    if band.shape[0] == 2:
        return sym_tridiag_eig(band[0], band[1, :-1])
    lam, q, info = scipy.linalg.lapack.dsbevd(band, lower=1, overwrite_ab=0)
    if info != 0:
        cause = np.linalg.LinAlgError("LAPACK dsbevd returned info=%d" % info)
        raise FactorizationError("banded eigensolver did not converge") from cause
    return lam, q


def _truncation_rank(values, eps):
    """The smallest rank t at which the dropped tail values[t:] of the
    non-increasing ``values`` has Frobenius mass at most ``eps``, and that
    mass."""
    tail = np.sqrt(np.cumsum(values[::-1] ** 2))[::-1]
    rank = int(np.count_nonzero(tail > eps))
    return rank, float(tail[rank]) if rank < values.size else 0.0


def truncated_spd_factor(y, eps=TRUNC_EPS):
    """Truncated factorization Y ~ F F^T of a symmetric PSD matrix, as
    ``(F, discarded)``, the second the Frobenius mass of the dropped tail.

    Eigenvalues are kept in non-increasing order and the trailing ones are
    dropped while their Frobenius mass stays below ``eps``.
    """
    y = np.asarray(y, dtype=float)
    lam, w = np.linalg.eigh(y)
    scale = np.max(np.abs(lam)) if lam.size else 0.0
    if lam.size and lam[0] < -1e-10 * scale:
        raise IndefiniteMatrixError(
            "matrix is significantly indefinite (min eigenvalue %.3e)" % lam[0]
        )
    lam = lam[::-1].copy()
    w = w[:, ::-1]
    # mass taken on the raw spectrum, so roundoff-negative eigenvalues
    # count as discarded
    rank, discarded = _truncation_rank(lam, eps)
    return w[:, :rank] * np.sqrt(np.clip(lam[:rank], 0.0, None)), discarded


def truncated_svd_factor(y, eps=TRUNC_EPS):
    """Truncated factorization Y ~ F1 F2^T of a general matrix via the SVD,
    as ``(F1, F2, discarded)``, the last the Frobenius mass of the dropped
    singular values."""
    y = np.asarray(y, dtype=float)
    u, sig, vt = np.linalg.svd(y, full_matrices=False)
    rank, discarded = _truncation_rank(sig, eps)
    root = np.sqrt(sig[:rank])
    return u[:, :rank] * root, vt[:rank].T * root, discarded
