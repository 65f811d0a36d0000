"""Deterministic generators for the benchmark operators.

All operators discretize self-adjoint elliptic operators with zero Dirichlet
conditions on uniform grids with n interior points per direction and
h = 1/(n+1).  Variable coefficients are evaluated at the cell interfaces
(midpoints), which keeps the matrices exactly symmetric and negative
definite.
"""

import numpy as np
import scipy.sparse as sp

FD2D_KINDS = ("fd2d-exp", "fd2d-trig", "laplacian2d")

#: Every kind ``gen_operator`` builds; the last two are Sylvester pairs.
PROBLEM_KINDS = FD2D_KINDS + ("laplacian1d", "fd2d-pair", "fd3d-split")


def _coefficients(kind):
    if kind == "fd2d-exp":
        return (lambda x, y: np.exp(-x * y)), (lambda x, y: np.exp(x * y))
    if kind == "fd2d-trig":
        return (lambda x, y: np.sin(x * y)), (lambda x, y: np.cos(x * y))
    if kind == "laplacian2d":
        return (lambda x, y: np.ones_like(x)), (lambda x, y: np.ones_like(x))
    raise ValueError("unknown 2-D problem kind %r" % kind)


def gen_fd2d(kind, n):
    """Five-point finite-difference operator for (a u_x)_x + (b u_y)_y on the
    unit square, returned as a sparse symmetric negative definite matrix of
    order n^2 (x varies fastest)."""
    a_fun, b_fun = _coefficients(kind)
    h = 1.0 / (n + 1)
    idx = np.arange(1, n + 1) * h
    x, y = np.meshgrid(idx, idx, indexing="ij")  # x fastest in the flattening
    a_east = a_fun(x + 0.5 * h, y) / h**2
    a_west = a_fun(x - 0.5 * h, y) / h**2
    b_north = b_fun(x, y + 0.5 * h) / h**2
    b_south = b_fun(x, y - 0.5 * h) / h**2

    def flat(v):
        return v.reshape(-1, order="F")

    size = n * n
    # east neighbour (i+1, j): a at the shared interface x_{i+1/2}, with no
    # coupling across the x boundary; north neighbour (i, j+1): b at y_{j+1/2}
    east = flat(a_east)[: size - 1].copy()
    east[n - 1:: n] = 0.0
    north = flat(b_north)[: size - n]
    # row i holds entries (i, i + k), k = -n, -1, 0, 1, n, in column order;
    # zeros (boundary pairs and neighbours off the grid) are not stored
    vals = np.zeros((size, 5))
    vals[n:, 0] = vals[: size - n, 4] = north
    vals[1:, 1] = vals[: size - 1, 3] = east
    vals[:, 2] = -flat(a_east + a_west + b_north + b_south)
    index = np.int32 if 5 * size < 2**31 else np.int64  # as scipy would pick
    cols = np.arange(size, dtype=index)[:, None] + np.array([-n, -1, 0, 1, n], index)
    stored = vals != 0.0
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[stored], cols[stored], indptr), shape=(size, size))


def laplacian1d(n):
    """Standard 1-D Dirichlet Laplacian of order n, scaled by 1/h^2."""
    h = 1.0 / (n + 1)
    main = np.full(n, -2.0 / h**2)
    off = np.full(n - 1, 1.0 / h**2)
    return sp.diags([off, main, off], (-1, 0, 1)).tocsr()


def gen_fd3d_split(n):
    """Splitting of the 3-D operator (e^{-xy}u_x)_x + (e^{xy}u_y)_y + 10 u_zz.

    Returns (A, B) with A the 2-D part of order n^2 and B ten times the 1-D
    Laplacian in z, so the discretized problem is the Sylvester equation
    A X + X B = F (z ordered outermost).
    """
    return gen_fd2d("fd2d-exp", n), (10.0 * laplacian1d(n)).tocsr()


def gen_rhs(n, s, seed, normalize=True):
    """Right-hand side block with entries uniform in (0, 1).

    Deterministic for a fixed seed (PCG64); with ``normalize`` the block is
    scaled to unit Frobenius norm.
    """
    rng = np.random.default_rng(seed)
    c = rng.random((n, s))
    if normalize:
        c /= np.linalg.norm(c)
    return c


def gen_operator(kind, n):
    """(A, B) of a named problem kind.  B is None except for the Sylvester
    pairs: ``fd2d-pair`` (A from ``fd2d-exp``, B from ``fd2d-trig``, both of
    order n^2) and ``fd3d-split`` (see ``gen_fd3d_split``)."""
    if kind in FD2D_KINDS:
        return gen_fd2d(kind, n), None
    if kind == "laplacian1d":
        return laplacian1d(n), None
    if kind == "fd2d-pair":
        return gen_fd2d("fd2d-exp", n), gen_fd2d("fd2d-trig", n)
    if kind == "fd3d-split":
        return gen_fd3d_split(n)
    raise ValueError("unknown problem kind %r" % kind)
