import numpy as np
import pytest
import scipy.sparse as sp

from krymat import BlockTridiagonal, solve_reduced_lyapunov


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the full-scale iteration-count reproduction (slow)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--paper-scale"):
        return
    skip = pytest.mark.skip(reason="needs --paper-scale")
    for item in items:
        if "paper_scale" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_scale: full-scale reproduction, excluded by default"
    )


def random_block_tridiagonal(rng, ell, m, triangular=False):
    """Random symmetric negative definite block tridiagonal matrix.

    The coupling blocks are as large as the diagonal ones and the spectrum is
    shifted to lie in about [-1.05, -0.05] times its spread, so reduced
    solutions do not decay to noise within a few block rows.
    """
    diag = []
    for _ in range(m):
        d = rng.standard_normal((ell, ell))
        diag.append(-(d @ d.T) / ell)
    off = []
    for _ in range(m - 1):
        o = rng.standard_normal((ell, ell)) / np.sqrt(ell)
        off.append(np.triu(o) if triangular else o)
    t = BlockTridiagonal(ell, diag, off)
    lam = np.linalg.eigvalsh(t.to_dense())
    # a small margin keeps the matrix definite but ill conditioned enough
    # that the reduced solution does not decay below roundoff by m ~ 40,
    # which would drown the residual in noise
    shift = lam[-1] + 0.01 * max(lam[-1] - lam[0], 1.0)
    for blk in t.diag:
        blk -= shift * np.eye(ell)
    return t


def lanczos_block_tridiagonal(rng, ell, m, general=False, spectrum=None):
    """Block tridiagonal projection of a random negative spectrum, built by
    an independent full-reorthogonalization block Lanczos.

    This is the distribution of projected matrices the solvers actually see:
    negative definite, slowly decaying reduced solutions, triangular coupling
    blocks (rotated into general position with ``general=True``).  Returns
    the matrix together with the coupling block to the next basis block.
    ``spectrum`` replaces the random operator spectrum (it needs more than
    ``ell * m`` entries).
    """
    if spectrum is None:
        n = ell * m + 60
        lam = -np.exp(rng.uniform(np.log(0.1), np.log(1e3), n))
    else:
        lam = np.asarray(spectrum, dtype=float)
        n = lam.size
    v, _ = np.linalg.qr(rng.standard_normal((n, ell)))
    basis = [v]
    diag, off = [], []
    for j in range(m):
        w = lam[:, None] * basis[-1]
        if j > 0:
            w -= basis[-2] @ off[-1].T
        d = basis[-1].T @ w
        diag.append(0.5 * (d + d.T))
        w -= basis[-1] @ d
        for b in basis:
            w -= b @ (b.T @ w)
        q, r = np.linalg.qr(w)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        q, r = q * sgn, sgn[:, None] * r
        off.append(r)
        basis.append(q)
    tau_next = off.pop()
    t = BlockTridiagonal(ell, diag, off)
    if general:
        qs = [np.linalg.qr(rng.standard_normal((ell, ell)))[0] for _ in range(m)]
        t = BlockTridiagonal(
            ell,
            [qs[i].T @ t.diag[i] @ qs[i] for i in range(m)],
            [qs[i + 1].T @ t.offdiag[i] @ qs[i] for i in range(m - 1)],
        )
        tau_next = tau_next @ qs[-1]
    return t, tau_next


def random_sparse_negdef(rng, n, density=0.02, shift=1.0):
    """Random sparse symmetric negative definite matrix with eigenvalues
    bounded away from zero (below -shift)."""
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)), format="csr")
    a = a + a.T
    # diagonal dominance pushes the spectrum strictly below -shift
    rowsum = np.abs(a).sum(axis=1).A1 if hasattr(np.abs(a).sum(axis=1), "A1") \
        else np.asarray(np.abs(a).sum(axis=1)).ravel()
    d = sp.diags(rowsum + shift)
    return (a - d).tocsr()


def dense_lyapunov_residual(a, z, c):
    x = z @ z.T
    return np.linalg.norm(a @ x + x @ a + c @ c.T)


def refined_reduced_lyapunov(t, gamma):
    """Reduced Lyapunov solution with one step of extended-precision
    iterative refinement.

    Forming the large residual cancels terms of size ||A|| ||X|| down to the
    residual size, so an oracle comparing against the cheap evaluation at
    1e-8 relative must carry the reduced solve beyond double precision.
    Returns a longdouble matrix.
    """
    sol = solve_reduced_lyapunov(t, gamma)
    gamma = np.atleast_2d(gamma)
    ell = gamma.shape[0]
    tl = t.to_dense().astype(np.longdouble)
    rhs = np.zeros_like(tl)
    rhs[:ell, :ell] = (gamma @ gamma.T).astype(np.longdouble)
    y0 = sol.y.astype(np.longdouble)
    residual = tl @ y0 + y0 @ tl + rhs
    lam, q = sol.eig_left
    u = q.T @ residual.astype(float) @ q
    correction = -(u / (lam[:, None] + lam[None, :]))
    return y0 + (q @ correction @ q.T).astype(np.longdouble)


def explicit_lyapunov_residual_ld(a_dense, v, y, c):
    """|| A V Y V' + V Y V' A + C C' ||_F formed entirely in longdouble."""
    al = a_dense.astype(np.longdouble)
    vl = v.astype(np.longdouble)
    cl = c.astype(np.longdouble)
    x = vl @ y.astype(np.longdouble) @ vl.T
    return float(np.linalg.norm(al @ x + x @ al + cl @ cl.T))


def dense_sylvester_residual(a, b, z1, z2, c1, c2):
    x = z1 @ z2.T
    return np.linalg.norm(a @ x + x @ b + c1 @ c2.T)
