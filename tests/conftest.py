import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from krymat import BlockTridiagonal


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


def count_calls(monkeypatch, calls, module, name):
    """Replace ``module.name`` by a wrapper that adds one to ``calls[name]``
    (a ``collections.Counter``) per call and delegates."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def block_tridiagonal(diag, off, bandwidth=None):
    """The ``BlockTridiagonal`` with symmetric diagonal blocks ``diag`` and
    subdiagonal blocks ``off``, in a band of ``bandwidth`` subdiagonals
    (default 2 ell - 1, which any blocks fit).  Every entry outside that band
    must be zero."""
    ell = diag[0].shape[0]
    bandwidth = 2 * ell - 1 if bandwidth is None else bandwidth
    k = ell * len(diag)
    a = np.zeros((k, k))
    for i, blk in enumerate(diag):
        a[i * ell:(i + 1) * ell, i * ell:(i + 1) * ell] = blk
    for i, blk in enumerate(off):
        a[(i + 1) * ell:(i + 2) * ell, i * ell:(i + 1) * ell] = blk
    assert not np.tril(a, -bandwidth - 1).any(), "entries outside the band"
    band = np.zeros((bandwidth + 1, k))
    for i in range(min(bandwidth + 1, k)):
        band[i, :k - i] = np.diagonal(a, -i)
    return BlockTridiagonal(ell, band)


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
    bandwidth = ell if triangular else None
    lam = np.linalg.eigvalsh(block_tridiagonal(diag, off, bandwidth).to_dense())
    # a small margin keeps the matrix definite but ill conditioned enough
    # that the reduced solution does not decay below roundoff by m ~ 40,
    # which would drown the residual in noise
    shift = lam[-1] + 0.01 * max(lam[-1] - lam[0], 1.0)
    return block_tridiagonal([d - shift * np.eye(ell) for d in diag], off, bandwidth)


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
    if not general:
        return block_tridiagonal(diag, off, ell), tau_next
    qs = [np.linalg.qr(rng.standard_normal((ell, ell)))[0] for _ in range(m)]
    t = block_tridiagonal(
        [qs[i].T @ diag[i] @ qs[i] for i in range(m)],
        [qs[i + 1].T @ off[i] @ qs[i] for i in range(m - 1)],
    )
    return t, tau_next @ qs[-1]


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


def _bartels_stewart(a, b, rhs, rtol):
    """X with A X + X B + rhs = 0 from scipy's Schur-based solver, which
    shares no code with krymat; the plug-back residual is asserted so a
    reference that is off cannot pass silently."""
    x = scipy.linalg.solve_sylvester(a, b, -rhs)
    assert np.linalg.norm(a @ x + x @ b + rhs) <= rtol * np.linalg.norm(rhs)
    return x


def reduced_solve(t, j, g1, g2):
    """Y with T Y + Y J + E1 g1 g2^T E1^T = 0; Lyapunov passes J = T, and the
    one-sided equation passes the dense B as J and C2 as g2."""
    td = t.to_dense()
    jd = j.to_dense() if isinstance(j, BlockTridiagonal) else j
    rhs = np.zeros((td.shape[0], jd.shape[0]))
    rhs[:g1.shape[0], :g2.shape[0]] = g1 @ g2.T
    return _bartels_stewart(td, jd, rhs, 1e-10)


def full_solve(a, b, c1, c2):
    """Dense X with A X + X B + C1 C2^T = 0."""
    return _bartels_stewart(a, b, c1 @ c2.T, 1e-9)


def naive_residual_norm(y, tau, iota=None):
    """Residual norm of a projected equation from its full solution Y:
    ||tau E_m^T Y||_F one-sided; two-sided, hypot of that and
    ||Y E_m iota^T||_F.  Lyapunov passes iota = tau, which gives
    sqrt(2) ||Y E_m tau^T||_F for symmetric Y."""
    left = np.linalg.norm(tau @ y[-tau.shape[1]:, :])
    if iota is None:
        return left
    return np.hypot(left, np.linalg.norm(y[:, -iota.shape[1]:] @ iota.T))


def refined_reduced_lyapunov(t, gamma):
    """Reduced Lyapunov solution with one step of extended-precision
    iterative refinement.

    Forming the large residual cancels terms of size ||A|| ||X|| down to the
    residual size, so an oracle comparing against the cheap evaluation at
    1e-8 relative must carry the reduced solve beyond double precision.
    Returns a longdouble matrix.
    """
    gamma = np.atleast_2d(gamma)
    ell = gamma.shape[0]
    y0 = reduced_solve(t, t, gamma, gamma).astype(np.longdouble)
    td = t.to_dense()
    tl = td.astype(np.longdouble)
    rhs = np.zeros_like(tl)
    rhs[:ell, :ell] = (gamma @ gamma.T).astype(np.longdouble)
    residual = tl @ y0 + y0 @ tl + rhs
    correction = _bartels_stewart(td, td, residual.astype(float), 1e-10)
    return y0 + correction.astype(np.longdouble)


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
