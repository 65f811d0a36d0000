"""Matrix Market readers and writers, on top of ``scipy.io``.

Coordinate format (``symmetric`` or ``general``) for sparse matrices and
array format for dense blocks.  Values are written as the shortest decimal
that reads back as the same binary64 value, so write-then-read round-trips
every value except the sign of zero: ``-0.0`` reads back as ``+0.0``.
Malformed files raise ``MatrixMarketError``.
"""

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import KrymatError


class MatrixMarketError(KrymatError):
    """Malformed Matrix Market content."""


def _write(path, a, symmetry):
    # through an open file: given a path, scipy appends ".mtx" to a name
    # that lacks it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a, symmetry=symmetry)


def write_coordinate(path, a, symmetric=True):
    """Write a sparse matrix in coordinate format.

    With ``symmetric=True`` only the lower triangle is stored and the header
    declares the symmetric qualifier.
    """
    _write(path, sp.coo_matrix(a), "symmetric" if symmetric else "general")


def write_array(path, m):
    """Write a dense matrix in array format (column-major, per the format).

    scipy gets a column-major copy, which it writes faster than row-major
    input and to the same bytes.
    """
    # "general" explicitly: otherwise scipy stores a symmetric square block
    # as its lower triangle under the symmetric qualifier
    _write(path, np.asfortranarray(np.atleast_2d(np.asarray(m, dtype=float))),
           "general")


def _read(path, layout):
    """Check that ``path`` holds ``<layout> real`` data, then read it."""
    try:
        if scipy.io.mminfo(path)[3:5] != (layout, "real"):
            raise MatrixMarketError("%s: expected '%s real' data" % (path, layout))
        return scipy.io.mmread(path)
    except ValueError as exc:
        raise MatrixMarketError("%s: %s" % (path, exc)) from exc


def read_coordinate(path):
    """Read a coordinate-format file into CSR, expanding symmetric and
    skew-symmetric storage."""
    return _read(path, "coordinate").tocsr()


def read_array(path):
    """Read an array-format file into a dense float ndarray."""
    return _read(path, "array")
