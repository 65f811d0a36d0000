import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from krymat import AsymmetricMatrixError, mmio
from krymat.operators import SparseOperator
from krymat.problems import gen_fd2d, gen_rhs


def test_coordinate_roundtrip_bit_exact(tmp_path):
    a = gen_fd2d("fd2d-exp", 6)
    path = tmp_path / "A.mtx"
    mmio.write_coordinate(path, a)
    back = mmio.read_coordinate(path)
    diff = (a - back).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)

    # a file from elsewhere may store every entry under the general qualifier
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, a, symmetry="general")
    assert scipy.io.mminfo(path)[4:] == ("real", "general")
    back = mmio.read_coordinate(path)
    diff = (a - back).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


def test_symmetric_file_is_lower_triangle(tmp_path):
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    path = tmp_path / "a.mtx"
    mmio.write_coordinate(path, a)
    banner, *rest = path.read_text().splitlines()
    assert banner == "%%MatrixMarket matrix coordinate real symmetric"
    # comment lines may follow the banner; the size line is the first other
    size = next(ln for ln in rest if not ln.startswith("%"))
    assert size.split() == ["2", "2", "3"]


def test_array_roundtrip_bit_exact(tmp_path):
    c = gen_rhs(37, 3, seed=5)
    path = tmp_path / "C.mtx"
    mmio.write_array(path, c)
    back = mmio.read_array(path)
    assert back.shape == c.shape
    assert np.all(back == c)


def test_array_column_major_layout(tmp_path):
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "m.mtx"
    mmio.write_array(path, m)
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("%")]
    assert body[0].split() == ["2", "2"]
    assert [float(v) for v in body[1:]] == [1.0, 2.0, 3.0, 4.0]


def test_symmetric_block_is_written_in_full(tmp_path):
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    path = tmp_path / "m.mtx"
    mmio.write_array(path, m)
    banner, *rest = path.read_text().splitlines()
    assert banner == "%%MatrixMarket matrix array real general"
    body = [ln for ln in rest if not ln.startswith("%")]
    assert [float(v) for v in body[1:]] == [1.0, 2.0, 2.0, 4.0]


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix market file\n1 1 1\n1 1 1.0\n")
    with pytest.raises(mmio.MatrixMarketError):
        mmio.read_coordinate(path)


def test_entry_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(mmio.MatrixMarketError):
        mmio.read_coordinate(path)


def test_array_roundtrip_at_the_edges_of_binary64(tmp_path):
    fi = np.finfo(float)
    vals = np.array([[5e-324, fi.max, fi.tiny, 1.0 / 3.0, np.nextafter(1.0, 2.0), -0.0]])
    path = tmp_path / "edge.mtx"
    mmio.write_array(path, vals)
    back = mmio.read_array(path)
    # value equality, not bit equality: the reader drops the sign of zero,
    # so -0.0 comes back as +0.0
    assert np.array_equal(back, vals)
    assert back.dtype == np.float64


def test_writing_twice_is_byte_identical(tmp_path):
    c = gen_rhs(4096, 4, seed=2)
    a = gen_fd2d("fd2d-exp", 16)
    for write, m in ((mmio.write_array, c), (mmio.write_coordinate, a)):
        write(tmp_path / "one.mtx", m)
        write(tmp_path / "two.mtx", m)
        assert (tmp_path / "one.mtx").read_bytes() == (tmp_path / "two.mtx").read_bytes()


def test_array_layout_does_not_change_the_bytes(tmp_path):
    # C-ordered, Fortran-ordered and strided input, and scipy's own write of
    # the C-ordered block, which write_array hands a column-major copy
    c = gen_rhs(300, 5, seed=7)
    c[0, 0], c[1, 1], c[2, 2] = -0.0, 5e-324, np.finfo(float).max
    wide = np.hstack([c, c])
    for name, m in (("c", c), ("f", np.asfortranarray(c)), ("view", wide[:, :5])):
        mmio.write_array(tmp_path / (name + ".mtx"), m)
    with open(tmp_path / "scipy.mtx", "wb") as fh:
        scipy.io.mmwrite(fh, c, symmetry="general")
    want = (tmp_path / "scipy.mtx").read_bytes()
    for name in ("c", "f", "view"):
        assert (tmp_path / (name + ".mtx")).read_bytes() == want


def test_file_is_written_at_the_given_path(tmp_path):
    path = tmp_path / "factor.txt"
    mmio.write_array(path, np.eye(2))
    assert np.array_equal(mmio.read_array(path), np.eye(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["factor.txt"]


_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, read", [
    (_GENERAL + "2 2 1\n3 1 1.0\n", mmio.read_coordinate),
    (_GENERAL + "2 2 1\n1 1 abc\n", mmio.read_coordinate),
    (_GENERAL + "2 2\n1 1 1.0\n", mmio.read_coordinate),
    (_GENERAL, mmio.read_coordinate),
    ("%%MatrixMarket matrix array real general\n2 1\n1.0\nabc\n", mmio.read_array),
    ("%%MatrixMarket matrix array real general\n", mmio.read_array),
    ("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 1\n",
     mmio.read_coordinate),
    ("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
     mmio.read_coordinate),
    ("%%MatrixMarket matrix array integer general\n1 1\n1\n", mmio.read_array),
], ids=["index-out-of-range", "non-numeric", "short-size-line", "no-data",
        "array-non-numeric", "array-no-data", "integer", "pattern", "array-integer"])
def test_malformed_content_is_typed(tmp_path, text, read):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(mmio.MatrixMarketError):
        read(path)


def test_skew_symmetric_file_is_read_in_full_and_rejected(tmp_path):
    path = tmp_path / "skew.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n"
    )
    a = mmio.read_coordinate(path)
    assert np.array_equal(a.toarray(), [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(AsymmetricMatrixError):
        SparseOperator(a)
