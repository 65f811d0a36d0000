"""Smoke test of ``tools/ab_inprocess.py``, the paired in-process A/B of two
source trees, on two copies of this tree at a tiny order."""

import importlib.util
import os
import shutil
import sys
from unittest import mock

import pytest

import krymat

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_inprocess.py")
_spec = importlib.util.spec_from_file_location("ab_inprocess", _PATH)
ab_inprocess = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the script pins BLAS threads at import
    _spec.loader.exec_module(ab_inprocess)


def test_seed_ranges_and_lists():
    assert ab_inprocess.parse_seeds("3-5,9") == [3, 4, 5, 9]


def test_each_seed_runs_once_with_each_tree_first():
    assert ab_inprocess.rounds([3, 4]) == [(3, (0, 1)), (3, (1, 0)),
                                           (4, (0, 1)), (4, (1, 0))]


def _two_copies_agree(tmp_path, capsys, kind, equation_args):
    """Run the tool on this tree and a copy of it at order 36 and check its
    output lines, the first naming the problem ``kind``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(krymat.__file__)))
    copy = tmp_path / "src"
    shutil.copytree(os.path.join(src, "krymat"), copy / "krymat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with mock.patch.dict(sys.modules):
        status = ab_inprocess.main([src, str(copy), "--n", "6", "--s", "2",
                                    "--space", "extended", "--storage", "windowed",
                                    "--d", "2", "--seeds", "1-2"] + equation_args)
        # each tree is its own package, with its own classes
        assert sys.modules["krymat_a"].SolveOptions is not \
            sys.modules["krymat_b"].SolveOptions
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert out[0].startswith("%s(6), order 36, s=2, extended windowed, d=2, seeds 1,2, "
                             "4 rounds" % kind)
    assert out[1].startswith("A %s: median " % src)
    assert out[2].startswith("B %s: median " % copy)
    assert out[3].startswith("B faster in ") and " of 4 rounds; " in out[3]
    assert out[4:] == ["iterations agree: yes", "rank agree: yes",
                       "final residual agree: yes"]


def test_two_copies_of_one_tree_agree(tmp_path, capsys):
    _two_copies_agree(tmp_path, capsys, "fd2d-exp", [])  # Lyapunov, the default


@pytest.mark.parametrize("equation, kind", [("two-sided", "fd2d-pair"),
                                            ("one-sided", "fd3d-split")])
def test_two_copies_agree_on_sylvester(tmp_path, capsys, equation, kind):
    _two_copies_agree(tmp_path, capsys, kind, ["--equation", equation])
