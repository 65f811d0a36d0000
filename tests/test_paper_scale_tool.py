"""Smoke test of ``tools/paper_scale.py`` on a small grid."""

import re

import pytest

from conftest import load_tool

paper_scale = load_tool("paper_scale")

LINE = (r"^([\w-]+): iterations (\d+) \(paper (\d+)\) k=(\d+) d=(\d+) checks=(\d+) "
        r"solve [\d.]+ s: checks [\d.]+ s, basis [\d.]+ s, recovery [\d.]+ s, "
        r"verified (\S+)$")


@pytest.fixture
def small_grid(monkeypatch):
    """Every case on a 12 x 12 grid, on one BLAS thread."""
    for name, case in paper_scale.CASES.items():
        monkeypatch.setitem(paper_scale.CASES, name, case._replace(n=12))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")


def _rows(capsys, argv):
    """The groups of ``LINE`` in each case's line of ``main(argv)``."""
    assert paper_scale.main(argv) == 0
    threads, *lines = capsys.readouterr().out.splitlines()
    assert threads == "BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1"
    return [re.match(LINE, line).groups() for line in lines]


def test_prints_counts_and_the_solvers_timers(small_grid, capsys):
    rows = _rows(capsys, [])
    assert [(row[0], int(row[2])) for row in rows] == [
        (name, case.reference) for name, case in paper_scale.CASES.items()]
    for name, iterations, _, k, d, checks, verified in rows:
        assert int(k) == paper_scale.CASES[name].s * int(iterations) and d == "1"
        assert 1 <= int(checks) < int(iterations)
        assert float(verified) <= 1e-6


def test_check_period_sets_the_checked_steps(small_grid, capsys):
    (row,) = _rows(capsys, ["--case", "s1", "--check-period", "10"])
    assert row[4] == "10" and int(row[1]) % 10 == 0
    assert float(row[6]) <= 1e-6
