"""Smoke test of ``tools/paper_scale.py`` on a small grid."""

import importlib.util
import os
import re
from unittest import mock

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "paper_scale.py")
_spec = importlib.util.spec_from_file_location("paper_scale", _PATH)
paper_scale = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the script pins BLAS threads at import
    _spec.loader.exec_module(paper_scale)


def test_prints_counts_and_the_solvers_timers(monkeypatch, capsys):
    monkeypatch.setattr(paper_scale, "GRID", 12)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert paper_scale.main(["--case", "s4", "--case", "s1"]) == 0
    threads, *lines = capsys.readouterr().out.splitlines()
    assert threads == "BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1"
    pattern = (r"^(s\d): iterations (\d+) \(paper (\d+)\) k=(\d+) d=1 checks=(\d+) "
               r"solve [\d.]+ s: checks [\d.]+ s, basis [\d.]+ s, recovery [\d.]+ s, "
               r"verified \S+$")
    rows = [re.match(pattern, line).groups() for line in lines]
    assert [(row[0], row[2]) for row in rows] == [("s4", "319"), ("s1", "444")]
    for name, iterations, _, k, checks in rows:
        assert int(k) == int(name[1:]) * int(iterations)
        assert 1 <= int(checks) < int(iterations)


def test_check_period_sets_the_checked_steps(monkeypatch, capsys):
    monkeypatch.setattr(paper_scale, "GRID", 12)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert paper_scale.main(["--case", "s1", "--check-period", "10"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    iterations = int(re.search(r"iterations (\d+) ", line).group(1))
    assert " d=10 " in line and iterations % 10 == 0
    assert float(re.search(r"verified (\S+)$", line).group(1)) <= 1e-6
