import importlib.util
import os
from unittest import mock

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_outputs.py")
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the script pins BLAS threads at import
    _spec.loader.exec_module(same_outputs)

SOLVED = "it=9 rank=10 final=%r verified=1.9e-09 z=%s history=%s peak=18"
VERIFIED = "it=9 rank=10 final=1.8e-09 verified=%r z=aa history=bb peak=18"
RAISED = ("ConvergenceError: no convergence to 1.0e-08 within 4 iterations "
          "(last residual %s) history=%s")


def _check(before, after):
    return same_outputs.compare([("case", before)], [("case", after)])


@pytest.mark.parametrize("before, after", [
    (SOLVED % (1.8555475608243611e-09, "aa", "bb"),
     SOLVED % (1.855547419462588e-09, "cc", "dd")),
    (SOLVED % (3e-16, "aa", "bb"), SOLVED % (9e-16, "aa", "bb")),
    (RAISED % ("1.464e-03", "aa"), RAISED % ("1.464e-03", "bb")),
    ("IndefiniteMatrixError: T is indefinite", "IndefiniteMatrixError: T is indefinite"),
], ids=["rounding", "both-below-floor", "history-digest", "same-error"])
def test_compare_accepts(before, after):
    broken, _ = _check(before, after)
    assert broken == []


@pytest.mark.parametrize("before, after", [
    (SOLVED % (1e-9, "aa", "bb"), SOLVED % (1.002e-9, "aa", "bb")),
    (SOLVED % (1e-9, "aa", "bb"), SOLVED.replace("rank=10", "rank=11") % (1e-9, "aa", "bb")),
    (SOLVED % (0.0, "aa", "bb"), SOLVED % (2e-15, "aa", "bb")),
    (RAISED % ("1.464e-03", "aa"), RAISED % ("1.465e-03", "aa")),
    (SOLVED % (1e-9, "aa", "bb"), RAISED % ("1.464e-03", "aa")),
], ids=["final-moved", "rank-moved", "zero-to-nonzero", "error-message", "solved-to-error"])
def test_compare_rejects(before, after):
    broken, _ = _check(before, after)
    assert len(broken) == 1


def test_compare_rejects_different_case_lists():
    broken, _ = same_outputs.compare([("a", "x")], [("b", "x")])
    assert broken


def test_compare_mode_exit_code(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("case | %s\n" % (SOLVED % (1e-9, "aa", "bb")))
    new.write_text("case | %s\n" % (SOLVED % (1.1e-9, "aa", "bb")))
    assert same_outputs.main(["--compare", str(old), str(old)]) == 0
    assert same_outputs.main(["--compare", str(old), str(new)]) == 1


@pytest.mark.parametrize("before, after, breaks", [
    (1.9e-09, 1.9000095e-09, False),
    (3e-13, 9e-13, False),
    (1.9e-09, 1.9020001e-09, True),
    (0.0, 2e-12, True),
], ids=["rounding", "both-below-floor", "moved", "zero-to-above-floor"])
def test_compare_checks_the_verified_residual(before, after, breaks):
    broken, worst = _check(VERIFIED % before, VERIFIED % after)
    assert len(broken) == breaks
    assert worst["final"] == 0.0


def test_compare_reports_one_line_per_case():
    broken, worst = _check(SOLVED % (1e-9, "aa", "bb"),
                           SOLVED.replace("verified=1.9e-09", "verified=2e-09")
                           % (1.1e-9, "aa", "bb"))
    assert len(broken) == 1 and "final" in broken[0] and "verified" in broken[0]
    assert worst["final"] == pytest.approx(0.1)
    assert worst["verified"] == pytest.approx(0.1 / 1.9)


def test_moved_digests_counts_cases_solved_on_both_sides(capsys, tmp_path):
    old = [("a", SOLVED % (1e-9, "aa", "bb")), ("b", SOLVED % (1e-9, "aa", "bb")),
           ("c", SOLVED % (1e-9, "aa", "bb")), ("d", RAISED % ("1.464e-03", "aa"))]
    new = [("a", SOLVED % (1e-9, "cc", "bb")), ("b", SOLVED % (1e-9, "cc", "dd")),
           ("c", SOLVED % (1e-9, "aa", "bb")), ("d", RAISED % ("1.464e-03", "bb"))]
    assert same_outputs.moved_digests(old, new) == {"solved": 3, "history": 1, "z": 2}
    # information only: digests that move do not fail the comparison
    paths = []
    for name, lines in (("old.txt", old), ("new.txt", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join("%s | %s\n" % line for line in lines))
    assert same_outputs.main(["--compare"] + [str(p) for p in paths]) == 0
    assert capsys.readouterr().out.endswith(
        "of 3 cases solved in both, 1 changed their history digest and 2 their "
        "factor digest\n")


def test_cli_cases_run_and_compare_with_themselves(tmp_path):
    cases = list(same_outputs.cli_cases(str(tmp_path)))
    assert len(cases) == 8
    assert [o for _, o in cases if not o.startswith(("it=", "checks="))] == []
    assert same_outputs.compare(cases, cases)[0] == []
    # bench-residual's line counts as solved by neither side: only its
    # counts are compared, not the digest of its residual columns
    name, bench = cases[-1]
    moved = bench.rsplit("=", 1)[0] + "=0000000000000000"
    assert same_outputs.compare([(name, bench)], [(name, moved)])[0] == []


def test_long_case_is_a_long_windowed_s1_solve():
    ((name, solve, opts),) = same_outputs.long_case()
    assert (opts.space, opts.storage, opts.check_period) == ("standard", "windowed", 20)
    outcome = same_outputs._outcome(lambda: solve(opts))
    # 380 steps: a dozen workspace fills in the recovery
    assert outcome.startswith("it=380 ")
    assert same_outputs.compare([(name, outcome)], [(name, outcome)])[0] == []


def test_long_extended_case_runs_past_lost_orthogonality():
    ((name, solve, opts),) = same_outputs.long_extended_case()
    assert (opts.space, opts.storage) == ("extended", "windowed")
    outcome = same_outputs._outcome(lambda: solve(opts))
    # the extended basis is far from orthogonal by m = 15
    assert outcome.startswith("it=28 ")
    assert same_outputs.compare([(name, outcome)], [(name, outcome)])[0] == []


def test_library_case_count():
    # with the 8 command lines, the 174 cases of the module docstring
    cases = list(same_outputs.grid_cases()) + list(same_outputs.invariant_cases()) \
        + list(same_outputs.long_case()) + list(same_outputs.long_extended_case())
    assert len(cases) == 166
