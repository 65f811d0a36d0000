"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench

Runs every workload twice untraced and twice traced with ``--smoke`` and
checks that the metrics BENCHMARK.json names are all emitted, that the
correctness gate passes, and that the exact counts repeat.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.fixture(scope="module")
def results():
    """(trace, repetition) -> the combined result of one ``--workload all`` run."""
    out = {}
    for trace in (0, 1):
        for rep in range(2):
            proc = _run(ROOT, "--workload", "all", "--smoke", "--seed", "3",
                        "--seconds", "0.05", "--trace", str(trace))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[trace, rep] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_every_metric_is_emitted_with_its_unit(results):
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = results[trace, 0]["metrics"]
        for wl in spec["workloads"]:
            for metric in spec[section]:
                key = "%s/%s" % (wl["name"], metric["name"])
                assert key in metrics, key
                assert metrics[key]["unit"] == metric["unit"], key


def test_correctness_gate_passes(results):
    for result in results.values():
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= 4 * 6


def test_counts_repeat_exactly(results):
    names = [wl["name"] for wl in _spec()["workloads"]]
    for trace, counts in ((0, ("iterations", "rank")),
                          (1, ("operators.apply_calls", "residual.checks"))):
        first, second = results[trace, 0]["metrics"], results[trace, 1]["metrics"]
        for wl in names:
            for count in counts:
                key = "%s/%s" % (wl, count)
                assert first[key]["value"] == second[key]["value"], key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "lyap-monitor", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
