import argparse
import json
import os

import numpy as np
import pytest

from krymat import cli, mmio
from krymat.cli import build_parser, main
from krymat.problems import laplacian1d


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_problem_files(self, tmp_path):
        assert run(["gen", "--problem", "laplacian2d", "--n", 6, "--s", 2,
                    "--out", tmp_path]) == 0
        a = mmio.read_coordinate(tmp_path / "A.mtx")
        c = mmio.read_array(tmp_path / "C1.mtx")
        assert a.shape == (36, 36)
        assert c.shape == (36, 2)

    def test_pair_problem_writes_both_sides(self, tmp_path):
        assert run(["gen", "--problem", "fd3d-split", "--n", 4,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "B.mtx").exists()
        assert (tmp_path / "C2.mtx").exists()
        assert mmio.read_coordinate(tmp_path / "B.mtx").shape == (4, 4)

    def test_missing_n_is_an_error(self, tmp_path, capsys):
        assert run(["gen", "--problem", "laplacian2d", "--out", tmp_path]) == 1
        assert "needs" in capsys.readouterr().err


class TestSolveLyap:
    def test_generated_problem_to_convergence(self, tmp_path):
        assert run([
            "solve-lyap", "--problem", "laplacian2d", "--n", 32, "--s", 1,
            "--seed", 0, "--tol", "1e-6", "--verify", "--out", tmp_path,
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_relative_residual"] <= 1e-6
        assert summary["verified_relative_residual"] <= 2e-6
        z = mmio.read_array(tmp_path / "Z.mtx")
        assert z.shape[0] == 32 * 32
        assert z.shape[1] == summary["rank"]
        header, *rows = (tmp_path / "history.csv").read_text().splitlines()
        assert header == "m,space_dim,relative_residual,cum_basis_secs,cum_residual_secs"
        # a row per check made, on a growing schedule: the last is the stop
        assert len(rows) < summary["iterations"]
        m, _, res = rows[-1].split(",")[:3]
        assert int(m) == summary["iterations"]
        assert float(res) == summary["final_relative_residual"]

    def test_asymmetric_input_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 -2.0\n1 2 1.0\n2 2 -2.0\n"
        )
        assert run(["solve-lyap", "--A", bad, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "not symmetric" in err and "(0, 1)" in err

    def test_non_finite_input_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "nan.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 -2.0\n2 1 1.0\n2 2 nan\n3 3 -2.0\n"
        )
        assert run(["solve-lyap", "--A", bad, "--out", tmp_path]) == 1
        assert "error: A: matrix entry (1, 1) = nan is not finite" in capsys.readouterr().err

    def test_malformed_input_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        assert run(["solve-lyap", "--A", bad, "--out", tmp_path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_windowed_and_stored_agree(self, tmp_path):
        out_s = tmp_path / "stored"
        out_w = tmp_path / "windowed"
        common = ["solve-lyap", "--problem", "fd2d-exp", "--n", 10, "--s", 2,
                  "--seed", 3, "--tol", "1e-7"]
        assert run(common + ["--storage", "stored", "--out", out_s]) == 0
        assert run(common + ["--storage", "windowed", "--out", out_w]) == 0
        z_s = mmio.read_array(out_s / "Z.mtx")
        z_w = mmio.read_array(out_w / "Z.mtx")
        assert np.linalg.norm(z_s - z_w) <= 1e-12 * np.linalg.norm(z_s)
        sum_s = json.loads((out_s / "summary.json").read_text())
        sum_w = json.loads((out_w / "summary.json").read_text())
        assert sum_w["peak_basis_vectors"] == 3 * 2
        assert sum_s["peak_basis_vectors"] == 2 * sum_s["iterations"]

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = laplacian2d\nn = 8\ns = 1\ntol = 1e-4\nseed = 2\n"
            "# comment line\nmax-m = 50\n"
        )
        out = tmp_path / "out"
        assert run(["solve-lyap", "--config", cfg, "--tol", "1e-6",
                    "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tol"] == 1e-6  # flag wins over config

    def test_file_inputs_roundtrip(self, tmp_path):
        assert run(["gen", "--problem", "laplacian2d", "--n", 8, "--s", 1,
                    "--seed", 5, "--out", tmp_path]) == 0
        out = tmp_path / "solve"
        assert run(["solve-lyap", "--A", tmp_path / "A.mtx",
                    "--C", tmp_path / "C1.mtx", "--tol", "1e-6",
                    "--out", out]) == 0
        assert (out / "Z.mtx").exists()


class TestSolveSylv:
    def test_one_sided_generated(self, tmp_path):
        assert run([
            "solve-sylv", "--problem", "fd3d-split", "--n", 8, "--s", 2,
            "--seed", 1, "--tol", "1e-6", "--out", tmp_path,
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["one_sided"] is True
        z1 = mmio.read_array(tmp_path / "Z1.mtx")
        z2 = mmio.read_array(tmp_path / "Z2.mtx")
        assert z1.shape == (64, summary["rank"])
        assert z2.shape == (8, summary["rank"])

    def test_two_sided_pair(self, tmp_path):
        assert run([
            "solve-sylv", "--problem", "fd2d-pair", "--n", 7, "--s", 1,
            "--seed", 2, "--tol", "1e-6", "--out", tmp_path,
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["one_sided"] is False
        assert summary["final_relative_residual"] <= 1e-6

    def test_nonconvergence_exit_code_and_history(self, tmp_path, capsys):
        assert run([
            "solve-sylv", "--problem", "fd2d-pair", "--n", 10, "--s", 1,
            "--seed", 2, "--tol", "1e-12", "--max-m", 4, "--out", tmp_path,
        ]) == 1
        assert "no convergence" in capsys.readouterr().err
        # a row per check made: the first at m = 1, the last forced at max_m
        _, *rows = (tmp_path / "history.csv").read_text().splitlines()
        steps = [int(row.split(",")[0]) for row in rows]
        assert steps[0] == 1 and steps[-1] == 4 and steps == sorted(set(steps))

    # B of order 3 beside A of order 4 is solved one-sided, of order 4
    # two-sided (through its own operator); either way the error names B
    @pytest.mark.parametrize("order", [3, 4], ids=["one-sided", "two-sided"])
    @pytest.mark.parametrize("entries, message", [
        ("1 1 -2.0\n2 2 nan\n", "entry (1, 1) = nan is not finite"),
        ("1 1 -2.0\n1 2 1.0\n2 2 -2.0\n", "not symmetric: entry (0, 1) = 1 but"),
    ], ids=["nan", "asymmetric"])
    def test_invalid_b_is_named(self, tmp_path, capsys, order, entries, message):
        mmio.write_coordinate(tmp_path / "A.mtx", laplacian1d(4))
        mmio.write_array(tmp_path / "C1.mtx", np.ones((4, 1)))
        mmio.write_array(tmp_path / "C2.mtx", np.ones((order, 1)))
        diag = "".join("%d %d -2.0\n" % (i, i) for i in range(3, order + 1))
        (tmp_path / "B.mtx").write_text(
            "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n%s%s"
            % (order, order, (entries + diag).count("\n"), entries, diag))
        assert run(["solve-sylv", "--A", tmp_path / "A.mtx", "--B", tmp_path / "B.mtx",
                    "--C1", tmp_path / "C1.mtx", "--C2", tmp_path / "C2.mtx",
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: B") and message in err


class TestBenchResidual:
    def test_paths_agree_and_csv_schema(self, tmp_path):
        assert run([
            "bench-residual", "--problem", "laplacian2d", "--n", 7, "--s", 2,
            "--seed", 4, "--tol", "1e-8", "--max-m", 20, "--out", tmp_path,
        ]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "m,space_dim,res_fast,res_naive,secs_fast,secs_naive,gain_pct"
        for row in lines[1:]:
            cols = row.split(",")
            fast, naive = float(cols[2]), float(cols[3])
            # 1e-10 relative, with an absolute floor at roundoff scale for
            # residual values that have converged to machine noise
            assert abs(fast - naive) <= 1e-10 * naive + 2e-15
            gain = float(cols[6])
            secs_fast, secs_naive = float(cols[4]), float(cols[5])
            assert np.isclose(gain, 100.0 * (secs_naive - secs_fast) / secs_naive)

    def test_stops_once_the_space_is_invariant(self, tmp_path):
        # laplacian1d(6) with one column: the sixth step spans the whole
        # space, so the coupling block and the residual are exactly zero
        assert run([
            "bench-residual", "--problem", "laplacian1d", "--n", 6, "--s", 1,
            "--tol", "1e-12", "--out", tmp_path,
        ]) == 0
        rows = (tmp_path / "bench.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[2]) == 0.0


@pytest.mark.parametrize("argv, config", [
    (["solve-lyap", "--A", "missing.mtx"], None),
    (["solve-lyap", "--config", "missing.cfg"], None),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--tol", -1], None),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--check-period", 0], None),
    (["solve-lyap"], "problem = laplacian2d\nn = abc\n"),
    (["solve-lyap"], "problem = laplacian2d\nn = 4\nspace = krylov\n"),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 0], None),
    (["gen", "--problem", "laplacian1d", "--n", 0], None),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--s", -1], None),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--s", 0], None),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--trunc-eps", -1], None),
    (["solve-lyap"], "problem = laplacian2d\nn = 4\ntlo = 1e-3\nstorrage = windowed\n"),
    (["bench-residual", "--problem", "laplacian2d", "--n", 4, "--tol", 0], None),
    (["bench-residual"], "problem = laplacian2d\nn = 4\ncheck-period = 0\n"),
    (["bench-residual"], "problem = laplacian2d\nn = 4\nspace = krylov\n"),
    (["solve-lyap"], "problem = laplacian2d\nn = 4\nverify = ture\n"),
    (["solve-lyap"], "problem = nonsense\nn = 4\n"),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--seed", -1], None),
    (["gen", "--problem", "laplacian2d", "--n", 4, "--seed", -1], None),
    (["solve-lyap"], "problem = laplacian2d\nn = 4\nseed = -1\n"),
    (["solve-lyap", "--problem", "laplacian2d", "--n", 8, "--max-m", 4,
      "--check-period", 5], None),
], ids=["missing-matrix", "missing-config", "negative-tol", "zero-check-period",
        "non-integer-n", "unknown-space", "zero-n-solve", "zero-n-gen",
        "negative-s", "zero-s", "negative-trunc-eps", "misspelled-config-key",
        "bench-zero-tol", "bench-zero-check-period", "bench-unknown-space",
        "misspelled-boolean", "unknown-problem-in-config", "negative-seed",
        "gen-negative-seed", "negative-seed-in-config", "check-period-above-max-m"])
def test_bad_input_is_a_typed_error(tmp_path, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert run(argv + ["--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, config, message", [
    (["solve-lyap", "--max-m", 0], None, "max_m must be >= 1"),
    (["solve-lyap", "--max-m", -3], None, "max_m must be >= 1"),
    (["bench-residual", "--max-m", 0], None, "max_m must be >= 1"),
    (["solve-lyap"], "verify = ture\n",
     "config value verify = 'ture': expected 1/0, true/false, yes/no or on/off"),
    (["solve-lyap", "--max-m", 4, "--check-period", 5], None,
     "check_period must be <= max_m"),
    (["bench-residual", "--max-m", 2, "--check-period", 3], None,
     "check_period must be <= max_m"),
    (["solve-lyap", "--seed", -1], None, "--seed must be >= 0"),
    (["gen", "--seed", -1], None, "--seed must be >= 0"),
    (["solve-lyap"], "seed = -1\n", "--seed must be >= 0"),
    (["solve-lyap"], "problem = nonsense\n",
     "config value problem = 'nonsense': expected one of fd2d-exp, fd2d-trig, "
     "laplacian2d, laplacian1d, fd2d-pair, fd3d-split"),
    (["solve-lyap", "--tol", "nan"], None, "tol must be finite"),
    (["solve-lyap", "--tol", "inf"], None, "tol must be finite"),
    (["bench-residual", "--tol", "nan"], None, "tol must be finite"),
    (["solve-lyap", "--trunc-eps", "nan", "--verify"], None, "trunc_eps must be finite"),
    (["solve-lyap", "--trunc-eps", "inf"], None, "trunc_eps must be finite"),
    (["solve-lyap"], "trunc-eps = nan\n", "trunc_eps must be finite"),
], ids=["zero-max-m", "negative-max-m", "bench-zero-max-m", "misspelled-boolean",
        "check-period-above-max-m", "bench-check-period-above-max-m",
        "negative-seed", "gen-negative-seed", "negative-seed-in-config",
        "unknown-problem-in-config", "nan-tol", "infinite-tol", "bench-nan-tol",
        "nan-trunc-eps", "infinite-trunc-eps", "nan-trunc-eps-in-config"])
def test_rejected_value_is_named(tmp_path, capsys, argv, config, message):
    # unchecked, max_m < 1 ran no iteration and wrote an empty history or
    # bench.csv, and a misspelled boolean read as false; check_period > max_m
    # ran max_m steps without a check, a negative seed failed inside numpy,
    # and a config value outside the choices failed as an untyped ValueError
    # (or went unread under the flag that overrides it); a NaN or infinite
    # trunc_eps kept rank 0 and reported convergence, and a NaN tol ran all
    # max_m steps
    argv = argv + ["--problem", "laplacian2d", "--n", 4, "--out", tmp_path]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", tmp_path / "run.cfg"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value, verified", [
    ("TRUE", True), ("On", True), ("1", True), ("no", False), ("Off", False),
])
def test_boolean_config_spellings(tmp_path, value, verified):
    (tmp_path / "run.cfg").write_text("problem = laplacian2d\nn = 4\nverify = %s\n"
                                      % value)
    assert run(["solve-lyap", "--config", tmp_path / "run.cfg", "--out", tmp_path]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["verified_relative_residual"] is not None) == verified


def test_config_key_of_another_command_is_accepted(tmp_path):
    # one config file can serve several commands: solve-lyap ignores reps
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = laplacian2d\nn = 4\nreps = 5\none-sided = true\n")
    assert run(["solve-lyap", "--config", cfg, "--out", tmp_path]) == 0


def test_bench_residual_ignores_solve_only_config_values(tmp_path):
    # a config shared with solve-lyap: bench-residual reads neither storage,
    # trunc-eps nor verify, so values that solve-lyap rejects cannot fail it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = laplacian2d\nn = 4\nmax-m = 3\n"
                   "trunc-eps = -1\nstorage = bogus\nverify = yes\n")
    assert run(["bench-residual", "--config", cfg, "--out", tmp_path]) == 0
    assert run(["solve-lyap", "--config", cfg, "--out", tmp_path]) == 1


@pytest.mark.parametrize("flag", [
    ["--storage", "stored"], ["--trunc-eps", "5"], ["--verify"],
], ids=["storage", "trunc-eps", "verify"])
def test_bench_residual_has_no_solve_only_flags(tmp_path, flag):
    with pytest.raises(SystemExit):
        run(["bench-residual", "--problem", "laplacian2d", "--n", 4,
             "--out", tmp_path] + flag)


def test_zero_block_width_names_the_flag(tmp_path, capsys):
    # unchecked, --s 0 surfaces as a rank-deficient initial block
    assert run(["solve-lyap", "--problem", "laplacian2d", "--n", 4, "--s", 0,
                "--out", tmp_path]) == 1
    assert "--s must be >= 1" in capsys.readouterr().err


def test_unknown_problem_kind_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run(["solve-lyap", "--problem", "nonsense", "--n", 4, "--out", tmp_path])


@pytest.mark.parametrize("command", ["solve-lyap", "solve-sylv", "bench-residual"])
def test_missing_inputs_are_named(tmp_path, capsys, command):
    assert run([command, "--out", tmp_path]) == 1
    assert capsys.readouterr().err == "error: give --problem or explicit matrix files\n"


def test_bench_residual_reads_matrix_files(tmp_path):
    assert run(["gen", "--problem", "laplacian2d", "--n", 6, "--s", 2, "--seed", 3,
                "--out", tmp_path]) == 0
    common = ["bench-residual", "--tol", "1e-8", "--max-m", 12]
    assert run(common + ["--A", tmp_path / "A.mtx", "--C", tmp_path / "C1.mtx",
                         "--out", tmp_path / "files"]) == 0
    assert run(common + ["--problem", "laplacian2d", "--n", 6, "--s", 2, "--seed", 3,
                         "--out", tmp_path / "generated"]) == 0

    def values(out):  # m, space_dim, res_fast and res_naive; the rest are timings
        lines = (out / "bench.csv").read_text().splitlines()
        return [line.split(",")[:4] for line in lines]

    assert values(tmp_path / "files") == values(tmp_path / "generated")


def _options():
    """(command, action) of every option of every subcommand but --config and
    --help: the keys a config file may set."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, p in sub.choices.items()
            for action in p._actions if action.dest not in ("config", "help")]


def _ids(options):
    return ["%s-%s" % (command, action.dest) for command, action in options]


_OPTIONS = _options()
_CHOICE_OPTIONS = [(command, action) for command, action in _OPTIONS if action.choices]


@pytest.mark.parametrize("command, action", _OPTIONS, ids=_ids(_OPTIONS))
def test_flag_and_config_key_resolve_alike(tmp_path, command, action):
    # a value other than the default, spelled as on the command line
    if action.nargs == 0:
        value, flag = "yes", [action.option_strings[0]]
    else:
        if action.choices:
            value = action.choices[-1]
        elif action.type in (int, float):
            value = "0.007" if action.type is float else "7"
        else:
            value = str(tmp_path / action.dest)
        flag = [action.option_strings[0], value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (action.dest.replace("_", "-"), value))
    by_flag = vars(cli.parse_args([command] + flag))
    by_config = vars(cli.parse_args([command, "--config", str(cfg)]))
    assert by_flag.pop("config") is None and by_config.pop("config") == str(cfg)
    assert by_config == by_flag
    assert by_flag[action.dest] != vars(cli.parse_args([command]))[action.dest]


@pytest.mark.parametrize("command, action", _CHOICE_OPTIONS, ids=_ids(_CHOICE_OPTIONS))
def test_config_value_outside_choices_is_rejected(tmp_path, capsys, command, action):
    (tmp_path / "run.cfg").write_text("%s = nonsense\n" % action.dest)
    assert run([command, "--config", tmp_path / "run.cfg", "--out", tmp_path]) == 1
    assert capsys.readouterr().err == "error: config value %s = 'nonsense': " \
        "expected one of %s\n" % (action.dest, ", ".join(action.choices))


@pytest.mark.parametrize("lines, c1", [
    ("c = x.mtx\n", "x.mtx"),
    ("c1 = y.mtx\nc = x.mtx\n", "y.mtx"),
    ("c = x.mtx\nc1 = y.mtx\n", "y.mtx"),
], ids=["alias", "c1-first", "c1-last"])
def test_config_key_c_is_an_alias_of_c1(tmp_path, lines, c1):
    (tmp_path / "run.cfg").write_text(lines)
    for command in ("solve-lyap", "solve-sylv", "bench-residual"):
        assert cli.parse_args([command, "--config", str(tmp_path / "run.cfg")]).c1 == c1
