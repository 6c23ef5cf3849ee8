import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otkit.cli
from otkit.bench import EnsembleSpec, generate_instance
from otkit.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_WINDOW,
                       build_parser, main)
from otkit.core import (load_matrix_csv, load_vector_csv, save_matrix_csv,
                        save_vector_csv)


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_round_trips_generate_instance(self, tmp_path):
        prefix = str(tmp_path / "inst")
        code = run_cli("gen", "--n", "32", "--kappa", "0.5", "--rho", "0.2",
                       "--seed", "7", "--out-prefix", prefix)
        assert code == EXIT_OK
        problem = generate_instance(EnsembleSpec(n=32, kappa=0.5, rho=0.2, seed=7))
        np.testing.assert_array_equal(load_matrix_csv(prefix + ".A.csv"), problem.A)
        np.testing.assert_array_equal(load_vector_csv(prefix + ".y.csv"), problem.y)
        np.testing.assert_array_equal(load_vector_csv(prefix + ".truth.csv"),
                                      problem.truth)

    def test_noiseless_y_recomputes(self, tmp_path):
        prefix = str(tmp_path / "inst")
        run_cli("gen", "--n", "24", "--kappa", "0.5", "--rho", "0.2",
                "--eps", "0", "--seed", "3", "--out-prefix", prefix)
        A = load_matrix_csv(prefix + ".A.csv")
        y = load_vector_csv(prefix + ".y.csv")
        truth = load_vector_csv(prefix + ".truth.csv")
        np.testing.assert_array_equal(y, A @ truth)

    def test_same_seed_identical_files(self, tmp_path):
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (p1, p2):
            run_cli("gen", "--n", "16", "--kappa", "0.5", "--rho", "0.2",
                    "--seed", "11", "--out-prefix", prefix)
        for suffix in (".A.csv", ".y.csv", ".truth.csv"):
            assert open(p1 + suffix).read() == open(p2 + suffix).read()

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTK_SEED", "21")
        p1 = str(tmp_path / "default")
        run_cli("gen", "--n", "16", "--kappa", "0.5", "--rho", "0.2",
                "--out-prefix", p1)
        p2 = str(tmp_path / "zero")
        run_cli("gen", "--n", "16", "--kappa", "0.5", "--rho", "0.2",
                "--seed", "0", "--out-prefix", p2)
        for suffix in (".A.csv", ".y.csv", ".truth.csv"):
            assert open(p1 + suffix, "rb").read() == open(p2 + suffix, "rb").read()

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    def test_bad_output_path_refused_before_drawing(self, tmp_path, monkeypatch, bad):
        drawn = []
        monkeypatch.setattr(otkit.cli, "generate_instance", drawn.append)
        if bad == "missing":
            prefix = tmp_path / "no" / "such" / "inst"
        else:
            prefix = tmp_path / "inst"
            (tmp_path / "inst.y.csv").mkdir()
        code = run_cli("gen", "--n", "16", "--out-prefix", str(prefix))
        assert code == EXIT_IO
        assert drawn == []
        assert not any(path.is_file() for path in tmp_path.rglob("*"))


class TestRecover:
    def test_identity_instance_exact(self, tmp_path, capsys):
        n = 6
        truth = np.zeros(n)
        truth[[1, 4]] = [2.0, -3.0]
        save_matrix_csv(tmp_path / "A.csv", np.eye(n))
        save_vector_csv(tmp_path / "y.csv", truth)
        save_vector_csv(tmp_path / "t.csv", truth)
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "2",
                       "--algo", "iht", "--truth", str(tmp_path / "t.csv"),
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rel_error" in out and "support: [1,4]" in out
        np.testing.assert_allclose(load_vector_csv(tmp_path / "x.csv"), truth,
                                   atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_truth_prints_absolute_error(self, tmp_path, capsys):
        # an all-zero truth has no relative error: the absolute one is printed
        save_matrix_csv(tmp_path / "A.csv", np.eye(4))
        save_vector_csv(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 4.0]))
        save_vector_csv(tmp_path / "t.csv", np.zeros(4))
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "2", "--algo", "iht",
                       "--truth", str(tmp_path / "t.csv"), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "abs_error: 5.000000e+00" in out.splitlines()
        assert "rel_error" not in out

    def test_reduction_flags_match_plain_loop(self, tmp_path):
        prefix = str(tmp_path / "inst")
        run_cli("gen", "--n", "48", "--kappa", "0.5", "--rho", "0.15",
                "--seed", "5", "--out-prefix", prefix)
        code = run_cli("recover", "--A", prefix + ".A.csv", "--y", prefix + ".y.csv",
                       "--k", "4", "--algo", "hbrotp", "--alpha", "1", "--beta", "0",
                       "--truth", prefix + ".truth.csv",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        x = load_vector_csv(tmp_path / "x.csv")
        truth = load_vector_csv(prefix + ".truth.csv")
        assert np.linalg.norm(x - truth) / np.linalg.norm(truth) <= 1e-3

    def test_success_region_with_default_flags(self, tmp_path, capsys):
        prefix = str(tmp_path / "inst")
        run_cli("gen", "--n", "128", "--kappa", "0.5", "--rho", "0.1",
                "--seed", "9", "--out-prefix", prefix)
        code = run_cli("recover", "--A", prefix + ".A.csv", "--y", prefix + ".y.csv",
                       "--k", "6", "--truth", prefix + ".truth.csv",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        rel_line = [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("rel_error")][0]
        assert float(rel_line.split(":")[1]) <= 1e-3

    @pytest.mark.parametrize("algo", ["hbrotp", "htp"])
    def test_gen_then_recover_to_round_off(self, tmp_path, capsys, algo):
        # the CSV files round-trip exactly, so this clean k = 3 truth is
        # recovered to round-off and the run stops on its residual
        prefix = str(tmp_path / "inst")
        run_cli("gen", "--n", "64", "--kappa", "0.5", "--rho", "0.1",
                "--seed", "7", "--out-prefix", prefix)
        code = run_cli("recover", "--algo", algo, "--A", prefix + ".A.csv",
                       "--y", prefix + ".y.csv", "--k", "3",
                       "--truth", prefix + ".truth.csv",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"^stop: residual_tol after \d+ iterations$", out, re.M)
        assert float(re.search(r"^rel_error: (\S+)$", out, re.M).group(1)) <= 1e-10

    @pytest.mark.parametrize("bad", ["missing", "directory", "trailing-separator"])
    def test_bad_output_path_refused_before_recovery(self, tmp_path, monkeypatch, bad):
        runs = []
        monkeypatch.setattr(otkit.cli, "run", lambda *a: runs.append(a))
        save_matrix_csv(tmp_path / "A.csv", np.eye(4))
        save_vector_csv(tmp_path / "y.csv", np.ones(4))
        out = {"missing": str(tmp_path / "no" / "such" / "x.csv"),
               "directory": str(tmp_path),
               "trailing-separator": str(tmp_path / "nosuchdir") + os.sep}[bad]
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "2", "--out", out)
        assert code == EXIT_IO
        assert runs == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["A.csv", "y.csv"]

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli("recover", "--A", str(tmp_path / "nope.csv"),
                       "--y", str(tmp_path / "nope.csv"), "--k", "2")
        assert code == EXIT_IO

    def test_bad_k_is_usage_error(self, tmp_path):
        save_matrix_csv(tmp_path / "A.csv", np.eye(4))
        save_vector_csv(tmp_path / "y.csv", np.ones(4))
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "9")
        assert code == EXIT_USAGE

    def test_overflowing_problem_is_usage_error(self, tmp_path, capsys):
        # ||y||^2 overflows float64: refused, under that name, before the
        # recovery
        A = 1e200 * np.random.default_rng(0).standard_normal((6, 10))
        save_matrix_csv(tmp_path / "A.csv", A)
        save_vector_csv(tmp_path / "y.csv", A[:, 2] - A[:, 7])
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "2",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: ||y||^2 overflows float64\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--tol"])
    def test_nan_step_parameter_is_usage_error(self, tmp_path, flag):
        save_matrix_csv(tmp_path / "A.csv", np.eye(4))
        save_vector_csv(tmp_path / "y.csv", np.ones(4))
        code = run_cli("recover", "--A", str(tmp_path / "A.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "2", flag, "nan",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    def test_guard_is_window_exit(self, tmp_path):
        prefix = str(tmp_path / "big")
        run_cli("gen", "--n", "64", "--kappa", "0.5", "--rho", "0.1",
                "--seed", "2", "--out-prefix", prefix)
        code = run_cli("recover", "--A", prefix + ".A.csv", "--y", prefix + ".y.csv",
                       "--k", "3", "--algo", "hbot")
        assert code == EXIT_WINDOW


class TestGrid:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name, timing in [("g1.csv", []), ("g2.csv", []),
                             ("t1.csv", ["--timing"]), ("t2.csv", ["--timing"])]:
            out = tmp_path / name
            code = run_cli("grid", "--n", "24", "--kappa-min", "1.0",
                           "--kappa-max", "1.0", "--rho-min", "0.1",
                           "--rho-max", "0.2", "--rho-step", "0.1",
                           "--trials", "2", "--algos", "iht", "--seed", "13",
                           "--threads", "1", *timing, "--out", str(out))
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # --timing writes real wall times at a fixed width, so two timed
        # runs write files of equal length
        walls = [row.rsplit(b",", 1)[1] for row in outs[2].splitlines()[1:]]
        assert len(walls) == 4
        assert all(re.fullmatch(rb"[1-9]\.\d{6}e[+-]\d\d", wall) for wall in walls)
        assert len(outs[2]) == len(outs[3])

    def test_defaults_match_noise_robustness_protocol(self):
        args = build_parser().parse_args(["grid"])
        assert args.n == 256
        assert args.kappa_min == args.kappa_max == 0.5
        assert (args.rho_min, args.rho_max, args.rho_step) == (0.30, 0.55, 0.05)
        assert args.trials == 10
        assert args.algos == "hbrotp"
        assert args.eps == 0.0

    def test_empty_grid_rejected(self, tmp_path):
        code = run_cli("grid", "--kappa-min", "0.5", "--kappa-max", "0.4",
                       "--out", str(tmp_path / "g.csv"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--kappa-min", "--kappa-max", "--kappa-step",
                                      "--rho-min", "--rho-max", "--rho-step"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_range_rejected(self, tmp_path, flag, value):
        out = tmp_path / "g.csv"
        # --flag=-inf: argparse reads a bare -inf as an option
        code = run_cli("grid", "--n", "16", "--trials", "1", "--algos", "iht",
                       f"{flag}={value}", "--threads", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--kappa-min=-1e308", "--kappa-max=1e308"],
                                       ["--rho-step=1e-320"]], ids=["wide", "tiny-step"])
    def test_uncountable_range_rejected(self, tmp_path, capsys, flags):
        # (hi - lo) / step overflows to inf
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--n", "16", "--trials", "1", "--algos", "iht",
                       *flags, "--threads", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert "has too many points to count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_non_positive_step_rejected(self, tmp_path, capsys, step):
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--n", "16", "--trials", "1", "--algos", "iht",
                       f"--rho-step={step}", "--threads", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert "step must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_noise_rejected(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--n", "16", "--trials", "1", "--algos", "iht",
                       "--eps", "nan", "--threads", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_unknown_algorithm_rejected(self, tmp_path):
        code = run_cli("grid", "--n", "16", "--algos", "sparta",
                       "--out", str(tmp_path / "g.csv"))
        assert code == EXIT_USAGE

    def test_repeated_algorithm_rejected(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--n", "16", "--rho-min", "0.1", "--rho-max", "0.2",
                       "--rho-step", "0.1", "--trials", "1", "--algos", "htp,htp",
                       "--threads", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_guard_refusal_exits_3_and_writes_nothing(self, tmp_path, capsys, threads):
        out, trans = tmp_path / "g.csv", tmp_path / "tr.csv"
        for command, extra in [("grid", []), ("ptc", ["--transitions-out", str(trans)])]:
            code = run_cli(command, "--n", "40", "--rho-min", "0.1", "--rho-max", "0.2",
                           "--rho-step", "0.1", "--trials", "1", "--algos", "htp,hbot",
                           "--threads", threads, "--out", str(out), *extra)
            assert code == EXIT_WINDOW
            assert "refusing n > 30" in capsys.readouterr().err
            assert not out.exists()
            assert not trans.exists()

    @pytest.mark.parametrize("command, missing", [("grid", "--out"), ("ptc", "--out"),
                                                  ("ptc", "--transitions-out")])
    def test_missing_output_directory_refused_before_any_trial(
            self, tmp_path, monkeypatch, command, missing):
        # a path in a missing directory, a path that is itself a directory,
        # and a missing directory's name with a trailing separator
        grids = []
        monkeypatch.setattr(otkit.cli, "success_grid",
                            lambda **kwargs: grids.append(kwargs))
        (tmp_path / "d").mkdir()
        for bad in (str(tmp_path / "no" / "such" / "dir" / "x.csv"), str(tmp_path / "d"),
                    str(tmp_path / "nosuchdir") + os.sep):
            paths = {"--out": str(tmp_path / "t.csv"),
                     "--transitions-out": str(tmp_path / "tr.csv")}
            paths[missing] = bad
            argv = [command, "--n", "16", "--rho-min", "0.1", "--rho-max", "0.2",
                    "--rho-step", "0.1", "--trials", "1", "--algos", "htp",
                    "--threads", "1", "--out", paths["--out"]]
            if command == "ptc":
                argv += ["--transitions-out", paths["--transitions-out"]]
            assert run_cli(*argv) == EXIT_IO
            assert grids == []
            assert not any(path.is_file() for path in tmp_path.rglob("*"))

    def test_ptc_writes_transitions(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        trans = tmp_path / "ptc.csv"
        code = run_cli("ptc", "--n", "24", "--kappa-min", "1.0", "--kappa-max", "1.0",
                       "--rho-min", "0.1", "--rho-max", "0.2", "--rho-step", "0.1",
                       "--trials", "2", "--algos", "htp,iht,hbrotp,omp", "--seed", "3",
                       "--threads", "1", "--out", str(out),
                       "--transitions-out", str(trans))
        assert code == EXIT_OK
        lines = trans.read_text().splitlines()
        assert lines[1].startswith("htp,1.0,")
        # one printed rho50 line per (algorithm, kappa), in the CSV's order
        printed = [line.rstrip("*") for line in capsys.readouterr().out.splitlines()
                   if ": rho50=" in line]
        expected = []
        for row in lines[1:]:
            algorithm, kappa, rho50 = row.split(",")
            expected.append(f"{algorithm} kappa={kappa}: rho50={float(rho50):.3f}")
        assert printed == expected
        assert len(printed) == 4

    def test_both_gram_branches_recover(self, tmp_path):
        # the relaxed solve reads its step size from the smaller Gram of B:
        # B B^T at kappa 0.3 and 0.65 (m < n), B^T B at kappa 1.0 (m = n)
        out = tmp_path / "branches.csv"
        code = run_cli("grid", "--n", "48", "--kappa-min", "0.3", "--kappa-max", "1.0",
                       "--kappa-step", "0.35", "--rho-min", "0.1", "--rho-max", "0.1",
                       "--trials", "2", "--algos", "hbrotp,hbrot", "--threads", "1",
                       "--out", str(out))
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 12
        assert sorted({int(row[3]) for row in rows}) == [15, 32, 48]
        assert all(row[7] == "1" for row in rows), rows


class TestPtc:
    def test_single_rho_rejected_before_any_trial(self, tmp_path, monkeypatch):
        grids = []
        monkeypatch.setattr(otkit.cli, "success_grid",
                            lambda **kwargs: grids.append(kwargs))
        out = tmp_path / "t.csv"
        trans = tmp_path / "ptc.csv"
        code = run_cli("ptc", "--n", "16", "--rho-min", "0.3", "--rho-max", "0.3",
                       "--trials", "1", "--algos", "htp", "--threads", "1",
                       "--out", str(out), "--transitions-out", str(trans))
        assert code == EXIT_USAGE
        assert not out.exists()
        assert not trans.exists()
        assert grids == []

    def test_same_file_for_both_outputs_rejected_before_any_trial(self, tmp_path, monkeypatch,
                                                                   capsys):
        # the transitions CSV would overwrite the trials CSV
        grids = []
        monkeypatch.setattr(otkit.cli, "success_grid",
                            lambda **kwargs: grids.append(kwargs))
        monkeypatch.chdir(tmp_path)
        for trans in ("same.csv", os.path.join(".", "same.csv"), str(tmp_path / "same.csv")):
            code = run_cli("ptc", "--n", "24", "--rho-min", "0.1", "--rho-max", "0.2",
                           "--rho-step", "0.1", "--trials", "1", "--algos", "htp",
                           "--threads", "1", "--out", "same.csv", "--transitions-out", trans)
            assert code == EXIT_USAGE
            assert "name one file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert grids == []

    def test_grid_accepts_one_rho_value(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--n", "16", "--rho-min", "0.3", "--rho-max", "0.3",
                       "--trials", "1", "--algos", "htp", "--threads", "1",
                       "--out", str(out))
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2  # meta line and one trial


class TestBounds:
    def test_zero_delta_theta_zero(self, capsys):
        code = run_cli("bounds", "--delta-k", "0", "--delta-2k", "0",
                       "--delta-3k", "0", "--delta-kp1", "0", "--alpha", "1",
                       "--beta", "0", "--k", "2", "--variant", "hbot")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "theta = 0" in out
        assert "window: PASS" in out

    def test_gamma_constants_echoed(self, capsys):
        run_cli("bounds", "--delta-k", "0", "--delta-2k", "0", "--delta-3k", "0",
                "--delta-kp1", "0", "--k", "1", "--n", "12", "--variant", "hbrotp")
        out = capsys.readouterr().out
        assert "0.2274" in out and "0.2118" in out and "0.2079" in out

    def test_window_failure_exit(self, capsys):
        # without --delta-kp1, hbot's delta_(k+s(k)) = delta_(k+1) reads --delta-2k
        for flags, violated in [
                (["--delta-k", "0.25", "--delta-2k", "0.25", "--delta-3k", "0.25",
                  "--delta-kp1", "0.25", "--alpha", "1", "--beta", "0", "--omega", "1",
                  "--k", "1", "--n", "12", "--variant", "hbrotp"],
                 "delta_3k=0.25 >= gamma#(omega)=0.207909"),
                (["--delta-k", "0.1", "--delta-2k", "0.3", "--delta-3k", "0.4",
                  "--k", "3", "--variant", "hbot"],
                 "delta_(k+s(k))=0.3 >= gamma*=0.227475")]:
            assert run_cli("bounds", *flags) == EXIT_WINDOW
            out = capsys.readouterr().out.splitlines()
            assert "window: FAIL" in out
            assert f"  violated: {violated}" in out

    def test_relaxed_variant_needs_n(self, capsys):
        code = run_cli("bounds", "--delta-k", "0.01", "--delta-2k", "0.02",
                       "--delta-3k", "0.03", "--k", "2", "--variant", "hbrot")
        assert code == EXIT_USAGE
        assert "--n is required for the relaxed variants" in capsys.readouterr().err

    def test_nan_alpha_is_usage_error(self):
        code = run_cli("bounds", "--delta-k", "0", "--delta-2k", "0", "--delta-3k", "0",
                       "--alpha", "nan", "--k", "2", "--variant", "hbot")
        assert code == EXIT_USAGE

    def test_bad_delta_ordering_is_usage_error(self, capsys):
        code = run_cli("bounds", "--delta-k", "0.3", "--delta-2k", "0.1",
                       "--delta-3k", "0.2", "--delta-kp1", "0.3", "--k", "2",
                       "--variant", "hbot")
        assert code == EXIT_USAGE
        # an infinite constant is an argument error, before any constant prints
        capsys.readouterr()
        code = run_cli("bounds", "--delta-k", "0.05", "--delta-2k", "0.08",
                       "--delta-3k", "inf", "--k", "10", "--n", "100",
                       "--variant", "hbrotp")
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "isometry constants must be finite and nonnegative" in captured.err
        assert captured.out.startswith("[bounds] config:")
        assert len(captured.out.splitlines()) == 1


class TestRic:
    def test_identity_zero(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "A.csv", np.eye(6))
        code = run_cli("ric", "--A", str(tmp_path / "A.csv"), "--order", "3")
        assert code == EXIT_OK
        assert "delta_3 = 0" in capsys.readouterr().out

    def test_matches_library_value(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        A = rng.normal(0, 1, (8, 12))
        A /= np.linalg.norm(A, axis=0)
        save_matrix_csv(tmp_path / "A.csv", A)
        code = run_cli("ric", "--A", str(tmp_path / "A.csv"), "--order", "2")
        assert code == EXIT_OK
        from otkit.bounds import ric_exact
        printed = float(capsys.readouterr().out.strip().splitlines()[-1].split("=")[1])
        assert printed == pytest.approx(ric_exact(A, 2), abs=1e-9)

    def test_guard_exit_distinct(self, tmp_path):
        rng = np.random.default_rng(8)
        save_matrix_csv(tmp_path / "A.csv", rng.normal(0, 1, (10, 40)))
        code = run_cli("ric", "--A", str(tmp_path / "A.csv"), "--order", "12")
        assert code == EXIT_WINDOW

    def test_missing_file(self, tmp_path):
        code = run_cli("ric", "--A", str(tmp_path / "missing.csv"), "--order", "2")
        assert code == EXIT_IO


def test_selftest_passes(capsys):
    assert run_cli("selftest") == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "13/13 checks passed" in out


REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def readme_quick_start():
    """The first python block of README.md, as the source of a `python -c`."""
    found = re.search(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(),
                      re.S | re.M)
    return found.group(1) if found else "raise SystemExit('README.md has no python block')"


# name: (exit code, a line it prints, python's arguments)
PROCESS_RUNS = {
    "window-holds": (EXIT_OK, "window: PASS", [
        "-m", "otkit", "bounds", "--delta-k", "0.01", "--delta-2k", "0.02",
        "--delta-3k", "0.03", "--k", "2", "--n", "40", "--variant", "hbrotp"]),
    "repeated-algorithm": (EXIT_USAGE, "algorithm 'htp' repeated", [
        "-m", "otkit", "grid", "--n", "16", "--rho-min", "0.1", "--rho-max", "0.2",
        "--rho-step", "0.1", "--trials", "1", "--algos", "htp,htp", "--threads", "1",
        "--out", "t.csv"]),
    "window-fails": (EXIT_WINDOW, "window: FAIL", [
        "-m", "otkit", "bounds", "--delta-k", "0.1", "--delta-2k", "0.3",
        "--delta-3k", "0.4", "--k", "3", "--variant", "hbot"]),
    "missing-directory": (EXIT_IO, "its directory is missing or unwritable", [
        "-m", "otkit", "grid", "--n", "16", "--rho-min", "0.1", "--rho-max", "0.2",
        "--rho-step", "0.1", "--trials", "1", "--algos", "htp", "--threads", "1",
        "--out", os.path.join("no", "such", "t.csv")]),
    "same-output-file": (EXIT_USAGE, "--out and --transitions-out name one file", [
        "-m", "otkit", "ptc", "--n", "24", "--rho-min", "0.1", "--rho-max", "0.2",
        "--rho-step", "0.1", "--trials", "1", "--algos", "htp", "--threads", "1",
        "--out", "same.csv", "--transitions-out", os.path.join(".", "same.csv")]),
    # the documented examples: README's quick start as written, and both scripts
    "readme-quick-start": (EXIT_OK, "beta_max 0.0655, alpha in (", [
        "-c", readme_quick_start()]),
    "envelope-demo": (EXIT_OK, "contraction factor theta=0.8220", [
        str(SCRIPTS / "envelope_demo.py")]),
    # with noise, the envelope carries hbrotp's noise term: 1.127 at p = 2,
    # where it is 1.026 without
    "envelope-demo-noise": (EXIT_OK, "1.127e+00", [
        str(SCRIPTS / "envelope_demo.py"), "--n", "14", "--eps", "1e-3"]),
    "bound-tables": (EXIT_OK, "gamma#(1)=0.207909", [str(SCRIPTS / "bound_tables.py")]),
    # the windows at omega = 2, through parameter_window's constants path
    "bound-tables-omega-2": (EXIT_OK, "0.1442    0.0017    0.9996    1.0017   0.9943", [
        str(SCRIPTS / "bound_tables.py"), "--omega", "2", "--k", "3", "--n", "40"]),
}


@pytest.mark.parametrize("expected, says, argv", PROCESS_RUNS.values(), ids=list(PROCESS_RUNS))
def test_process_exit_code(tmp_path, expected, says, argv):
    # python in an empty directory: its status is the command's, and it
    # writes no file there
    src = str(Path(otkit.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert says in proc.stdout + proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_console_script_runs_the_cli():
    # README writes every command as `otkit ...`, the script pyproject.toml
    # installs; read with a regex, since Python 3.10 has no tomllib
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        (REPO / "pyproject.toml").read_text(), re.S | re.M)
    entry = scripts and re.search(r'^otkit = "([\w.]+):(\w+)"$', scripts.group(1), re.M)
    assert entry, "pyproject.toml maps no otkit script"
    module, name = entry.groups()
    assert getattr(importlib.import_module(module), name) is otkit.cli.main


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--bogus", "1")
    assert exc.value.code == 2


def test_every_command_prints_config(tmp_path, capsys):
    save_matrix_csv(tmp_path / "A.csv", np.eye(4))
    run_cli("ric", "--A", str(tmp_path / "A.csv"), "--order", "2")
    assert capsys.readouterr().out.startswith("[ric] config:")
