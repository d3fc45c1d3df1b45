import csv
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from frkit import cli
from frkit import sphere as sph
from frkit import torus as tor
from frkit.battery import TORUS_BATTERY
from frkit.cli import RECOVERY_HEADER, main
from frkit.solver import BASIS_ENTRIES_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.strip().split("\n")))
    return rows[0], rows[1:]


def _g(x):
    return f"{x:.17g}"


def run_python(code, **env):
    """Run code in a fresh interpreter with frkit on its path and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestFr:
    def test_torus_const1_certified(self, capsys):
        code, out, err = run_cli(capsys, "fr", "--setting", "torus", "--fn", "const1", "--n", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:9] == ["N", "A", "B", "C", "r", "fr_measured", "slack", "certified", "provenance"]
        row = rows[0]
        assert row[0] == "8"
        assert float(row[5]) == pytest.approx(1.0, abs=1e-10)
        assert float(row[6]) >= 0.0
        assert row[7] == "true"
        assert "warning" not in err

    def test_fr_report_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "fr", "--setting", "torus", "--fn", "const1", "--n", "8")
        assert code == 0
        header, (row,) = parse_csv(out)
        assert header == [
            "N", "A", "B", "C", "r", "fr_measured", "slack", "certified", "provenance",
            "config_hash", "fn",
        ]
        assert len(row) == len(header)
        assert row[0] == "8"
        assert row[7] == "true"
        assert row[8] == "analytic"

    def test_torus_commands_do_not_recheck_the_battery(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("battery norms re-checked")
        monkeypatch.setattr("frkit.battery.verify_torus_battery", refuse)
        monkeypatch.setattr("frkit.torus.estimate_norms", refuse)
        for command in ("fr", "decay", "lemmas"):
            code, _, err = run_cli(capsys, command, "--fn", "all", "--n", "64")
            assert code == 0 and "re-checked" not in err, command

    def test_noncertified_warns_but_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "fr", "--setting", "torus", "--fn", "cc_half", "--n", "64")
        assert code == 0
        assert "not certified" in err
        _, rows = parse_csv(out)
        assert rows[0][7] == "false"

    def test_sphere_fr(self, capsys):
        code, out, _ = run_cli(capsys, "fr", "--setting", "sphere", "--fn", "decay_e", "--l", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows[0]) == len(header)
        assert float(rows[0][6]) >= 0.0  # slack
        assert rows[0][7] == ""  # the sphere bound has no certification hypothesis

    def test_unknown_fn_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "fr", "--fn", "nope", "--n", "8")
        assert code == 1
        assert "config error" in err

    def test_missing_n_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "fr", "--setting", "torus", "--fn", "const1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        "fr --setting sphere --fn y00 --l 1",
        "fr --setting torus --fn const1 --n 1",
        "recover --fn cc_half --n 64",
    ])
    def test_value_outside_the_domain_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        "fr --setting sphere --fn y00 --l -1",
        "recover --setting sphere --fn y00 --l -3",
        "sweep --setting sphere --fn y00 --l -2",
    ])
    def test_negative_bandwidth_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert "config error" in err and "bandwidth must be >= 0" in err
        assert out == ""

    def test_repeated_size_gives_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "fr", "--setting", "torus", "--fn", "const1", "--n", "8", "8")
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[0], r[-1]) for r in rows] == [("8", "const1")]

    @pytest.mark.parametrize("command, fn_col, size_col", [
        (["fr"], 10, 0),
        (["sweep", "--mode", "rn_vs_logn"], 0, 1),
    ])
    def test_each_bandwidth_builds_once_beyond_the_cache(
        self, capsys, table_builds, command, fn_col, size_col
    ):
        bandwidths = ["2", "3", "4", "5", "6"]  # more than the norm-table cache holds
        code, out, _ = run_cli(capsys, *command, "--setting", "sphere", "--fn", "all", "--l",
                               *bandwidths)
        assert code == 0
        _, rows = parse_csv(out)
        keys = [(row[fn_col], int(row[size_col])) for row in rows]
        assert keys == sorted(keys)  # still reported by fn, then L
        assert sorted(table_builds) == [2, 3, 4, 5, 6]


class TestDecayLemmas:
    def test_decay_rows_match_verify_decay(self, capsys):
        code, out, _ = run_cli(capsys, "decay", "--fn", "all", "--n", "64", "16")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "fn", "N", "max_ratio", "limit", "passed", "provenance", "config_hash",
        ]
        keys = [(r[0], int(r[1])) for r in rows]
        assert keys == sorted((fn, n) for fn in TORUS_BATTERY for n in (16, 64))
        for row in rows:
            spec, n = TORUS_BATTERY[row[0]], int(row[1])
            chk = tor.verify_decay(spec, n)
            assert row[2:6] == [
                _g(chk.max_ratio), _g(chk.limit), str(chk.passed).lower(),
                spec.analytic.provenance,
            ]

    def test_lemmas_rows_match_verify_functions(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--fn", "all", "--n", "64", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "fn", "N", "riemann_lhs", "riemann_rhs", "riemann_pass",
            "grid_energy", "l2_lower_bound", "l2_pass", "certified", "provenance",
            "config_hash",
        ]
        keys = [(r[0], int(r[1])) for r in rows]
        assert keys == sorted((fn, n) for fn in TORUS_BATTERY for n in (8, 64))
        for row in rows:
            spec, n = TORUS_BATTERY[row[0]], int(row[1])
            rie = tor.verify_riemann_lemma(spec, n)
            low = tor.verify_l2_lower_bound(spec, n)
            assert row[2:10] == [
                _g(rie.lhs), _g(rie.rhs), str(rie.passed).lower(),
                _g(low.grid_energy), _g(low.lower_bound),
                str(low.passed and low.sqrt_passed).lower(), str(low.certified).lower(),
                spec.analytic.provenance,
            ]

    @pytest.mark.parametrize("command", ["decay", "lemmas"])
    def test_sphere_setting_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--setting", "sphere", "--fn", "const1", "--n", "8")
        assert code == 1
        assert "config error" in err
        assert out == ""


class TestRecover:
    def test_constant_exact_fit(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--setting", "torus", "--fn", "const1", "--n", "8",
            "--eps", "0.1", "--trials", "2", "--seed", "5", "--exact-fit",
        )
        assert code == 0
        header, rows = parse_csv(out)
        idx = header.index("rel_error")
        assert len(rows) == 2
        for row in rows:
            assert float(row[idx]) <= 1e-8

    def test_sphere_y00(self, capsys):
        code, out, _ = run_cli(
            capsys, "recover", "--setting", "sphere", "--fn", "y00", "--l", "8",
            "--eps", "0.1", "--c-univ", "0.01", "--trials", "1", "--seed", "1",
        )
        assert code == 0

    @pytest.mark.parametrize("extra", [
        "--fn const1 cc_half", "--n 8 16", "--eps 0.1 0.2", "--c-univ 0.01 0.02",
    ])
    def test_more_than_one_cell_is_config_error(self, capsys, extra):
        base = "recover --setting torus --fn const1 --n 8 --eps 0.1 --c-univ 0.01 --allow-uncertified"
        code, out, err = run_cli(capsys, *base.split(), *extra.split())
        assert code == 1
        assert "config error: recover takes one" in err
        assert out == ""

    def test_csv_fields_schema(self, capsys):
        runs = {
            "torus": "recover --fn const1 --n 8 --eps 0.1 --seed 3 --exact-fit",
            "sphere": "recover --setting sphere --fn y00 --l 1 --eps 0.1 --seed 5 "
                      "--c-univ 0.005 --exact-fit",
        }
        for setting, argv in runs.items():
            code, out, err = run_cli(capsys, *argv.split())
            assert code == 0, err
            header, (row,) = parse_csv(out)
            fields = dict(zip(header, row, strict=True))
            assert header == RECOVERY_HEADER
            assert fields["setting"] == setting
            assert fields["eps"] == "0.10000000000000001"
            assert fields["budget_11.47eps"] == _g(11.47 * 0.1)
            assert fields["converged"] in ("true", "false")
            assert len(fields["config_hash"]) == 12
        # the sphere's row, the last one read: y00 at L = 1 from four points
        assert fields["N_or_L"] == "1" and fields["sample_size"] == "4"
        assert fields["fn"] == "y00"

    def test_bad_eps_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--setting", "torus", "--fn", "const1", "--n", "8",
            "--eps", "0.6",
        )
        assert code == 1
        assert "eps" in err


class TestSweep:
    def test_rn_vs_logn_slope(self, capsys):
        ns = [str(2**k) for k in range(6, 14)]
        code, out, _ = run_cli(capsys, "sweep", "--mode", "rn_vs_logn", "--fn", "const1", "--n", *ns)
        assert code == 0
        header, rows = parse_csv(out)
        ratio = float(rows[0][header.index("slope_ratio")])
        # const1 has C2/L2 = 1, so the fitted slope should sit at 16 pi^2
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mode", "rn_vs_logn", "--fn", "const1")
        assert code == 1

    def test_rn_vs_logn_sphere(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "rn_vs_logn", "--setting", "sphere",
            "--fn", "decay_e", "--l", "4", "8", "16",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3
        ratio = float(rows[-1][header.index("slope_ratio")])
        # slope of r_L against ln L tracks C0 * C2/L2 once the profile saturates
        assert 0.5 <= ratio <= 1.5

    def test_rn_vs_logn_sphere_all_leaves_out_signals_of_one_bandwidth(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "rn_vs_logn", "--setting", "sphere",
            "--fn", "all", "--l", "2", "8",
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        cells = [(r[0], r[1]) for r in rows]
        assert ("y00", "2") in cells and ("y00", "8") in cells
        assert not any(fn == "mix5" for fn, _ in cells)

    def test_rn_vs_logn_needs_two_distinct_sizes(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--mode", "rn_vs_logn", "--fn", "const1", "--n", "8", "8",
        )
        assert code == 1
        assert "config error" in err
        assert out == ""

    def test_recover_sweep_reproducible_bytes(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--mode", "recover", "--setting", "torus", "--fn", "cc_half",
            "--n", "16", "--eps", "0.1", "--c-univ", "0.05", "--trials", "2",
            "--seed", "77", "--allow-uncertified",
        ]
        code_a, _, _ = run_cli(capsys, *args, "--out", str(out_a))
        code_b, _, _ = run_cli(capsys, *args, "--out", str(out_b), "--workers", "2")
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sphere_all_takes_the_signals_of_each_bandwidth(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--setting", "sphere", "--fn", "all", "--l", "2", "8",
            "--c-univ", "0.01", "--seed", "3",
        )
        assert code == 0, err
        header, rows = parse_csv(out)
        cells = {(r[header.index("fn")], r[header.index("N_or_L")]) for r in rows}
        assert ("mix5", "8") in cells and ("mix5", "2") not in cells
        assert ("y00", "2") in cells and ("y00", "8") in cells
        assert len(rows) == len(cells) == 7 + 8
        assert all(r[header.index("status")] == "ok" for r in rows)

    def test_sphere_names_checked_at_every_bandwidth(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--setting", "sphere", "--fn", "mix5", "--l", "8", "2",
        )
        assert code == 1
        assert "config error" in err and "mix5" in err and "L=2" in err


class TestSweepWorkers:
    # four (cell, trial) tasks; the c_univ = 1e6 cells need a basis matrix of more
    # than BASIS_ENTRIES_MAX entries and give error rows
    GRID = ["sweep", "--setting", "sphere", "--fn", "y00", "--l", "2", "--eps", "0.1", "0.2",
            "--c-univ", "0.01", "1e6", "--seed", "4"]

    def test_rows_byte_identical_at_every_worker_count(self, tmp_path, capsys):
        bodies = []
        for workers in ("1", "2", "3"):
            path = tmp_path / f"w{workers}.csv"
            code, _, err = run_cli(capsys, *self.GRID, "--workers", workers, "--out", str(path))
            assert code == 0, err
            bodies.append(path.read_bytes())
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
        header, rows = parse_csv(bodies[0].decode())
        cells = [(r[header.index("eps")], r[header.index("C_univ")]) for r in rows]
        assert cells == [(_g(0.1), "0.01"), (_g(0.1), "1000000"),
                         (_g(0.2), "0.01"), (_g(0.2), "1000000")]
        status = [r[header.index("status")] for r in rows]
        assert status[0] == status[2] == "ok"
        for text in (status[1], status[3]):
            assert text.startswith("error: sample size ")
            assert text.endswith(f" basis entries, over the limit of {BASIS_ENTRIES_MAX}")

    def test_torus_rows_do_not_depend_on_blas_threads(self):
        # solve_bpdn's support polish forms and factors a Gram matrix through
        # BLAS and LAPACK; torus rows, noisy and exact fit, must not move with
        # their thread count
        torus = "['sweep', '--setting', 'torus', '--fn', 'cc_half', '--eps', '0.1', " \
                "'--trials', '2', '--allow-uncertified', '--seed', '3', '--workers', '1'"
        code = (
            "from frkit.cli import main\n"
            f"main({torus}, '--n', '64', '--c-univ', '0.00390625'])\n"
            f"main({torus}, '--n', '256', '--c-univ', '0.0625'])\n"
            f"main({torus}, '--n', '32', '64', '--c-univ', '0.015625', '--exact-fit'])\n"
        )
        outs = [run_python(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
                for n in ("1", "2")]
        assert outs[0] == outs[1]
        rows = [line for line in outs[0].splitlines() if line.startswith("torus,")]
        assert len(rows) == 8 and all(line.endswith(",ok") for line in rows)

    def test_iterating_sphere_rows_byte_identical(self, tmp_path, capsys):
        # solves that iterate build the operator's Gram rows in the order their
        # coefficients turn nonzero; the rows must not depend on that order.
        # decay_alt at L = 16, whose starts are refused: 15 iterations each
        grid = ["sweep", "--setting", "sphere", "--fn", "decay_alt", "--l", "16",
                "--c-univ", "0.015625", "--trials", "2", "--seed", "4"]
        bodies = []
        for run, workers in enumerate(("1", "2", "1")):
            path = tmp_path / f"run{run}.csv"
            code, _, err = run_cli(capsys, *grid, "--workers", workers, "--out", str(path))
            assert code == 0, err
            bodies.append(path.read_bytes())
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
        header, rows = parse_csv(bodies[0].decode())
        assert len(rows) == 2
        for row in rows:
            assert row[header.index("status")] == "ok"
            assert int(row[header.index("iterations")]) > 0

    def test_trials_import_no_numpy_module(self):
        # numpy loads numpy.fft, numpy.ma and numpy.random on first use; a sweep's
        # forked workers inherit only what the parent loaded, so a trial must find
        # every numpy module it needs already imported by frkit.cli
        code = """if True:
            import sys
            import frkit.cli
            from frkit import battery, solver
            before = set(sys.modules)
            for exact_fit in (False, True):
                solver.recover_torus(battery.TORUS_BATTERY["cc_half"], 32, 0.1, 1,
                                     c_univ=0.0625, allow_uncertified=True, exact_fit=exact_fit)
                solver.recover_sphere(battery.build_sphere_battery(8)["mix5"], 0.1, 1,
                                      c_univ=0.015625, exact_fit=exact_fit)
            print(" ".join(sorted(m for m in set(sys.modules) - before if m.startswith("numpy"))))
        """
        assert run_python(code).split() == []

    def test_one_worker_runs_in_process(self, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        code, _, err = run_cli(capsys, *self.GRID, "--workers", "1")
        assert code == 0, err
        # the patch does reach the fork path: two workers fork one child
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2 and "internal error: sweep forked" in err and out == ""

    def test_caller_runs_the_first_share(self, monkeypatch, tmp_path, capsys):
        # every task appends "pid seed" to one file; with 8 tasks and 3 workers the
        # caller runs tasks 0, 3, 6 and two children run 1, 4, 7 and 2, 5
        log = tmp_path / "pids"
        recover_one = cli._recover_one

        def logged(args, target, size, eps, c_univ, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {seed}\n")
            return recover_one(args, target, size, eps, c_univ, seed)

        monkeypatch.setattr(cli, "_recover_one", logged)
        code, out, err = run_cli(capsys, *self.GRID, "--trials", "2", "--workers", "3")
        assert code == 0, err
        header, rows = parse_csv(out)
        pid_of = {int(seed): int(pid) for pid, seed in
                  (line.split() for line in log.read_text().splitlines())}
        pids = [pid_of[int(row[header.index("seed")])] for row in rows]
        assert len(pids) == 8
        assert pids[0::3] == [os.getpid()] * 3
        children = [pids[1::3], pids[2::3]]
        assert [len(set(share)) for share in children] == [1, 1]
        assert len({os.getpid(), children[0][0], children[1][0]}) == 3
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("broken trial")

        # set before the children fork, so the caller and every child raise
        monkeypatch.setattr(cli, "_recover_one", broken)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2
        assert "internal error: broken trial" in err
        assert out == ""
        assert multiprocessing.active_children() == []

    def test_child_exception_is_internal_error(self, monkeypatch, capsys):
        parent, recover_one = os.getpid(), cli._recover_one

        def broken_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("broken child trial")
            return recover_one(*args)

        monkeypatch.setattr(cli, "_recover_one", broken_in_child)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2
        assert "internal error: broken child trial" in err
        assert out == ""
        assert multiprocessing.active_children() == []

    def test_child_death_is_internal_error(self):
        # in a fresh interpreter, whose 120 s timeout turns a hang into a failure
        code = f"""if True:
            import contextlib, io, multiprocessing, os
            from frkit import cli
            parent, recover_one = os.getpid(), cli._recover_one

            def dies_in_child(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return recover_one(*args)

            cli._recover_one = dies_in_child
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main({self.GRID + ["--workers", "2"]!r})
            print(repr((code, out.getvalue(), err.getvalue(),
                        multiprocessing.active_children())))
        """
        code, out, err, alive = eval(run_python(code))
        assert code == 2 and out == "" and alive == []
        assert "internal error: sweep worker 1 exited with code 3" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, capsys, workers):
        code, out, err = run_cli(capsys, *self.GRID, "--workers", workers)
        assert code == 1
        assert "config error" in err and "workers" in err
        assert out == ""


@pytest.mark.parametrize("argv", [
    "sweep --setting torus --fn const1 --n 8",
    "recover --setting torus --fn const1 --n 8",
    "quadrature-check --l 2",
])
def test_negative_seed_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(), "--seed", "-1")
    assert code == 1
    assert "config error" in err and "--seed" in err
    assert out == ""


@pytest.mark.parametrize("c_univ", ["nan", "inf"])
def test_non_finite_c_univ_is_config_error(capsys, c_univ):
    code, out, err = run_cli(capsys, "recover", "--setting", "sphere", "--fn", "y00",
                             "--l", "2", "--c-univ", c_univ)
    assert code == 1
    assert "config error" in err and "finite" in err
    assert out == ""


@pytest.mark.parametrize("c_univ", ["nan", "inf"])
def test_non_finite_c_univ_is_sweep_error_row(capsys, c_univ):
    code, out, err = run_cli(capsys, "sweep", "--mode", "recover", "--setting", "sphere",
                             "--fn", "y00", "--l", "2", "--c-univ", "0.01", c_univ,
                             "--workers", "1")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert [len(r) for r in rows] == [len(header)] * 2
    status = [r[header.index("status")] for r in rows]
    assert status[0] == "ok"
    assert status[1].startswith("error: C must be finite")


def test_overflowing_sample_size_is_config_error_and_sweep_error_row(capsys):
    base = ["--fn", "const1", "--n", "8", "--eps", "0.1", "--allow-uncertified"]
    code, out, err = run_cli(capsys, "recover", *base, "--c-univ", "1e308")
    assert code == 1
    assert "config error: sample size is not finite" in err
    assert out == ""
    code, out, err = run_cli(capsys, "sweep", *base, "--c-univ", "1", "1e308")
    assert code == 0, err
    header, rows = parse_csv(out)
    status = [r[header.index("status")] for r in rows]
    assert status[0] == "ok"
    assert status[1].startswith("error: sample size is not finite")
    assert rows[1][:4] == ["torus", "8", "0.10000000000000001", "1e+308"]
    assert rows[1][header.index("sample_size")] == ""



def test_one_coefficient_is_config_error_and_sweep_error_row(capsys):
    # L = 0 holds one harmonic, and ln 1 = 0 made the sample size 0, which
    # the point sampler refused with a message about the point count
    base = ["--setting", "sphere", "--fn", "y00", "--eps", "0.1"]
    message = "the coefficient count D must be an integer >= 2 (ln D > 0), got D=1"
    code, out, err = run_cli(capsys, "recover", *base, "--l", "0")
    assert code == 1
    assert f"config error: {message}" in err
    assert out == ""
    code, out, err = run_cli(capsys, "sweep", *base, "--l", "0", "1", "--c-univ", "0.005")
    assert code == 0, err
    header, rows = parse_csv(out)
    status = [r[header.index("status")] for r in rows]
    assert status == [f"error: {message}", "ok"]
    assert rows[0][header.index("sample_size")] == ""

def test_sweep_runs_a_repeated_grid_value_once(capsys):
    base = ["sweep", "--fn", "const1", "--n", "8", "--allow-uncertified", "--trials", "2"]
    code, out, err = run_cli(capsys, *base, "--eps", "0.1", "--c-univ", "1")
    assert code == 0, err
    header, once = parse_csv(out)
    code, out, err = run_cli(capsys, *base, "--eps", "0.1", "0.1", "--c-univ", "1", "1.0")
    assert code == 0, err
    _, repeated = parse_csv(out)
    hash_col = header.index("config_hash")
    assert len(repeated) == len(once) == 2
    assert [r[:hash_col] + r[hash_col + 1:] for r in repeated] == [
        r[:hash_col] + r[hash_col + 1:] for r in once
    ]


def test_sweep_cell_order_ignores_nan_position(capsys):
    # a NaN C cell is an error row; the cells must still come out ascending,
    # NaN last, wherever the NaN sits on the command line
    orders = []
    for values in (["0.02", "nan", "0.01"], ["nan", "0.02", "0.01"], ["0.02", "0.01", "nan"]):
        code, out, err = run_cli(capsys, "sweep", "--mode", "recover", "--setting", "torus",
                                 "--fn", "const1", "--n", "8", "--allow-uncertified",
                                 "--c-univ", *values, "--workers", "1")
        assert code == 0, err
        header, rows = parse_csv(out)
        orders.append([row[header.index("C_univ")] for row in rows])
    assert orders == [["0.01", "0.02", "nan"]] * 3


class TestQuadratureCheck:
    def test_reports_small_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "quadrature-check", "--l", "2", "4")
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            assert float(row[header.index("gram_max_dev")]) < 1e-10
            assert float(row[header.index("roundtrip_rel_err")]) < 1e-10

    def test_output_does_not_depend_on_blas_threads(self):
        # at L = 16 a threaded BLAS product moved gram_max_dev between 1 and 2 threads
        code = "from frkit.cli import main; main(['quadrature-check', '--l', '8', '16'])"
        outs = [run_python(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
                for n in ("1", "2")]
        assert outs[0] == outs[1] and outs[0].count("\n") == 3

    @pytest.mark.parametrize("bandwidth", [2, 9, 16])
    def test_gram_is_symmetric_upper_triangle_of_full_product(self, bandwidth):
        # 9, 100 and 289 columns: in 64-row blocks, one partial block, then several
        rule = sph.build_quadrature(bandwidth)
        mat = sph.basis_matrix(bandwidth, rule.theta, rule.phi)
        gram = cli._quadrature_gram(mat, rule.weights)
        assert np.array_equal(gram, gram.T)
        full = np.einsum("ji,jk->ik", mat, rule.weights[:, None] * mat)
        assert np.max(np.abs(gram - full)) <= 1e-15

    def test_repeated_size_gives_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "quadrature-check", "--l", "2", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["2"]


class TestConfigFile:
    def test_config_provides_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("fn = const1\nn = 8 16\nsetting = torus\n")
        code, out, _ = run_cli(capsys, "fr", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["8", "16"]
        # explicit flag beats the file
        code, out, _ = run_cli(capsys, "fr", "--config", str(cfg), "--n", "32")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["32"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "fr", "--config", str(cfg), "--fn", "const1", "--n", "8")
        assert code == 1
        assert "bogus" in err

    def test_false_boolean_stays_off(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        base = "setting = torus\nfn = const1\nn = 8\neps = 0.1\nseed = 5\n"
        errors = {}
        for value in ("false", "true"):
            cfg.write_text(base + f"exact_fit = {value}\n")
            code, out, _ = run_cli(capsys, "recover", "--config", str(cfg))
            assert code == 0
            header, rows = parse_csv(out)
            errors[value] = float(rows[0][header.index("rel_error")])
        assert errors["false"] == pytest.approx(0.1, rel=0.05)  # delta = eps ||g||
        assert errors["true"] <= 1e-8  # exact fit

    @pytest.mark.parametrize("line", ["setting = sfere", "mode = bogus"])
    def test_file_values_face_the_flag_choices(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"fn = const1\nn = 8\n{line}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "invalid choice" in err

    def test_explicit_flag_equal_to_default_beats_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("setting = sphere\nfn = const1\nn = 8\n")
        code, out, err = run_cli(capsys, "fr", "--config", str(cfg), "--setting", "torus")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [(r[0], r[-1]) for r in rows] == [("8", "const1")]

    def test_identical_config_same_hash_column(self, tmp_path, capsys):
        args = ["fr", "--setting", "torus", "--fn", "const1", "--n", "8"]
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b


class TestParserCache:
    """main() builds its parser once per process and parses each call afresh."""

    def test_second_run_prints_what_it_prints_alone(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("setting = torus\nfn = cc_half\nn = 16\neps = 0.1\nc_univ = 0.05\n"
                       "trials = 2\nseed = 3\nallow_uncertified = true\n")
        runs = (["sweep", "--config", str(cfg)], ["fr", "--setting", "torus", "--n", "8"])
        parser = cli._build_parser()
        commands = ("fr", "decay", "lemmas", "recover", "sweep", "quadrature-check")
        defaults = {cmd: repr(vars(parser.parse_args([cmd]))) for cmd in commands}

        together = [run_cli(capsys, *argv)[1] for argv in runs]
        for argv, out in zip(runs, together):
            alone = run_python(f"import sys\nfrom frkit.cli import main\nsys.exit(main({argv!r}))")
            assert out == alone, argv
        assert "cc_half" in together[0] and "const1" in together[1]  # --fn default all
        assert cli._build_parser() is parser
        assert {cmd: repr(vars(parser.parse_args([cmd]))) for cmd in commands} == defaults
