import collections
import csv
import hashlib
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from frkit import cli
from frkit import solver
from frkit import sphere as sph
from frkit import torus as tor
from frkit.battery import TORUS_BATTERY
from frkit.cli import RECOVERY_HEADER, main
from frkit.errors import DomainError
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


# a trial this slow makes a sweep's first task show that forking pays for its cost
SLOW_TRIAL_S = 4 * cli.FORK_COST_S


def patch_trial(monkeypatch, before):
    """Make solver.trial call before(field, seed) first, to sleep, log or raise."""
    trial = solver.trial

    def patched(field, eps, seed, **options):
        before(field, seed)
        return trial(field, eps, seed, **options)

    monkeypatch.setattr(solver, "trial", patched)


def slow(field, seed):
    time.sleep(SLOW_TRIAL_S)


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


class TestTorusFields:
    # one (fn, N) in two cells of three trials: six tasks that share a field
    SWEEP = ["sweep", "--fn", "cc_half", "--n", "16", "--eps", "0.1", "--c-univ", "0.05", "0.1",
             "--trials", "3", "--seed", "2", "--allow-uncertified"]

    @staticmethod
    def _log_grids(monkeypatch, log):
        """Append the calling process's pid to log at each discretize."""
        discretize = tor.discretize

        def logged(f, side):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return discretize(f, side)

        monkeypatch.setattr(tor, "discretize", logged)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_builds_each_field_once_per_process(self, workers, monkeypatch, tmp_path,
                                                       capsys):
        log = tmp_path / "pids"
        self._log_grids(monkeypatch, log)

        def refuse(*args):
            raise AssertionError("a row's trial rebuilt the full spectrum")

        monkeypatch.setattr(solver, "_hermitian_full", refuse)
        trials = tmp_path / "trials"

        def slow_logged(field, seed):
            with open(trials, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            slow(field, seed)  # so that two workers fork

        patch_trial(monkeypatch, slow_logged)
        code, out, err = run_cli(capsys, *self.SWEEP, "--workers", str(workers))
        assert code == 0, err
        header, rows = parse_csv(out)
        assert len(rows) == 6 and all(row[header.index("status")] == "ok" for row in rows)
        # the caller builds the field in its first task; a child forked after it inherits it
        assert log.read_text().split() == [str(os.getpid())]
        assert len(set(trials.read_text().split())) == workers

    def test_no_field_outlives_its_command(self, monkeypatch, tmp_path, capsys):
        log = tmp_path / "pids"
        self._log_grids(monkeypatch, log)
        argv = ["recover", "--fn", "cc_half", "--n", "16", "--eps", "0.1", "--c-univ", "0.05",
                "--trials", "3", "--allow-uncertified"]
        outs = []
        for calls in (1, 2):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert len(log.read_text().split()) == calls
            outs.append(out)
        assert outs[0] == outs[1]


class TestSphereFields:
    # two signals at two bandwidths, two trials each: eight tasks on four fields
    SWEEP = ["sweep", "--setting", "sphere", "--fn", "y00_plus", "gauss_heat", "--l", "4", "8",
             "--eps", "0.1", "--c-univ", "0.015625", "--trials", "2", "--seed", "3"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_builds_each_field_once_per_process(self, workers, monkeypatch, tmp_path,
                                                       capsys):
        builds, uses = tmp_path / "builds", tmp_path / "uses"
        sphere_field = solver.sphere_field

        def log(path, coeffs):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()} {hashlib.sha256(coeffs.tobytes()).hexdigest()}\n")

        def logged(signal):
            log(builds, signal.coeffs)
            return sphere_field(signal)

        def slow_logged(field, seed):
            log(uses, field.truth)
            slow(field, seed)  # so that two workers fork

        monkeypatch.setattr(solver, "sphere_field", logged)
        patch_trial(monkeypatch, slow_logged)
        code, out, err = run_cli(capsys, *self.SWEEP, "--workers", str(workers))
        assert code == 0, err
        header, rows = parse_csv(out)
        assert len(rows) == 8 and all(row[header.index("status")] == "ok" for row in rows)
        # no process builds a field twice, and each builds a field only for a trial;
        # a child builds the fields of its trials that the caller had not built before
        # the fork, which it inherits
        built, used = ([tuple(line.split()) for line in path.read_text().splitlines()]
                       for path in (builds, uses))
        built, used = collections.Counter(built), set(used)
        caller = str(os.getpid())
        assert set(built.values()) == {1} and set(built) <= used
        assert all((pid, f) in built or (caller, f) in built for pid, f in used)
        assert len({pid for pid, _ in used}) == workers and len({f for _, f in used}) == 4


class TestSweepWorkers:
    # four (cell, trial) tasks; the c_univ = 1e6 cells need a basis matrix of more
    # than BASIS_ENTRIES_MAX entries and give error rows
    GRID = ["sweep", "--setting", "sphere", "--fn", "y00", "--l", "2", "--eps", "0.1", "0.2",
            "--c-univ", "0.01", "1e6", "--seed", "4"]

    def test_rows_byte_identical_at_every_worker_count(self, monkeypatch, tmp_path, capsys):
        # slow trials, so that two and three workers fork after the first task
        log = tmp_path / "pids"

        def slow_logged(field, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            slow(field, seed)

        patch_trial(monkeypatch, slow_logged)
        bodies = []
        for workers in ("1", "2", "3"):
            path = tmp_path / f"w{workers}.csv"
            code, _, err = run_cli(capsys, *self.GRID, "--workers", workers, "--out", str(path))
            assert code == 0, err
            bodies.append(path.read_bytes())
            pids = set(log.read_text().split())
            log.unlink()
            assert (len(pids) > 1) == (workers != "1")
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
        assert multiprocessing.active_children() == []
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
        # their thread count. The prod_cos N = 256 sweep's 410-iteration
        # trial sums its objective over the 33,024-entry half spectrum
        torus = "['sweep', '--setting', 'torus', '--fn', 'cc_half', '--eps', '0.1', " \
                "'--trials', '2', '--allow-uncertified', '--seed', '3', '--workers', '1'"
        code = (
            "from frkit.cli import main\n"
            f"main({torus}, '--n', '64', '--c-univ', '0.00390625'])\n"
            f"main({torus}, '--n', '256', '--c-univ', '0.0625'])\n"
            f"main({torus}, '--n', '32', '64', '--c-univ', '0.015625', '--exact-fit'])\n"
            "main(['sweep', '--setting', 'torus', '--fn', 'prod_cos', '--n', '256', '--eps', "
            "'0.1', '--c-univ', '0.0625', '--trials', '8', '--seed', '1', '--allow-uncertified', "
            "'--workers', '1'])\n"
        )
        outs = [run_python(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
                for n in ("1", "2")]
        assert outs[0] == outs[1]
        rows = [line for line in outs[0].splitlines() if line.startswith("torus,")]
        assert len(rows) == 16 and all(line.endswith(",ok") for line in rows)

    def test_coefficient_norms_do_not_depend_on_blas_threads(self):
        # coef_norm and coef_l1 reduce the N = 256 half spectrum's 33,024
        # weighted entries, which a threaded BLAS dot product would split
        # across threads and sum in another order
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from frkit.sampling import draw_subset, rng_from_seed\n"
            "from frkit.solver import make_torus_operator\n"
            "op = make_torus_operator(draw_subset(256, 8, 1))\n"
            "rng, digest = rng_from_seed(5), hashlib.sha256()\n"
            "for _ in range(200):\n"
            "    a = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])\n"
            "    digest.update(np.array([op.coef_norm(a), op.coef_l1(a)]).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        outs = [run_python(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
                for n in ("1", "2")]
        assert outs[0] == outs[1]

    def test_iterating_sphere_rows_byte_identical(self, monkeypatch, tmp_path, capsys):
        # solves that iterate build the operator's Gram rows in the order their
        # coefficients turn nonzero; the rows must not depend on that order, nor on
        # whether the caller or a forked child ran them. decay_alt at L = 16, whose
        # starts are refused: 15 iterations each. Slow trials, so that two workers fork
        grid = ["sweep", "--setting", "sphere", "--fn", "decay_alt", "--l", "16",
                "--c-univ", "0.015625", "--trials", "4", "--seed", "4"]
        log = tmp_path / "pids"

        def slow_logged(field, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            slow(field, seed)

        patch_trial(monkeypatch, slow_logged)
        bodies = []
        for run, workers in enumerate(("1", "2", "1")):
            path = tmp_path / f"run{run}.csv"
            code, _, err = run_cli(capsys, *grid, "--workers", workers, "--out", str(path))
            assert code == 0, err
            bodies.append(path.read_bytes())
            pids = set(log.read_text().split())
            log.unlink()
            assert len(pids) == int(workers)
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]
        header, rows = parse_csv(bodies[0].decode())
        assert len(rows) == 4
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
        patch_trial(monkeypatch, slow)
        code, _, err = run_cli(capsys, *self.GRID, "--workers", "1")
        assert code == 0, err
        # the patch does reach the fork path: slow trials at two workers fork one child
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2 and "internal error: sweep forked" in err and out == ""

    def test_cheap_sweep_forks_nothing(self, monkeypatch, capsys):
        # stubbed fields and trials make every task an error row of microseconds, far
        # below what a fork costs, however slow the machine runs
        def no_fork():
            raise AssertionError("sweep forked")

        def instant(*args, **options):
            raise DomainError("not run")

        monkeypatch.setattr(solver, "sphere_field", lambda signal: None)
        monkeypatch.setattr(solver, "trial", instant)
        code, alone, err = run_cli(capsys, *self.GRID, "--workers", "1")
        assert code == 0, err
        assert alone.count("error: not run") == 4
        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 0, err
        assert out == alone

    def test_costly_tasks_go_to_free_processes(self, monkeypatch, tmp_path, capsys):
        # tasks 0-3 sleep 10, 150, 5 and 50 ms: whichever process takes task 1 is
        # busy while the other takes tasks 2 and 3, where a stride split gives one
        # process both tasks 1 and 3
        path = tmp_path / "w1.csv"
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "1", "--out", str(path))
        assert code == 0, err
        header, rows = parse_csv(out)
        seeds = [int(row[header.index("seed")]) for row in rows]
        sleep_of = dict(zip(seeds, (0.010, 0.150, 0.005, 0.050)))
        log = tmp_path / "pids"

        def sleep_logged(field, seed):
            with open(log, "a") as fh:
                fh.write(f"{seed} {os.getpid()}\n")
            time.sleep(sleep_of[seed])

        patch_trial(monkeypatch, sleep_logged)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 0, err
        assert out.encode() == path.read_bytes()
        pid_of = dict(map(int, line.split()) for line in log.read_text().splitlines())
        assert pid_of[seeds[0]] == os.getpid()
        assert pid_of[seeds[1]] != pid_of[seeds[3]]
        assert multiprocessing.active_children() == []

    def test_caller_runs_the_first_share(self, monkeypatch, tmp_path, capsys):
        # every task appends "pid seed" to one file; with 8 slow tasks and 3 workers
        # the caller runs task 0, then forks two children, and each task runs once
        log = tmp_path / "pids"

        def slow_logged(field, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {seed}\n")
            slow(field, seed)

        patch_trial(monkeypatch, slow_logged)
        code, out, err = run_cli(capsys, *self.GRID, "--trials", "2", "--workers", "3")
        assert code == 0, err
        header, rows = parse_csv(out)
        logged = [line.split() for line in log.read_text().splitlines()]
        pid_of = {int(seed): int(pid) for pid, seed in logged}
        assert len(logged) == len(pid_of) == 8
        pids = [pid_of[int(row[header.index("seed")])] for row in rows]
        assert pids[0] == os.getpid()
        assert len(set(pids)) in (2, 3)
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_internal_error(self, monkeypatch, tmp_path, capsys):
        # the caller's first trial is slow, so it forks one child; the child starts a
        # long trial, and the caller's next trial raises while it runs. The caller must
        # stop the child, which never finishes its trial, and report its own error
        parent, log, forks = os.getpid(), tmp_path / "log", []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        def note(text):
            with open(log, "a") as fh:
                fh.write(f"{text}\n")

        def broken_after_first(field, seed):
            if os.getpid() != parent:
                note("child started")
                time.sleep(100 * SLOW_TRIAL_S)
                note("child finished")
                raise RuntimeError("broken trial in a child")
            if not log.exists():
                note("caller ran its first trial")
                slow(field, seed)
                return
            deadline = time.monotonic() + 100 * SLOW_TRIAL_S
            while "child started" not in log.read_text() and time.monotonic() < deadline:
                time.sleep(0.001)
            raise RuntimeError("broken trial in the caller")

        monkeypatch.setattr(os, "fork", counted_fork)
        patch_trial(monkeypatch, broken_after_first)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2
        assert "internal error: broken trial in the caller" in err
        assert out == ""
        assert len(forks) == 1 and multiprocessing.active_children() == []
        assert log.read_text().splitlines() == ["caller ran its first trial", "child started"]

    def test_child_exception_is_internal_error(self, monkeypatch, capsys):
        parent = os.getpid()

        def slow_broken_in_child(field, seed):
            if os.getpid() != parent:
                raise RuntimeError("broken child trial")
            slow(field, seed)

        patch_trial(monkeypatch, slow_broken_in_child)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2
        assert "internal error: broken child trial" in err
        assert out == ""
        assert multiprocessing.active_children() == []

    def test_child_death_is_internal_error(self):
        # in a fresh interpreter, whose 120 s timeout turns a hang into a failure
        code = f"""if True:
            import contextlib, io, multiprocessing, os, time
            from frkit import cli, solver
            parent, trial = os.getpid(), solver.trial

            def dies_in_child(*args, **options):
                if os.getpid() != parent:
                    os._exit(3)
                time.sleep({SLOW_TRIAL_S!r})
                return trial(*args, **options)

            solver.trial = dies_in_child
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main({self.GRID + ["--workers", "2"]!r})
            print(repr((code, out.getvalue(), err.getvalue(),
                        multiprocessing.active_children())))
        """
        code, out, err, alive = eval(run_python(code))
        assert code == 2 and out == "" and alive == []
        assert "internal error: sweep worker 1 exited with code 3" in err

    def test_shared_counter_hands_each_task_out_once(self, tmp_path):
        # more workers than cores, in a fresh interpreter whose 120 s timeout turns a
        # hang into a failure. Only each sweep's first trial is slow, so it forks; every
        # later one gives an error row at once, so the processes race for the counter,
        # where a lost update would run a task twice or never. The forked sweep must
        # leave no child and no resource tracker running
        log = tmp_path / "seeds"
        grid = ["sweep", "--fn", "cc_half", "--n", "16", "--eps", "0.1", "--c-univ", "0.05",
                "0.1", "--trials", "500", "--seed", "5", "--allow-uncertified"]
        workers = str((os.cpu_count() or 1) + 6)
        code = f"""if True:
            import contextlib, io, multiprocessing, os, time
            from multiprocessing import resource_tracker
            from frkit import cli, solver
            from frkit.errors import DomainError
            trial, slept, log = solver.trial, [], None

            def first_slow(field, eps, seed, **options):
                if log is not None:
                    os.write(log, f"{{os.getpid()}} {{seed}}\\n".encode())
                if slept:
                    raise DomainError("not run")
                time.sleep({SLOW_TRIAL_S!r})
                slept.append(seed)
                return trial(field, eps, seed, **options)

            def run(workers):
                slept.clear()
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main({grid!r} + ["--workers", workers]) == 0
                return out.getvalue()

            solver.trial = first_slow
            alone = run("1")
            log = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            same = [run({workers!r}) == alone for _ in range(30)]
            print(repr((same, multiprocessing.active_children(),
                        resource_tracker._resource_tracker._pid)))
        """
        same, alive, tracker = eval(run_python(code))
        assert same == [True] * 30 and alive == [] and tracker is None
        # thirty forked sweeps of 1,000 tasks: each task runs once in each
        logged = [line.split() for line in log.read_text().splitlines()]
        assert set(collections.Counter(seed for _, seed in logged).values()) == {30}
        assert len(logged) == 30_000 and len({pid for pid, _ in logged}) > 30

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
    message = "the coefficient count D must be >= 2 and an integer, got 1"
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


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        ["fr", "--n", "8", "--fn", "const1"],
        ["sweep", "--n", "8", "--fn", "const1", "--eps", "0.1"],
    ])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert "config error: cannot write --out file" in err and str(path) in err
        assert not path.parent.exists()

    def test_out_file_holds_what_stdout_prints(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "fr", "--n", "8", "--fn", "const1", "--out", str(path))
        assert code == 0, err
        assert path.read_text() == out and out.startswith("N,")


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
