import concurrent.futures
import csv

import pytest

from frkit import cli
from frkit import torus as tor
from frkit.battery import TORUS_BATTERY
from frkit.cli import main
from frkit.solver import Q_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.strip().split("\n")))
    return rows[0], rows[1:]


def _g(x):
    return f"{x:.17g}"


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
        assert sorted(table_builds) == [4, 4, 6, 6, 8, 8, 10, 10, 12, 12]


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
            norms = tor.resolve_norms(spec, n)
            assert row[2:6] == [
                _g(chk.max_ratio), _g(chk.limit), str(chk.passed).lower(), norms.provenance,
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
                tor.resolve_norms(spec, n).provenance,
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
    # four (cell, trial) tasks; the c_univ = 1e6 cells need q > Q_MAX and give error rows
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
            assert text.endswith(f" exceeds configured q_max={Q_MAX}")

    def test_one_worker_runs_in_process(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("--workers 1 started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, _, err = run_cli(capsys, *self.GRID, "--workers", "1")
        assert code == 0, err

    def test_worker_exception_is_internal_error(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("broken trial")

        # set before the pool forks, so every worker inherits it
        monkeypatch.setattr(cli, "_recover_one", broken)
        code, out, err = run_cli(capsys, *self.GRID, "--workers", "2")
        assert code == 2
        assert "internal error: broken trial" in err
        assert out == ""

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


class TestQuadratureCheck:
    def test_reports_small_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "quadrature-check", "--l", "2", "4")
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            assert float(row[header.index("gram_max_dev")]) < 1e-10
            assert float(row[header.index("roundtrip_rel_err")]) < 1e-10


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

    @pytest.mark.parametrize("line", ["setting = sfere", "ratio = bogus"])
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
