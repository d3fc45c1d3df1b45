"""CLI output against the committed goldens under tests/golden.

Each command's stdout is kept as <name>.csv: strings and integers must match
exactly, floats to 1e-9 relative. Beside it, <stem>.err holds the exit code
on its first line ("exit 0") and then the command's stderr; both must match
exactly.

    PYTHONPATH=src python tests/test_golden.py --diff

lists, for each golden, the columns that moved beyond that rule, and "exit"
or "stderr" when those differ, and writes nothing; it exits 1 when any golden
moved, so it can gate a shell step. A change that moves
numbers on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

which rewrites a golden and its .err only where that rule finds a move or a
file is missing, so a float that wanders inside 1e-9 leaves git clean.
"""

import contextlib
import csv
import io
import math
import os
import pathlib
import shutil
import sys

import pytest

from frkit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
_RECOVER = ["--eps", "0.1", "--trials", "2", "--seed", "1"]
_TORUS_RECOVER = ["sweep", "--fn", "cc_half", "const1", "--n", "32", "--c-univ", "0.0625",
                  *_RECOVER]
_SPHERE_RECOVER = ["sweep", "--setting", "sphere", "--fn", "mix5", "gauss_heat", "--l", "8",
                   "--c-univ", "0.015625", *_RECOVER]
COMMANDS = {
    "fr_sphere.csv": ["fr", "--setting", "sphere", "--fn", "all", "--l", "4", "8", "16", "32"],
    "fr_torus.csv": ["fr", "--setting", "torus", "--fn", "all", "--n", "2", "8", "64", "256"],
    "decay.csv": ["decay", "--fn", "all", "--n", "64"],
    "lemmas.csv": ["lemmas", "--fn", "all", "--n", "8", "16", "64"],
    "quadrature_check.csv": ["quadrature-check", "--l", "2", "4", "8", "16"],
    "rn_vs_logn_torus.csv": ["sweep", "--mode", "rn_vs_logn", "--n", "64", "256", "1024"],
    "rn_vs_logn_sphere.csv": ["sweep", "--mode", "rn_vs_logn", "--setting", "sphere",
                              "--l", "8", "16", "32"],
    "recover_torus.csv": _TORUS_RECOVER,
    "recover_torus_exact.csv": [*_TORUS_RECOVER, "--exact-fit"],
    "recover_sphere.csv": _SPHERE_RECOVER,
    "recover_sphere_exact.csv": [*_SPHERE_RECOVER, "--exact-fit"],
    # config errors: no stdout, exit 1
    "recover_uncertified.csv": ["recover", "--fn", "cc_half", "--n", "32", "--eps", "0.1"],
    "decay_sphere.csv": ["decay", "--setting", "sphere", "--l", "8"],
    "recover_infinite_size.csv": ["recover", "--fn", "cc_half", "--n", "32", "--eps", "0.1",
                                  "--c-univ", "1e308", "--allow-uncertified"],
}


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _cells_match(got: str, want: str) -> bool:
    """Equal strings, or two numbers, not both integers, within 1e-9 relative.

    A float that happens to be integral prints without a point ("6"), so one
    integer-looking side still compares as a float.
    """
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if _is_int(got) and _is_int(want):
        return False
    return math.isclose(g, w, rel_tol=1e-9, abs_tol=0.0)


def _run(name: str) -> tuple[str, str]:
    """The golden's command run now: its stdout, and its exit line followed by its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[name])
    return out.getvalue(), f"exit {code}\n{err.getvalue()}"


def _status_path(name: str) -> pathlib.Path:
    return GOLDEN / f"{pathlib.Path(name).stem}.err"


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def _moved(got: list[list[str]], want: list[list[str]]) -> list[str]:
    """The header names of the columns with a cell that breaks the rule, or
    "layout" when the header, the row count or a row length differs."""
    if got[:1] != want[:1] or len(got) != len(want):
        return ["layout"]
    moved = set()
    for got_row, want_row in zip(got[1:], want[1:]):
        if len(got_row) != len(want_row):
            return ["layout"]
        moved.update(col for col, (g, w) in enumerate(zip(got_row, want_row))
                     if not _cells_match(g, w))
    return [want[0][col] for col in sorted(moved)]


def _compare(name: str, stdout: str, status: str) -> list[str]:
    """_moved's names for stdout, then "exit" and "stderr" if either differs at all."""
    diffs = _moved(_rows(stdout), _rows((GOLDEN / name).read_text()))
    got_exit, _, got_err = status.partition("\n")
    want_exit, _, want_err = _status_path(name).read_text().partition("\n")
    return diffs + [label for label, got, want in
                    (("exit", got_exit, want_exit), ("stderr", got_err, want_err)) if got != want]


def _differences(name: str) -> list[str]:
    """_compare of the golden's command run now."""
    return _compare(name, *_run(name))


def regenerate(names) -> list[str]:
    """Rewrite each named golden and its .err that moved or is missing; the names rewritten."""
    written = []
    for name in names:
        stdout, status = _run(name)
        kept = (GOLDEN / name).exists() and _status_path(name).exists()
        if kept and not _compare(name, stdout, status):
            continue
        (GOLDEN / name).write_text(stdout, newline="")
        _status_path(name).write_text(status, newline="")
        written.append(name)
    return written


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    assert _differences(name) == [], name


def test_comparison_can_fail():
    assert _cells_match("1.0000000001", "1.0")
    assert not _cells_match("1.000001", "1.0")
    assert _cells_match("5.9999999999999991", "6")
    assert not _cells_match("16", "17")
    assert not _cells_match("10000000000", "10000000001")  # integers match exactly
    assert not _cells_match("true", "false")


def test_regenerate_rewrites_only_what_moved(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    rows = _rows((golden / "decay.csv").read_text())
    rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))  # cc_half's max_ratio
    with open(golden / "decay.csv", "w", newline="") as out:
        csv.writer(out, lineterminator="\n").writerows(rows)
    before = {path.name: os.stat(path).st_mtime_ns for path in golden.iterdir()}
    assert _differences("decay.csv") == ["max_ratio"]
    assert regenerate(sorted(COMMANDS)) == ["decay.csv"]
    assert _differences("decay.csv") == []
    changed = [path.name for path in sorted(golden.iterdir())
               if os.stat(path).st_mtime_ns != before[path.name]]
    assert changed == ["decay.csv", "decay.err"]


def test_moved_names_the_columns_beyond_the_rule():
    want = [["fn", "r", "iterations"], ["a", "1.5", "10"], ["b", "2.5", "20"]]
    assert _moved(want, want) == []
    got = [["fn", "r", "iterations"], ["a", "1.5000000000001", "10"], ["b", "2.6", "25"]]
    assert _moved(got, want) == ["r", "iterations"]
    assert _moved(want[:2], want) == ["layout"]
    assert _moved([want[0], ["a", "1.5"], want[2]], want) == ["layout"]
    assert _moved([], []) == []
    assert _moved([], want) == ["layout"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        moved = {name: _differences(name) for name in COMMANDS}
        for name, diffs in moved.items():
            print(f"{name}: {', '.join(diffs) or 'unchanged'}")
        sys.exit(1 if any(moved.values()) else 0)
    elif sys.argv[1:]:
        sys.exit("usage: test_golden.py [--diff]")
    else:
        regenerate(COMMANDS)
