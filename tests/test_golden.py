"""CLI output against the committed CSVs under tests/golden.

Strings and integers must match exactly, floats to 1e-9 relative.

    PYTHONPATH=src python tests/test_golden.py --diff

lists, for each golden, the columns that moved beyond that rule, and writes
nothing. A change that moves numbers on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import math
import pathlib
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


def _output(name: str) -> list[list[str]]:
    """The rows the golden's command prints now; its warnings are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(COMMANDS[name]) == 0
    return list(csv.reader(out.getvalue().splitlines()))


def _golden(name: str) -> list[list[str]]:
    return list(csv.reader((GOLDEN / name).read_text().splitlines()))


def _moved(got: list[list[str]], want: list[list[str]]) -> list[str]:
    """The header names of the columns with a cell that breaks the rule, or
    "layout" when the header, the row count or a row length differs."""
    if got[0] != want[0] or len(got) != len(want):
        return ["layout"]
    moved = set()
    for got_row, want_row in zip(got[1:], want[1:]):
        if len(got_row) != len(want_row):
            return ["layout"]
        moved.update(col for col, (g, w) in enumerate(zip(got_row, want_row))
                     if not _cells_match(g, w))
    return [want[0][col] for col in sorted(moved)]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    assert _moved(_output(name), _golden(name)) == [], name


def test_comparison_can_fail():
    assert _cells_match("1.0000000001", "1.0")
    assert not _cells_match("1.000001", "1.0")
    assert _cells_match("5.9999999999999991", "6")
    assert not _cells_match("16", "17")
    assert not _cells_match("10000000000", "10000000001")  # integers match exactly
    assert not _cells_match("true", "false")


def test_moved_names_the_columns_beyond_the_rule():
    want = [["fn", "r", "iterations"], ["a", "1.5", "10"], ["b", "2.5", "20"]]
    assert _moved(want, want) == []
    got = [["fn", "r", "iterations"], ["a", "1.5000000000001", "10"], ["b", "2.6", "25"]]
    assert _moved(got, want) == ["r", "iterations"]
    assert _moved(want[:2], want) == ["layout"]
    assert _moved([want[0], ["a", "1.5"], want[2]], want) == ["layout"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        for name in COMMANDS:
            print(f"{name}: {', '.join(_moved(_output(name), _golden(name))) or 'unchanged'}")
    elif sys.argv[1:]:
        sys.exit("usage: test_golden.py [--diff]")
    else:
        for name, argv in COMMANDS.items():
            main([*argv, "--out", str(GOLDEN / name)])
