"""CLI output against the committed CSVs under tests/golden.

Strings and integers must match exactly, floats to 1e-9 relative. A change
that moves numbers on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import pathlib

import pytest

from frkit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = {
    "fr_sphere.csv": ["fr", "--setting", "sphere", "--fn", "all", "--l", "4", "8", "16", "32"],
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(capsys, name):
    assert main(COMMANDS[name]) == 0
    got = list(csv.reader(capsys.readouterr().out.splitlines()))
    want = list(csv.reader((GOLDEN / name).read_text().splitlines()))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(got_row) == len(want_row), row
        for col, (g, w) in enumerate(zip(got_row, want_row)):
            assert _cells_match(g, w), (name, row, want[0][col], g, w)


def test_comparison_can_fail():
    assert _cells_match("1.0000000001", "1.0")
    assert not _cells_match("1.000001", "1.0")
    assert _cells_match("5.9999999999999991", "6")
    assert not _cells_match("16", "17")
    assert not _cells_match("10000000000", "10000000001")  # integers match exactly
    assert not _cells_match("true", "false")


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        main([*argv, "--out", str(GOLDEN / name)])
