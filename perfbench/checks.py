"""Output checks: the trial failure rule and independent recomputation.

The failure rule decides whether one recovery trial or bound report counts as
a success. The rechecks call frkit's public functions again and recompute the
reported numbers with numpy code of their own, so a pass that prints wrong
numbers is caught even when every row looks plausible.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

ERROR_BUDGET_FACTOR = 11.47
RECHECK_REL_ERROR_TOL = 1e-9
RECHECK_BOUND_TOL = 1e-12


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def trial_failed(row: dict[str, str]) -> bool:
    """A recovery trial fails on error status, non-convergence, a zero
    solution, a non-finite or >= 1 relative error, or an error above
    11.47 eps. Rows whose fields do not parse count as failed."""
    if row.get("status", "ok") != "ok" or row.get("converged") != "true":
        return True
    try:
        objective = float(row["objective"])
        rel_error = float(row["rel_error"])
        eps = float(row["eps"])
    except (KeyError, ValueError):
        return True
    if objective == 0.0 or not math.isfinite(rel_error) or rel_error >= 1.0:
        return True
    return rel_error > ERROR_BUDGET_FACTOR * eps


def report_failed(row: dict[str, str]) -> bool:
    """A bound report fails unless its slack r - FR is finite and >= 0."""
    try:
        slack = float(row["slack"])
    except (KeyError, ValueError):
        return True
    return not (math.isfinite(slack) and slack >= 0.0)


def bound_excess(row: dict[str, str]) -> float:
    """(r - FR) / FR: how far the certified bound lies above the measured ratio."""
    return float(row["slack"]) / float(row["fr_measured"])


def first_trial_per_cell(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    seen, firsts = set(), []
    for row in rows:
        cell = (row["fn"], row["N_or_L"], row["eps"], row["C_univ"])
        if cell not in seen:
            seen.add(cell)
            firsts.append(row)
    return firsts


def recheck_recovery(rows: list[dict[str, str]], allow_uncertified: bool) -> list[str]:
    """Re-run the first trial of every cell through recover_* and recompute its
    relative error from the returned coefficients. Returns the mismatches."""
    from frkit import battery, solver

    problems = []
    for row in first_trial_per_cell(rows):
        if row.get("status", "ok") != "ok":
            continue
        size, eps = int(row["N_or_L"]), float(row["eps"])
        c_univ, seed = float(row["C_univ"]), int(row["seed"])
        if row["setting"] == "torus":
            spec = battery.TORUS_BATTERY[row["fn"]]
            report = solver.recover_torus(
                spec, size, eps, seed, c_univ=c_univ, allow_uncertified=allow_uncertified
            )
            u = np.arange(size) / size
            truth = spec.evaluator(*np.meshgrid(u, u, indexing="ij")).astype(float)
            field = np.fft.ifftn(report.coefficients.reshape(size, size)) * size
            rel = float(np.linalg.norm(field.real - truth) / np.linalg.norm(truth))
        else:
            signal = battery.build_sphere_battery(size)[row["fn"]]
            report = solver.recover_sphere(signal, eps, seed, c_univ=c_univ)
            truth = np.asarray(signal.coeffs)
            rel = float(np.linalg.norm(report.coefficients.real - truth) / np.linalg.norm(truth))
        if not abs(rel - float(row["rel_error"])) <= RECHECK_REL_ERROR_TOL:
            problems.append(
                f"{row['fn']} {row['setting']} {size} C={row['C_univ']} seed={seed}: "
                f"CSV rel_error {row['rel_error']} but recomputed {rel!r}"
            )
    return problems


def recheck_bounds(rows: list[dict[str, str]]) -> list[str]:
    """Recompute FR_L = ||c||_1/||c||_2 and A = sqrt(4 pi)|c_00|/||c||_2 from the
    battery coefficients, and r = A + B + C, slack = r - FR from the row."""
    from frkit import battery

    problems = []
    batteries = {}
    for row in rows:
        size = int(row["N"])
        if size not in batteries:
            batteries[size] = battery.build_sphere_battery(size)
        coeffs = np.asarray(batteries[size][row["fn"]].coeffs)
        l2 = np.linalg.norm(coeffs)
        want = {
            "fr_measured": float(np.sum(np.abs(coeffs)) / l2),
            "A": float(math.sqrt(4.0 * math.pi) * abs(coeffs[0]) / l2),
        }
        got = {key: float(row[key]) for key in ("A", "B", "C", "r", "fr_measured", "slack")}
        want["r"] = got["A"] + got["B"] + got["C"]
        want["slack"] = got["r"] - got["fr_measured"]
        for key, value in want.items():
            if not abs(got[key] - value) <= RECHECK_BOUND_TOL * max(1.0, abs(value)):
                problems.append(
                    f"{row['fn']} L={size}: CSV {key} {row[key]} but recomputed {value!r}"
                )
    return problems
