"""frkit benchmark: recovery sweeps and sphere bound reports driven through the CLI.

One process runs one workload: it imports frkit from ``src/`` of the checkout,
runs one untimed warm-up pass, then calls ``frkit.cli.main`` in a closed loop
(one CLI command per pass, the next starting when the previous returns) for
``--seconds``. Every pass is checked: the CSV must be byte-identical to the
first timed pass, rows are counted against the trial failure rule, and the
first trial of every cell (or every bound report) is recomputed
independently. The last stdout line is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).

Run from the repository root:  python3 perfbench/run.py --workload torus_small
    --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKERS = 2
IMPORT_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "checked_per_s": "1/s",
    "rel_error_p50": "ratio",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}
# Names the summary lines use for checked_per_s and 1 - pass_share.
SUMMARY_UNITS = {"trials_per_s": "1/s", "reports_per_s": "1/s", "fail_share": "ratio"}
PER_LAYER_UNITS = {
    "cli.pool_busy_share": "ratio",
    "solver.recover.self_s": "s",
    "solver.solve.s": "s",
    "solver.solve.self_s": "s",
    "solver.iterations": "count",
    "solver.iter_s": "s",
    "solver.matvec.calls": "count",
    "solver.matvec.s": "s",
    "solver.matvec.bytes_computed": "B",
    "solver.operator_build.s": "s",
    "solver.zero_solutions": "count",
    "solver.useful_share": "ratio",
    "sampling.draw.s": "s",
    "sampling.draw.calls": "count",
    "sphere.synthesize.s": "s",
    "sphere.synthesize.calls": "count",
    "sphere.analyze.s": "s",
    "sphere.analyze.calls": "count",
    "sphere.basis_matrix.s": "s",
    "sphere.basis_matrix.calls": "count",
    "sphere.estimate_norms.s": "s",
    "sphere.estimate_norms.calls": "count",
    "torus.discretize.s": "s",
    "spectral.dft.s": "s",
    "battery.build_sphere_battery.calls": "count",
    "battery.verify.s": "s",
    "trace.overhead_share": "ratio",
    "trace.absent_names": "count",
}


def _c(exponent: int) -> str:
    return repr(2.0**exponent)


SWEEP = ["sweep", "--mode", "recover", "--eps", "0.1"]


@dataclass(frozen=True)
class Workload:
    """A CLI command; recovery workloads add --trials, --workers and --seed."""

    argv: tuple[str, ...]
    cells: int = 0  # recovery cells in the sweep grid
    trials: int = 0  # trials per cell in a timed pass
    warmup_fn: str = ""  # bound workloads warm up on this one signal

    @property
    def recovery(self) -> bool:
        return self.trials > 0

    def pass_argv(self, seed: int, workers: int, warmup: bool = False) -> list[str]:
        argv = list(self.argv)
        if self.recovery:
            trials = 1 if warmup else self.trials
            argv += ["--trials", str(trials), "--workers", str(workers)]
        elif warmup:
            argv[argv.index("--fn") + 1] = self.warmup_fn
        return argv + ["--seed", str(seed)]


WORKLOADS = {
    "torus_small": Workload(
        tuple(SWEEP + ["--setting", "torus", "--fn", "cc_half", "--n", "64",
                       "--c-univ", _c(-8), _c(-6), "--allow-uncertified"]),
        cells=2, trials=2,
    ),
    "torus_large": Workload(
        tuple(SWEEP + ["--setting", "torus", "--fn", "cc_half", "--n", "256",
                       "--c-univ", _c(-5), _c(-4), "--allow-uncertified"]),
        cells=2, trials=1,
    ),
    "sphere_recover": Workload(
        tuple(SWEEP + ["--setting", "sphere", "--fn", "mix5", "gauss_heat",
                       "--l", "16", "32", "--c-univ", _c(-6)]),
        cells=4, trials=4,
    ),
    "sphere_bounds": Workload(
        ("fr", "--setting", "sphere", "--fn", "all", "--l", "16", "32"),
        warmup_fn="mix5",
    ),
}


class BenchError(Exception):
    pass


def load_frkit_cli():
    """Import frkit.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "frkit" / "__init__.py").is_file():
        raise BenchError(f"no frkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frkit.cli

    if SRC.resolve() not in Path(frkit.cli.__file__).resolve().parents:
        raise BenchError(f"frkit imported from {frkit.cli.__file__}, not {SRC}")
    return frkit.cli


def median_import_s(repeats: int = IMPORT_REPEATS) -> float:
    """Wall time of a fresh interpreter that imports frkit.cli (the CLI's set-up)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import frkit.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def blas_threads_live() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment(workers: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_live": blas_threads_live(),
        "workers": workers,
    }


@dataclass
class Pass:
    rc: int
    csv: str
    wall_s: float
    span_range: tuple[int, int] = (0, 0)


def run_pass(cli, argv: list[str], tracer: spans.Tracer | None = None) -> Pass:
    buf = io.StringIO()
    first = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer:
            rc = tracer.span(spans.PASS_SPAN, cli.main, (argv,), {})
        else:
            rc = cli.main(argv)
    wall = time.perf_counter() - start
    return Pass(rc, buf.getvalue(), wall, (first, len(tracer.spans) if tracer else 0))


def closed_loop(cli, argv, seconds: float, tracer=None) -> list[Pass]:
    """Passes back to back; another starts only if it should end inside the window."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, argv, tracer))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def expected_rows(workload: Workload) -> int:
    if workload.recovery:
        return workload.cells * workload.trials
    from frkit import battery

    sizes = workload.argv[workload.argv.index("--l") + 1:]
    return sum(len(battery.build_sphere_battery(int(size))) for size in sizes)


def check_passes(workload: Workload, passes: list[Pass]) -> tuple[list[str], dict]:
    """Apply every per-pass check; return problems and the row tallies."""
    problems = []
    reference = passes[0].csv
    rows = checks.parse_csv(reference)
    for i, p in enumerate(passes):
        if p.rc != 0:
            problems.append(f"pass {i}: CLI exited with {p.rc}")
        elif p.csv != reference:
            problems.append(f"pass {i}: CSV differs from the first timed pass")
    if len(rows) != expected_rows(workload):
        problems.append(f"{len(rows)} rows, expected {expected_rows(workload)}")
    if workload.recovery:
        failed = sum(checks.trial_failed(r) for r in rows)
        errors = sum(r.get("status") != "ok" for r in rows)
        values = [float(r["rel_error"]) for r in rows if r.get("rel_error")]
    else:
        failed = sum(checks.report_failed(r) for r in rows)
        errors = 0
        if failed:
            problems.append(f"{failed} bound report(s) with slack < 0")
        values = [checks.bound_excess(r) for r in rows if not checks.report_failed(r)]
    tally = {"rows": len(rows), "failed": failed, "errors": errors,
             "rel_error_p50": statistics.median(values) if values else 0.0}
    return problems, tally


def recheck(workload: Workload, passes: list[Pass]) -> list[str]:
    rows = checks.parse_csv(passes[0].csv)
    if workload.recovery:
        return checks.recheck_recovery(rows, "--allow-uncertified" in workload.argv)
    return checks.recheck_bounds(rows)


def end_to_end(passes, tally, setup_s) -> dict[str, float]:
    passed = tally["rows"] - tally["failed"]
    return {
        "setup_s": setup_s,
        "checked_per_s": statistics.median(passed / p.wall_s for p in passes),
        "rel_error_p50": tally["rel_error_p50"],
        "pass_share": passed / tally["rows"] if tally["rows"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced, workers) -> dict[str, float]:
    per_pass = [
        spans.pass_metrics(tracer.spans[p.span_range[0]:p.span_range[1]], p.wall_s, workers)
        for p in traced
    ]
    out = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    out["trace.overhead_share"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0
    )
    out["trace.absent_names"] = len(tracer.absent)
    return out


def print_summary(name, seed, env, workload, passes, tally, e2e, import_s, warmup_s):
    walls = [p.wall_s for p in passes]
    unit = "trials" if workload.recovery else "reports"
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {name} seed {seed}: {len(passes)} timed pass(es), "
          f"{tally['rows']} {unit} per pass, pass wall median {statistics.median(walls):.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    lines = [
        ("setup_s", e2e["setup_s"],
         f"import median of {IMPORT_REPEATS} {import_s:.4f} s + warm-up pass {warmup_s:.4f} s"),
        (f"{unit}_per_s", e2e["checked_per_s"],
         f"median of {len(passes)} pass(es); {unit} that pass the check"),
        ("rel_error_p50", e2e["rel_error_p50"],
         f"median over {tally['rows']} {unit}"
         + ("" if workload.recovery else "; bound excess (r - FR) / FR")),
        ("fail_share", 1.0 - e2e["pass_share"],
         f"{tally['failed']} of {tally['rows']} per pass; {tally['errors']} error rows"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "process peak resident set"),
    ]
    units = {**END_TO_END_UNITS, **SUMMARY_UNITS}
    for metric, value, note in lines:
        print(f"  {metric:<16} {value:>14.6g} {units[metric]:<6} {note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = load_frkit_cli()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    workers = max(1, min(WORKERS, nproc() // blas_threads))
    env = environment(workers)

    import_s = median_import_s()
    warm = run_pass(cli, workload.pass_argv(args.seed, workers, warmup=True))
    setup_s = import_s + warm.wall_s

    argv = workload.pass_argv(args.seed, workers)
    tracer = None
    if args.trace:
        untraced = closed_loop(cli, argv, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = closed_loop(cli, argv, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        untraced = passes = closed_loop(cli, argv, args.seconds)

    problems = [] if warm.rc == 0 else [f"warm-up: CLI exited with {warm.rc}"]
    pass_problems, tally = check_passes(workload, passes)
    problems += pass_problems
    if not problems:
        problems += recheck(workload, passes)

    e2e = end_to_end(untraced, tally, setup_s)
    print_summary(args.workload, args.seed, env, workload, untraced, tally, e2e,
                  import_s, warm.wall_s)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if tracer:
        metrics = per_layer(tracer, traced, untraced, workers)
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}"
              + (f"; absent names: {', '.join(tracer.absent)}" if tracer.absent else ""))
        for key, value in metrics.items():
            print(f"  {key:<36} {value:>14.6g} {units[key]}")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": tally["rows"] * len(passes),
        "failed": tally["errors"] * len(passes),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1
