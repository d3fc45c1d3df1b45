"""Command-line front end: bound reports, lemma checks, recovery runs, sweeps.

Subcommands: fr, decay, lemmas, recover, sweep, quadrature-check. Experiment
configuration is plain flags plus an optional flat key=value config file.
Each file line `key = value...` becomes the flag tokens `--key value...`,
parsed after the command and before the rest of the command line, so the
file's values get the same types and choices as flags and explicit flags
override the file. Output is CSV on stdout and optionally to --out; every
row carries the config hash so runs are diffable. Exit codes: 0 ok, 1 config
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import battery as bat
from . import solver as sol
from . import sphere as sph
from . import torus as tor
from .errors import FrkitError
from .sampling import spawn_seeds


class ConfigError(Exception):
    pass


def _config_tokens(path, args: argparse.Namespace) -> list[str]:
    """The file's key = value lines as flag tokens; args names the known keys.

    A boolean flag takes true or false; other values split on commas and spaces.
    """
    tokens = []
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (need key = value): {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key in ("command", "config", "handler") or not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if raw.lower() not in ("true", "false"):
                raise ConfigError(f"config key {key!r} takes true or false, got {raw!r}")
            tokens += [flag] if raw.lower() == "true" else []
        else:
            tokens += [flag, *raw.replace(",", " ").split()]
    return tokens


def _config_hash(args: argparse.Namespace) -> str:
    # workers and output path affect execution, not the experiment itself
    skip = {"handler", "config", "out", "workers"}
    items = sorted(
        (k, repr(v)) for k, v in vars(args).items() if k not in skip and not callable(v)
    )
    blob = "\n".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(header: list[str], rows: list[list[str]], out_path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    body = buf.getvalue()
    sys.stdout.write(body)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(body)


def _torus_functions(names: list[str]) -> dict[str, tor.SmoothFunctionSpec]:
    if names == ["all"]:
        names = list(bat.TORUS_BATTERY)
    missing = [n for n in names if n not in bat.TORUS_BATTERY]
    if missing:
        raise ConfigError(
            f"unknown torus battery function(s) {missing}; "
            f"available: {sorted(bat.TORUS_BATTERY)}"
        )
    bat.verify_torus_battery(names)
    return {n: bat.TORUS_BATTERY[n] for n in names}


def _sphere_signals(names: list[str], bandwidth: int) -> dict[str, sph.SphericalSignal]:
    entries = bat.build_sphere_battery(bandwidth)
    if names == ["all"]:
        return entries
    missing = [n for n in names if n not in entries]
    if missing:
        raise ConfigError(
            f"unknown sphere battery signal(s) {missing} at L={bandwidth}; "
            f"available: {sorted(entries)}"
        )
    return {n: entries[n] for n in names}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


FR_HEADER = [
    "N", "A", "B", "C", "r", "fr_measured", "slack", "certified", "provenance",
    "config_hash", "fn",
]


def _fr_row(chk, size: int, certified: str, config_hash: str, name: str) -> list[str]:
    """One fr row of a torus or sphere check; the sphere leaves certified empty."""
    rep = chk.report
    numbers = (rep.a, rep.b, rep.c, rep.r, chk.fr_measured, chk.slack)
    return [str(size), *(f"{x:.17g}" for x in numbers), certified, rep.provenance,
            config_hash, name]


def cmd_fr(args, config_hash: str) -> int:
    rows = []
    if args.setting == "torus":
        _require(bool(args.n), "fr --setting torus needs --n")
        fns = _torus_functions(args.fn)
        for name, spec in fns.items():
            for n in args.n:
                chk = tor.verify_fr_bound(spec, n)
                if not chk.report.certified:
                    print(
                        f"warning: {name} at N={n} is not certified "
                        f"(threshold {tor.certification_threshold(tor.resolve_norms(spec, n))})",
                        file=sys.stderr,
                    )
                certified = str(chk.report.certified).lower()
                rows.append(_fr_row(chk, n, certified, config_hash, name))
    else:
        _require(bool(args.l), "fr --setting sphere needs --l")
        for bandwidth in args.l:
            for name, signal in _sphere_signals(args.fn, bandwidth).items():
                chk = sph.verify_sphere_fr_bound(signal)
                rows.append(_fr_row(chk, bandwidth, "", config_hash, name))
    rows.sort(key=lambda r: (r[-1], int(r[0])))
    _emit(FR_HEADER, rows, args.out)
    return 0


def cmd_decay(args, config_hash: str) -> int:
    _require(bool(args.n), "decay needs --n")
    fns = _torus_functions(args.fn)
    header = ["fn", "N", "max_ratio", "limit", "passed", "provenance", "config_hash"]
    rows = []
    for name, spec in fns.items():
        norms = tor.resolve_norms(spec)
        for n in args.n:
            chk = tor.verify_decay(spec, n, norms)
            rows.append([
                name, str(n), f"{chk.max_ratio:.17g}", f"{chk.limit:.17g}",
                str(chk.passed).lower(), norms.provenance, config_hash,
            ])
    rows.sort(key=lambda r: (r[0], int(r[1])))
    _emit(header, rows, args.out)
    return 0


def cmd_lemmas(args, config_hash: str) -> int:
    _require(bool(args.n), "lemmas needs --n")
    fns = _torus_functions(args.fn)
    header = [
        "fn", "N", "riemann_lhs", "riemann_rhs", "riemann_pass",
        "grid_energy", "l2_lower_bound", "l2_pass", "certified", "provenance", "config_hash",
    ]
    rows = []
    for name, spec in fns.items():
        norms = tor.resolve_norms(spec)
        for n in args.n:
            rie = tor.verify_riemann_lemma(spec, n, norms)
            low = tor.verify_l2_lower_bound(spec, n, norms)
            rows.append([
                name, str(n), f"{rie.lhs:.17g}", f"{rie.rhs:.17g}",
                str(rie.passed).lower(), f"{low.grid_energy:.17g}",
                f"{low.lower_bound:.17g}", str(low.passed and low.sqrt_passed).lower(),
                str(low.certified).lower(), norms.provenance, config_hash,
            ])
    rows.sort(key=lambda r: (r[0], int(r[1])))
    _emit(header, rows, args.out)
    return 0


def _recover_one(args, target, size, eps, c_univ, seed) -> sol.RecoveryReport:
    delta_override = 0.0 if args.exact_fit else None
    if args.setting == "torus":
        return sol.recover_torus(
            target, size, eps, seed, c_univ=c_univ, ratio_source=args.ratio,
            allow_uncertified=args.allow_uncertified, delta_override=delta_override,
        )
    return sol.recover_sphere(
        target, eps, seed, c_univ=c_univ, ratio_source=args.ratio,
        delta_override=delta_override,
    )


def _recovery_targets(args) -> dict[tuple[str, int], object]:
    """Validate a recover/sweep run and return its targets by (fn name, size).

    A target is a torus battery spec at each --n, or a sphere battery signal
    at each --l; there --fn all takes the signals defined at that L, and
    explicit names must exist at every L.
    """
    _require(len(args.fn) >= 1, "recover needs --fn")
    if args.setting == "torus":
        _require(bool(args.n), "recover --setting torus needs --n")
        fns = _torus_functions(args.fn)
        targets = {(name, n): spec for name, spec in fns.items() for n in args.n}
    else:
        _require(bool(args.l), "recover --setting sphere needs --l")
        per_l = {bandwidth: _sphere_signals(args.fn, bandwidth) for bandwidth in args.l}
        targets = {
            (name, bandwidth): signal
            for bandwidth, signals in per_l.items()
            for name, signal in signals.items()
        }
    _require(bool(args.eps), "recover needs --eps")
    _require(all(0 < e < 0.5 for e in args.eps), "every eps must lie in (0, 1/2)")
    _require(args.trials >= 1, "trials must be >= 1")
    return targets


RECOVER_HEADER = sol.RECOVERY_HEADER + ["config_hash", "fn", "ratio_source", "provenance"]


def cmd_recover(args, config_hash: str) -> int:
    targets = _recovery_targets(args)
    (name, size), target = next(iter(targets.items()))  # the first --fn at the first size
    eps = args.eps[0]
    c_univ = args.c_univ[0]
    rows = []
    for seed in spawn_seeds(args.seed, args.trials):
        report = _recover_one(args, target, size, eps, c_univ, seed)
        rows.append(
            sol.recovery_csv_fields(report)
            + [config_hash, name, args.ratio, report.norm_provenance]
        )
    _emit(RECOVER_HEADER, rows, args.out)
    return 0


def cmd_sweep(args, config_hash: str) -> int:
    if args.mode == "rn_vs_logn":
        return _sweep_rn_vs_logn(args, config_hash)
    targets = _recovery_targets(args)
    cells = [
        (name, size, eps, c_univ)
        for name, size in sorted(targets)
        for eps in sorted(args.eps)
        for c_univ in sorted(args.c_univ)
    ]
    cell_seeds = spawn_seeds(args.seed, len(cells))

    def run_cell(idx):
        name, size, eps, c_univ = cells[idx]
        target = targets[name, size]
        rows = []
        for trial_seed in spawn_seeds(cell_seeds[idx], args.trials):
            try:
                report = _recover_one(args, target, size, eps, c_univ, trial_seed)
                rows.append(
                    sol.recovery_csv_fields(report)
                    + [config_hash, name, args.ratio, report.norm_provenance, "ok"]
                )
            except FrkitError as exc:
                rows.append(
                    [args.setting, str(size), f"{eps:.17g}", f"{c_univ:.17g}",
                     str(trial_seed)] + [""] * 7
                    + [config_hash, name, args.ratio, "", f"error: {exc}"]
                )
        return rows

    header = RECOVER_HEADER + ["status"]
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        results = list(pool.map(run_cell, range(len(cells))))
    rows = [row for cell_rows in results for row in cell_rows]
    _emit(header, rows, args.out)
    return 0


def _sweep_rn_vs_logn(args, config_hash: str) -> int:
    header = [
        "fn", "N_or_L", "r", "A", "B", "C", "fitted_slope", "target_slope",
        "slope_ratio", "config_hash",
    ]
    rows = []
    if args.setting == "torus":
        _require(len(args.n) >= 2, "rn_vs_logn needs at least two N values")
        for name, spec in sorted(_torus_functions(args.fn).items()):
            norms = tor.resolve_norms(spec)
            ns = sorted(args.n)
            reports = [tor.compute_rn(norms, n) for n in ns]
            slope = float(np.polyfit(np.log(ns), [rep.r for rep in reports], 1)[0])
            target = tor.SIXTEEN_PI_SQ * norms.c2 / norms.l2
            for n, rep in zip(ns, reports):
                rows.append([
                    name, str(n), f"{rep.r:.17g}", f"{rep.a:.17g}",
                    f"{rep.b:.17g}", f"{rep.c:.17g}", f"{slope:.17g}",
                    f"{target:.17g}", f"{slope / target:.17g}", config_hash,
                ])
    else:
        _require(len(args.l) >= 2, "rn_vs_logn needs at least two L values")
        _require(min(args.l) >= 2, "sphere bound needs L >= 2")
        ls = sorted(args.l)
        names = args.fn if args.fn != ["all"] else sorted(bat.build_sphere_battery(max(ls)))
        for name in sorted(names):
            # the battery profile is rebuilt (and its norms re-estimated) per L
            per_l = []
            for bandwidth in ls:
                signal = _sphere_signals([name], bandwidth)[name]
                norms = sph.estimate_sphere_norms(signal)
                per_l.append((bandwidth, norms, sph.compute_rl(norms, bandwidth)))
            slope = float(
                np.polyfit(np.log(ls), [rep.r for _, _, rep in per_l], 1)[0]
            )
            top_norms = per_l[-1][1]
            target = sph.C0_SPHERE * top_norms.c2 / top_norms.l2
            for bandwidth, _, rep in per_l:
                rows.append([
                    name, str(bandwidth), f"{rep.r:.17g}", f"{rep.a:.17g}",
                    f"{rep.b:.17g}", f"{rep.c:.17g}", f"{slope:.17g}",
                    f"{target:.17g}", f"{slope / target:.17g}", config_hash,
                ])
    _emit(header, rows, args.out)
    return 0


def cmd_quadrature_check(args, config_hash: str) -> int:
    _require(bool(args.l), "quadrature-check needs --l")
    header = [
        "L", "nodes", "weight_sum_rel_err", "gram_max_dev", "roundtrip_rel_err",
        "config_hash",
    ]
    rows = []
    for bandwidth in sorted(args.l):
        rule = sph.build_quadrature(bandwidth)
        w_err = abs(float(np.sum(rule.weights)) - 4.0 * math.pi) / (4.0 * math.pi)
        mat = sph.basis_matrix(bandwidth, rule.theta, rule.phi)
        gram = mat.T @ (rule.weights[:, None] * mat)
        gram_dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        rng = np.random.default_rng(args.seed)
        coeffs = rng.standard_normal((bandwidth + 1) ** 2)
        signal = sph.SphericalSignal(bandwidth, coeffs)
        back = sph.analyze(sph.synthesize(signal, rule.theta, rule.phi), rule, bandwidth)
        rt_err = float(
            np.linalg.norm(back.coeffs - coeffs) / np.linalg.norm(coeffs)
        )
        rows.append([
            str(bandwidth), str(len(rule)), f"{w_err:.17g}", f"{gram_dev:.17g}",
            f"{rt_err:.17g}", config_hash,
        ])
    _emit(header, rows, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frkit",
        description="Fourier-ratio bounds and l1 recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, recovery=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--setting", choices=["torus", "sphere"], default="torus")
        p.add_argument("--fn", nargs="+", default=["all"], help="battery names or 'all'")
        p.add_argument("--n", nargs="+", type=int, default=[], help="grid sides N")
        p.add_argument("--l", nargs="+", type=int, default=[], help="bandwidths L")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", help="also write CSV here")
        if recovery:
            p.add_argument("--eps", nargs="+", type=float, default=[0.1])
            p.add_argument("--c-univ", dest="c_univ", nargs="+", type=float, default=[1.0])
            p.add_argument("--trials", type=int, default=1)
            p.add_argument("--ratio", choices=[sol.RATIO_MEASURED, sol.RATIO_BOUND],
                           default=sol.RATIO_MEASURED)
            p.add_argument("--exact-fit", action="store_true",
                           help="force delta = 0 (exact-fit basis pursuit)")
            p.add_argument("--allow-uncertified", action="store_true")

    p_fr = sub.add_parser("fr", help="Fourier-ratio bound reports")
    common(p_fr)
    p_fr.set_defaults(handler=cmd_fr)

    p_decay = sub.add_parser("decay", help="coefficient decay check")
    common(p_decay)
    p_decay.set_defaults(handler=cmd_decay)

    p_lem = sub.add_parser("lemmas", help="Riemann-sum and L2 lower-bound checks")
    common(p_lem)
    p_lem.set_defaults(handler=cmd_lemmas)

    p_rec = sub.add_parser("recover", help="one recovery experiment")
    common(p_rec, recovery=True)
    p_rec.set_defaults(handler=cmd_recover)

    p_sweep = sub.add_parser("sweep", help="factorial sweep to CSV")
    common(p_sweep, recovery=True)
    p_sweep.add_argument("--mode", choices=["recover", "rn_vs_logn"], default="recover")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_quad = sub.add_parser("quadrature-check", help="quadrature exactness report")
    common(p_quad)
    p_quad.set_defaults(handler=cmd_quadrature_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the command, then the file's flags, then the rest of the command line
            args = parser.parse_args(argv[:1] + _config_tokens(args.config, args) + argv[1:])
        return args.handler(args, _config_hash(args))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
