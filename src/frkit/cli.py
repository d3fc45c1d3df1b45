"""Command-line front end: bound reports, lemma checks, recovery runs, sweeps.

Subcommands: fr, decay, lemmas, recover, sweep, quadrature-check. Every
command but quadrature-check runs on the targets of one resolver: a torus
battery function at each --n or a sphere battery signal at each --l, keyed
by (fn, size); fr, decay, lemmas and sweep report them in (fn, size) order.
recover takes one target, one --eps and one --c-univ. decay and lemmas are
torus checks. Experiment configuration is plain flags plus an optional flat
key=value config file. Each file line `key = value...` becomes the flag tokens `--key value...`,
parsed after the command and before the rest of the command line, so the
file's values get the same types and choices as flags and explicit flags
override the file. Output is CSV on stdout and optionally to --out; every
row carries the config hash so runs are diffable. sweep --workers W forks up
to W processes, one task per (cell, trial); --workers 1 runs in-process, and
the rows are byte-identical at every worker count. Exit codes: 0 ok, 1 config
error (a bad flag, or a value outside a bound's domain), 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import math
import sys

import numpy as np

from . import battery as bat
from . import solver as sol
from . import sphere as sph
from . import torus as tor
from .errors import DomainError, FrkitError
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _targets(args) -> dict[tuple[str, int], object]:
    """The run's targets by (fn name, size); a repeated name or size gives one.

    A target is a torus battery spec at each --n, its analytic norms checked
    once, or a sphere battery signal at each --l; there --fn all takes the
    signals defined at that L, and explicit names must exist at every L.
    """
    torus = args.setting == "torus"
    sizes, flag = (args.n, "--n") if torus else (args.l, "--l")
    _require(bool(sizes), f"{args.command} --setting {args.setting} needs {flag}")
    targets = {}
    for size in sizes:
        entries = bat.TORUS_BATTERY if torus else bat.build_sphere_battery(size)
        names = list(entries) if args.fn == ["all"] else args.fn
        missing = [n for n in names if n not in entries]
        _require(not missing, f"unknown {args.setting} battery name(s) {missing} at "
                 f"{flag[2:].upper()}={size}; available: {sorted(entries)}")
        targets.update({(name, size): entries[name] for name in names})
    if torus:
        bat.verify_torus_battery(list(dict.fromkeys(name for name, _ in targets)))
    return targets


def _size_major(targets) -> list[tuple[str, int]]:
    """The (fn, size) keys size by size: computed in this order, every sphere L
    builds its norm tables once however many distinct L the run has."""
    return sorted(targets, key=lambda key: (key[1], key[0]))


def _report(args, config_hash: str, header: list[str], row) -> int:
    """One row(name, size, target, config_hash) per target, by fn and then size."""
    targets = _targets(args)
    rows = {key: row(*key, targets[key], config_hash) for key in _size_major(targets)}
    _emit(header, [rows[key] for key in sorted(rows)], args.out)
    return 0


def _g(x: float) -> str:
    return f"{x:.17g}"


def _flag(value: bool) -> str:
    return str(value).lower()


FR_HEADER = [
    "N", "A", "B", "C", "r", "fr_measured", "slack", "certified", "provenance",
    "config_hash", "fn",
]


def _fr_row(name: str, size: int, target, config_hash: str) -> list[str]:
    """One fr row of a torus or sphere check; the sphere leaves certified empty."""
    if isinstance(target, sph.SphericalSignal):
        chk, certified = sph.verify_sphere_fr_bound(target), ""
    else:
        chk = tor.verify_fr_bound(target, size)
        certified = _flag(chk.report.certified)
        if not chk.report.certified:
            threshold = tor.certification_threshold(tor.resolve_norms(target, size))
            print(f"warning: {name} at N={size} is not certified (threshold {threshold})",
                  file=sys.stderr)
    rep = chk.report
    numbers = (rep.a, rep.b, rep.c, rep.r, chk.fr_measured, chk.slack)
    return [str(size), *map(_g, numbers), certified, rep.provenance, config_hash, name]


def cmd_fr(args, config_hash: str) -> int:
    return _report(args, config_hash, FR_HEADER, _fr_row)


def _decay_row(name: str, side: int, spec, config_hash: str) -> list[str]:
    norms = tor.resolve_norms(spec, side)
    chk = tor.verify_decay(spec, side, norms)
    return [name, str(side), _g(chk.max_ratio), _g(chk.limit), _flag(chk.passed),
            norms.provenance, config_hash]


def cmd_decay(args, config_hash: str) -> int:
    _require(args.setting == "torus", "decay is a torus check; --setting sphere has none")
    header = ["fn", "N", "max_ratio", "limit", "passed", "provenance", "config_hash"]
    return _report(args, config_hash, header, _decay_row)


def _lemmas_row(name: str, side: int, spec, config_hash: str) -> list[str]:
    norms = tor.resolve_norms(spec, side)
    rie = tor.verify_riemann_lemma(spec, side, norms)
    low = tor.verify_l2_lower_bound(spec, side, norms)
    return [name, str(side), _g(rie.lhs), _g(rie.rhs), _flag(rie.passed),
            _g(low.grid_energy), _g(low.lower_bound), _flag(low.passed and low.sqrt_passed),
            _flag(low.certified), norms.provenance, config_hash]


def cmd_lemmas(args, config_hash: str) -> int:
    _require(args.setting == "torus", "lemmas is a torus check; --setting sphere has none")
    header = [
        "fn", "N", "riemann_lhs", "riemann_rhs", "riemann_pass",
        "grid_energy", "l2_lower_bound", "l2_pass", "certified", "provenance", "config_hash",
    ]
    return _report(args, config_hash, header, _lemmas_row)


def _recover_one(args, target, size, eps, c_univ, seed) -> sol.RecoveryReport:
    if args.setting == "torus":
        return sol.recover_torus(
            target, size, eps, seed, c_univ=c_univ, ratio_source=args.ratio,
            allow_uncertified=args.allow_uncertified, exact_fit=args.exact_fit,
        )
    return sol.recover_sphere(
        target, eps, seed, c_univ=c_univ, ratio_source=args.ratio, exact_fit=args.exact_fit,
    )


def _recovery_targets(args) -> dict[tuple[str, int], object]:
    """The targets of a recover/sweep run, after its --eps and --trials checks."""
    targets = _targets(args)
    _require(bool(args.eps), "recover needs --eps")
    _require(all(0 < e < 0.5 for e in args.eps), "every eps must lie in (0, 1/2)")
    _require(args.trials >= 1, "trials must be >= 1")
    return targets


RECOVER_HEADER = sol.RECOVERY_HEADER + ["config_hash", "fn", "ratio_source", "provenance"]


def cmd_recover(args, config_hash: str) -> int:
    _require(len(set(args.eps)) == 1 and len(set(args.c_univ)) == 1,
             "recover takes one --eps and one --c-univ; sweep runs a grid of them")
    targets = _recovery_targets(args)
    _require(len(targets) == 1, f"recover takes one --fn at one size, got {sorted(targets)}; "
             "sweep runs several")
    (name, size), target = next(iter(targets.items()))
    reports = [_recover_one(args, target, size, args.eps[0], args.c_univ[0], seed)
               for seed in spawn_seeds(args.seed, args.trials)]
    rows = [sol.recovery_csv_fields(rep) + [config_hash, name, args.ratio, rep.norm_provenance]
            for rep in reports]
    _emit(RECOVER_HEADER, rows, args.out)
    return 0


# The running sweep's (args, config_hash, targets, cells). Forked workers inherit it: torus
# targets hold lambdas, which do not pickle, and a fork spares each worker a fresh import.
_SWEEP = None


def _sweep_row(task: tuple[int, int]) -> list[str]:
    """The row of one (cell index, trial seed) task of the running sweep."""
    idx, seed = task
    args, config_hash, targets, cells = _SWEEP
    name, size, eps, c_univ = cells[idx]
    try:
        report = _recover_one(args, targets[name, size], size, eps, c_univ, seed)
    except FrkitError as exc:
        return ([args.setting, str(size), _g(eps), _g(c_univ), str(seed)] + [""] * 7
                + [config_hash, name, args.ratio, "", f"error: {exc}"])
    return (sol.recovery_csv_fields(report)
            + [config_hash, name, args.ratio, report.norm_provenance, "ok"])


def cmd_sweep(args, config_hash: str) -> int:
    global _SWEEP
    _require(args.workers >= 1, "workers must be >= 1")
    if args.mode == "rn_vs_logn":
        return _sweep_rn_vs_logn(args, config_hash)
    import multiprocessing as mp  # imported here, so the other commands never load a pool
    from concurrent.futures import ProcessPoolExecutor

    targets = _recovery_targets(args)
    cells = [(name, size, eps, c_univ) for name, size in sorted(targets)
             for eps in sorted(args.eps) for c_univ in sorted(args.c_univ)]
    tasks = [(idx, seed) for idx, cell_seed in enumerate(spawn_seeds(args.seed, len(cells)))
             for seed in spawn_seeds(cell_seed, args.trials)]
    workers = min(args.workers, len(tasks))
    _SWEEP = (args, config_hash, targets, cells)
    try:
        if workers == 1 or "fork" not in mp.get_all_start_methods():
            rows = list(map(_sweep_row, tasks))
        else:
            with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork")) as pool:
                rows = list(pool.map(_sweep_row, tasks))
    finally:
        _SWEEP = None
    _emit(RECOVER_HEADER + ["status"], rows, args.out)
    return 0


def _sweep_rn_vs_logn(args, config_hash: str) -> int:
    """r_N (r_L) at each size, its fitted slope in ln N (ln L) and the predicted one."""
    if args.setting == "torus":
        norms_of, bound, constant = tor.resolve_norms, tor.compute_rn, tor.SIXTEEN_PI_SQ
    else:
        norms_of, bound, constant = (
            lambda signal, _: sph.estimate_sphere_norms(signal), sph.compute_rl, sph.C0_SPHERE
        )
    targets = _targets(args)
    _require(len({size for _, size in targets}) >= 2, "rn_vs_logn needs at least two "
             f"distinct {'N' if args.setting == 'torus' else 'L'} values")
    header = [
        "fn", "N_or_L", "r", "A", "B", "C", "fitted_slope", "target_slope",
        "slope_ratio", "config_hash",
    ]
    norm_data = {key: norms_of(targets[key], key[1]) for key in _size_major(targets)}
    rows = []
    for name, keys in itertools.groupby(sorted(norm_data), key=lambda key: key[0]):
        per_size = [(size, norm_data[name, size]) for _, size in keys]
        if len(per_size) < 2:
            continue  # --fn all on the sphere: a signal defined at one of the L only
        reports = [bound(norms, size) for size, norms in per_size]
        log_sizes = np.log([size for size, _ in per_size])
        slope = float(np.polyfit(log_sizes, [rep.r for rep in reports], 1)[0])
        top = per_size[-1][1]
        predicted = constant * top.c2 / top.l2
        for (size, _), rep in zip(per_size, reports):
            numbers = (rep.r, rep.a, rep.b, rep.c, slope, predicted, slope / predicted)
            rows.append([name, str(size), *map(_g, numbers), config_hash])
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
        rt_err = float(np.linalg.norm(back.coeffs - coeffs) / np.linalg.norm(coeffs))
        rows.append([str(bandwidth), str(len(rule)), *map(_g, (w_err, gram_dev, rt_err)),
                     config_hash])
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
        p.add_argument("--seed", type=int, default=0, help="master seed (>= 0)")
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
        _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
        return args.handler(args, _config_hash(args))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
