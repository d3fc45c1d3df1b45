"""Command-line front end: bound reports, lemma checks, recovery runs, sweeps.

Subcommands: fr, decay, lemmas, recover, sweep, quadrature-check. Every
command but quadrature-check runs on the targets of one resolver: a torus
battery function at each --n or a sphere battery signal at each --l, keyed
by (fn, size); fr, decay, lemmas and sweep report them in (fn, size) order.
recover takes one target, one --eps and one --c-univ; sweep runs each cell
(fn, size, eps, C) of its grid once, and a trial's row takes these inputs
from the cell and its results from the RecoveryReport. decay and lemmas are
torus checks. Experiment configuration is plain flags plus an optional flat
key=value config file. Each file line `key = value...` becomes the flag tokens `--key value...`,
parsed after the command and before the rest of the command line, so the
file's values get the same types and choices as flags and explicit flags
override the file. Output is CSV on stdout and optionally to --out; every
row carries the config hash so runs are diffable. sweep makes one task per
(cell, trial); with --workers W (W capped at the task count) the calling
process runs tasks[0::W] and W - 1 forked children run tasks[j::W], j = 1..W-1,
with no pool; --workers 1 runs every task in-process, and the rows are
byte-identical at every worker count. Children inherit the parent's modules, so
any numpy submodule a trial needs is imported when frkit is imported, never
lazily inside a child's first trial. Exit codes: 0 ok, 1 config error (a bad
flag, or a value outside a bound's domain), 2 internal error.
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

    A target is a torus battery spec at each --n, whose analytic norms are
    derived from its terms, or a sphere battery signal at each --l; there
    --fn all takes the signals defined at that L, and explicit names must
    exist at every L.
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
    """One fr row of a torus or sphere check; the sphere's certified is None, printed empty."""
    sphere = isinstance(target, sph.SphericalSignal)
    chk = sph.verify_sphere_fr_bound(target) if sphere else tor.verify_fr_bound(target, size)
    rep = chk.report
    if rep.certified is False:
        threshold = tor.certification_threshold(chk.norms)
        print(f"warning: {name} at N={size} is not certified (threshold {threshold})",
              file=sys.stderr)
    numbers = (rep.a, rep.b, rep.c, rep.r, chk.fr_measured, chk.slack)
    certified = "" if rep.certified is None else _flag(rep.certified)
    return [str(size), *map(_g, numbers), certified, rep.provenance, config_hash, name]


def cmd_fr(args, config_hash: str) -> int:
    return _report(args, config_hash, FR_HEADER, _fr_row)


def _decay_row(name: str, side: int, spec, config_hash: str) -> list[str]:
    chk = tor.verify_decay(spec, side)
    return [name, str(side), _g(chk.max_ratio), _g(chk.limit), _flag(chk.passed),
            spec.analytic.provenance, config_hash]


def cmd_decay(args, config_hash: str) -> int:
    _require(args.setting == "torus", "decay is a torus check; --setting sphere has none")
    header = ["fn", "N", "max_ratio", "limit", "passed", "provenance", "config_hash"]
    return _report(args, config_hash, header, _decay_row)


def _lemmas_row(name: str, side: int, spec, config_hash: str) -> list[str]:
    rie = tor.verify_riemann_lemma(spec, side)
    low = tor.verify_l2_lower_bound(spec, side)
    return [name, str(side), _g(rie.lhs), _g(rie.rhs), _flag(rie.passed),
            _g(low.grid_energy), _g(low.lower_bound), _flag(low.passed and low.sqrt_passed),
            _flag(low.certified), spec.analytic.provenance, config_hash]


def cmd_lemmas(args, config_hash: str) -> int:
    _require(args.setting == "torus", "lemmas is a torus check; --setting sphere has none")
    header = [
        "fn", "N", "riemann_lhs", "riemann_rhs", "riemann_pass",
        "grid_energy", "l2_lower_bound", "l2_pass", "certified", "provenance", "config_hash",
    ]
    return _report(args, config_hash, header, _lemmas_row)


def _recovery_targets(args) -> dict[tuple[str, int], object]:
    """The targets of a recover/sweep run, after its --eps and --trials checks."""
    targets = _targets(args)
    _require(bool(args.eps), "recover needs --eps")
    _require(all(0 < e < 0.5 for e in args.eps), "every eps must lie in (0, 1/2)")
    _require(args.trials >= 1, "trials must be >= 1")
    return targets


RECOVERY_HEADER = [
    "setting", "N_or_L", "eps", "C_univ", "seed", "sample_size", "objective",
    "feasibility_residual", "rel_error", "budget_11.47eps", "iterations", "converged",
    "config_hash", "fn",
]


def _trial_inputs(setting: str, cell, seed: int) -> list[str]:
    """The five input columns of a trial of cell = (fn, size, eps, c_univ), seed."""
    _, size, eps, c_univ = cell
    return [setting, str(size), _g(eps), _g(c_univ), str(seed)]


def _recover_one(args, target, size, eps, c_univ, seed) -> sol.RecoveryReport:
    if args.setting == "sphere":
        return sol.recover_sphere(target, eps, seed, c_univ=c_univ, exact_fit=args.exact_fit)
    return sol.recover_torus(target, size, eps, seed, c_univ=c_univ, exact_fit=args.exact_fit,
                             allow_uncertified=args.allow_uncertified)


def _trial_row(args, config_hash: str, target, cell, seed: int) -> list[str]:
    """Recover target in one trial of cell and return its RECOVERY_HEADER row."""
    name, size, eps, c_univ = cell
    rep = _recover_one(args, target, size, eps, c_univ, seed)
    numbers = (rep.objective, rep.feasibility_residual, rep.rel_error,
               sol.ERROR_BUDGET_FACTOR * eps)
    return [*_trial_inputs(args.setting, cell, seed), str(rep.sample_size), *map(_g, numbers),
            str(rep.iterations), _flag(rep.converged), config_hash, name]


def cmd_recover(args, config_hash: str) -> int:
    _require(len(set(args.eps)) == 1 and len(set(args.c_univ)) == 1,
             "recover takes one --eps and one --c-univ; sweep runs a grid of them")
    targets = _recovery_targets(args)
    _require(len(targets) == 1, f"recover takes one --fn at one size, got {sorted(targets)}; "
             "sweep runs several")
    (name, size), target = next(iter(targets.items()))
    cell = (name, size, args.eps[0], args.c_univ[0])
    rows = [_trial_row(args, config_hash, target, cell, seed)
            for seed in spawn_seeds(args.seed, args.trials)]
    _emit(RECOVERY_HEADER, rows, args.out)
    return 0


def _send_share(fn, share, conn) -> None:
    """A forked child's body: send (True, rows) of fn over share, or (False, exception)."""
    try:
        result = (True, list(map(fn, share)))
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        result = (False, exc)
    conn.send(result)
    conn.close()


def _fork_map(fn, tasks: list, workers: int) -> list:
    """list(map(fn, tasks)), with the caller running tasks[0::W] and W - 1 children the rest.

    Forked child j runs tasks[j::W] and sends its rows back over a one-way pipe, so rows
    keep task order. A fork-started child inherits fn and its closure without pickling.
    An error in any share is raised here, after every child is stopped and joined.
    """
    import multiprocessing as mp  # imported here, so the other commands never load it

    if workers == 1 or "fork" not in mp.get_all_start_methods():
        return list(map(fn, tasks))
    ctx = mp.get_context("fork")
    children = []
    done = False
    try:
        for j in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(fn, tasks[j::workers], send),
                                daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        rows = [None] * len(tasks)
        rows[0::workers] = map(fn, tasks[0::workers])
        for j, (child, recv) in enumerate(children, 1):
            try:
                ok, result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep worker {j} exited with code {child.exitcode} "
                                   "before sending its rows") from None
            if not ok:
                raise result
            rows[j::workers] = result
        done = True
        return rows
    finally:
        for child, recv in children:
            if not done:
                child.kill()
            child.join()
            recv.close()


def _ascending(values: list[float]) -> list[float]:
    """values once each, ascending with NaN last; sorted() stops ordering at a NaN."""
    return sorted(dict.fromkeys(values), key=lambda v: (math.isnan(v), v))


def cmd_sweep(args, config_hash: str) -> int:
    _require(args.workers >= 1, "workers must be >= 1")
    if args.mode == "rn_vs_logn":
        return _sweep_rn_vs_logn(args, config_hash)
    targets = _recovery_targets(args)
    cells = [(name, size, eps, c_univ) for name, size in sorted(targets)
             for eps in _ascending(args.eps) for c_univ in _ascending(args.c_univ)]
    tasks = [(idx, seed) for idx, cell_seed in enumerate(spawn_seeds(args.seed, len(cells)))
             for seed in spawn_seeds(cell_seed, args.trials)]

    # A closure: forked children inherit it whole, so the lambdas of torus targets are
    # never pickled, and no child imports anything afresh.
    def sweep_row(task: tuple[int, int]) -> list[str]:
        """The row of one (cell index, trial seed) task."""
        idx, seed = task
        cell = cells[idx]
        try:
            return _trial_row(args, config_hash, targets[cell[:2]], cell, seed) + ["ok"]
        except FrkitError as exc:
            inputs = _trial_inputs(args.setting, cell, seed)
            blank = [""] * (RECOVERY_HEADER.index("config_hash") - len(inputs))
            return inputs + blank + [config_hash, cell[0], f"error: {exc}"]

    rows = _fork_map(sweep_row, tasks, min(args.workers, len(tasks)))
    _emit(RECOVERY_HEADER + ["status"], rows, args.out)
    return 0


def _sweep_rn_vs_logn(args, config_hash: str) -> int:
    """r_N (r_L) at each size, its fitted slope in ln N (ln L) and the predicted one."""
    if args.setting == "torus":
        norms_of, bound, constant = lambda f: f.analytic, tor.compute_rn, tor.SIXTEEN_PI_SQ
    else:
        norms_of, bound, constant = sph.estimate_sphere_norms, sph.compute_rl, sph.C0_SPHERE
    targets = _targets(args)
    _require(len({size for _, size in targets}) >= 2, "rn_vs_logn needs at least two "
             f"distinct {'N' if args.setting == 'torus' else 'L'} values")
    header = [
        "fn", "N_or_L", "r", "A", "B", "C", "fitted_slope", "target_slope",
        "slope_ratio", "config_hash",
    ]
    norm_data = {key: norms_of(targets[key]) for key in _size_major(targets)}
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
    for bandwidth in sorted(set(args.l)):
        rule = sph.build_quadrature(bandwidth)
        w_err = abs(float(np.sum(rule.weights)) - 4.0 * math.pi) / (4.0 * math.pi)
        mat = sph.basis_matrix(bandwidth, rule.theta, rule.phi)
        # einsum's own loops, not threaded BLAS, so the digits do not move with the thread count
        gram = np.einsum("ji,jk->ik", mat, rule.weights[:, None] * mat)
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
            p.add_argument("--exact-fit", action="store_true",
                           help="force delta = 0 (exact-fit basis pursuit)")
            p.add_argument("--allow-uncertified", action="store_true",
                           help="recover a torus function that fails N L2^2 >= 8 C2^2 "
                                "(torus recoveries only)")

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
