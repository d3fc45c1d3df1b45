"""In-memory span tracer that wraps frkit's public functions from outside.

A traced pass replaces selected module attributes with timing wrappers at the
place callers look them up (``frkit.solver.draw_subset``, ``frkit.sphere.synthesize``,
``MeasurementOperator.forward`` ...). Each call records one span: name, start,
end, parent span, thread, and the trial seed shared by every span of a
recovery trial. Spans stay in memory until the run writes them out. A wrapped
name that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name). Class methods are written "Class.method".
WRAPPED = [
    ("frkit.solver", "recover_torus", "solver.recover"),
    ("frkit.solver", "recover_sphere", "solver.recover"),
    ("frkit.solver", "solve_bpdn", "solver.solve"),
    ("frkit.solver", "MeasurementOperator.forward", "solver.matvec"),
    ("frkit.solver", "MeasurementOperator.adjoint", "solver.matvec"),
    ("frkit.solver", "make_torus_operator", "solver.operator_build"),
    ("frkit.solver", "make_sphere_operator", "solver.operator_build"),
    ("frkit.solver", "draw_subset", "sampling.draw"),
    ("frkit.solver", "draw_sphere_points", "sampling.draw"),
    ("frkit.solver", "forward_dft", "spectral.dft"),
    ("frkit.solver", "inverse_dft", "spectral.dft"),
    ("frkit.torus", "discretize", "torus.discretize"),
    ("frkit.sphere", "synthesize", "sphere.synthesize"),
    ("frkit.sphere", "analyze", "sphere.analyze"),
    ("frkit.sphere", "basis_matrix", "sphere.basis_matrix"),
    ("frkit.sphere", "estimate_sphere_norms", "sphere.estimate_norms"),
    ("frkit.battery", "build_sphere_battery", "battery.build_sphere_battery"),
    ("frkit.battery", "verify_torus_battery", "battery.verify"),
]

PASS_SPAN = "cli.main"
TRIAL_SPAN = "solver.recover"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    trial: int | None
    extra: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped calls; install() and uninstall() swap the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._threads_lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._threads_lock:
            return self._threads.setdefault(ident, len(self._threads))

    def span(self, name: str, fn, args, kwargs, trial=None, extra=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = parent.trial
        sp = Span(next(self._ids), name, 0.0, 0.0,
                  parent.sid if parent else None, self._thread_index(), trial)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)
        if extra is not None:
            sp.extra = extra(args, result)
        return result

    # -- installing wrappers -----------------------------------------------

    def install(self, wrapped=WRAPPED) -> None:
        for module_name, attr, span_name in wrapped:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrapper(span_name, original))
            self._saved.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def _wrapper(self, span_name, original):
        tracer = self
        extra = _EXTRAS.get(span_name)
        seed_of = _seed_getter(original) if span_name == TRIAL_SPAN else None

        def wrapper(*args, **kwargs):
            trial = seed_of(args, kwargs) if seed_of else None
            return tracer.span(span_name, original, args, kwargs, trial, extra)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span_name)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "thread": sp.thread, "trial": sp.trial,
                    **sp.extra,
                }) + "\n")


def _seed_getter(fn):
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if "seed" not in sig.parameters:
        return None

    def get(args, kwargs):
        try:
            return sig.bind_partial(*args, **kwargs).arguments.get("seed")
        except TypeError:
            return None

    return get


def _matvec_bytes(args, result) -> dict:
    vec = args[1] if len(args) > 1 else None
    return {"bytes": int(getattr(vec, "nbytes", 0)) + int(getattr(result, "nbytes", 0))}


def _solve_iterations(args, result) -> dict:
    return {"iterations": int(getattr(result, "iterations", 0))}


def _recover_zero(args, result) -> dict:
    coeffs = getattr(result, "coefficients", None)
    return {"zero": bool(coeffs is not None and not coeffs.any())}


_EXTRAS = {
    "solver.matvec": _matvec_bytes,
    "solver.solve": _solve_iterations,
    "solver.recover": _recover_zero,
}


# -- per-layer metrics -------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - _union_length(children.get(sp.sid, []))
        for sp in spans
    }


def pass_metrics(spans: list[Span], wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans recorded during it)."""
    selfs = self_times(spans)

    def busy(name):
        return sum(sp.end - sp.start for sp in spans if sp.name == name)

    def calls(name):
        return sum(1 for sp in spans if sp.name == name)

    trials = [sp for sp in spans if sp.name == TRIAL_SPAN]
    solves = [sp for sp in spans if sp.name == "solver.solve"]
    iterations = sum(sp.extra.get("iterations", 0) for sp in solves)
    solve_s = busy("solver.solve")
    zeros = sum(1 for sp in trials if sp.extra.get("zero"))
    out = {
        "cli.pool_busy_share": busy(TRIAL_SPAN) / (wall_s * workers) if wall_s > 0 else 0.0,
        "solver.recover.self_s": sum(selfs[sp.sid] for sp in trials),
        "solver.solve.s": solve_s,
        "solver.solve.self_s": sum(selfs[sp.sid] for sp in solves),
        "solver.iterations": iterations,
        "solver.iter_s": solve_s / iterations if iterations else 0.0,
        "solver.matvec.calls": calls("solver.matvec"),
        "solver.matvec.s": busy("solver.matvec"),
        "solver.matvec.bytes_computed": sum(
            sp.extra.get("bytes", 0) for sp in spans if sp.name == "solver.matvec"
        ),
        "solver.operator_build.s": busy("solver.operator_build"),
        "solver.zero_solutions": zeros,
        "solver.useful_share": (len(trials) - zeros) / len(trials) if trials else 0.0,
        "sampling.draw.s": busy("sampling.draw"),
        "sampling.draw.calls": calls("sampling.draw"),
        "torus.discretize.s": busy("torus.discretize"),
        "spectral.dft.s": busy("spectral.dft"),
        "battery.build_sphere_battery.calls": calls("battery.build_sphere_battery"),
        "battery.verify.s": busy("battery.verify"),
    }
    for short in ("synthesize", "analyze", "basis_matrix", "estimate_norms"):
        out[f"sphere.{short}.s"] = busy(f"sphere.{short}")
        out[f"sphere.{short}.calls"] = calls(f"sphere.{short}")
    return out
