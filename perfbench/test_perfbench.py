"""Self-test of the benchmark's own logic:  python3 -m pytest -q perfbench"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

GOOD_ROW = {
    "setting": "torus", "N_or_L": "64", "eps": "0.10000000000000001", "C_univ": "0.015625",
    "seed": "3496789923182772465", "sample_size": "198", "objective": "38.644858398513279",
    "feasibility_residual": "2.0064372385775187e-08", "rel_error": "0.45447206100613707",
    "budget_11.47eps": "1.147", "iterations": "725", "converged": "true",
    "config_hash": "a920e1cddefb", "fn": "cc_half", "ratio_source": "measured",
    "provenance": "analytic", "status": "ok",
}


def row(**changes):
    return {**GOOD_ROW, **changes}


def test_good_row_passes():
    assert not checks.trial_failed(GOOD_ROW)


def test_zero_solution_row_fails():
    # the N=256, C=2^-5 cell: a = 0, converged, rel_error just below 1
    assert checks.trial_failed(row(objective="0", rel_error="0.99999999999999933",
                                   iterations="25"))


def test_error_row_fails():
    blanks = {k: "" for k in ("sample_size", "objective", "feasibility_residual",
                              "rel_error", "budget_11.47eps", "iterations", "converged")}
    assert checks.trial_failed(row(**blanks, status="error: sample size exceeds q_max"))


@pytest.mark.parametrize("rel_error", ["1", "1.5", "inf", "nan"])
def test_rel_error_at_or_above_one_fails(rel_error):
    assert checks.trial_failed(row(rel_error=rel_error))


def test_rel_error_above_budget_fails():
    assert checks.trial_failed(row(eps="0.05", rel_error="0.6"))  # 11.47 * 0.05 = 0.5735


def test_not_converged_fails():
    assert checks.trial_failed(row(converged="false"))


def test_negative_slack_report_fails():
    assert checks.report_failed({"slack": "-1e-9"})
    assert not checks.report_failed({"slack": "3.5"})


def test_every_metric_has_a_unit_and_matches_benchmark_json():
    named_end_to_end = {"setup_s", "trials_per_s", "reports_per_s", "rel_error_p50",
                        "fail_share", "peak_rss_mb"}
    named_per_layer = {
        "cli.pool_busy_share", "solver.recover.self_s", "solver.solve.s",
        "solver.iterations", "solver.iter_s", "solver.matvec.calls", "solver.matvec.s",
        "solver.matvec.bytes_computed", "solver.solve.self_s", "solver.operator_build.s",
        "solver.zero_solutions", "sampling.draw.s", "sampling.draw.calls",
        "sphere.synthesize.s", "sphere.analyze.s", "sphere.basis_matrix.s",
        "sphere.estimate_norms.s", "sphere.synthesize.calls", "sphere.analyze.calls",
        "sphere.basis_matrix.calls", "sphere.estimate_norms.calls", "torus.discretize.s",
        "spectral.dft.s", "battery.build_sphere_battery.calls", "battery.verify.s",
        "trace.overhead_share",
    }
    summary = {**bench.END_TO_END_UNITS, **bench.SUMMARY_UNITS}
    assert named_end_to_end <= summary.keys()
    assert named_per_layer <= bench.PER_LAYER_UNITS.keys()
    assert all(summary.values()) and all(bench.PER_LAYER_UNITS.values())

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_pass_metrics_cover_every_per_layer_metric():
    computed = spans.pass_metrics([], wall_s=1.0, workers=2)
    assert set(computed) | {"trace.overhead_share", "trace.absent_names"} == set(
        bench.PER_LAYER_UNITS)


def test_self_time_subtracts_children_once():
    parent = spans.Span(1, "solver.solve", 0.0, 10.0, None, 0, 7)
    kids = [spans.Span(2, "solver.matvec", 1.0, 3.0, 1, 0, 7),
            spans.Span(3, "solver.matvec", 2.0, 4.0, 1, 0, 7),  # overlaps the first
            spans.Span(4, "solver.matvec", 6.0, 7.0, 1, 0, 7)]
    assert spans.self_times([parent, *kids])[1] == pytest.approx(6.0)


def test_missing_wrapped_name_is_reported_absent():
    module = types.ModuleType("perfbench_fake_module")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        tracer = spans.Tracer()
        tracer.install([(module.__name__, "present", "fake.present"),
                        (module.__name__, "recover_torus", "solver.recover"),
                        ("perfbench_no_such_module", "f", "fake.f")])
        assert module.present(1) == 2
        tracer.uninstall()
        assert module.present(1) == 2
    finally:
        del sys.modules[module.__name__]
    assert tracer.absent == [f"{module.__name__}.recover_torus", "perfbench_no_such_module.f"]
    assert [sp.name for sp in tracer.spans] == ["fake.present"]


def test_trial_seed_is_shared_with_child_spans():
    tracer = spans.Tracer()
    child = tracer._wrapper("solver.solve", lambda: types.SimpleNamespace(iterations=5))

    def recover(spec, eps, seed):
        child()
        return types.SimpleNamespace(coefficients=np.zeros(3))

    trial = tracer._wrapper("solver.recover", recover)
    trial("spec", 0.1, seed=42)
    by_name = {sp.name: sp for sp in tracer.spans}
    assert by_name["solver.solve"].trial == 42
    assert by_name["solver.solve"].parent == by_name["solver.recover"].sid
    assert by_name["solver.recover"].extra == {"zero": True}


def test_every_wrapped_name_exists_in_frkit():
    bench.load_frkit_cli()
    import frkit.solver

    original = frkit.solver.solve_bpdn
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert frkit.solver.solve_bpdn is not original
    finally:
        tracer.uninstall()
    assert frkit.solver.solve_bpdn is original
