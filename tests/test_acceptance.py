"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines. Criteria with a runtime clause measure and assert it.
"""

import math
import time

import numpy as np

import frkit.sphere as sph
import frkit.torus as tor
from frkit.battery import TORUS_BATTERY, build_sphere_battery
from frkit.cli import main as cli_main
from frkit.sampling import rng_from_seed, spawn_seeds
from frkit.solver import (
    SolverConfig,
    check_kkt,
    recover_sphere,
    recover_torus,
    solve_bpdn,
)
from frkit.spectral import best_s_truncation, fourier_ratio
from bpdn_oracle import oracle_solve
import conftest
from conftest import dense_operator, random_bpdn_instance

SIXTEEN_PI_SQ = 16.0 * math.pi**2
ERROR_BUDGET = 1.147  # 11.47 * eps at eps = 0.1


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fourier_ratio_bound():
    """FR(g) <= r_N with slack >= 0 on every certified battery cell."""
    start = time.monotonic()
    cells = []
    for name in ("const1", "cos_tiny", "cos_small", "sin_quarter"):
        threshold = tor.certification_threshold(TORUS_BATTERY[name].analytic)
        cells += [(name, threshold), (name, 2 * threshold), (name, 4 * threshold)]
    cells.append(("cc_half", 4096))
    worst_slack = math.inf
    for name, side in cells:
        chk = tor.verify_fr_bound(TORUS_BATTERY[name], side)
        assert chk.report.certified, (name, side)
        worst_slack = min(worst_slack, chk.slack)
    elapsed = time.monotonic() - start
    ok = len(cells) >= 12 and worst_slack >= 0.0 and elapsed <= 60.0
    report(1, ok, f"{len(cells)} certified cells, min slack {worst_slack:.3f}, {elapsed:.1f}s")


def test_criterion_2_logarithmic_scaling():
    """r_N slope ~ 16 pi^2 for f = 1; measured FR grows sublinearly in ln N."""
    sides = [2**k for k in range(6, 14)]
    norms = TORUS_BATTERY["const1"].analytic
    rs = [tor.compute_rn(norms, n).r for n in sides]
    slope = float(np.polyfit(np.log(sides), rs, 1)[0])
    slope_ok = abs(slope - SIXTEEN_PI_SQ) <= 0.05 * SIXTEEN_PI_SQ

    fr_sides = [64, 128, 256, 512, 1024]
    worst_exponent = -math.inf
    for name in ("const1", "cos_tiny", "cos_small", "sin_quarter", "cc_half"):
        frs = [
            tor.verify_fr_bound(TORUS_BATTERY[name], n).fr_measured for n in fr_sides
        ]
        exponent = float(
            np.polyfit(np.log(np.log(fr_sides)), np.log(frs), 1)[0]
        )
        worst_exponent = max(worst_exponent, exponent)
    ok = slope_ok and worst_exponent <= 1.1
    report(
        2, ok,
        f"r_N slope {slope:.2f} vs 16 pi^2 = {SIXTEEN_PI_SQ:.2f}; "
        f"max FR exponent on ln N = {worst_exponent:.3f}",
    )


def test_criterion_3_lemma_suite():
    """Riemann-sum and L2 lower-bound checks on the battery; decay on certified cells."""
    sides = (8, 16, 64, 256)
    lemma_fail = []
    decay_worst = 0.0
    decay_cells = 0
    for name, spec in TORUS_BATTERY.items():
        norms = spec.analytic
        threshold = tor.certification_threshold(norms)
        for side in sides:
            rie = tor.verify_riemann_lemma(spec, side, norms)
            low = tor.verify_l2_lower_bound(spec, side, norms)
            if not (rie.passed and low.passed and low.sqrt_passed):
                lemma_fail.append((name, side))
            if side >= threshold:
                chk = tor.verify_decay(spec, side, norms)
                decay_cells += 1
                decay_worst = max(decay_worst, chk.max_ratio)
    ok = not lemma_fail and decay_worst <= tor.FOUR_PI_SQ and decay_cells > 0
    report(
        3, ok,
        f"lemmas green on {len(TORUS_BATTERY) * len(sides)} cells, "
        f"decay ratio max {decay_worst:.4f} <= 4 pi^2 on {decay_cells} certified cells",
    )


def test_criterion_4_quadrature_exactness():
    """Gram identity within 1e-10 and analyze/synthesize round trips within 1e-10."""
    start = time.monotonic()
    worst_gram = worst_rt = 0.0
    for bandwidth in (2, 4, 8, 16, 32):
        rule = sph.build_quadrature(bandwidth)
        mat = sph.basis_matrix(bandwidth, rule.theta, rule.phi)
        gram = mat.T @ (rule.weights[:, None] * mat)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
        rng = rng_from_seed(bandwidth)
        for _ in range(20):
            coeffs = rng.standard_normal((bandwidth + 1) ** 2)
            sig = sph.SphericalSignal(bandwidth, coeffs)
            back = sph.analyze(
                sph.synthesize(sig, rule.theta, rule.phi), rule, bandwidth
            )
            rel = float(np.linalg.norm(back.coeffs - coeffs) / np.linalg.norm(coeffs))
            worst_rt = max(worst_rt, rel)
    elapsed = time.monotonic() - start
    ok = worst_gram <= 1e-10 and worst_rt <= 1e-10 and elapsed <= 30.0
    report(
        4, ok,
        f"gram max dev {worst_gram:.2e}, roundtrip max {worst_rt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_sphere_fr_bound():
    """FR_L <= r_L across the sphere battery; violations print the norm diagnostic."""
    violations = []
    count = 0
    for bandwidth in (4, 8, 16):
        battery = build_sphere_battery(bandwidth)
        assert len(battery) >= 8
        for name, signal in battery.items():
            chk = sph.verify_sphere_fr_bound(signal)
            count += 1
            if chk.slack < 0.0:
                violations.append((name, bandwidth, chk))
    for name, bandwidth, chk in violations:
        print(
            f"  VIOLATION {name} L={bandwidth}: FR={chk.fr_measured:.4f} > r_L={chk.report.r:.4f}; "
            f"norm convention C2 = max(sup|f|={chk.norms.sup:.4f}, "
            f"sup|grad f|={chk.norms.grad_sup:.4f}, sup|Lap f|={chk.norms.lap_sup:.4f}) "
            f"may differ from the intended C2(S^2)"
        )
    report(5, not violations, f"FR_L <= r_L on {count} battery cells (L in 4, 8, 16)")


def test_criterion_6_solver_correctness():
    """solve_bpdn converges, agrees with oracle_solve within 1e-6 and has KKT
    residual <= 1e-6 on 100 instances, spending at most 10 s in the solver.

    The time budget counts this process's CPU time in solve_bpdn and check_kkt
    only, which other processes on the machine cannot inflate and the oracle
    does not use up.
    """
    elapsed = worst_diff = worst_kkt = 0.0
    unconverged = []
    for seed in range(100):
        mat, y, delta, _ = random_bpdn_instance(seed)
        a_oracle = oracle_solve(mat, y, delta)
        op = dense_operator(mat)
        start = time.process_time()
        rep = solve_bpdn(op, y, SolverConfig(delta=delta, tol=1e-9))
        kkt = check_kkt(op, y, delta, rep.coefficients)
        elapsed += time.process_time() - start
        if not rep.converged:
            unconverged.append(seed)
        worst_diff = max(worst_diff, float(np.max(np.abs(a_oracle - rep.coefficients))))
        worst_kkt = max(worst_kkt, kkt)
    ok = not unconverged and worst_diff <= 1e-6 and worst_kkt <= 1e-6 and elapsed <= 10.0
    report(
        6, ok,
        f"coef agreement {worst_diff:.2e}, KKT {worst_kkt:.2e} over 100 instances, "
        f"unconverged {unconverged}, solver {elapsed:.1f}s",
    )


def test_criterion_7_torus_recovery_stability():
    """cc_half on Z_64^2, eps = 0.1: some C <= 8 succeeds in >= 95% of 20 trials."""
    start = time.monotonic()
    spec = TORUS_BATTERY["cc_half"]
    seeds = spawn_seeds(20260101, 20)
    ladder = [2**-8, 2**-7, 2**-6, 2**-5]
    medians, success_rates, sizes = [], [], []
    for c_univ in ladder:
        errs = []
        for seed in seeds:
            rep = recover_torus(
                spec, 64, 0.1, seed, c_univ=c_univ, allow_uncertified=True
            )
            assert rep.sample_size <= 64 * 64
            errs.append(rep.rel_error)
        sizes.append(rep.sample_size)
        medians.append(float(np.median(errs)))
        success_rates.append(float(np.mean([e <= ERROR_BUDGET for e in errs])))
    elapsed = time.monotonic() - start
    exists = any(rate >= 0.95 for rate in success_rates)
    inversions = sum(b > a + 1e-12 for a, b in zip(medians, medians[1:]))
    doubling = all(1.8 <= b / a <= 2.2 for a, b in zip(sizes, sizes[1:]))
    ok = exists and inversions <= 1 and doubling and elapsed <= 600.0
    report(
        7, ok,
        f"|X| ladder {sizes}, medians {[f'{m:.3f}' for m in medians]}, "
        f"success {success_rates}, inversions {inversions}, {elapsed:.0f}s",
    )


def test_criterion_8_sphere_recovery():
    """5-coefficient signal in V_8, eps = 0.1: some C <= 8 hits the 1.147 budget 95% of the time."""
    start = time.monotonic()
    signal = build_sphere_battery(8)["mix5"]
    seeds = spawn_seeds(20260202, 20)
    success_rates, sizes = [], []
    for c_univ in (2**-8, 2**-7, 2**-6, 2**-5):
        errs = [
            recover_sphere(signal, 0.1, seed, c_univ=c_univ).rel_error
            for seed in seeds
        ]
        rep = recover_sphere(signal, 0.1, seeds[0], c_univ=c_univ)
        sizes.append(rep.sample_size)
        success_rates.append(float(np.mean([e <= ERROR_BUDGET for e in errs])))
    elapsed = time.monotonic() - start
    ok = any(rate >= 0.95 for rate in success_rates) and elapsed <= 300.0
    report(8, ok, f"q ladder {sizes}, success {success_rates}, {elapsed:.0f}s")


def test_criterion_9_truncation_property():
    """Best-S truncation at S = ceil(FR^2/eps^2) has relative tail <= eps."""
    start = time.monotonic()
    rng = rng_from_seed(909)
    worst = {0.05: 0.0, 0.1: 0.0, 0.25: 0.0}
    for _ in range(1000):
        dim = int(rng.choice([256, 1024, 4096]))
        p = float(rng.uniform(1.2, 2.5))
        spec = (1.0 + np.arange(dim)) ** -p * (
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        )
        fr = fourier_ratio(spec)
        for eps in worst:
            s = min(int(math.ceil(fr * fr / (eps * eps))), dim)
            _, tail = best_s_truncation(spec, s)
            worst[eps] = max(worst[eps], tail)
    elapsed = time.monotonic() - start
    ok = all(worst[eps] <= eps for eps in worst) and elapsed <= 10.0
    report(
        9, ok,
        "worst tails " + ", ".join(f"{t:.4f} @ eps={e}" for e, t in worst.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    """Identical config + master seed produce byte-identical CSV bodies."""
    args = [
        "sweep", "--mode", "recover", "--setting", "torus", "--fn", "cc_half",
        "--n", "32", "--eps", "0.1", "--c-univ", "0.01", "0.02", "--trials", "3",
        "--seed", "555", "--allow-uncertified",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(args + ["--out", str(out_a)])
    code_b = cli_main(args + ["--out", str(out_b), "--workers", "4"])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    report(10, ok, f"two sweep runs byte-identical: {identical}")
