"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The heavy Monte-Carlo suites run at their full advertised scales, so this
module takes several minutes end to end.
"""

import numpy as np

from test_gradient_flow import count_gradient_mismatches
from test_maxmargin import brute_force_margin, feasible_instance

from reprogram_lab.numerics import LINSOLVE_TOL, SeededRng, min_norm_solve
from reprogram_lab.maxmargin import max_margin_vector
from reprogram_lab.reprogram import ProgramImage, scheme1_combine, scheme2_combine
from reprogram_lab.verify import (
    Theorem1Config,
    appendix_a_suite,
    corollary1_sweep,
    corollary2_suite,
    proposition_suite,
    theorem1_montecarlo,
    theorem2_suite,
    verdict_to_text,
)

SEED = 97531


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def strip_runtime(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("runtime_seconds")
    )


def test_criterion_1_random_network_bound():
    d = 4096
    cfg = Theorem1Config(
        d=d, k=256, rho=d**0.3, tau=d**-0.2,
        gamma=0.01, gamma_dag=0.01, trials=2000, seed=SEED,
    )
    verdict = theorem1_montecarlo(cfg)
    report(
        "criterion 1 (random-network bound)",
        verdict.passed and not verdict.measured["vacuous"],
        f"violation rate {verdict.measured['violation_rate']:.4f} "
        f"<= {verdict.threshold['violation_rate']:.4f}, "
        f"accuracy {verdict.measured['accuracy']:.4f}",
    )


def test_criterion_2_accuracy_trend():
    verdict, rows = corollary1_sweep(
        2.0 / 3.0, 0.3, 0.2, (256, 1024, 4096), trials=2000, seed=SEED
    )
    accs = ", ".join(f"d={r['d']}: {r['accuracy']:.4f}" for r in rows)
    report(
        "criterion 2 (accuracy trend)",
        verdict.passed,
        f"{accs}; gap {verdict.measured['accuracy_gap']:.4f} "
        f"needs > {verdict.threshold['accuracy_gap']:.4f} "
        f"or both above 0.95 ({verdict.measured['both_accuracies_high']})",
    )


def test_criterion_3_loss_crossing():
    verdict = theorem2_suite(
        n_datasets=50, d=2, k=4, n_pos=2, n_neg=2,
        step_size=1e-3, max_steps=1_000_000, seed=SEED,
    )
    report(
        "criterion 3 (loss crossing)",
        verdict.passed,
        f"{verdict.measured['crossings']}/{verdict.measured['runs']} crossings "
        f"(worst {verdict.measured['worst_steps_to_cross']} steps), "
        f"{verdict.measured['correct_after_crossing']} fully correct at crossing",
    )


def test_criterion_4_directional_convergence():
    verdict = corollary2_suite(seed=SEED)
    report(
        "criterion 4 (directional convergence)",
        verdict.passed,
        f"min cosine {verdict.measured['min_cosine']:.5f} >= 0.99, "
        f"balance {verdict.measured['max_balance_residual']:.2e} <= "
        f"{verdict.measured['balance_limit']:.2e}, "
        f"mass ratio {verdict.measured['mass_ratio']:.4f} within 2% of "
        f"{verdict.measured['mass_ratio_target']:.4f}, "
        f"norm growth 10^{verdict.measured['log10_norm_growth']:.1f} >= 10x",
    )


def test_criterion_5_trained_network_failure_bound():
    verdict = proposition_suite(seed=SEED, d=64, tau=0.2, trials=10_000)
    worst = max(
        verdict.measured[key] - limit for key, limit in verdict.threshold.items()
    )
    report(
        "criterion 5 (trained-network failure bound)",
        verdict.passed,
        f"all six accuracies within bound + 3 sigma (worst slack {-worst:.4f}); "
        f"bound {verdict.measured['bound_m_pos']:.4f}",
    )


def test_criterion_6_bias_norm_partition_and_singular_values():
    verdict = appendix_a_suite(
        seed=SEED, partition_trials=10_000,
        sv_d=1024, sv_k=32, sv_gamma=0.01, sv_trials=1000,
    )
    report(
        "criterion 6 (bias norm, empty-partition rate, singular values)",
        verdict.passed,
        f"bias norm error {verdict.measured['max_bias_norm_error']:.1e} <= 1e-9, "
        f"empty rates within 3 sigma for k in (1, 4, 8), "
        f"sv failure rate {verdict.measured['sv_failure_rate']:.4f} <= "
        f"{verdict.threshold['sv_failure_rate']:.4f}",
    )


def test_criterion_7_numerical_oracles():
    # (a) max-margin solver versus active-set enumeration
    rng = SeededRng(SEED, 7_000)
    margin_ok = 0
    for _ in range(100):
        points = feasible_instance(rng)
        sol = max_margin_vector(points)
        oracle = brute_force_margin(points)
        if oracle is not None and abs(0.5 * sol.vector @ sol.vector - oracle[0]) <= 1e-6:
            margin_ok += 1
    # (b) analytic gradients versus central finite differences
    mismatches = count_gradient_mismatches(points=20, seed=SEED)
    # (c) minimum-norm solve residuals on random underdetermined systems
    solve_ok = 0
    for i in range(100):
        sys_rng = SeededRng(SEED, 8_000 + i)
        d = 2 + int(sys_rng.uniform64(1)[0] % 15)
        k = 1 + int(sys_rng.uniform64(1)[0] % d)
        mat = sys_rng.gaussian(k * d).reshape(k, d)
        rhs = sys_rng.gaussian(k)
        p = min_norm_solve(mat, rhs)
        if np.linalg.norm(mat @ p - rhs) <= LINSOLVE_TOL * max(1.0, np.linalg.norm(rhs)):
            solve_ok += 1
    report(
        "criterion 7 (numerical oracles)",
        margin_ok == 100 and mismatches == 0 and solve_ok == 100,
        f"max-margin {margin_ok}/100 at 1e-6, gradient mismatches {mismatches}/20, "
        f"min-norm residuals {solve_ok}/100 at 1e-10",
    )


def test_criterion_8_scheme_fidelity():
    program = ProgramImage(
        pixels=SeededRng(SEED, 9_000).random(224 * 224 * 3).reshape(224, 224, 3) * 2 - 1
    )
    image = ProgramImage(
        pixels=SeededRng(SEED, 9_001).random(28 * 28 * 3).reshape(28, 28, 3) * 2 - 1
    )
    combined = scheme1_combine(program, image, 2.0 ** (-20.0 / 9.0))
    changed = np.any(combined.pixels != program.pixels, axis=2)
    rows = np.flatnonzero(changed.any(axis=1))
    cols = np.flatnonzero(changed.any(axis=0))
    side_ok = (
        rows.size == 48 and cols.size == 48
        and rows[0] == cols[0] == (224 - 48) // 2
    )
    identity_ok = (
        np.array_equal(scheme1_combine(program, image, 0.0).pixels, program.pixels)
        and np.array_equal(scheme2_combine(program, image, 0.0).pixels, program.pixels)
    )
    small = ProgramImage(pixels=image.pixels.copy())
    v_one = scheme2_combine(program, small, 1.0)
    full_overwrite = scheme1_combine(program, small, 1.0)
    from reprogram_lab.reprogram import bilinear_resize

    exact_ok = np.array_equal(
        v_one.pixels, bilinear_resize(small.pixels, 224, 224)
    ) and np.array_equal(
        full_overwrite.pixels, bilinear_resize(small.pixels, 224, 224)
    )
    report(
        "criterion 8 (scheme fidelity)",
        side_ok and identity_ok and exact_ok,
        f"paste side 48 at r = 2^(-20/9) on width 224: {side_ok}; "
        f"endpoint identities exact: {identity_ok and exact_ok}",
    )


def test_criterion_9_determinism():
    reruns = {
        "theorem1": lambda: verdict_to_text(theorem1_montecarlo(Theorem1Config(
            d=128, k=25, rho=128**0.3, tau=128**-0.2,
            gamma=0.01, gamma_dag=0.01, trials=200, seed=SEED,
        ))),
        "corollary1": lambda: verdict_to_text(corollary1_sweep(
            2.0 / 3.0, 0.3, 0.2, (32, 128), trials=150, seed=SEED,
        )[0]),
        "theorem2": lambda: verdict_to_text(theorem2_suite(
            n_datasets=5, d=2, k=4, n_pos=2, n_neg=2,
            step_size=1e-3, max_steps=1_000_000, seed=SEED,
        )),
        "corollary2": lambda: verdict_to_text(corollary2_suite(seed=SEED)),
        "proposition": lambda: verdict_to_text(proposition_suite(
            seed=SEED, trials=1000, opt_steps=100,
        )),
        "appendix_a": lambda: verdict_to_text(appendix_a_suite(
            seed=SEED, partition_trials=1000, sv_trials=100,
        )),
    }
    mismatched = [
        name for name, runner in reruns.items()
        if strip_runtime(runner()) != strip_runtime(runner())
    ]
    report(
        "criterion 9 (determinism)",
        not mismatched,
        "all six suites replay bitwise apart from runtime"
        if not mismatched else f"mismatches: {mismatched}",
    )
