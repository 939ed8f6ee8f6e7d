"""The benchmark's workloads: which verification suites one workload run calls.

Each workload maps a seed to a list of zero-argument suite calls, each
returning one :class:`reprogram_lab.verify.SuiteVerdict`.  Suites are
looked up on the ``verify`` module at call time, so a tracer that rebinds
``verify.<suite>`` sees them.  All calls run in one process with
``workers = 1``.

Size parameters are keyword arguments whose defaults are the benchmark's
sizes; ``TINY`` holds the smallest call of each workload, used as the
set-up warm-up and by the benchmark's own tests.
"""

from __future__ import annotations

from reprogram_lab import verify

# The Tier-1 acceptance seed.  corollary2 and proposition in ``flow`` are
# pinned to it, because the work they do swings with the seed: over seeds
# 10-49 corollary2's directional-limit loop ran 7,002 to 41,009 steps, and
# 513,001 at seed 30, and proposition's ran 17,109 to 68,074.  At this
# seed they run 506,001 and 17,109 steps, the instances Tier-1 waits for.
# Letting the seed pick them would make ``flow`` time a draw from that
# spread rather than a measurement.
ACCEPTANCE_SEED = 97531


def mc_wide(seed: int, trials: int = 50, d: int = 4096, k: int = 256) -> list:
    """theorem1 at the acceptance shape: d=4096, k=256, rho=d^0.3, tau=d^-0.2."""
    cfg = verify.Theorem1Config(
        d=d, k=k, rho=d**0.3, tau=d**-0.2,
        gamma=0.01, gamma_dag=0.01, trials=trials, seed=seed,
    )
    return [lambda: verify.theorem1_montecarlo(cfg)]


def mc_narrow(seed: int, trials: int = 600, d_list: tuple = (256, 1024)) -> list:
    """corollary1 with the default exponents over d in {256, 1024} (k = 41, 102)."""
    return [lambda: verify.corollary1_sweep(2.0 / 3.0, 0.3, 0.2, d_list, trials, seed)[0]]


def flow(
    seed: int,
    datasets: int = 50,
    budget_steps: int = 10_000_000,
    trials: int = 10_000,
    opt_steps: int = 400,
) -> list:
    """theorem2 at its default shape and seed, then corollary2 and proposition
    at their defaults and the acceptance seed."""
    return [
        lambda: verify.theorem2_suite(
            n_datasets=datasets, d=2, k=4, n_pos=2, n_neg=2,
            step_size=1e-3, max_steps=1_000_000, seed=seed,
        ),
        lambda: verify.corollary2_suite(seed=ACCEPTANCE_SEED, budget_steps=budget_steps),
        lambda: verify.proposition_suite(
            seed=ACCEPTANCE_SEED, trials=trials, budget_steps=budget_steps, opt_steps=opt_steps,
        ),
    ]


WORKLOADS = {"mc_wide": mc_wide, "mc_narrow": mc_narrow, "flow": flow}

TINY = {
    "mc_wide": {"trials": 2},
    "mc_narrow": {"trials": 2},
    "flow": {"datasets": 1, "budget_steps": 3000, "trials": 200, "opt_steps": 5},
}
