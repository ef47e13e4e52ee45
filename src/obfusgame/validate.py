"""Named validation suites behind the `validate` CLI subcommand.

Each suite runs a batch of seeded, reproducible trials and returns one row
per trial plus a pass/fail summary.  The suites:

    lemma1   classifier-difference inequality on random ERM trials
    lemma2   empirical-loss-difference inequality on the same trials
    chi2     empirical noise-norm CDF against the chi-square CDF
    scaling  expected-loss gap grows with the quadratic noise level
    oracle   analytic equilibrium solver against brute-force grid search
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import erm
from .dp import chi_square_cdf
from .game import GameConfig, LearnerParams, SolverSettings, UserParams
from .solver import brute_force_equilibrium, stackelberg_solve

SUITES = ("lemma1", "lemma2", "chi2", "scaling", "oracle")

# mixed noise levels cycled through the ERM trials
_TRIAL_SIGMA_L = (0.0, 0.05, 0.1, 0.2, 0.4)
_TRIAL_SIGMA_S = (0.0, 0.1, 0.2, 0.3, 0.5)
# the lemma and scaling suites' ERM problem: sample size, dimension,
# regularizer and class separation
_ERM_N = 200
_ERM_D = 5
_ERM_LAM = 0.1
_ERM_SEPARATION = 4.0

_CHI2_DIMS = (1, 2, 5, 10)
_CHI2_TOLERANCE = 0.01

_SCALING_POINTS = 10
_MIN_SPEARMAN = 0.9

_ORACLE_FINE_STEP = 1e-3
_ORACLE_UTILITY_TOL = 1e-6


@dataclass
class SuiteResult:
    passed: bool
    rows: list[dict] = field(default_factory=list)
    summary: str = ""
    failed_seeds: list[int] = field(default_factory=list)


def _erm_trial(seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma_L = _TRIAL_SIGMA_L[seed % len(_TRIAL_SIGMA_L)]
    sigma_S = rng.choice(_TRIAL_SIGMA_S, size=_ERM_N)
    data = erm.generate_synthetic(_ERM_N, _ERM_D, _ERM_SEPARATION, seed)
    f_clean = erm.train_erm(data, _ERM_LAM)
    perturbed, noise = erm.perturb_inputs(data, sigma_L, sigma_S, seed + 10_000)
    f_pert = erm.train_erm(perturbed, _ERM_LAM)
    return data, f_clean, f_pert, noise, sigma_L, sigma_S


def run_lemma_suite(which: str, trials: int = 100, base_seed: int = 0) -> SuiteResult:
    result = SuiteResult(passed=True)
    worst_slack = math.inf
    for t in range(trials):
        seed = base_seed + t
        data, f_clean, f_pert, noise, sigma_L, sigma_S = _erm_trial(seed)
        if which == "lemma1":
            report = erm.check_classifier_gap(f_clean, f_pert, noise, _ERM_LAM)
        else:
            report = erm.check_empirical_gap(f_pert, f_clean, data, _ERM_LAM)
        ok = report.slack >= -1e-6
        result.rows.append(
            {
                "seed": seed,
                "n": _ERM_N,
                "d": _ERM_D,
                "sigma_L": sigma_L,
                "sigma_S_rms": float(np.sqrt(np.mean(sigma_S**2))),
                "lhs": report.lhs,
                "rhs": report.rhs,
                "slack": report.slack,
                "holds": int(ok),
            }
        )
        worst_slack = min(worst_slack, report.slack)
        if not ok:
            result.passed = False
            result.failed_seeds.append(seed)
    result.summary = (
        f"{which}: {sum(r['holds'] for r in result.rows)}/{trials} trials hold, "
        f"worst slack {worst_slack:.3e}"
    )
    return result


def run_chi2_suite(samples: int = 100_000, base_seed: int = 0) -> SuiteResult:
    result = SuiteResult(passed=True)
    sigma_L, sigma_S = 3.0, 4.0
    s2 = sigma_L**2 + sigma_S**2
    worst = 0.0
    for d in _CHI2_DIMS:
        rng = np.random.Generator(np.random.PCG64(base_seed + d))
        draws = math.sqrt(s2) * rng.standard_normal((samples, d))
        norms2 = np.sum(draws**2, axis=1)
        for zeta in (0.5 * d, 1.0 * d, 1.5 * d, 2.0 * d, 3.0 * d):
            expected = chi_square_cdf(d, zeta)
            empirical = float(np.mean(norms2 <= zeta * s2))
            err = abs(empirical - expected)
            worst = max(worst, err)
            ok = err <= _CHI2_TOLERANCE
            result.rows.append(
                {
                    "d": d,
                    "zeta": zeta,
                    "cdf": expected,
                    "empirical": empirical,
                    "abs_error": err,
                    "holds": int(ok),
                }
            )
            if not ok:
                result.passed = False
                result.failed_seeds.append(base_seed + d)
    result.summary = f"chi2: worst |empirical - cdf| = {worst:.4f} (tolerance {_CHI2_TOLERANCE})"
    return result


def _spearman(x, y) -> float:
    """Pearson correlation of the 1-based ranks; ties share their mean rank."""
    ranks = []
    for values in (x, y):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2.0)[inverse])
    return float(np.corrcoef(*ranks)[0, 1])


def run_scaling_suite(trials_per_point: int = 50, base_seed: int = 0) -> SuiteResult:
    """Average expected-loss gap across a noise sweep must increase with
    sigma_L^2 + (1/n) sum sigma_S^2 (Spearman rank correlation)."""
    result = SuiteResult(passed=True)
    big = erm.generate_synthetic(100_000, _ERM_D, _ERM_SEPARATION, base_seed + 999_983)
    f_star = erm.train_erm(big, _ERM_LAM, tol=1e-7)
    sample = erm.generate_synthetic(100_000, _ERM_D, _ERM_SEPARATION, base_seed + 424_242)
    j_star, _ = erm.expected_loss_estimate(f_star, sample, _ERM_LAM)
    levels, gaps = [], []
    for k in range(_SCALING_POINTS):
        sigma_L = 0.12 * k
        sigma_S_level = 0.18 * k
        level = sigma_L**2 + sigma_S_level**2
        trial_gaps = []
        for t in range(trials_per_point):
            seed = base_seed + 1000 * k + t
            data = erm.generate_synthetic(_ERM_N, _ERM_D, _ERM_SEPARATION, seed)
            perturbed, _ = erm.perturb_inputs(
                data, sigma_L, np.full(_ERM_N, sigma_S_level), seed + 20_000
            )
            f_d = erm.train_erm(perturbed, _ERM_LAM, tol=1e-6)
            j_d, _ = erm.expected_loss_estimate(f_d, sample, _ERM_LAM)
            trial_gaps.append(j_d - j_star)
        mean_gap = float(np.mean(trial_gaps))
        # a single trial has no spread estimate
        spread = np.std(trial_gaps, ddof=1) if trials_per_point > 1 else math.inf
        levels.append(level)
        gaps.append(mean_gap)
        result.rows.append(
            {
                "point": k,
                "sigma_L": sigma_L,
                "sigma_S": sigma_S_level,
                "noise_level": level,
                "mean_gap": mean_gap,
                "stderr": float(spread / math.sqrt(trials_per_point)),
            }
        )
    rho = _spearman(levels, gaps)
    result.passed = rho >= _MIN_SPEARMAN
    result.summary = f"scaling: Spearman rho = {rho:.3f} (threshold {_MIN_SPEARMAN})"
    return result


def random_small_config(seed: int) -> GameConfig:
    """Random 1-3-user game for solver/oracle comparison.

    Drawn so that users' flat costs exceed their maximum privacy gain, so
    nobody perturbs in equilibrium and the comparison isolates the
    leader-side optimization (the induced objective is then smooth and
    concave for sigma_L > 0, where a fine grid oracle is meaningful at the
    1e-6 level; user-side best responses are validated against dense-grid
    oracles in their own suites).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.8, 1.2))
    users = []
    for _ in range(n):
        p_bar = float(rng.uniform(0.0, 2.0))
        if rng.random() < 0.2:
            p_bar = 0.0
        users.append(
            UserParams(
                baseline_gain=float(rng.uniform(0.0, 5.0)),
                accuracy_weight=float(rng.uniform(0.5, 2.0)),
                max_privacy_loss=p_bar,
                privacy_rate=float(rng.uniform(0.3, 0.8)),
                perturbation_cost=p_bar * float(rng.uniform(1.05, 1.5)) + 0.01,
            )
        )
    return GameConfig(
        learner=LearnerParams(
            baseline_gain=float(rng.uniform(0.0, 5.0)),
            accuracy_weight=float(rng.uniform(0.05, 0.3)),
            perturbation_cost=float(rng.uniform(0.0, 0.3)),
            regularizer=lam,
            population_size=n,
        ),
        users=tuple(users),
        solver=SolverSettings(sigma_max=4.0, grid_step=0.05),
    )


def run_oracle_suite(configs: int = 20, base_seed: int = 0) -> SuiteResult:
    result = SuiteResult(passed=True)
    for t in range(configs):
        seed = base_seed + t
        config = random_small_config(seed)
        fast = stackelberg_solve(config)
        slow = brute_force_equilibrium(config, _ORACLE_FINE_STEP)
        sigma_err = abs(fast.sigma_L_star - slow.sigma_L_star)
        util_err = abs(fast.learner_utility - slow.learner_utility)
        ok = sigma_err <= config.solver.grid_step and util_err <= _ORACLE_UTILITY_TOL
        result.rows.append(
            {
                "seed": seed,
                "n_users": config.n_users,
                "sigma_L_solver": fast.sigma_L_star,
                "sigma_L_oracle": slow.sigma_L_star,
                "sigma_error": sigma_err,
                "utility_solver": fast.learner_utility,
                "utility_oracle": slow.learner_utility,
                "utility_error": util_err,
                "holds": int(ok),
            }
        )
        if not ok:
            result.passed = False
            result.failed_seeds.append(seed)
    result.summary = (
        f"oracle: {sum(r['holds'] for r in result.rows)}/{configs} configs agree, "
        f"worst utility error {max(r['utility_error'] for r in result.rows):.3e}"
    )
    return result


def run_suite(name: str, trials: int | None = None, base_seed: int = 0) -> SuiteResult:
    if trials is not None and trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if name in ("lemma1", "lemma2"):
        return run_lemma_suite(name, trials=trials or 100, base_seed=base_seed)
    if name == "chi2":
        return run_chi2_suite(samples=trials or 100_000, base_seed=base_seed)
    if name == "scaling":
        return run_scaling_suite(
            trials_per_point=trials or 50, base_seed=base_seed
        )
    if name == "oracle":
        return run_oracle_suite(configs=trials or 20, base_seed=base_seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
