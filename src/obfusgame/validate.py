"""Named validation suites behind the `validate` CLI subcommand.

Each suite runs a batch of seeded, reproducible trials and builds one row
per trial; its verdict, failed seeds and summary are read off those rows.
The suites:

    lemma1   classifier-difference inequality on random ERM trials
    lemma2   empirical-loss-difference inequality on the same trials
    chi2     empirical noise-norm CDF against the chi-square CDF
    scaling  expected-loss gap grows with the quadratic noise level
    oracle   analytic equilibrium solver against brute-force grid search
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import SUITES, erm
from .dp import chi_square_cdf
from .game import GameConfig, LearnerParams, SolverSettings, UserParams, _Record
from .solver import brute_force_equilibrium, stackelberg_solve

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
# cap on samples * d normals per draw; the draw is scaled in place and its
# squared row norms taken in one einsum pass, so it takes about 8 bytes a
# value (0.8 GB at the cap)
_CHI2_MAX_DRAWS = 10**8

_SCALING_POINTS = 10
# rows of features the lemma and scaling suites train as one stack: 100
# problems of _ERM_N rows, under a fifth of the scaling suite's 100k-row sets
_STACK_ROWS = 20_000
_MIN_SPEARMAN = 0.9

_ORACLE_UTILITY_TOL = 1e-6


class SuiteResult(_Record):
    def __init__(self, passed: bool, rows: list[dict], summary: str, failed_seeds: list[int]):
        self._store(locals())


def _verdict(rows: list[dict], seed_of, summary: str) -> SuiteResult:
    """A per-row suite passes when every row holds; seed_of(row) of each
    failing row is listed once, in row order, for replay."""
    failed = [seed_of(row) for row in rows if not row["holds"]]
    return SuiteResult(not failed, rows, summary, list(dict.fromkeys(failed)))


def _trained(draws, tol: float = 1e-8):
    """(key, datasets, classifiers) for each (key, datasets) draw, in draw
    order.  The draws are taken a stack at a time, as many as fit in
    _STACK_ROWS rows, and their datasets train as one erm.train_erms
    stack: a suite holds one stack's data whatever its trial count."""
    draws = iter(draws)
    for first in draws:
        rows = sum(data.n for data in first[1])
        batch = [first, *itertools.islice(draws, max(_STACK_ROWS // rows, 1) - 1)]
        fits = iter(erm.train_erms([data for _, datasets in batch for data in datasets], _ERM_LAM, tol=tol))
        for key, datasets in batch:
            yield key, datasets, [next(fits) for _ in datasets]
        del batch, fits  # freed before the next stack is drawn


def _lemma_draw(seed: int):
    """A trial's noise levels, clean set and perturbed set, with the noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma_L = _TRIAL_SIGMA_L[seed % len(_TRIAL_SIGMA_L)]
    sigma_S = rng.choice(_TRIAL_SIGMA_S, size=_ERM_N)
    data = erm.generate_synthetic(_ERM_N, _ERM_D, _ERM_SEPARATION, seed)
    perturbed, noise = erm.perturb_inputs(data, sigma_L, sigma_S, seed + 10_000)
    return (seed, sigma_L, sigma_S, noise), (data, perturbed)


def run_lemma_suite(which: str, trials: int = 100, base_seed: int = 0) -> SuiteResult:
    rows = []
    draws = map(_lemma_draw, range(base_seed, base_seed + trials))
    for (seed, sigma_L, sigma_S, noise), (data, _), (f_clean, f_pert) in _trained(draws):
        if which == "lemma1":
            report = erm.check_classifier_gap(f_clean, f_pert, noise, _ERM_LAM)
        else:
            report = erm.check_empirical_gap(f_pert, f_clean, data, _ERM_LAM)
        rows.append(
            {
                "seed": seed,
                "n": _ERM_N,
                "d": _ERM_D,
                "sigma_L": sigma_L,
                "sigma_S_rms": float(np.sqrt(np.mean(sigma_S**2))),
                "lhs": report.lhs,
                "rhs": report.rhs,
                "slack": report.slack,
                "holds": int(report.slack >= -1e-6),
            }
        )
    summary = (
        f"{which}: {sum(r['holds'] for r in rows)}/{trials} trials hold, "
        f"worst slack {min((r['slack'] for r in rows), default=math.inf):.3e}"
    )
    return _verdict(rows, lambda row: row["seed"], summary)


def run_chi2_suite(samples: int = 100_000, base_seed: int = 0) -> SuiteResult:
    if samples * max(_CHI2_DIMS) > _CHI2_MAX_DRAWS:
        raise ValueError(f"chi2 --trials must be <= {_CHI2_MAX_DRAWS // max(_CHI2_DIMS)}, got {samples}")
    sigma_L, sigma_S = 3.0, 4.0
    s2 = sigma_L**2 + sigma_S**2
    rows = []
    for d in _CHI2_DIMS:
        rng = np.random.Generator(np.random.PCG64(base_seed + d))
        draws = rng.standard_normal((samples, d))
        draws *= math.sqrt(s2)
        norms2 = np.einsum("ij,ij->i", draws, draws)
        del draws  # freed before the next d's draw
        for zeta in (0.5 * d, 1.0 * d, 1.5 * d, 2.0 * d, 3.0 * d):
            expected = chi_square_cdf(d, zeta)
            empirical = float(np.count_nonzero(norms2 <= zeta * s2) / samples)
            err = abs(empirical - expected)
            rows.append(
                {
                    "d": d,
                    "zeta": zeta,
                    "cdf": expected,
                    "empirical": empirical,
                    "abs_error": err,
                    "holds": int(err <= _CHI2_TOLERANCE),
                }
            )
    summary = f"chi2: worst |empirical - cdf| = {max(r['abs_error'] for r in rows):.4f} (tolerance {_CHI2_TOLERANCE})"
    return _verdict(rows, lambda row: base_seed + row["d"], summary)  # each d draws from its own seed


def _spearman(x, y) -> float:
    """Pearson correlation of the 1-based ranks; ties share their mean rank."""
    ranks = []
    for values in (x, y):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2.0)[inverse])
    return float(np.corrcoef(*ranks)[0, 1])


def _scaling_draw(k: int, sigma_L: float, sigma_S: float, seed: int):
    """Point k's perturbed set for one trial."""
    data = erm.generate_synthetic(_ERM_N, _ERM_D, _ERM_SEPARATION, seed)
    perturbed, _ = erm.perturb_inputs(data, sigma_L, np.full(_ERM_N, sigma_S), seed + 20_000)
    return k, (perturbed,)


def run_scaling_suite(trials_per_point: int = 50, base_seed: int = 0) -> SuiteResult:
    """Average expected-loss gap across a noise sweep must increase with
    sigma_L^2 + (1/n) sum sigma_S^2 (Spearman rank correlation)."""
    big = erm.generate_synthetic(100_000, _ERM_D, _ERM_SEPARATION, base_seed + 999_983)
    f_star = erm.train_erm(big, _ERM_LAM, tol=1e-7)
    del big  # freed before the sample is drawn: one 100k-row set at a time
    sample = erm.generate_synthetic(100_000, _ERM_D, _ERM_SEPARATION, base_seed + 424_242)
    j_star = erm.empirical_risk(f_star, sample, _ERM_LAM)
    points = [(0.12 * k, 0.18 * k) for k in range(_SCALING_POINTS)]  # (sigma_L, sigma_S)
    # the perturbed sets train in stacks that run across points
    draws = (
        _scaling_draw(k, *noise, base_seed + 1000 * k + t)
        for k, noise in enumerate(points)
        for t in range(trials_per_point)
    )
    trial_gaps = [[] for _ in points]
    for k, _, (f_d,) in _trained(draws, tol=1e-6):
        j_d = erm.empirical_risk(f_d, sample, _ERM_LAM)
        trial_gaps[k].append(j_d - j_star)
    rows = []
    for k, ((sigma_L, sigma_S_level), point_gaps) in enumerate(zip(points, trial_gaps)):
        # a single trial has no spread estimate
        spread = np.std(point_gaps, ddof=1) if trials_per_point > 1 else math.inf
        rows.append(
            {
                "point": k,
                "sigma_L": sigma_L,
                "sigma_S": sigma_S_level,
                "noise_level": sigma_L**2 + sigma_S_level**2,
                "mean_gap": float(np.mean(point_gaps)),
                "stderr": float(spread / math.sqrt(trials_per_point)),
            }
        )
    rho = _spearman([r["noise_level"] for r in rows], [r["mean_gap"] for r in rows])
    summary = f"scaling: Spearman rho = {rho:.3f} (threshold {_MIN_SPEARMAN})"
    return SuiteResult(rho >= _MIN_SPEARMAN, rows, summary, [])  # a trend names no seed


def random_small_config(seed: int) -> GameConfig:
    """Random 1-3-user game for solver/oracle comparison.

    Drawn so that users' flat costs exceed their maximum privacy gain, so
    nobody perturbs in equilibrium and the comparison isolates the
    leader-side optimization (the induced objective is then smooth and
    concave for sigma_L > 0, where a fine grid oracle is meaningful at the
    1e-6 level).  No suite checks user-side best responses; in tests/test_solver.py,
    TestBestResponseKernel::test_best_response_is_argmax_of_user_utility,
    TestUserBestResponse::test_default_config_matches_grid_oracle,
    TestBruteForce::test_thresholds_read_off_its_own_table and
    TestPerturbingRegime::test_oracle_agrees_with_the_solve do.
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
    rows = []
    for t in range(configs):
        seed = base_seed + t
        config = random_small_config(seed)
        fast = stackelberg_solve(config)
        slow = brute_force_equilibrium(config)
        sigma_err = abs(fast.sigma_L_star - slow.sigma_L_star)
        util_err = abs(fast.learner_utility - slow.learner_utility)
        rows.append(
            {
                "seed": seed,
                "n_users": config.n_users,
                "sigma_L_solver": fast.sigma_L_star,
                "sigma_L_oracle": slow.sigma_L_star,
                "sigma_error": sigma_err,
                "utility_solver": fast.learner_utility,
                "utility_oracle": slow.learner_utility,
                "utility_error": util_err,
                "holds": int(sigma_err <= config.solver.grid_step and util_err <= _ORACLE_UTILITY_TOL),
            }
        )
    summary = (
        f"oracle: {sum(r['holds'] for r in rows)}/{configs} configs agree, "
        f"worst utility error {max(r['utility_error'] for r in rows):.3e}"
    )
    return _verdict(rows, lambda row: row["seed"], summary)


def run_suite(name: str, trials: int | None = None, base_seed: int = 0) -> SuiteResult:
    if trials is not None and trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if base_seed < 0:
        raise ValueError(f"--seed must be >= 0, got {base_seed}")
    counts = () if trials is None else (trials,)  # each run_* signature holds its default
    if name in ("lemma1", "lemma2"):
        return run_lemma_suite(name, *counts, base_seed=base_seed)
    if name == "chi2":
        return run_chi2_suite(*counts, base_seed=base_seed)
    if name == "scaling":
        return run_scaling_suite(*counts, base_seed=base_seed)
    if name == "oracle":
        return run_oracle_suite(*counts, base_seed=base_seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
