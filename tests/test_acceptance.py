"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).  Each criterion also carries a wall-clock
budget which is asserted alongside the numerical check.
"""

import math
import time

import numpy as np
import pytest

from obfusgame.config_io import load_shipped_config
from obfusgame.dp import chi_square_cdf, epsilon_from_sigma, sigma_from_epsilon
from obfusgame.game import (
    GameConfig,
    LearnerParams,
    SolverSettings,
    StrategyProfile,
    UserParams,
    user_utility,
)
from obfusgame.solver import (
    dissuasion_threshold,
    leader_objective,
    stackelberg_solve,
    user_best_response,
)
from obfusgame.validate import run_chi2_suite, run_lemma_suite, run_oracle_suite, run_scaling_suite


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        # bypass pytest capture so one line per criterion is always visible
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


class _Timer:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def within_budget(self) -> bool:
        return self.elapsed <= self.budget

    def detail(self) -> str:
        return f"{self.elapsed:.1f}s of {self.budget:.0f}s budget"


def test_01_bang_bang_best_response():
    """Best response is positive and strictly decreasing below the
    dissuasion threshold, exactly zero above it, on a 0.05 grid."""
    timer = _Timer(5.0)
    config = load_shipped_config("default")
    t = dissuasion_threshold(0, config)
    grid = np.arange(0.0, config.solver.sigma_max + 0.025, 0.05)
    prev = math.inf
    ok = t is not None and t > 0
    for sigma_L in grid:
        br = user_best_response(float(sigma_L), 0, config)
        if sigma_L < t - 1e-9:
            ok = ok and 0.0 < br < prev
            prev = br
        elif sigma_L > t + 1e-9:
            ok = ok and br == 0.0
    ok = ok and timer.within_budget()
    report("bang-bang best response on 0.05 grid", ok,
           f"threshold {t:.4f}, {timer.detail()}")


def test_02_thresholds_decrease_with_user_cost():
    """Dissuasion thresholds strictly decrease across the three shipped
    flat-cost levels, located to the configured root tolerance."""
    timer = _Timer(5.0)
    configs = [load_shipped_config(n) for n in ("low_cost", "mid_cost", "high_cost")]
    ts = [dissuasion_threshold(0, c) for c in configs]
    ok = all(t is not None for t in ts) and ts[0] > ts[1] > ts[2]
    # each threshold separates positive from zero best response at root_tol scale
    for config, t in zip(configs, ts):
        tol = config.solver.root_tol
        ok = ok and user_best_response(t - 10 * tol, 0, config) > 0
        ok = ok and user_best_response(t + 10 * tol, 0, config) == 0.0
    ok = ok and timer.within_budget()
    report("thresholds strictly decreasing in user cost", ok,
           f"{ts[0]:.4f} > {ts[1]:.4f} > {ts[2]:.4f}, {timer.detail()}")


def test_03_equilibrium_dissuasion_columns():
    """High-cost columns choose sigma_L at/above the threshold with a
    strict utility gain over not perturbing; the low-cost column stays at
    zero."""
    timer = _Timer(30.0)
    ok = True
    details = []
    for name in ("mid_cost", "high_cost"):
        config = load_shipped_config(name)
        result = stackelberg_solve(config)
        gain = result.learner_utility - leader_objective(0.0, config)
        ok = ok and result.sigma_L_star > 0 and gain > 0
        ok = ok and all(s == 0.0 for s in result.sigma_S_star)
        details.append(f"{name}: sigma_L*={result.sigma_L_star:.3f} gain={gain:.2f}")
    low = stackelberg_solve(load_shipped_config("low_cost"))
    ok = ok and low.sigma_L_star == 0.0 and low.sigma_S_star[0] > 0
    details.append("low_cost: sigma_L*=0")
    ok = ok and timer.within_budget()
    report("equilibrium dissuasion across cost columns", ok,
           "; ".join(details) + f", {timer.detail()}")


def _random_game(rng) -> GameConfig:
    n = int(rng.integers(1, 4))
    lam = float(rng.uniform(0.7, 1.3))
    users = tuple(
        UserParams(
            baseline_gain=float(rng.uniform(0.0, 2.0)),
            accuracy_weight=float(rng.uniform(0.5, 2.0)),
            max_privacy_loss=float(rng.uniform(0.0, 3.0)),
            privacy_rate=float(rng.uniform(0.3, 1.0)),
            perturbation_cost=float(rng.uniform(0.0, 0.5)),
        )
        for _ in range(n)
    )
    learner = LearnerParams(
        baseline_gain=float(rng.uniform(0.0, 2.0)),
        accuracy_weight=float(rng.uniform(0.1, 0.5)),
        perturbation_cost=0.0,
        regularizer=lam,
        population_size=n,
    )
    return GameConfig(learner=learner, users=users,
                      solver=SolverSettings(sigma_max=4.0, grid_step=0.05))


def _argmax_own(config: GameConfig, i: int, sigma_L: float, others) -> float:
    """Independent argmax of user i's utility in its own noise level, on
    [0, inf) as in the game, via sign bisection of a central-difference
    derivative of the full utility (which includes the other users'
    levels)."""

    def util(own: float) -> float:
        sigma = list(others)
        sigma.insert(i, own)
        return user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma)))

    h = 1e-4

    def deriv(s: float) -> float:
        return util(s + h) - util(s - h)

    lo, hi = h, config.solver.sigma_max
    while deriv(hi) > 0:  # own noise has no cap: past the optimum the accuracy term wins
        hi *= 2.0
    if deriv(lo) <= 0:
        interior = 0.0
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if deriv(mid) > 0:
                lo = mid
            else:
                hi = mid
        interior = 0.5 * (lo + hi)
    return interior if util(interior) > util(0.0) else 0.0


def test_04_best_response_independent_of_other_users():
    """The argmax of a user's utility in its own level is invariant (to
    1e-9) under 10 random assignments of the other users' levels, across
    50 random games."""
    timer = _Timer(10.0)
    rng = np.random.Generator(np.random.PCG64(20_240_817))
    worst = 0.0
    checked = 0
    while checked < 50:
        config = _random_game(rng)
        n = config.n_users
        sigma_L = float(rng.uniform(0.0, 1.0))
        argmaxes = []
        for _ in range(10):
            others = [float(v) for v in rng.uniform(0.0, 1.5, size=n - 1)]
            argmaxes.append(_argmax_own(config, 0, sigma_L, others))
        # skip games where interior and zero are a near-tie: the selected
        # branch is then legitimately sensitive at below-tolerance scales
        base = argmaxes[0]
        if 0.0 < base < 1e-6:
            continue
        spread = max(argmaxes) - min(argmaxes)
        worst = max(worst, spread)
        checked += 1
    ok = worst <= 1e-9 and timer.within_budget()
    report("own-argmax invariant to other users' levels", ok,
           f"worst spread {worst:.2e} over 50 games x 10 assignments, {timer.detail()}")


def test_05_effective_noise_clamp():
    """On the interior branch, sigma_L^2 + br^2 is constant: users undo
    learner noise one-for-one until dissuaded."""
    timer = _Timer(5.0)
    config = load_shipped_config("default")
    t = dissuasion_threshold(0, config)
    targets = [
        math.hypot(s, user_best_response(float(s), 0, config))
        for s in np.linspace(0.0, 0.95 * t, 21)
    ]
    spread = max(targets) - min(targets)
    ok = spread < 1e-7 and timer.within_budget()
    report("effective-noise clamp on interior branch", ok,
           f"total noise {targets[0]:.4f}, spread {spread:.2e}, {timer.detail()}")


def test_06_solver_matches_brute_force_oracle():
    """Analytic equilibrium agrees with an exhaustive fine-grid search on
    20 random games: sigma_L within one coarse grid step, learner utility
    within 1e-6."""
    timer = _Timer(120.0)
    result = run_oracle_suite(configs=20)
    ok = result.passed and timer.within_budget()
    report("solver vs brute-force oracle", ok,
           f"{result.summary}, {timer.detail()}")


def test_07_dp_round_trip():
    """sigma <-> epsilon conversion round-trips to 1e-9 relative over 1000
    random pairs, and hits the closed-form anchor to 1e-12."""
    timer = _Timer(1.0)
    delta_anchor = 1.25 * math.exp(-1)
    anchor_err = abs(epsilon_from_sigma(2 * math.sqrt(2), delta_anchor).epsilon - 1.0)
    rng = np.random.Generator(np.random.PCG64(12345))
    worst = 0.0
    for _ in range(1000):
        eps = float(rng.uniform(0.01, 5.0))
        delta = float(rng.uniform(1e-6, 0.999))
        back = epsilon_from_sigma(sigma_from_epsilon(eps, delta), delta).epsilon
        worst = max(worst, abs(back - eps) / eps)
    ok = anchor_err <= 1e-12 and worst <= 1e-9 and timer.within_budget()
    report("sigma <-> epsilon round trip", ok,
           f"anchor err {anchor_err:.1e}, worst rel err {worst:.1e}, {timer.detail()}")


def test_08_chi_square_cdf_vs_sampling():
    """In-repo chi-square CDF matches 1e5-sample Monte Carlo within 0.01
    across d in {1,2,5,10}, and the d=2 closed form to 1e-12."""
    timer = _Timer(30.0)
    result = run_chi2_suite(samples=100_000)
    closed_ok = all(
        abs(chi_square_cdf(2, z) - (1 - math.exp(-z / 2))) <= 1e-12
        for z in (0.1, 0.5, 2 * math.log(2), 3.0, 10.0)
    )
    ok = result.passed and closed_ok and timer.within_budget()
    report("chi-square CDF vs sampling", ok,
           f"{result.summary}, d=2 closed form ok={closed_ok}, {timer.detail()}")


def test_09_erm_inequalities():
    """Classifier-difference and empirical-loss-difference inequalities
    hold (slack >= -1e-6) on 100 seeded ERM trials each."""
    timer = _Timer(120.0)
    r1 = run_lemma_suite("lemma1", trials=100)
    r2 = run_lemma_suite("lemma2", trials=100)
    ok = r1.passed and r2.passed and timer.within_budget()
    report("ERM inequality checks", ok,
           f"{r1.summary}; {r2.summary}, {timer.detail()}")


def test_10_expected_loss_scaling():
    """Mean expected-loss gap of noise-trained classifiers increases with
    the quadratic noise level (Spearman >= 0.9 over a 10-point sweep)."""
    timer = _Timer(600.0)
    result = run_scaling_suite()
    ok = result.passed and timer.within_budget()
    report("expected-loss scaling with noise level", ok,
           f"{result.summary}, {timer.detail()}")
