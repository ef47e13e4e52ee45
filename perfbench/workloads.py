"""Seeded inputs and op plans for the four benchmark workloads.

An op is one `obfusgame.cli.main([...])` call.  Every workload runs its ops
in cycles; one cycle holds one op of each op class of the workload (for
example one solve at each population size).  Each op class has a pool of
POOL_SIZE inputs, or a single input, whose outputs were recorded from the
program (see record.py) so that every op's output can be checked.  An
epoch is POOL_SIZE cycles and uses every pool entry once, in an order
drawn from the benchmark seed.  A timed run is a whole number of epochs,
so every run of a workload does the same work; only the order, and with
it the machine state each op meets, depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    "population_solve": "obfusgame solve on seeded N-user populations (N = 4, 8, 16) "
    "that mix perturbing, dissuaded and never-dissuaded users: the analytic "
    "solver's O(N^2 * candidates) path with almost no I/O",
    "grid_sweep": "obfusgame sweep at the default 1001-point grid on the four shipped "
    "configs and seeded N = 4 and N = 8 configs: dense per-point best responses, "
    "config parsing and CSV writing, no candidate search",
    "erm_suites": "obfusgame validate lemma1, lemma2, chi2 and scaling at reduced "
    "trials: ERM training, synthetic data and Monte Carlo loss, no solver work",
    "oracle_suite": "obfusgame validate --suite oracle --trials 1, one seed per op: "
    "the brute-force equilibrium oracle, a numpy path no other workload calls",
}

# Every generated config and every game the oracle suite draws uses the
# package's default root tolerance; output checks derive their tolerance
# from it (checks.REL_TOL).
SOLVER_TOL = 1e-9

POPULATION_SIZES = (4, 8, 16)
SWEEP_SHIPPED = ("default", "low_cost", "mid_cost", "high_cost")
SWEEP_SIZES = (4, 8)
# (suite, --trials); for chi2 --trials is the sample count
ERM_SUITES = (("lemma1", 5), ("lemma2", 5), ("chi2", 50_000), ("scaling", 2))
ORACLE_SIZES = (1, 2, 3)

# Inputs per op class: configs, base seeds or oracle seeds.  Three, so that
# with the epoch counts of MIN_EPOCHS both the median op and the op at the
# tail percentile fall among repeats of one pool entry rather than between
# two entries.
POOL_SIZE = 3

# Seconds one cycle took at the reference speed (see run.py) at the
# recording commit.  A run of `seconds` does the whole number of epochs
# closest to that at this speed, and at least MIN_EPOCHS, so the amount of
# work per run is fixed by the benchmark and is the same on every commit.
CYCLE_SECONDS = {
    "population_solve": 1.06,
    "grid_sweep": 1.10,
    "erm_suites": 1.19,
    "oracle_suite": 1.78,
}
# Fewest epochs for which the slowest op class has at least 11 ops and both
# the median op and the op at the tail percentile (the 11th slowest) fall
# among the repeats of one pool entry.  With 4 epochs the tail op is the
# second fastest op of the slowest class; on population_solve and
# grid_sweep that made op_tail_ms spread 0.10 and 0.13 over ten seeds.
# 6 epochs put it in the middle of that class.
MIN_EPOCHS = {
    "population_solve": 6,
    "grid_sweep": 6,
    "erm_suites": 4,
    "oracle_suite": 4,
}

# 20 / 0.02 gives the same 1001-point grid as the shipped configs
_SIGMA_MAX = 20.0
_GRID_STEP = 0.02


@dataclass(frozen=True)
class Op:
    key: str  # names the recorded reference output
    kind: str  # "solve", "sweep" or "validate"
    argv: tuple[str, ...]  # without --out

    def command(self, out: Path) -> list[str]:
        return [*self.argv, "--out", str(out)]


def population_config(n: int, key: str) -> str:
    """Config text for an n-user game, drawn from the pool entry `key`.

    User i is drawn in regime i % 3: users 0, 3, ... and 1, 4, ... get an
    effective-noise target s* inside [0, sigma_max] and a flat cost below
    their gain from perturbing at sigma_L = 0, so the learner can dissuade
    them; users 2, 5, ... get s* beyond sigma_max and a cost below their
    gain at sigma_max, so no sigma_L in range dissuades them.  The learner's
    accuracy weight makes dissuading some users worth its cost.
    """
    rng = random.Random(key)
    lam = 1.0
    scale = n * n * lam * lam
    lines = [
        f"learner.G_bar = {rng.uniform(50.0, 150.0)!r}",
        f"learner.gamma = {rng.uniform(0.5, 2.0)!r}",
        f"learner.N_bar = {rng.uniform(0.0, 0.5)!r}",
        f"learner.Lambda = {lam!r}",
        f"learner.N = {n}",
    ]
    for i in range(n):
        gamma = rng.uniform(0.5, 2.0)
        rho = rng.uniform(0.05, 0.5)
        never_dissuaded = i % 3 == 2
        if never_dissuaded:
            s_star = rng.uniform(1.5, 3.0) * _SIGMA_MAX
        else:
            s_star = rng.uniform(0.3, 0.9) * _SIGMA_MAX
        # P_bar that puts the root of s (1 + rho s)^2 = P_bar rho N^2 Lambda^2 / (2 gamma) at s_star
        p_bar = 2.0 * gamma * s_star * (1.0 + rho * s_star) ** 2 / (rho * scale)
        # gain of perturbing over not perturbing, before the flat cost
        at = _SIGMA_MAX if never_dissuaded else 0.0
        gain = p_bar / (1.0 + rho * at) - p_bar / (1.0 + rho * s_star) - gamma * (
            s_star**2 - at**2
        ) / scale
        cost = rng.uniform(0.2, 0.8) * gain if never_dissuaded else rng.uniform(0.1, 0.9) * gain
        lines += [
            f"users[{i}].G_bar = {rng.uniform(50.0, 150.0)!r}",
            f"users[{i}].gamma = {gamma!r}",
            f"users[{i}].P_bar = {p_bar!r}",
            f"users[{i}].rho = {rho!r}",
            f"users[{i}].N_bar = {cost!r}",
        ]
    lines += [
        f"solver.sigma_max = {_SIGMA_MAX!r}",
        f"solver.grid_step = {_GRID_STEP!r}",
        f"solver.tol = {SOLVER_TOL!r}",
    ]
    return "\n".join(lines) + "\n"


def _population_key(n: int, j: int) -> str:
    return f"population/N{n}/{j:02d}"


def _sweep_key(n: int, j: int) -> str:
    return f"sweep/N{n}/{j:02d}"


def write_inputs(workload: str, config_dir: Path) -> None:
    """Generate and write every config file the workload's ops may read."""
    config_dir.mkdir(parents=True, exist_ok=True)
    if workload == "population_solve":
        keys = [(n, _population_key(n, j)) for n in POPULATION_SIZES for j in range(POOL_SIZE)]
    elif workload == "grid_sweep":
        keys = [(n, _sweep_key(n, j)) for n in SWEEP_SIZES for j in range(POOL_SIZE)]
    else:
        keys = []
    for n, key in keys:
        (config_dir / _config_name(key)).write_text(population_config(n, key), encoding="utf-8")


def _config_name(key: str) -> str:
    return key.replace("/", "-") + ".cfg"


class Plan:
    """The ops of one workload, cycle by cycle, for one benchmark seed."""

    def __init__(self, workload: str, seed: int, config_dir: Path, shipped_dir: Path, oracle_seeds: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = workload
        self.config_dir = config_dir
        self.shipped_dir = shipped_dir
        self.seed = seed
        self.classes = _op_classes(workload, oracle_seeds)

    def cycle(self, c: int) -> list[Op]:
        epoch, k = divmod(c, POOL_SIZE)
        rng = random.Random(f"{self.workload}:{self.seed}:{epoch}")
        orders = [rng.sample(pool, len(pool)) for pool in self.classes]
        return [self._op(order[k % len(order)]) for order in orders]

    def _op(self, entry) -> Op:
        kind, key, extra = entry
        if kind == "solve":
            return Op(key, kind, ("solve", "--config", str(self.config_dir / _config_name(key))))
        if kind == "sweep":
            if key.startswith("sweep/shipped/"):
                path = self.shipped_dir / f"{key.rsplit('/', 1)[1]}.cfg"
            else:
                path = self.config_dir / _config_name(key)
            return Op(key, kind, ("sweep", "--config", str(path)))
        suite, trials, base_seed = extra
        argv = ("validate", "--suite", suite, "--trials", str(trials), "--seed", str(base_seed))
        return Op(key, kind, argv)


def _op_classes(workload: str, oracle_seeds: dict) -> list[list[tuple]]:
    """Pool entries (kind, reference key, validate arguments) per op class,
    slowest class last."""
    if workload == "population_solve":
        return [
            [("solve", _population_key(n, j), None) for j in range(POOL_SIZE)]
            for n in POPULATION_SIZES
        ]
    if workload == "grid_sweep":
        return [[("sweep", f"sweep/shipped/{name}", None)] for name in SWEEP_SHIPPED] + [
            [("sweep", _sweep_key(n, j), None) for j in range(POOL_SIZE)] for n in SWEEP_SIZES
        ]
    if workload == "erm_suites":
        return [
            [
                ("validate", f"validate/{suite}/{1000 * j}", (suite, trials, 1000 * j))
                for j in range(POOL_SIZE)
            ]
            for suite, trials in ERM_SUITES
        ]
    return [
        [("validate", f"validate/oracle/{s}", ("oracle", 1, s)) for s in oracle_seeds[str(n)]]
        for n in ORACLE_SIZES
    ]


def pool_ops(workload: str, config_dir: Path, shipped_dir: Path, oracle_seeds: dict) -> list[Op]:
    """Every op the workload can run, once each (for recording references)."""
    plan = Plan(workload, 0, config_dir, shipped_dir, oracle_seeds)
    return [plan._op(entry) for pool in plan.classes for entry in pool]
