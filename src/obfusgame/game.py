"""Game parameters and the learner / user utility functions.

The game has one learner choosing a noise level sigma_L and N users each
choosing their own noise level sigma_S[i].  Utilities combine three parts:
an accuracy penalty growing quadratically in all noise levels, a privacy
loss shrinking in the effective noise sqrt(sigma_L^2 + sigma_S[i]^2), and a
flat cost paid for any strictly positive perturbation.

All functions here are pure and deterministic; values are validated at
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigError


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class LearnerParams:
    """Learner-side scalars: baseline gain, accuracy weight, flat
    perturbation cost, ERM regularizer and population size."""

    baseline_gain: float
    accuracy_weight: float
    perturbation_cost: float
    regularizer: float
    population_size: int

    def __post_init__(self):
        _require_finite("baseline_gain", self.baseline_gain)
        if _require_finite("accuracy_weight", self.accuracy_weight) < 0:
            raise ValueError("accuracy_weight must be >= 0")
        if _require_finite("perturbation_cost", self.perturbation_cost) < 0:
            raise ValueError("perturbation_cost must be >= 0")
        if _require_finite("regularizer", self.regularizer) <= 0:
            raise ValueError("regularizer must be > 0")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        scale = self.population_size * self.regularizer
        if not math.isfinite(scale * scale):
            raise ValueError(f"regularizer {self.regularizer} has no finite (N * regularizer)^2")


@dataclass(frozen=True)
class UserParams:
    """Per-user scalars: baseline gain, accuracy weight, maximum privacy
    loss, privacy-loss rate and flat perturbation cost."""

    baseline_gain: float
    accuracy_weight: float
    max_privacy_loss: float
    privacy_rate: float
    perturbation_cost: float

    def __post_init__(self):
        _require_finite("baseline_gain", self.baseline_gain)
        if _require_finite("accuracy_weight", self.accuracy_weight) < 0:
            raise ValueError("accuracy_weight must be >= 0")
        if _require_finite("max_privacy_loss", self.max_privacy_loss) < 0:
            raise ValueError("max_privacy_loss must be >= 0")
        if _require_finite("privacy_rate", self.privacy_rate) <= 0:
            raise ValueError("privacy_rate must be > 0")
        if _require_finite("perturbation_cost", self.perturbation_cost) < 0:
            raise ValueError("perturbation_cost must be >= 0")


@dataclass(frozen=True)
class SolverSettings:
    """Search bounds and tolerances for the best-response solver."""

    sigma_max: float = 50.0
    grid_step: float = 0.05  # the sweep's default step; the solve uses no grid
    root_tol: float = 1e-9
    tie_epsilon: float = 1e-9

    def __post_init__(self):
        if _require_finite("sigma_max", self.sigma_max) <= 0:
            raise ValueError("sigma_max must be > 0")
        square = self.sigma_max * self.sigma_max
        if not math.isfinite(square + square):  # the oracle's sigma_L^2 + sigma_S^2
            raise ValueError(f"sigma_max {self.sigma_max} has no finite doubled square")
        if not 0 < self.grid_step < self.sigma_max:
            raise ValueError("grid_step must be in (0, sigma_max)")
        if _require_finite("root_tol", self.root_tol) <= 0:
            raise ValueError("root_tol must be > 0")
        if _require_finite("tie_epsilon", self.tie_epsilon) < 0:
            raise ValueError("tie_epsilon must be >= 0")


@dataclass(frozen=True)
class GameConfig:
    """Full game instance: learner, user list, solver settings."""

    learner: LearnerParams
    users: tuple[UserParams, ...]
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) != self.learner.population_size:
            raise ConfigError(
                f"learner.N = {self.learner.population_size} but "
                f"{len(self.users)} users were given"
            )
        for i, u in enumerate(self.users):
            # zero accuracy weight with a positive privacy stake has no
            # finite best response; reject up front
            if u.accuracy_weight == 0 and u.max_privacy_loss > 0:
                raise ConfigError(
                    f"users[{i}]: gamma = 0 with P_bar > 0 has no finite "
                    "optimal perturbation"
                )

    @property
    def n_users(self) -> int:
        return self.learner.population_size


@dataclass(frozen=True)
class StrategyProfile:
    """One noise level for the learner plus one per user."""

    sigma_L: float
    sigma_S: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_S", tuple(float(s) for s in self.sigma_S))
        if not math.isfinite(self.sigma_L) or self.sigma_L < 0:
            raise ValueError(f"sigma_L must be finite and >= 0, got {self.sigma_L}")
        for i, s in enumerate(self.sigma_S):
            if not math.isfinite(s) or s < 0:
                raise ValueError(f"sigma_S[{i}] must be finite and >= 0, got {s}")


def _check_user(config: GameConfig, i: int) -> None:
    if not 0 <= i < config.n_users:
        raise IndexError(f"user index {i} out of range for N={config.n_users}")


def _spread(sigma_L: float, sigma_S: Sequence[float], n_users: int) -> float:
    """sigma_L^2 + sum_i sigma_S[i]^2 / N, summed in user order."""
    total = sigma_L * sigma_L
    for s in sigma_S:
        total += s * s / n_users
    return total


def _privacy_loss(p_bar: float, rate: float, sigma_L: float, sigma_S_i: float) -> float:
    # sqrt(a*a + b*b), not math.hypot: the same arithmetic as solver's numpy panels
    return p_bar / (1.0 + rate * math.sqrt(sigma_L * sigma_L + sigma_S_i * sigma_S_i))


def _user_utility(
    config: GameConfig, i: int, sigma_L: float, sigma_S_i: float, spread: float
) -> float:
    """user_utility's arithmetic, unchecked; spread is _spread of the profile."""
    u = config.users[i]
    return (
        u.baseline_gain
        - u.accuracy_weight / (config.n_users * config.learner.regularizer**2) * spread
        - _privacy_loss(u.max_privacy_loss, u.privacy_rate, sigma_L, sigma_S_i)
        - (u.perturbation_cost if sigma_S_i > 0 else 0.0)
    )


def _learner_utility(config: GameConfig, sigma_L: float, sigma_S: Sequence[float]) -> float:
    """learner_utility's arithmetic, unchecked.  The privacy losses are summed
    in user order by plain addition (sum() compensates from Python 3.12 on)."""
    n = config.n_users
    lp = config.learner
    privacy = 0.0
    for u, s in zip(config.users, sigma_S):
        privacy += _privacy_loss(u.max_privacy_loss, u.privacy_rate, sigma_L, s)
    return (
        lp.baseline_gain
        - lp.accuracy_weight / (n * lp.regularizer**2) * _spread(sigma_L, sigma_S, n)
        - privacy / n
        - (lp.perturbation_cost if sigma_L > 0 else 0.0)
    )


def user_utility(config: GameConfig, i: int, profile: StrategyProfile) -> float:
    """Utility of user i under the given strategy profile."""
    n = config.n_users
    _check_user(config, i)
    if len(profile.sigma_S) != n:
        raise ValueError(
            f"profile has {len(profile.sigma_S)} user strategies, expected {n}"
        )
    sigma_L = float(profile.sigma_L)
    return _user_utility(
        config, i, sigma_L, profile.sigma_S[i], _spread(sigma_L, profile.sigma_S, n)
    )


def learner_utility(config: GameConfig, profile: StrategyProfile) -> float:
    """Utility of the learner: baseline minus accuracy penalty, minus the
    average privacy loss over users, minus the flat perturbation cost."""
    if len(profile.sigma_S) != config.n_users:
        raise ValueError(
            f"profile has {len(profile.sigma_S)} user strategies, expected {config.n_users}"
        )
    return _learner_utility(config, float(profile.sigma_L), profile.sigma_S)
