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

from .errors import ConfigError


def _require_finite(name: str, value: float, bound: str = "") -> None:
    """Refuse a non-finite value, and with bound ">" or ">=" a value that
    is not > 0 or >= 0: the one writer of the package's scalar domain
    messages."""
    if not math.isfinite(value):  # TypeError for a str, as for any non-number
        raise ValueError(f"{name} must be finite, got {float(value)!r}")
    if bound and (value <= 0 if bound == ">" else value < 0):
        raise ValueError(f"{name} must be {bound} 0")


class _Record:
    """A frozen record: its fields are its __init__'s parameters, which
    __init__ hands to _store as its first statement.  ==, hash and repr
    read the fields in order, and assigning or deleting an attribute raises
    AttributeError.  No method is generated: the standard library's
    generated records cost a cold start about 6 ms to import (with inspect)
    and about 1 ms a class."""

    def _store(self, fields: dict) -> None:
        """Set the fields from locals() at the top of __init__ (self, then
        the parameters in order), then run __post_init__."""
        stored = self.__dict__
        stored.update(fields)
        del stored["self"]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class LearnerParams(_Record):
    """Learner-side scalars: baseline gain, accuracy weight, flat
    perturbation cost, ERM regularizer and population size."""

    def __init__(self, baseline_gain: float, accuracy_weight: float, perturbation_cost: float,
                 regularizer: float, population_size: int):
        self._store(locals())

    def __post_init__(self):
        _require_finite("baseline_gain", self.baseline_gain)
        _require_finite("accuracy_weight", self.accuracy_weight, ">=")
        _require_finite("perturbation_cost", self.perturbation_cost, ">=")
        _require_finite("regularizer", self.regularizer, ">")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        scale = self.population_size * self.regularizer
        if not math.isfinite(scale * scale):
            raise ValueError(f"regularizer {self.regularizer} has no finite (N * regularizer)^2")


class UserParams(_Record):
    """Per-user scalars: baseline gain, accuracy weight, maximum privacy
    loss, privacy-loss rate and flat perturbation cost."""

    def __init__(self, baseline_gain: float, accuracy_weight: float, max_privacy_loss: float,
                 privacy_rate: float, perturbation_cost: float):
        self._store(locals())

    def __post_init__(self):
        _require_finite("baseline_gain", self.baseline_gain)
        _require_finite("accuracy_weight", self.accuracy_weight, ">=")
        _require_finite("max_privacy_loss", self.max_privacy_loss, ">=")
        _require_finite("privacy_rate", self.privacy_rate, ">")
        _require_finite("perturbation_cost", self.perturbation_cost, ">=")
        # the best response's s (1 + rho s)^2 = P_bar rho N^2 Lambda^2 / (2 gamma) has no root
        if self.accuracy_weight == 0 and self.max_privacy_loss > 0:
            raise ValueError("gamma = 0 with P_bar > 0 has no finite optimal perturbation")


class SolverSettings(_Record):
    """The learner's search bound sigma_max (a user's own noise has none),
    the sweep's default step and the solver's tolerances."""

    # the defaults, which callers also read off the class
    sigma_max = 50.0
    grid_step = 0.05  # the sweep's default step; the solve uses no grid
    root_tol = 1e-9
    tie_epsilon = 1e-9

    def __init__(self, sigma_max: float = sigma_max, grid_step: float = grid_step, root_tol: float = root_tol,
                 tie_epsilon: float = tie_epsilon):
        self._store(locals())

    def __post_init__(self):
        _require_finite("sigma_max", self.sigma_max, ">")
        square = self.sigma_max * self.sigma_max
        if not math.isfinite(square + square):  # the oracle's sigma_L^2 + sigma_S^2
            raise ValueError(f"sigma_max {self.sigma_max} has no finite doubled square")
        if not 0 < self.grid_step < self.sigma_max:
            raise ValueError("grid_step must be in (0, sigma_max)")
        _require_finite("root_tol", self.root_tol, ">")
        _require_finite("tie_epsilon", self.tie_epsilon, ">=")


class GameConfig(_Record):
    """Full game instance: learner, user list, solver settings."""

    # one default SolverSettings for every config: a record is never changed
    def __init__(self, learner: LearnerParams, users: tuple[UserParams, ...],
                 solver: SolverSettings = SolverSettings()):
        self._store(locals())

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) != self.learner.population_size:
            raise ConfigError(
                f"learner.N = {self.learner.population_size} but "
                f"{len(self.users)} users were given"
            )
        lam, n = self.learner.regularizer, self.n_users
        if lam**2 == 0:
            raise ConfigError(f"learner.Lambda = {lam!r} squares to 0")
        # the utilities' accuracy coefficients gamma / (N Lambda^2); the best
        # responses' gamma / (N^2 Lambda^2) follows: with Lambda^2 > 0 and
        # N >= 1, monotone rounding gives fl(N^2 Lambda^2) >= fl(N Lambda^2)
        # > 0, so gamma >= 0 over it is never larger than over N Lambda^2
        weights = [("learner", self.learner.accuracy_weight)]
        weights += [(f"users[{i}]", u.accuracy_weight) for i, u in enumerate(self.users)]
        for who, gamma in weights:
            if not math.isfinite(gamma / (n * lam**2)):
                raise ConfigError(f"{who}: gamma / (N * Lambda^2) is not finite at learner.Lambda = {lam!r}")

    @property
    def n_users(self) -> int:
        return self.learner.population_size


class StrategyProfile(_Record):
    """One noise level for the learner plus one per user."""

    def __init__(self, sigma_L: float, sigma_S: tuple[float, ...]):
        self._store(locals())

    def __post_init__(self):
        object.__setattr__(self, "sigma_S", tuple(float(s) for s in self.sigma_S))
        _require_finite("sigma_L", self.sigma_L, ">=")
        for i, s in enumerate(self.sigma_S):
            _require_finite(f"sigma_S[{i}]", s, ">=")


def _check_user(config: GameConfig, i: int) -> None:
    if not 0 <= i < config.n_users:
        raise IndexError(f"user index {i} out of range for N={config.n_users}")


def _spread(sigma_L: float, sigma_S: "list[float] | tuple[float, ...]", n_users: int) -> float:
    """sigma_L^2 + sum_i sigma_S[i]^2 / N, summed in user order."""
    total = sigma_L * sigma_L
    for s in sigma_S:
        total += s * s / n_users
    return total


def _privacy_loss(p_bar: float, rate: float, sigma_L: float, sigma_S_i: float) -> float:
    # sqrt(a*a + b*b), not math.hypot: the same arithmetic as solver's numpy panels
    return p_bar / (1.0 + rate * math.sqrt(sigma_L * sigma_L + sigma_S_i * sigma_S_i))


def _check_profile(config: GameConfig, profile: StrategyProfile) -> None:
    if len(profile.sigma_S) != config.n_users:
        raise ValueError(f"profile has {len(profile.sigma_S)} user strategies, expected {config.n_users}")


def user_utility(config: GameConfig, i: int, profile: StrategyProfile) -> float:
    """Utility of user i under the given strategy profile."""
    _check_user(config, i)
    _check_profile(config, profile)
    n, u = config.n_users, config.users[i]
    sigma_L, sigma_S_i = float(profile.sigma_L), profile.sigma_S[i]
    return (
        u.baseline_gain
        - u.accuracy_weight / (n * config.learner.regularizer**2) * _spread(sigma_L, profile.sigma_S, n)
        - _privacy_loss(u.max_privacy_loss, u.privacy_rate, sigma_L, sigma_S_i)
        - (u.perturbation_cost if sigma_S_i > 0 else 0.0)
    )


def learner_utility(config: GameConfig, profile: StrategyProfile) -> float:
    """Utility of the learner: baseline minus accuracy penalty, minus the
    average privacy loss over users, summed in user order by plain addition
    (sum() compensates from Python 3.12 on), minus the flat cost."""
    _check_profile(config, profile)
    n, lp = config.n_users, config.learner
    sigma_L = float(profile.sigma_L)
    privacy = 0.0
    for u, s in zip(config.users, profile.sigma_S):
        privacy += _privacy_loss(u.max_privacy_loss, u.privacy_rate, sigma_L, s)
    return (
        lp.baseline_gain
        - lp.accuracy_weight / (n * lp.regularizer**2) * _spread(sigma_L, profile.sigma_S, n)
        - privacy / n
        - (lp.perturbation_cost if sigma_L > 0 else 0.0)
    )
