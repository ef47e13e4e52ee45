"""Best responses, dissuasion thresholds and the Stackelberg equilibrium.

Each user's problem reduces to a one-dimensional trade-off in the effective
noise s = sqrt(sigma_L^2 + sigma_S^2): the stationarity condition of the
user utility is

    s * (1 + rho * s)^2 = P_bar * rho * N^2 * Lambda^2 / (2 * gamma),

a strictly increasing cubic with a unique root s_star.  The best response
is bang-bang: either sigma_S = sqrt(s_star^2 - sigma_L^2) (paying the flat
cost) or exactly 0, whichever gives higher utility.  s_star depends on the
user alone, so a solve or sweep finds it once per user, and the gain of
perturbing is taken in closed form (other users' terms cancel); the public
per-user queries are wrappers that solve s_star themselves.

The leader's induced objective jumps where a user stops perturbing (a
dissuasion threshold) and at sigma_L = 0 (the leader's flat cost).
Between two consecutive thresholds the set S of users who perturb is
fixed, each of them tops up to its own s_star, and the objective is

    const - gamma_L / (N Lambda^2) * (1 - |S| / N) * sigma_L^2
          - (1 / N) * sum_{i not in S} P_bar_i / (1 + rho_i * sigma_L),

a sum of concave terms whose slope

    (1 / N) * sum_{i not in S} (P_bar_i / t_i) * (rho_i / t_i)
          - 2 * gamma_L / (N Lambda^2) * (1 - |S| / N) * sigma_L,

with t_i = 1 + rho_i * sigma_L, never increases and is constant only on a
flat piece.  So the maximum over [0, sigma_max] lies at 0, at sigma_max,
at one side of a threshold, or at the root of one piece's slope, which
bisection finds to root_tol.  Each threshold is bisected to float
resolution, so the floats beside it are the objective's exact one-sided
limits there.  Those are the only candidates the solve evaluates.  This
is the one-dimensional form of enumerating the follower's best-response
regions in optimal commitment (Conitzer & Sandholm, EC 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import GridTooLargeError, NoFiniteOptimumError, SolverError
from .game import (
    GameConfig,
    LearnerParams,
    StrategyProfile,
    UserParams,
    _learner_utility,
    _spread,
    _user_utility,
    learner_utility,
    user_utility,
)

# cap on utility evaluations for the brute-force oracle
_BRUTE_FORCE_BUDGET = 2_000_000_000
# cap on sweep grid points; the default sweep has 1,001
_SWEEP_MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium strategies with the utilities they induce."""

    sigma_L_star: float
    sigma_S_star: tuple[float, ...]
    learner_utility: float
    user_utilities: tuple[float, ...]
    per_user_thresholds: tuple[Optional[float], ...]


def _bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a continuous f with f(lo) and f(hi) of opposite sign (f(lo) >= 0
    >= f(hi) or the reverse), located to absolute tolerance tol, or to float
    resolution where that is coarser than tol."""
    flo = f(lo)
    sign = 1.0 if flo >= 0 else -1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between lo and hi
            break
        if sign * f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _stationarity_rhs(user: UserParams, learner: LearnerParams) -> float:
    n = learner.population_size
    return (
        user.max_privacy_loss
        * user.privacy_rate
        * n**2
        * learner.regularizer**2
        / (2.0 * user.accuracy_weight)
    )


def effective_noise_target(
    user: UserParams, learner: LearnerParams, root_tol: float = 1e-9
) -> float:
    """The unique s_star solving s * (1 + rho s)^2 = P_bar rho N^2 Lambda^2 / (2 gamma),
    to absolute tolerance root_tol, or to float resolution when s_star <= root_tol.

    Returns 0.0 when the user has no privacy stake; SolverError when
    s_star has no finite square.
    """
    if user.max_privacy_loss == 0:
        return 0.0
    if user.accuracy_weight == 0:
        raise NoFiniteOptimumError(
            "gamma = 0 with P_bar > 0: privacy gain never saturates"
        )
    rhs = _stationarity_rhs(user, learner)
    rho = user.privacy_rate

    def g(s: float) -> float:
        t = 1.0 + rho * s
        return s * (t * t) - rhs  # t ** 2 raises OverflowError where t * t is inf

    if g(root_tol) < 0:
        hi = 1.0
        while g(hi) < 0:
            hi *= 2.0
        s_star = _bisect_root(g, 0.0, hi, root_tol)
    elif rhs > 0:
        # s_star <= root_tol: bisect to float resolution, not to root_tol, with
        # (s * t) * t, which stays finite where t * t overflows near the root
        s_star = _bisect_root(
            lambda s: s * (1.0 + rho * s) * (1.0 + rho * s) - rhs, 0.0, root_tol, 0.0
        )
    else:  # rhs underflowed: s_star <= rhs is below the smallest float
        s_star = 0.0
    if not math.isfinite(s_star * s_star):
        raise SolverError(f"effective noise target {s_star} has no finite square")
    return s_star


def _check_sigma_L(sigma_L: float) -> None:
    if sigma_L < 0 or not math.isfinite(sigma_L):
        raise ValueError(f"sigma_L must be finite and >= 0, got {sigma_L}")


def _s_stars(config: GameConfig) -> list[float]:
    """Every user's s_star.  The kernel below takes these from its caller and
    trusts sigma_L to be finite and >= 0."""
    return [
        effective_noise_target(u, config.learner, config.solver.root_tol)
        for u in config.users
    ]


def _perturbation(
    sigma_L: float, user: UserParams, s_star: float, config: GameConfig
) -> tuple[float, float]:
    """(cand, gain): the interior candidate and its utility advantage over
    not perturbing, in closed form (every other user's term cancels);
    (0.0, -cost) when sigma_L >= s_star."""
    if s_star <= sigma_L:
        return 0.0, -user.perturbation_cost
    cand = math.sqrt(s_star**2 - sigma_L**2)
    n = config.n_users
    p, rho = user.max_privacy_loss, user.privacy_rate
    gain = (
        -user.accuracy_weight / (n**2 * config.learner.regularizer**2) * cand**2
        - p / (1.0 + rho * s_star)  # hypot(sigma_L, cand) is s_star
        + p / (1.0 + rho * sigma_L)
        - user.perturbation_cost
    )
    return cand, gain


def _response(sigma_L: float, user: UserParams, s_star: float, config: GameConfig) -> float:
    cand, gain = _perturbation(sigma_L, user, s_star, config)
    return cand if gain > config.solver.tie_epsilon else 0.0


def _responses(sigma_L: float, config: GameConfig, s_stars: list[float]) -> list[float]:
    return [_response(sigma_L, u, s, config) for u, s in zip(config.users, s_stars)]


def _threshold(user: UserParams, s_star: float, config: GameConfig) -> Optional[float]:
    settings = config.solver

    def margin(sigma_L: float) -> float:
        return _perturbation(sigma_L, user, s_star, config)[1] - settings.tie_epsilon

    if margin(0.0) <= 0:
        return 0.0
    hi = min(s_star, settings.sigma_max)
    if margin(hi) > 0:
        return None
    # margin is strictly decreasing on [0, s_star], so the sign change is
    # unique; it is bisected to float resolution, so that the solve can
    # evaluate the objective on both sides of the jump
    return _bisect_root(margin, 0.0, hi, 0.0)


def user_best_response(sigma_L: float, i: int, config: GameConfig) -> float:
    """Utility-maximizing sigma_S for user i; ties go to 0 (not perturbing)."""
    _check_sigma_L(sigma_L)
    user = config.users[i]
    s_star = effective_noise_target(user, config.learner, config.solver.root_tol)
    return _response(sigma_L, user, s_star, config)


def dissuasion_threshold(i: int, config: GameConfig) -> Optional[float]:
    """Smallest sigma_L at which user i's best response becomes (and stays) 0.

    Returns 0.0 when the user never perturbs, and None when the best
    response is still positive at sigma_max (no dissuasion within the
    search bound).
    """
    user = config.users[i]
    s_star = effective_noise_target(user, config.learner, config.solver.root_tol)
    return _threshold(user, s_star, config)


def best_response_profile(sigma_L: float, config: GameConfig) -> StrategyProfile:
    _check_sigma_L(sigma_L)
    return StrategyProfile(sigma_L, _responses(sigma_L, config, _s_stars(config)))


def leader_objective(sigma_L: float, config: GameConfig) -> float:
    """Learner utility when every user plays their best response."""
    return learner_utility(config, best_response_profile(sigma_L, config))


def _grid(lo: float, hi: float, step: float, max_points: int) -> list[float]:
    """lo + k * step for k = 0, 1, ... up to hi, then hi.  Before any point is
    built: GridTooLargeError for more than max_points points, then
    ValueError for a step below the float spacing at hi."""
    n = math.floor(min((hi - lo) / step + 1e-9, max_points))  # the quotient may be inf
    pad = lo + n * step < hi - 1e-12
    if n + 1 + pad > max_points:
        raise GridTooLargeError(f"grid over [{lo}, {hi}] by {step} exceeds {max_points} points")
    if step < math.ulp(hi):
        raise ValueError(f"grid step {step} is below the float spacing at {hi}")
    return [lo + k * step for k in range(n + 1)] + [hi] * pad


def _piece_slope(sigma_L: float, config: GameConfig, outside: list[UserParams]) -> float:
    """Slope of the leader objective at sigma_L on a piece where the users in
    outside do not perturb and every other user tops up to its s_star."""
    n = config.n_users
    lp = config.learner
    privacy = 0.0
    for u in outside:
        t = 1.0 + u.privacy_rate * sigma_L
        privacy += (u.max_privacy_loss / t) * (u.privacy_rate / t)  # t * t may overflow
    accuracy = 2.0 * lp.accuracy_weight / (n * lp.regularizer**2) * (len(outside) / n) * sigma_L
    return privacy / n - accuracy


def _result(
    config: GameConfig, profile: StrategyProfile, thresholds: Iterable[Optional[float]]
) -> EquilibriumResult:
    """The equilibrium at profile, with the utilities it induces."""
    return EquilibriumResult(
        sigma_L_star=profile.sigma_L,
        sigma_S_star=profile.sigma_S,
        learner_utility=learner_utility(config, profile),
        user_utilities=tuple(user_utility(config, i, profile) for i in range(config.n_users)),
        per_user_thresholds=tuple(thresholds),
    )


def stackelberg_solve(config: GameConfig) -> EquilibriumResult:
    """Leader-optimal sigma_L over 0, sigma_max, each threshold t and the
    floats beside it, and the slope root of each concave piece between
    thresholds; the module docstring shows that no other sigma_L does better.

    Utility ties within tie_epsilon resolve to the smaller sigma_L.
    """
    settings = config.solver
    s_stars = _s_stars(config)
    thresholds = [_threshold(u, t, config) for u, t in zip(config.users, s_stars)]

    candidates: set[float] = {0.0, settings.sigma_max}
    breakpoints = sorted(
        {t for t in thresholds if t is not None and 0.0 < t < settings.sigma_max}
    )
    for t in breakpoints:
        # the objective's one-sided limits at t
        candidates.update((math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)))

    # the maximum of each concave piece: its endpoints, or its slope's root
    edges = [0.0] + breakpoints + [settings.sigma_max]
    for lo, hi in zip(edges, edges[1:]):
        responses = _responses(0.5 * (lo + hi), config, s_stars)
        outside = [u for u, r in zip(config.users, responses) if r == 0]
        slope = partial(_piece_slope, config=config, outside=outside)
        if slope(lo) > 0 > slope(hi):
            candidates.add(_bisect_root(slope, lo, hi, settings.root_tol))

    evaluated = []
    for s in sorted(candidates):
        u = _learner_utility(config, s, _responses(s, config, s_stars))
        if not math.isfinite(u):
            raise SolverError(f"non-finite leader utility {u} at sigma_L={s}")
        evaluated.append((s, u))
    best_u = max(u for _, u in evaluated)
    # smallest sigma_L among near-ties
    sigma_L_star = min(s for s, u in evaluated if u >= best_u - settings.tie_epsilon)

    profile = StrategyProfile(sigma_L_star, _responses(sigma_L_star, config, s_stars))
    return _result(config, profile, thresholds)


def _shared_rows(
    sigma_L: float, squares: np.ndarray, squares_n: np.ndarray, eff: np.ndarray, spread: np.ndarray
) -> None:
    """Fill the rows every user shares at sigma_L: eff = sqrt(sigma_L^2 + g^2)
    and spread = sigma_L^2 + g^2 / N, from the column's cached squares."""
    sigma_L2 = sigma_L**2
    np.sqrt(np.add(squares, sigma_L2, out=eff), out=eff)
    np.add(squares_n, sigma_L2, out=spread)


def _own_noise_rows(
    config: GameConfig, column: np.ndarray, sigma_Ls: Iterable[float]
) -> Iterator[np.ndarray]:
    """For each sigma_L in sigma_Ls and each user i in order, user i's utility
    at every own noise level g in column with every other user at 0.

    user_utility's arithmetic in the same order, except that the effective
    noise is sqrt(sigma_L^2 + g^2), which can differ from math.hypot in the
    last bit.  Terms of the column alone are computed once, the effective
    noise and spread once per sigma_L.  Every row is the same buffer,
    overwritten by the next one.
    """
    n = config.n_users
    lam = config.learner.regularizer
    squares = column * column
    squares_n = squares / n
    coefs = [u.accuracy_weight / (n * lam**2) for u in config.users]
    costs = [u.perturbation_cost * (column > 0) for u in config.users]
    eff, spread, out, privacy = (np.empty_like(column) for _ in range(4))
    for sigma_L in sigma_Ls:
        _shared_rows(sigma_L, squares, squares_n, eff, spread)
        for u, coef, cost in zip(config.users, coefs, costs):
            np.subtract(u.baseline_gain, np.multiply(coef, spread, out=out), out=out)
            np.add(1.0, np.multiply(u.privacy_rate, eff, out=privacy), out=privacy)
            np.divide(u.max_privacy_loss, privacy, out=privacy)
            np.subtract(np.subtract(out, privacy, out=out), cost, out=out)
            yield out


def sweep(
    config: GameConfig, lo: float, hi: float, step: float
) -> tuple[list[list[float]], list[list[float]], list[list[float]]]:
    """Rows of the three sweep tables over the grid lo + k * step, then hi:
    own noise [sigma_L, sigma_S, U_S_0, ...] (every other user at 0, at five
    sampled sigma_L), responses [sigma_L, br_0, ...] and leader [sigma_L,
    br_0, ..., U_L, U_S_0, ...].  ValueError for a non-finite lo, step or
    2 * hi^2, a range outside 0 <= lo <= hi with step > 0, or a step below
    the float spacing at hi; before that check and before any point is
    built, GridTooLargeError for more than _SWEEP_MAX_POINTS points."""
    if not all(map(math.isfinite, (lo, hi * hi + hi * hi, step))):
        raise ValueError(f"sweep bounds, step and 2 * hi^2 must be finite, got [{lo}, {hi}] by {step}")
    if not (0 <= lo <= hi and step > 0):
        raise ValueError(f"invalid sweep range [{lo}, {hi}] with step {step}")
    grid = _grid(lo, hi, step, _SWEEP_MAX_POINTS)
    n = config.n_users

    count = min(5, len(grid))
    samples = [grid[int(k * (len(grid) - 1) / max(count - 1, 1))] for k in range(count)]
    utilities = [row.tolist() for row in _own_noise_rows(config, np.asarray(grid), samples)]
    own = []
    for k, sigma_L in enumerate(samples):
        own += [[sigma_L, *row] for row in zip(grid, *utilities[k * n : (k + 1) * n])]

    s_stars = _s_stars(config)
    responses, leader = [], []
    for sigma_L in grid:
        brs = _responses(sigma_L, config, s_stars)
        spread = _spread(sigma_L, brs, n)
        responses.append([sigma_L, *brs])
        leader.append(
            [sigma_L, *brs, _learner_utility(config, sigma_L, brs)]
            + [_user_utility(config, i, sigma_L, brs[i], spread) for i in range(n)]
        )
    return own, responses, leader


def _best_response_table(config: GameConfig, grid: list[float]) -> np.ndarray:
    """(m, N) table of each user's best own noise level on grid at each
    sigma_L of grid, every other user at 0; ties go to the smaller one."""
    m, n = len(grid), config.n_users
    column = np.asarray(grid)
    rows = _own_noise_rows(config, column, grid)
    picks = np.fromiter((row.argmax() for row in rows), dtype=np.intp, count=m * n)
    return column[picks].reshape(m, n)


def brute_force_equilibrium(config: GameConfig, fine_step: float) -> EquilibriumResult:
    """Exhaustive two-level grid search used as a test oracle.

    For every sigma_L grid point each user's best response is found by a
    dense 1-D grid over [0, sigma_max]; the learner then picks the grid
    point with the highest utility (ties to the smaller sigma_L).  A
    user's threshold is read off the same table: 0.0 if the user never
    perturbs, None if they still perturb at sigma_max, and otherwise the
    grid point after the last sigma_L at which they perturb.
    """
    if not (math.isfinite(fine_step) and fine_step > 0):
        raise ValueError(f"fine_step must be finite and > 0, got {fine_step}")
    settings = config.solver
    n = config.n_users
    max_points = math.isqrt(_BRUTE_FORCE_BUDGET // n)  # m points cost m * m * n evaluations
    grid = _grid(0.0, settings.sigma_max, fine_step, max_points)
    m = len(grid)

    br = _best_response_table(config, grid)
    leader = np.array([_learner_utility(config, s, row.tolist()) for s, row in zip(grid, br)])
    best = leader.max()
    j_star = int(np.argmax(leader >= best - settings.tie_epsilon))
    profile = StrategyProfile(grid[j_star], tuple(br[j_star]))

    def table_threshold(column: np.ndarray) -> Optional[float]:
        perturbing = np.flatnonzero(column > 0)
        if perturbing.size == 0:
            return 0.0
        last = int(perturbing[-1])
        return None if last == m - 1 else grid[last + 1]

    return _result(config, profile, (table_threshold(br[:, i]) for i in range(n)))
