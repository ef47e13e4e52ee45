"""Best responses, dissuasion thresholds and the Stackelberg equilibrium.

Each user's problem reduces to a one-dimensional trade-off in the effective
noise s = sqrt(sigma_L^2 + sigma_S^2): the stationarity condition of the
user utility is

    s * (1 + rho * s)^2 = P_bar * rho * N^2 * Lambda^2 / (2 * gamma),

a strictly increasing cubic with a unique root s_star.  The best response
is bang-bang: either sigma_S = sqrt(s_star^2 - sigma_L^2) (paying the flat
cost) or exactly 0, whichever gives higher utility.  The gain of topping up
over not perturbing is taken in closed form (other users' terms cancel)
and falls strictly in sigma_L, so the user perturbs exactly below its
dissuasion threshold t, the root of that gain less tie_epsilon, bisected
to float resolution.  The pair (s_star, t) is the user's whole best
response: sqrt(s_star^2 - sigma_L^2) if sigma_L < t, else 0.  It depends
on the user alone, so a solve or sweep finds it once per user; the public
per-user queries are wrappers that find it themselves.

The leader's induced objective jumps where a user stops perturbing (a
dissuasion threshold) and at sigma_L = 0 (the leader's flat cost).
Between two consecutive thresholds the set S of users who perturb is
fixed, each of them tops up to its own s_star, and the objective is

    const - gamma_L / (N Lambda^2) * (1 - |S| / N) * sigma_L^2
          - (1 / N) * sum_{i not in S} P_bar_i / (1 + rho_i * sigma_L),

a sum of concave terms whose slope

    (1 / N) * sum_{i not in S} (P_bar_i / q_i) * (rho_i / q_i)
          - 2 * gamma_L / (N Lambda^2) * (1 - |S| / N) * sigma_L,

with q_i = 1 + rho_i * sigma_L, never increases and is constant only on a
flat piece.  So the maximum over [0, sigma_max] lies at 0, at sigma_max,
at one side of a threshold, or at the root of one piece's slope, which
bisection finds to root_tol.  The float below a threshold and the
threshold itself are the objective's exact one-sided limits there, so
each threshold adds those two candidates, and they are the only
candidates the solve evaluates.  This is the one-dimensional form of
enumerating the follower's best-response regions in optimal commitment
(Conitzer & Sandholm, EC 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import GridTooLargeError, NoFiniteOptimumError, SolverError
from .game import (
    GameConfig,
    LearnerParams,
    StrategyProfile,
    UserParams,
    _check_user,
    _learner_utility,
    learner_utility,
    user_utility,
)

# cap on utility evaluations for the brute-force oracle
_BRUTE_FORCE_BUDGET = 2_000_000_000
# cap on a sweep's grid points, _SWEEP_MAX_CELLS // (8N + 13): 10^6 points
# at N = 1; the default sweep has 1,001.  A point holds 7N + 2 floats in
# sweep's columns, and 3N + 2 strings while the CLI writes them
_SWEEP_MAX_CELLS = 21_000_000


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


def _cut(user: UserParams, s_star: float, config: GameConfig) -> float:
    """The sigma_L from which the user plays 0: the root, to float resolution,
    of its gain from topping up to s_star over not perturbing (in closed form;
    every other user's term cancels) less tie_epsilon, or 0.0 when that margin
    is <= 0 at sigma_L = 0.  The margin falls strictly on [0, s_star] to
    -cost - tie_epsilon <= 0 at s_star, so the bracket always holds."""
    coef = user.accuracy_weight / (config.n_users**2 * config.learner.regularizer**2)
    p, rho = user.max_privacy_loss, user.privacy_rate
    floor = p / (1.0 + rho * s_star) + user.perturbation_cost + config.solver.tie_epsilon

    def margin(sigma_L: float) -> float:
        return p / (1.0 + rho * sigma_L) - coef * (s_star * s_star - sigma_L * sigma_L) - floor

    return 0.0 if margin(0.0) <= 0 else _bisect_root(margin, 0.0, s_star, 0.0)


def _cuts(config: GameConfig, s_stars: list[float]) -> list[float]:
    return [_cut(u, s, config) for u, s in zip(config.users, s_stars)]


def _responses(sigma_L: float, s_stars: list[float], cuts: list[float]) -> list[float]:
    """Each user's best response: it tops up to its s_star below its cut, and
    plays 0 from the cut on."""
    return [math.sqrt(s * s - sigma_L * sigma_L) if sigma_L < t else 0.0 for s, t in zip(s_stars, cuts)]


def user_best_response(sigma_L: float, i: int, config: GameConfig) -> float:
    """Utility-maximizing sigma_S for user i; ties go to 0 (not perturbing)."""
    _check_sigma_L(sigma_L)
    _check_user(config, i)
    user = config.users[i]
    s_star = effective_noise_target(user, config.learner, config.solver.root_tol)
    return _responses(sigma_L, [s_star], [_cut(user, s_star, config)])[0]


def dissuasion_threshold(i: int, config: GameConfig) -> Optional[float]:
    """Smallest sigma_L at which user i's best response becomes (and stays) 0:
    below it the user tops up to its s_star, from it on the user plays 0.

    Returns 0.0 when the user never perturbs, and None when the threshold
    lies beyond sigma_max (no dissuasion within the search bound).
    """
    _check_user(config, i)
    user = config.users[i]
    s_star = effective_noise_target(user, config.learner, config.solver.root_tol)
    t = _cut(user, s_star, config)
    return None if t > config.solver.sigma_max else t


def best_response_profile(sigma_L: float, config: GameConfig) -> StrategyProfile:
    _check_sigma_L(sigma_L)
    s_stars = _s_stars(config)
    return StrategyProfile(sigma_L, _responses(sigma_L, s_stars, _cuts(config, s_stars)))


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
        q = 1.0 + u.privacy_rate * sigma_L
        privacy += (u.max_privacy_loss / q) * (u.privacy_rate / q)  # q * q may overflow
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
    float below it, and the slope root of each concave piece between
    thresholds; the module docstring shows that no other sigma_L does better.

    Utility ties within tie_epsilon resolve to the smaller sigma_L.
    """
    settings = config.solver
    s_stars = _s_stars(config)
    cuts = _cuts(config, s_stars)

    candidates: set[float] = {0.0, settings.sigma_max}
    breakpoints = sorted({t for t in cuts if 0.0 < t < settings.sigma_max})
    for t in breakpoints:
        # the objective's one-sided limits at t
        candidates.update((math.nextafter(t, 0.0), t))

    # the maximum of each concave piece: its endpoints, or its slope's root
    edges = [0.0] + breakpoints + [settings.sigma_max]
    for lo, hi in zip(edges, edges[1:]):
        outside = [u for u, t in zip(config.users, cuts) if t <= lo]
        slope = partial(_piece_slope, config=config, outside=outside)
        if slope(lo) > 0 > slope(hi):
            candidates.add(_bisect_root(slope, lo, hi, settings.root_tol))

    evaluated = []
    for s in sorted(candidates):
        u = _learner_utility(config, s, _responses(s, s_stars, cuts))
        if not math.isfinite(u):
            raise SolverError(f"non-finite leader utility {u} at sigma_L={s}")
        evaluated.append((s, u))
    best_u = max(u for _, u in evaluated)
    # smallest sigma_L among near-ties
    sigma_L_star = min(s for s, u in evaluated if u >= best_u - settings.tie_epsilon)

    profile = StrategyProfile(sigma_L_star, _responses(sigma_L_star, s_stars, cuts))
    return _result(config, profile, (None if t > settings.sigma_max else t for t in cuts))


def _own_noise_rows(
    config: GameConfig, column: np.ndarray, sigma_Ls: Iterable[float]
) -> Iterator[np.ndarray]:
    """For each sigma_L in sigma_Ls and each user i in order, user i's utility
    at every own noise level g in column with every other user at 0:
    user_utility's arithmetic in the same order, so equal to it bit for bit.
    Terms of the column alone are computed once, the effective noise
    sqrt(sigma_L^2 + g^2) and the spread sigma_L^2 + g^2 / N once per
    sigma_L.  Every row is the same buffer, overwritten by the next one.
    """
    n = config.n_users
    lam = config.learner.regularizer
    squares = column * column
    squares_n = squares / n
    coefs = [u.accuracy_weight / (n * lam**2) for u in config.users]
    costs = [u.perturbation_cost * (column > 0) for u in config.users]
    eff, spread, out, privacy = (np.empty_like(column) for _ in range(4))
    for sigma_L in sigma_Ls:
        np.sqrt(np.add(sigma_L * sigma_L, squares, out=eff), out=eff)
        np.add(sigma_L * sigma_L, squares_n, out=spread)
        for u, coef, cost in zip(config.users, coefs, costs):
            np.subtract(u.baseline_gain, np.multiply(coef, spread, out=out), out=out)
            np.add(1.0, np.multiply(u.privacy_rate, eff, out=privacy), out=privacy)
            np.divide(u.max_privacy_loss, privacy, out=privacy)
            np.subtract(np.subtract(out, privacy, out=out), cost, out=out)
            yield out


def _utility_panel(
    config: GameConfig, sigma_L: np.ndarray, responses: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The learner's and each user's utility at every sigma_L, user i playing
    responses[i][k] at sigma_L[k]: _learner_utility's and _user_utility's
    arithmetic in the same order, so equal to them bit for bit."""
    n, lp = config.n_users, config.learner
    squares = spread = sigma_L * sigma_L
    total, privacy = 0.0, []
    for u, r in zip(config.users, responses):  # in user order, as the scalar kernel adds
        spread = spread + r * r / n
        privacy.append(u.max_privacy_loss / (1.0 + u.privacy_rate * np.sqrt(squares + r * r)))
        total = total + privacy[-1]
    scale = n * lp.regularizer**2
    leader = lp.baseline_gain - lp.accuracy_weight / scale * spread - total / n
    users = [
        u.baseline_gain - u.accuracy_weight / scale * spread - p - u.perturbation_cost * (r > 0)
        for u, p, r in zip(config.users, privacy, responses)
    ]
    return leader - lp.perturbation_cost * (sigma_L > 0), users


def sweep(config: GameConfig, lo: float, hi: float, step: float) -> tuple[np.ndarray, ...]:
    """Columns of the three sweep tables over the grid lo + k * step, then hi:
    the grid (M points); up to five sigma_L sampled from it; own, shape
    (samples, N, M): each user's utility at every own noise level on the
    grid, every other user at 0, at each sample; responses, shape (N, M):
    each user's best response at every grid point; and the learner's
    utility (M,) and each user's (N, M) when every user plays it.
    ValueError for a non-finite lo, step or 2 * hi^2, a range outside
    0 <= lo <= hi with step > 0, or a step below the float spacing at hi;
    before that check and before any point is built, GridTooLargeError for
    more than _SWEEP_MAX_CELLS // (8N + 13) points."""
    if not all(map(math.isfinite, (lo, hi * hi + hi * hi, step))):
        raise ValueError(f"sweep bounds, step and 2 * hi^2 must be finite, got [{lo}, {hi}] by {step}")
    if not (0 <= lo <= hi and step > 0):
        raise ValueError(f"invalid sweep range [{lo}, {hi}] with step {step}")
    n = config.n_users
    grid = np.array(_grid(lo, hi, step, _SWEEP_MAX_CELLS // (8 * n + 13)))
    m = len(grid)
    count = min(5, m)
    samples = grid[[int(k * (m - 1) / max(count - 1, 1)) for k in range(count)]]
    rows = _own_noise_rows(config, grid, samples.tolist())
    own = np.fromiter(rows, dtype=(float, m), count=count * n)  # copies each reused row

    s_stars = _s_stars(config)
    responses = np.zeros((n, m))
    for row, s, t in zip(responses, s_stars, _cuts(config, s_stars)):
        np.sqrt(s * s - grid * grid, out=row, where=grid < t)  # below the cut s >= sigma_L
    leader, users = _utility_panel(config, grid, responses)
    return grid, samples, own.reshape(count, n, m), responses, leader, np.array(users)


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
    leader = _utility_panel(config, np.array(grid), br.T)[0]
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
