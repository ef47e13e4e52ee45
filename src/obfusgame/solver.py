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
response: sqrt(s_star^2 - sigma_L^2) if sigma_L < t, else 0: _response in
plain floats, panel._best_responses over numpy arrays, the same floats.  It
depends on the user alone, so a solve or sweep finds it once per user, and
each public per-user query finds it with _pair.  The solve scores sigma_L
values with _leader, the sweep and the oracle with panel._utility_panel;
both equal game.learner_utility and user_utility bit for bit.

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

The solve scores only the pieces that can hold the winner.  On a piece
[lo, hi) with k users outside and S the rest, with A = gamma_L / (N
Lambda^2) and the floats s_star, the objective in reals is

    G_L - A * (x^2 * k / N + sum_S s_star^2 / N)
        - (sum_S P_bar / (1 + rho s_star) + sum_out P_bar / (1 + rho x)) / N - N_bar_L

at x > 0, its spread term rising in x and each outside term falling.  So
on the piece it is at most its bound: the spread at lo and the outside
losses at any R >= hi, at sigma_max by O(1) sums over the users ranked by
cut (S is a suffix), or at hi, O(k), where that bound leaves the piece
live.  A candidate's float utility is within (N + 12) u M of those reals
and the bound's float within (N + 9) u M (gamma_k bounds over their sums
of at most N + 1 terms and a few correctly rounded steps a term, Higham
ch. 3; u = 2^-53, M = |G_L| + A (sigma_max^2 + sum_{cut > 0} s_star^2 /
N) + sum P_bar / N + N_bar_L), plus at most 2^-1075 for each product that
underflows, times A in the spread.  The margin, 2^-50 (N + 16) (M + (1 +
A) 2^-1022), is over four times all of that, which covers M's own
rounding.  0 and sigma_max are scored first.  Every other candidate of a
piece lies in [lo, hi), or is hi, which is the next piece's lo or
sigma_max.  A piece with fl(bound + margin) below fl(best - tie_epsilon),
best the highest utility scored so far, holds only candidates below that
float, as rounding is monotone: none is the maximum (best is at most it),
nor within tie_epsilon of it, tie_epsilon = 0 included, since fl(best -
tie_epsilon) is at most fl(max - tie_epsilon).  So the scored candidates
hold the maximum and every candidate that ties with it, and the first of
them is the winner of a scan of every candidate.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Callable, Iterable

from .errors import GridTooLargeError, SolverError
from .game import (
    GameConfig,
    LearnerParams,
    SolverSettings,
    StrategyProfile,
    UserParams,
    _Record,
    _check_user,
    _privacy_loss,
    _require_finite,
    _spread,
    learner_utility,
)

# cap on the brute-force oracle's user utilities in the worst case, no
# block of any row pruned; most games evaluate a small share of them
_BRUTE_FORCE_BUDGET = 2_000_000_000
# the smallest normal float: a product at or above it (and finite) lost no bits to range
_NORMAL = sys.float_info.min
# below it (1 + rho * s)^2 is finite for s <= 1, and where it overflows at
# s > 1 the cubic's float value, inf, has the right sign
_FLOAT_RHO = 1e154


class EquilibriumResult(_Record):
    """Equilibrium strategies with the utilities they induce."""

    def __init__(self, sigma_L_star: float, sigma_S_star: tuple[float, ...], learner_utility: float,
                 user_utilities: tuple[float, ...], per_user_thresholds: tuple[float | None, ...]):
        self._store(locals())


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


def effective_noise_target(
    user: UserParams, learner: LearnerParams, root_tol: float = SolverSettings.root_tol
) -> float:
    """The unique s_star solving s * (1 + rho s)^2 = P_bar rho N^2 Lambda^2 / (2 gamma),
    to absolute tolerance root_tol, or to float resolution when s_star <= root_tol.

    ValueError for a root_tol that is not finite and > 0.  Returns 0.0 when
    the user has no privacy stake; SolverError when s_star has no finite
    square.  The cubic is solved in floats where _cubic's g runs in floats,
    and compared exactly (_exact_excess) elsewhere.

    In floats _dyadic_cell reads _bisect_root(g, 0, hi, root_tol), hi the first
    power of two >= 1 with g(hi) >= 0, off its last cell.  For s >= 0 every
    operand of g(s) = s * (t * t) - rhs, t = 1 + rho * s, is >= 0 and each step
    is correctly rounded, so g is non-decreasing.  The bisection, exact on
    cells wider than hi / 2^52, keeps the one cell whose left end has g <= 0
    and whose right end has g > 0 or is hi: it returns (j + 1/2) w, w = hi /
    2^m the first halving <= root_tol and j the one index below 2^m with g(j w)
    <= 0 < g((j + 1) w) or j + 1 = 2^m.  hi is the one power of two with g(hi)
    >= 0 > g(hi / 2) or hi = 1, so g(root_tol) < 0 where root_tol <= hi / 2.
    _cubic's Newton iterate guesses hi and j, and 2-4 calls of g check them.
    The bisection runs itself where a check fails (s_star <= root_tol among
    them), where m > 50, and on the exact branch.
    """
    _require_finite("root_tol", root_tol, ">")
    if user.max_privacy_loss == 0:
        return 0.0
    g, s = _cubic(user, learner)
    s_star = None if s is None else _dyadic_cell(g, s, root_tol)
    if s_star is None and g(root_tol) < 0:
        s_star = _bisect_root(g, 0.0, _bracket(g), root_tol)
    elif s_star is None:  # s_star <= root_tol: bisect to float resolution, not to root_tol
        s_star = _bisect_root(g, 0.0, root_tol, 0.0)
    if not math.isfinite(s_star * s_star):
        raise SolverError(f"effective noise target {s_star} has no finite square")
    return s_star


def _cubic(user: UserParams, learner: LearnerParams) -> tuple[Callable[[float], float], float | None]:
    """(g, s): g(s) has the sign of s (1 + rho s)^2 - rhs, rhs = P_bar rho N^2
    Lambda^2 / (2 gamma), and does not fall in s >= 0.  Where rhs's partial
    products are normal floats and rho < 1e154, g runs in floats and s is
    Newton's iterate from min(rhs, cbrt(rhs / rho^2)), each at least the root
    in reals; g is convex, so Newton stays above the root, up to rounding.
    Elsewhere, where a float partial would overflow or underflow or (1 + rho
    s)^2 could overflow near the root, g is _exact_excess and s is None."""
    rho, n, lam, gamma = user.privacy_rate, learner.population_size, learner.regularizer, user.accuracy_weight
    head, lam_sq = user.max_privacy_loss * rho, lam**2
    num = head * n**2 * lam_sq
    rhs = num / (2.0 * gamma)
    if not (rho < _FLOAT_RHO and _NORMAL <= min(head, lam_sq, num) and _NORMAL <= rhs < math.inf):
        return _exact_excess(user.max_privacy_loss, rho, n, lam, gamma), None

    def g(s: float) -> float:
        t = 1.0 + rho * s
        return s * (t * t) - rhs  # t ** 2 raises OverflowError where t * t is inf

    s = min(rhs, rhs ** (1.0 / 3.0) / rho ** (2.0 / 3.0))  # rhs / rho^2 may leave the float range
    for _ in range(64):
        t = 1.0 + rho * s
        if not (step := s - (s * (t * t) - rhs) / (t * (t + 2.0 * rho * s))) < s:
            break
        s = step
    return g, s


def _bracket(g: Callable[[float], float]) -> float:
    """The first power of two >= 1 at which g >= 0."""
    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return hi


def _dyadic_cell(g: Callable[[float], float], s: float, tol: float) -> float | None:
    """effective_noise_target's float bisection from the guess s, or None where a check fails."""
    k = max(0, math.frexp(math.nextafter(s, 0.0))[1])  # hi = 2^k, the first power of two >= max(s, 1)
    m = max(0, k - math.frexp(tol)[1] + 1)  # hi / 2^m <= tol < hi / 2^(m - 1)
    if m > 50 or k > 1023:
        return None
    hi, w = math.ldexp(1.0, k), math.ldexp(1.0, k - m)
    lo = min(s // w, 2.0**m - 1) * w
    up = lo + w
    checks = g(hi) >= 0 and (k == 0 or g(0.5 * hi) < 0) and (k > 0 and tol <= 0.5 * hi or g(tol) < 0)
    return 0.5 * (lo + up) if checks and g(lo) <= 0 and (up == hi or g(up) > 0) else None


def _exact_excess(p: float, rho: float, n: int, lam: float, gamma: float) -> Callable[[float], int]:
    """The sign of s (1 + rho s)^2 - p rho n^2 lam^2 / (2 gamma) as a function
    of s, in integers from the floats' exact ratios, so it holds wherever s
    and every parameter are floats, however far the terms leave their range."""
    (pn, pd), (rn, rd), (ln, ld), (gn, gd) = (x.as_integer_ratio() for x in (p, rho, lam, gamma))
    rhs_num, rhs_den = pn * rn * n * n * ln * ln * gd, pd * rd * ld * ld * 2 * gn

    def excess(s: float) -> int:
        if s == math.inf:
            return 1
        a, b = s.as_integer_ratio()  # s = a / b, 1 + rho s = q / (b rd)
        q = b * rd + rn * a
        lhs, rhs = a * q * q * rhs_den, rhs_num * b * (b * rd) ** 2
        return (lhs > rhs) - (lhs < rhs)

    return excess


def _admissible(config: GameConfig, top: float) -> list[float]:
    """Every user's s_star, or, before any kernel runs, one SolverError if a
    utility overflows at the corner of a command that plays sigma_L up to
    top: sigma_L = top, every user at max(top, _reach), every privacy loss
    at P_bar and every flat cost paid.  A utility is gain - coef * spread -
    privacy - cost, and each of its steps (x*x, /N, the user-order sums,
    coef *, P / (1 + rho * s), -) is correctly rounded and monotone in each
    argument (see panel._best_response_table); a grid point is at most top,
    a response's square at most s_star's, or 0 where the user's cut is 0,
    which its margin at 0 decides (_cut), and an oracle level at most
    max(top, _reach).  So no command evaluates a larger spread, privacy
    loss or cost than the corner does, and no cell can be less finite than
    it.  The kernels here and in panel take these s_stars from their caller
    and trust sigma_L to be finite and >= 0."""
    s_stars = [effective_noise_target(u, config.learner, config.solver.root_tol) for u in config.users]
    n, lp = config.n_users, config.learner
    corner = [max(top, _reach(u, s, config)) for u, s in zip(config.users, s_stars)]
    spread, losses = _spread(top, corner, n), 0.0
    for u in config.users:
        losses += u.max_privacy_loss
    players = [(lp.baseline_gain, lp.accuracy_weight, losses / n, lp.perturbation_cost)]
    players += [(u.baseline_gain, u.accuracy_weight, u.max_privacy_loss, u.perturbation_cost) for u in config.users]
    if not all(math.isfinite(g - w / (n * lp.regularizer**2) * spread - p - c) for g, w, p, c in players):
        raise SolverError(f"utilities overflow at sigma_L = {top} with every perturbing user at max(sigma_L, s*)")
    return s_stars


def _reach(user: UserParams, s_star: float, config: GameConfig) -> float:
    """The most own noise any command plays for the user: max(s_star, B)
    where its margin at sigma_L = 0 is positive, and 0.0 where it is not,
    as the user then plays 0 at every sigma_L.  B >= s_star up to root_tol
    comes from the parameters alone, so that the oracle's columns need no
    root: _cubic's Newton iterate, or where _cubic's g is exact, _bracket's
    power of two."""
    if _margin(user, s_star, config)(0.0) <= 0:
        return 0.0
    g, bound = _cubic(user, config.learner)
    return max(s_star, _bracket(g) if bound is None else bound)


def _margin(user: UserParams, s_star: float, config: GameConfig) -> Callable[[float], float]:
    """The user's gain from topping up to s_star over not perturbing, in
    closed form (every other user's term cancels), less tie_epsilon, as a
    function of sigma_L.  It falls strictly on [0, s_star] to -cost -
    tie_epsilon <= 0 at s_star."""
    coef = user.accuracy_weight / (config.n_users**2 * config.learner.regularizer**2)
    p, rho = user.max_privacy_loss, user.privacy_rate
    floor = p / (1.0 + rho * s_star) + user.perturbation_cost + config.solver.tie_epsilon
    return lambda sigma_L: p / (1.0 + rho * sigma_L) - coef * (s_star * s_star - sigma_L * sigma_L) - floor


def _cut(user: UserParams, s_star: float, config: GameConfig) -> float:
    """The sigma_L from which the user plays 0: the root of its _margin (<= 0
    at s_star), to float resolution, or 0.0 when the margin is <= 0 at 0.
    The loop is _bisect_root(margin, 0.0, s_star, 0.0)'s, the margin inline
    and x - floor >= 0 as x >= floor: the same test in floats (a difference
    is 0 only between equal floats, and -inf and NaN compare alike)."""
    coef = user.accuracy_weight / (config.n_users**2 * config.learner.regularizer**2)
    p, rho, sq = user.max_privacy_loss, user.privacy_rate, s_star * s_star
    floor = p / (1.0 + rho * s_star) + user.perturbation_cost + config.solver.tie_epsilon
    lo, hi = 0.0, s_star
    if p / (1.0 + rho * lo) - coef * (sq - lo * lo) - floor <= 0:
        return 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if p / (1.0 + rho * mid) - coef * (sq - mid * mid) >= floor:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cuts(config: GameConfig, s_stars: list[float]) -> list[float]:
    return [_cut(u, s, config) for u, s in zip(config.users, s_stars)]


def _response(sigma_L: float, s_star: float, cut: float) -> float:
    """The user's best response at sigma_L, sqrt(s_star^2 - sigma_L^2) below
    its cut, where s_star > sigma_L, and 0.0 from it on:
    panel._best_responses' expression in plain floats."""
    return math.sqrt(s_star * s_star - sigma_L * sigma_L) if sigma_L < cut else 0.0


def _pair(config: GameConfig, i: int) -> tuple[float, float]:
    """User i's whole best response: its s_star and its cut."""
    _check_user(config, i)
    user = config.users[i]
    s_star = effective_noise_target(user, config.learner, config.solver.root_tol)
    return s_star, _cut(user, s_star, config)


def user_best_response(sigma_L: float, i: int, config: GameConfig) -> float:
    """Utility-maximizing sigma_S for user i; ties go to 0 (not perturbing)."""
    _require_finite("sigma_L", sigma_L, ">=")
    return _response(sigma_L, *_pair(config, i))


def dissuasion_threshold(i: int, config: GameConfig) -> float | None:
    """Smallest sigma_L at which user i's best response becomes (and stays) 0:
    below it the user tops up to its s_star, from it on the user plays 0.

    Returns 0.0 when the user never perturbs, and None when the threshold
    lies beyond sigma_max (no dissuasion within the search bound).
    """
    t = _pair(config, i)[1]
    return None if t > config.solver.sigma_max else t


def best_response_profile(sigma_L: float, config: GameConfig) -> StrategyProfile:
    _require_finite("sigma_L", sigma_L, ">=")
    return StrategyProfile(sigma_L, [_response(sigma_L, *_pair(config, i)) for i in range(config.n_users)])


def leader_objective(sigma_L: float, config: GameConfig) -> float:
    """Learner utility when every user plays their best response."""
    return learner_utility(config, best_response_profile(sigma_L, config))


def _piece_slope(sigma_L: float, outside: list[tuple[float, float]], n: int, tilt: float) -> float:
    """Slope of the leader objective at sigma_L on a piece where the users with
    the (P_bar, rho) in outside, in user order, do not perturb and every other
    user tops up to its s_star; tilt is 2 gamma_L / (N Lambda^2) * (|outside| / N)."""
    privacy = 0.0
    for p, rho in outside:
        q = 1.0 + rho * sigma_L
        privacy += (p / q) * (rho / q)  # q * q may overflow
    return privacy / n - tilt * sigma_L


def _result(config: GameConfig, sigma_L: float, responses: list[float], leader: float,
            thresholds: Iterable[float | None]) -> EquilibriumResult:
    """The equilibrium at sigma_L with U_L = leader, user i playing the float
    responses[i]: each U_S by user_utility's arithmetic, the spread summed once."""
    n, scale = config.n_users, config.n_users * config.learner.regularizer**2
    spread = _spread(sigma_L, responses, n)
    users = tuple(
        u.baseline_gain - u.accuracy_weight / scale * spread
        - _privacy_loss(u.max_privacy_loss, u.privacy_rate, sigma_L, r) - (u.perturbation_cost if r > 0 else 0.0)
        for u, r in zip(config.users, responses)
    )
    return EquilibriumResult(sigma_L, tuple(responses), leader, users, tuple(thresholds))


def _candidates(config: GameConfig, cuts: list[float], lo: float, hi: float) -> list[float]:
    """The solve's sigma_L candidates on the piece [lo, hi] between two
    consecutive thresholds (or 0 and sigma_max), 0 and sigma_max left out:
    lo, the float below hi, and the piece's slope root, by _bisect_root's
    loop (sign +1) over its outside users' (P_bar, rho) in user order."""
    sigma_max, tol, n, lp = config.solver.sigma_max, config.solver.root_tol, config.n_users, config.learner
    candidates = [lo] if lo > 0 else []
    if hi < sigma_max:
        candidates.append(math.nextafter(hi, 0.0))
    outside = [(u.max_privacy_loss, u.privacy_rate) for u, t in zip(config.users, cuts) if t <= lo]
    tilt = 2.0 * lp.accuracy_weight / (n * lp.regularizer**2) * (len(outside) / n)
    if _piece_slope(lo, outside, n, tilt) > 0 > _piece_slope(hi, outside, n, tilt):
        while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
            if _piece_slope(mid, outside, n, tilt) >= 0:
                lo = mid
            else:
                hi = mid
        candidates.append(0.5 * (lo + hi))
    return candidates


def _leader(config: GameConfig, sigma_L: float, users: list[tuple[float, float, float, float]]) -> float:
    """U_L at sigma_L with every user at its _response, users the (P_bar,
    rho, s_star, cut) of each: learner_utility's arithmetic in its order,
    in plain floats, so equal to it bit for bit."""
    n, lp, square = config.n_users, config.learner, sigma_L * sigma_L
    spread, privacy = square, 0.0
    for p, rho, s, t in users:
        r = _response(sigma_L, s, t)
        spread += r * r / n
        privacy += p / (1.0 + rho * math.sqrt(square + r * r))
    cost = lp.perturbation_cost if sigma_L > 0 else 0.0
    return lp.baseline_gain - lp.accuracy_weight / (n * lp.regularizer**2) * spread - privacy / n - cost


def _piece_bounds(config: GameConfig, ranked: list[tuple[float, float, float, float]]) -> tuple[list, float]:
    """(bound, lo, hi, k, rest) for each piece, and the rounding margin of the
    module docstring; ranked holds each user's (P_bar, rho, s_star, cut),
    sorted by cut.  The first k ranked users are outside the piece (cut <=
    lo); bound takes their losses at sigma_max and rest leaves them out.
    Each bound is O(1) from prefix and suffix sums."""
    n, lp, sigma_max = config.n_users, config.learner, config.solver.sigma_max
    coef = lp.accuracy_weight / (n * lp.regularizer**2)
    cuts = [t for p, rho, s, t in ranked]
    at_top, inside, squares = [0.0], [0.0] * (n + 1), [0.0] * (n + 1)
    for p, rho, s, t in ranked:
        at_top.append(at_top[-1] + p / (1.0 + rho * sigma_max))
    for k in range(n - 1, -1, -1):  # the users from k on, each perturbing where its cut is above lo
        p, rho, s, t = ranked[k]
        inside[k], squares[k] = inside[k + 1] + p / (1.0 + rho * s), squares[k + 1] + s * s / n
    breakpoints = sorted({t for t in cuts if 0.0 < t < sigma_max})
    pieces = []
    for lo, hi in zip([0.0, *breakpoints], [*breakpoints, sigma_max]):
        k = bisect.bisect_right(cuts, lo)
        rest = lp.baseline_gain - coef * (lo * lo * (k / n) + squares[k]) - inside[k] / n - lp.perturbation_cost
        pieces.append((rest - at_top[k] / n, lo, hi, k, rest))
    stakes = sum(p for p, rho, s, t in ranked)
    scale = abs(lp.baseline_gain) + coef * (sigma_max * sigma_max + squares[bisect.bisect_right(cuts, 0.0)])
    scale += stakes / n + lp.perturbation_cost
    return pieces, 2.0**-50 * (n + 16) * (scale + (1.0 + coef) * _NORMAL)


def stackelberg_solve(config: GameConfig) -> EquilibriumResult:
    """Leader-optimal sigma_L over _candidates; the module docstring shows
    that no other sigma_L does better, and that no piece left unscored holds
    the winner or a tie with it.  Utility ties within tie_epsilon resolve to
    the smaller sigma_L."""
    settings, n = config.solver, config.n_users
    sigma_max, tie = settings.sigma_max, settings.tie_epsilon
    s_stars = _admissible(config, sigma_max)
    cuts = _cuts(config, s_stars)
    users = [(u.max_privacy_loss, u.privacy_rate, s, t) for u, s, t in zip(config.users, s_stars, cuts)]
    scored = {x: _leader(config, x, users) for x in (0.0, sigma_max)}
    best = max(scored.values())
    ranked = sorted(users, key=lambda user: user[3])
    pieces, margin = _piece_bounds(config, ranked)
    for bound, lo, hi, k, rest in sorted(pieces, reverse=True):  # the highest bounds first
        if bound + margin < best - tie:
            continue
        at_hi = sum(p / (1.0 + rho * hi) for p, rho, s, t in ranked[:k])  # the outside users' losses at hi
        if rest - at_hi / n + margin < best - tie:
            continue
        for x in _candidates(config, cuts, lo, hi):
            scored[x] = value = _leader(config, x, users)
            best = max(best, value)
    sigma_L = min(x for x, value in scored.items() if value >= best - tie)
    responses = [_response(sigma_L, s, t) for s, t in zip(s_stars, cuts)]
    return _result(config, sigma_L, responses, scored[sigma_L], (None if t > sigma_max else t for t in cuts))


def sweep(config: GameConfig, lo: float, hi: float, step: float) -> tuple:
    """Columns of the three sweep tables over the grid lo + k * step, then hi:
    the grid (M points); up to five sigma_L sampled from it; own, shape
    (samples, N, M): each user's utility at every own noise level on the
    grid, every other user at 0, at each sample; responses, shape (N, M):
    each user's best response at every grid point; and the learner's
    utility (M,) and each user's (N, M) when every user plays it.
    ValueError for a non-finite lo, step or 2 * hi^2, a range outside
    0 <= lo <= hi with step > 0, or a step below the float spacing at hi;
    before that check and before any point is built, GridTooLargeError for
    more than _SWEEP_MAX_CELLS // (8N + 13) points; after them, _admissible's
    SolverError for a game whose utilities overflow with sigma_L up to hi."""
    from .panel import _SWEEP_MAX_CELLS, _best_responses, _grid, _own_noise, _user_columns, _utility_panel
    if not all(map(math.isfinite, (lo, hi * hi + hi * hi, step))):
        raise ValueError(f"sweep bounds, step and 2 * hi^2 must be finite, got [{lo}, {hi}] by {step}")
    if not (0 <= lo <= hi and step > 0):
        raise ValueError(f"invalid sweep range [{lo}, {hi}] with step {step}")
    n = config.n_users
    grid = _grid(lo, hi, step, _SWEEP_MAX_CELLS // (8 * n + 13))
    s_stars = _admissible(config, hi)
    m = len(grid)
    count = min(5, m)
    samples = grid[[int(k * (m - 1) / max(count - 1, 1)) for k in range(count)]]
    columns = _user_columns(config)
    own = _own_noise(n, columns, (samples * samples)[:, None, None], grid, grid)
    responses = _best_responses(grid, s_stars, _cuts(config, s_stars))
    leader, users = _utility_panel(config, columns, grid, responses)
    return grid, samples, own, responses, leader, users


def brute_force_equilibrium(config: GameConfig, fine_step: float | None = None) -> EquilibriumResult:
    """Exhaustive two-level grid search used as a test oracle.

    The sigma_L grid runs over [0, sigma_max] by fine_step (1e-3, or where
    that is over the budget one point under it).  Each user's own noise
    axis is [0, A], A = max(sigma_max, _reach): past sigma_max, where the
    user perturbs at sigma_L = 0, to B, the bound on s_star, the most noise
    it can want, that _reach takes from its parameters alone.  A is its
    level at _admissible's corner, so every cell is finite.  The column
    is the grid itself where A = sigma_max, else the grid scaled to end at
    A, the same m points by fine_step * A / sigma_max.  For every sigma_L
    each user's best response is the exact argmax of its column, by branch
    and bound: two user utilities per row, level 0 and the bound of the
    rest, and where that bound exceeds level 0, two per block of about
    sqrt(m) levels and the whole block where its bound reaches the row's
    best first level; about m^2 * N on m points if no block is pruned.  The
    learner then picks the grid point with the highest utility (ties to the
    smaller sigma_L).  A user's threshold is read off the same table: 0.0
    if the user never perturbs, None if they still perturb at sigma_max,
    and otherwise the grid point after the last sigma_L at which they
    perturb.
    """
    from .panel import _best_response_table, _grid, _user_columns, _utility_panel, _winner
    if fine_step is not None:
        _require_finite("fine_step", fine_step, ">")
    settings = config.solver
    sigma_max = settings.sigma_max
    s_stars = _admissible(config, sigma_max)  # the solve's domain; s_star only widens a column past B
    max_points = math.isqrt(_BRUTE_FORCE_BUDGET // config.n_users)  # m points cost m * m * N evaluations
    try:
        grid = _grid(0.0, sigma_max, fine_step or 1e-3, max_points)
    except GridTooLargeError:
        if fine_step is not None:
            raise
        grid = _grid(0.0, sigma_max, sigma_max / (max_points - 2), max_points)

    unit = grid / sigma_max  # times A: the factor A / sigma_max can overflow
    tops = [max(sigma_max, _reach(u, s, config)) for u, s in zip(config.users, s_stars)]
    columns = _user_columns(config)
    responses = _best_response_table(config, columns, grid, [grid if a == sigma_max else unit * a for a in tops])
    leader = _utility_panel(config, columns, grid, responses)[0]

    def table_threshold(row) -> float | None:
        perturbing = (row > 0).nonzero()[0]
        if perturbing.size == 0:
            return 0.0
        last = int(perturbing[-1])
        return None if last == len(grid) - 1 else float(grid[last + 1])

    j = _winner(leader, settings.tie_epsilon)
    return _result(config, float(grid[j]), responses[:, j].tolist(), float(leader[j]), map(table_threshold, responses))
