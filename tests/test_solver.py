import collections
import contextlib
import decimal
import itertools
import math
import sys
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from obfusgame import panel, solver
from obfusgame.config_io import (
    SHIPPED_CONFIGS,
    load_shipped_config,
    parse_config_text,
    shipped_config_path,
)
from obfusgame.errors import GridTooLargeError, SolverError
from obfusgame.game import (
    GameConfig,
    LearnerParams,
    SolverSettings,
    StrategyProfile,
    UserParams,
    learner_utility,
    user_utility,
)
from obfusgame.solver import (
    best_response_profile,
    brute_force_equilibrium,
    dissuasion_threshold,
    leader_objective,
    stackelberg_solve,
    user_best_response,
)
from obfusgame.validate import _ORACLE_UTILITY_TOL, random_small_config
from test_config_cli import NEVER_PERTURBS, OVERFLOW, THREE_USERS, fuzz_configs, replace


def simple_config(p_bar=8.0, rho=1.0, gamma_s=1.0, nbar_s=0.1, nbar_l=0.2,
                  gamma_l=1.0, lam=1.0, n=1, sigma_max=10.0):
    return GameConfig(
        learner=LearnerParams(5.0, gamma_l, nbar_l, lam, n),
        users=tuple(UserParams(5.0, gamma_s, p_bar, rho, nbar_s) for _ in range(n)),
        solver=SolverSettings(sigma_max=sigma_max, grid_step=0.05),
    )


def dense_grid_argmax(config, i, sigma_L, step=1e-3):
    """Independent best-response oracle: exhaustive grid over own sigma_S."""
    grid = np.arange(0.0, config.solver.sigma_max + step / 2, step)
    sigma = [0.0] * config.n_users
    best_u, best_s = -math.inf, 0.0
    for s in grid:
        sigma[i] = float(s)
        u = user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma)))
        if u > best_u:
            best_u, best_s = u, float(s)
    return best_s, best_u


def scalar_responses(sigma_L, s_stars, cuts):
    """Each user's best response at one sigma_L, one user at a time: the
    scalar reference for panel._best_responses."""
    return [math.sqrt(s * s - sigma_L * sigma_L) if sigma_L < t else 0.0 for s, t in zip(s_stars, cuts)]


def scalar_objective(config, sigma_L, s_stars, cuts):
    """The leader objective at sigma_L by the public learner_utility."""
    return learner_utility(config, StrategyProfile(sigma_L, scalar_responses(sigma_L, s_stars, cuts)))


def s_stars_of(config):
    """Every user's s_star, as the solve and the sweep find them."""
    return [solver.effective_noise_target(u, config.learner, config.solver.root_tol) for u in config.users]


def interior_point(sigma_L, config, i=0):
    """User i's positive stationary point sqrt(s_star^2 - sigma_L^2), or None
    when the learner's noise already reaches s_star."""
    s_star = solver.effective_noise_target(config.users[i], config.learner, config.solver.root_tol)
    # x * x, as the kernel squares: x**2 is libm's pow, which can differ in the last bit
    return math.sqrt(s_star * s_star - sigma_L * sigma_L) if s_star > sigma_L else None


class TestInteriorCandidate:
    def test_no_privacy_incentive(self):
        config = simple_config(p_bar=0.0)
        assert interior_point(0.0, config) is None

    def test_unit_root(self):
        # s (1 + s)^2 = 8 * 1 / 2 = 4 has root s = 1
        config = simple_config(p_bar=8.0, rho=1.0, gamma_s=1.0)
        cand = interior_point(0.0, config)
        assert cand == pytest.approx(1.0, abs=1e-8)

    def test_unit_root_verified_by_substitution(self):
        s = 1.0
        assert s * (1 + s) ** 2 == pytest.approx(8.0 * 1.0 / 2.0)

    def test_unit_root_verified_by_grid(self):
        config = simple_config(p_bar=8.0, nbar_s=0.0)
        best_s, _ = dense_grid_argmax(config, 0, 0.0)
        assert best_s == pytest.approx(1.0, abs=2e-3)

    def test_excess_learner_noise_gives_none(self):
        config = simple_config(p_bar=8.0)
        assert interior_point(2.0, config) is None


def stationarity_rhs(user, learner):
    """P_bar * rho * N^2 * Lambda^2 / (2 * gamma) in floats."""
    n = learner.population_size
    return user.max_privacy_loss * user.privacy_rate * n**2 * learner.regularizer**2 / (2.0 * user.accuracy_weight)


def decimal_s_star(user, learner, digits=50):
    """The root of s * (1 + rho * s)^2 = P_bar * rho * N^2 * Lambda^2 / (2 * gamma)
    in decimal at `digits` significant digits, every parameter taken exactly:
    a bracket [hi / 2, hi] found by doubling or halving, then bisection to a
    relative width of 10^-(digits - 10).  Independent of the float kernel."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        p, rho, gamma, lam = map(D, (user.max_privacy_loss, user.privacy_rate, user.accuracy_weight,
                                     learner.regularizer))
        n = D(learner.population_size)
        target = p * rho * n * n * lam * lam / (2 * gamma)
        if target == 0:
            return D(0)

        def below(s):
            return s * (1 + rho * s) ** 2 < target

        hi = D(1)
        while below(hi):
            hi *= 2
        lo = hi / 2
        while not below(lo):
            hi, lo = lo, lo / 2
        width = hi.scaleb(10 - digits)
        while hi - lo > width:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return (lo + hi) / 2


def decimal_threshold(config, i, s_star, digits=50):
    """The sigma_L in [0, s_star] at which user i's gain from topping up to
    s_star over playing 0, every other user at 0, falls to tie_epsilon, in
    decimal_utilities at `digits` digits; 0 if it is <= tie_epsilon at 0."""
    D, n = decimal.Decimal, config.n_users
    with decimal.localcontext(decimal.Context(prec=digits)):
        s = D(s_star)

        def gain(x):
            top_up = [D(0)] * n
            top_up[i] = (s * s - x * x).sqrt()
            utilities = decimal_utilities(config, x, top_up, digits), decimal_utilities(config, x, [D(0)] * n, digits)
            return utilities[0][i + 1][0] - utilities[1][i + 1][0] - D(config.solver.tie_epsilon)

        if gain(D(0)) <= 0:
            return D(0)
        lo, hi = D(0), s
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gain(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


# two one-user games of fuzz_configs(1, 2000) (indices 67 and 1011) whose
# float P_bar * rho overflows
RHS_PAST_THE_FLOAT_RANGE = {
    "fuzz_67": """learner.G_bar = 1e-300
learner.gamma = 1e+150
learner.N_bar = 1e+150
learner.Lambda = 4.0
users[0].G_bar = 0.1
users[0].gamma = 5e-324
users[0].P_bar = 1.0
users[0].rho = 1e+20
users[0].N_bar = 1e+150
learner.N = 1
solver.sigma_max = 2.72139725333523e-169
solver.grid_step = 5.44279450667046e-171
""",
    "fuzz_1011": """learner.G_bar = 1e-20
learner.gamma = 1.0
learner.N_bar = 0.0
learner.Lambda = 0.001
users[0].G_bar = 1.0
users[0].gamma = 1e+300
users[0].P_bar = 1e+300
users[0].rho = 1e+20
users[0].N_bar = 75.0
learner.N = 1
solver.sigma_max = 3.271598625175791e-262
solver.grid_step = 6.543197250351581e-264
""",
}


def bisected_s_star(user, learner, tol):
    """effective_noise_target by bisection alone, and which of its paths it
    takes: the doubling loop and _bisect_root(g, 0, hi, tol) on the float
    cubic ("cell", or "fine" where the last cell's width is below hi / 2^50)
    or on _exact_excess ("exact"), or, where g(tol) >= 0, _bisect_root(g, 0,
    tol, 0) ("below_tol")."""
    p, rho, n, lam, gamma = (user.max_privacy_loss, user.privacy_rate, learner.population_size,
                             learner.regularizer, user.accuracy_weight)
    head, lam_sq = p * rho, lam**2
    num = head * n**2 * lam_sq
    rhs = num / (2.0 * gamma)
    if rho < 1e154 and min(head, lam_sq, num, rhs) >= sys.float_info.min and rhs < math.inf:

        def g(s):
            t = 1.0 + rho * s
            return s * (t * t) - rhs

        path = "cell"
    else:
        g, path = solver._exact_excess(p, rho, n, lam, gamma), "exact"
    if g(tol) >= 0:
        return solver._bisect_root(g, 0.0, tol, 0.0), "below_tol" if path == "cell" else path
    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return solver._bisect_root(g, 0.0, hi, tol), "fine" if path == "cell" and hi / 2**50 > tol else path


def assert_s_star_is_bisected(user, learner, tol):
    """effective_noise_target == bisected_s_star, or SolverError where that
    root has no finite square; returns the reference's path."""
    ref, path = bisected_s_star(user, learner, tol)
    if math.isfinite(ref * ref):
        assert solver.effective_noise_target(user, learner, tol) == ref, (user, learner, tol)
    else:
        with pytest.raises(SolverError, match="no finite square"):
            solver.effective_noise_target(user, learner, tol)
    return path


class TestEffectiveNoiseTarget:
    def test_equals_the_bisection_on_a_seeded_draw(self):
        """10,000 users, N up to 10^6, each parameter log-uniform over 4 to 48
        decades, or for 1% of them over 600 (Lambda over 200), and root_tol
        over 1e-18 to 0.5: s_star is the bisection's float, and every path of
        the bisection is reached, the read-off cell on about half the users."""
        rng, paths = np.random.Generator(np.random.PCG64(37)), collections.Counter()
        for _ in range(10_000):
            half = rng.choice([2.0, 4.0, 12.0, 24.0, 300.0], p=[0.25, 0.25, 0.25, 0.24, 0.01])
            p, rho, gamma = 10.0 ** rng.uniform(-half, half, 3)
            lam = 10.0 ** rng.uniform(-min(half, 100.0), min(half, 100.0))  # (N Lambda)^2 stays finite
            n = int(rng.choice([1, 2, 16, 1000, 10**6]))
            learner = LearnerParams(1.0, 1.0, 0.0, float(lam), n)
            tol = float(10.0 ** rng.uniform(-18.0, math.log10(0.5)))
            user = UserParams(1.0, float(gamma), float(p), float(rho), 0.0)
            paths[assert_s_star_is_bisected(user, learner, tol)] += 1
        assert paths["exact"] >= 30 and paths["below_tol"] >= 100 and paths["fine"] >= 100, paths
        assert paths["cell"] >= 4500, paths

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-40.0, 40.0), min_size=4, max_size=4), st.integers(1, 10**6),
           st.floats(-18.0, -0.31))
    def test_equals_the_bisection_on_hypothesis_users(self, exponents, n, log_tol):
        """Parameters over 80 decades each, N up to 10^6, root_tol 1e-18 to 0.5."""
        p, rho, gamma, lam = (10.0**e for e in exponents)
        user, learner = UserParams(1.0, gamma, p, rho, 0.0), LearnerParams(1.0, 1.0, 0.0, lam, n)
        assert_s_star_is_bisected(user, learner, 10.0**log_tol)

    def test_matches_decimal_reference(self):
        """Every panel game's users, and users whose s_star is below root_tol,
        subnormal or so large that root_tol is below its float spacing: s_star
        is within root_tol of the 50-digit root, and within 4 ulps where
        s_star <= root_tol or root_tol < 4 ulps of s_star (the kernel then
        bisects to float resolution)."""
        default = load_shipped_config("default")
        extremes = [dict(privacy_rate=1e100), dict(privacy_rate=1e300), dict(max_privacy_loss=2e23),
                    dict(max_privacy_loss=2e40), dict(max_privacy_loss=1e-300, privacy_rate=1e-10)]
        cases = [(u, config) for config in panel_games() for u in config.users]
        cases += [(replace(default.users[0], **kw), default) for kw in extremes]
        for user, config in cases:
            tol = config.solver.root_tol
            ref = decimal_s_star(user, config.learner)
            s = float(ref)
            bound = max(tol if s > tol else 0.0, 4 * math.ulp(s))
            got = solver.effective_noise_target(user, config.learner, tol)
            assert abs(decimal.Decimal(got) - ref) <= bound, (user, s, got)

    def test_every_constructed_user_has_a_finite_s_star(self):
        """UserParams refuses exactly gamma = 0 < P_bar, and no user it admits
        is left without a finite s_star or a SolverError."""
        learner = LearnerParams(1.0, 1.0, 0.0, 1.0, 1)
        for gamma, p_bar in itertools.product([0.0, 5e-324, 1.0], [0.0, 1.0, 1e300]):
            try:
                user = UserParams(1.0, gamma, p_bar, 1.0, 0.0)
            except ValueError:
                assert gamma == 0 < p_bar
                continue
            assert not gamma == 0 < p_bar
            try:
                s_star = solver.effective_noise_target(user, learner)
            except SolverError:
                continue
            assert math.isfinite(s_star) and s_star >= 0, (gamma, p_bar)

    def test_zero_gamma_raises(self):
        # the record refuses the user: no s_star is ever asked of it
        with pytest.raises(ValueError) as exc:
            UserParams(1.0, 0.0, 1.0, 1.0, 0.0)
        assert str(exc.value) == "gamma = 0 with P_bar > 0 has no finite optimal perturbation"

    @pytest.mark.parametrize("rho", [1e100, 1e200, 1e300])
    def test_root_below_root_tol_to_relative_precision(self, rho):
        config = load_shipped_config("default")
        user = replace(config.users[0], privacy_rate=rho)
        rhs = stationarity_rhs(user, config.learner)
        s_star = solver.effective_noise_target(user, config.learner, config.solver.root_tol)
        assert s_star < config.solver.root_tol
        # rho * s_star > 1e60, so (rhs / rho^2)^(1/3) is the root to 1e-60 relative
        assert s_star == pytest.approx((rhs / rho / rho) ** (1 / 3), rel=1e-9, abs=0.0)

    def test_underflowed_rhs_gives_zero(self):
        user = UserParams(1.0, 1.0, 1e-300, 1e-300, 0.0)
        learner = LearnerParams(1.0, 1.0, 0.0, 1.0, 1)
        assert stationarity_rhs(user, learner) == 0.0
        assert solver.effective_noise_target(user, learner) == 0.0

    @pytest.mark.parametrize("p_bar, rho", [(1e145, 1e163), (1e150, 1e158)])
    def test_cubic_past_the_float_range_below_its_root(self, p_bar, rho):
        """A right-hand side near the float maximum with rho so large that
        (1 + rho s)^2 overflows below s_star < 1, where a float cubic reads
        inf and puts the root too low (1.4e-9 for 1e-6, 1.3e-4 for 2.2e-3)."""
        user, learner = UserParams(1.0, 0.5, p_bar, rho, 0.0), LearnerParams(1.0, 1.0, 0.0, 1.0, 1)
        assert math.isfinite(stationarity_rhs(user, learner))
        ref = decimal_s_star(user, learner)
        got = solver.effective_noise_target(user, learner)
        assert abs(decimal.Decimal(got) - ref) <= SolverSettings.root_tol

    @pytest.mark.parametrize("name", sorted(RHS_PAST_THE_FLOAT_RANGE))
    def test_right_hand_side_past_the_float_range(self, name):
        """P_bar * rho overflows, though the right-hand side does not (67) or
        its root has a finite square (1011): s_star, the threshold, the
        response and the solve's utilities against their decimal references.
        A float chain made s_star the point where (1 + rho s)^2 overflows,
        2.6e89 in both, and the corner then refused 1011 or held its user,
        who does perturb, at 0."""
        config = parse_config_text(RHS_PAST_THE_FLOAT_RANGE[name])
        user, tol, D = config.users[0], config.solver.root_tol, decimal.Decimal
        assert math.isinf(stationarity_rhs(user, config.learner))
        s_star, t = solver._pair(config, 0)
        ref = decimal_s_star(user, config.learner)
        assert abs(D(s_star) - ref) <= max(tol if ref > tol else 0.0, 4 * math.ulp(float(ref)))
        ref_t = decimal_threshold(config, 0, s_star)
        assert abs(D(t) - ref_t) <= 4 * math.ulp(s_star)
        result = stackelberg_solve(config)
        sigma_L = result.sigma_L_star
        expected = math.sqrt(s_star * s_star - sigma_L * sigma_L) if sigma_L < ref_t else 0.0
        assert result.sigma_S_star == (expected,) == (user_best_response(sigma_L, 0, config),)
        got = [result.learner_utility, *result.user_utilities]
        for value, (exact, scale) in zip(got, decimal_utilities(config, sigma_L, result.sigma_S_star)):
            assert abs(D(value) - exact) <= utility_ulps(config.n_users) * math.ulp(float(scale))

    def test_fuzzed_users_match_decimal_reference(self):
        """Every user of the CLI fuzz's 150 games: s_star within root_tol (or
        4 ulps) of the decimal root, or a SolverError where that root has no
        finite square.  About a third of these users have a float
        right-hand side chain that leaves the normal range."""
        D, exact = decimal.Decimal, 0
        for text, _ in fuzz_configs(1, 150):
            config = parse_config_text(text)
            tol = config.solver.root_tol
            for user in config.users:
                if user.max_privacy_loss == 0 or user.accuracy_weight == 0:
                    continue
                ref = decimal_s_star(user, config.learner)
                rhs = stationarity_rhs(user, config.learner)
                exact += not (sys.float_info.min <= rhs < math.inf)
                if ref * ref > D(sys.float_info.max):
                    with pytest.raises(SolverError, match="no finite square"):
                        solver.effective_noise_target(user, config.learner, tol)
                    continue
                got = solver.effective_noise_target(user, config.learner, tol)
                bound = max(tol if ref > tol else 0.0, 4 * math.ulp(float(ref)))
                assert abs(D(got) - ref) <= bound, (text, user, got, ref)
        assert exact >= 50


class TestUserBestResponse:
    def test_prohibitive_cost(self):
        config = simple_config(p_bar=8.0, nbar_s=100.0)
        assert user_best_response(0.0, 0, config) == 0.0

    def test_no_privacy_incentive(self):
        config = simple_config(p_bar=0.0)
        assert user_best_response(0.0, 0, config) == 0.0

    def test_default_config_matches_grid_oracle(self):
        config = load_shipped_config("default")
        br = user_best_response(0.0, 0, config)
        assert br > 0
        best_s, _ = dense_grid_argmax(config, 0, 0.0)
        assert abs(br - best_s) <= 2e-3

    def test_bang_bang_structure(self):
        # every best response is either 0 or the interior candidate
        config = load_shipped_config("default")
        for sigma_L in np.arange(0.0, 6.0, 0.25):
            br = user_best_response(float(sigma_L), 0, config)
            cand = interior_point(float(sigma_L), config)
            assert br == 0.0 or br == pytest.approx(cand)


class TestDissuasionThreshold:
    def test_no_privacy_never_perturbs(self):
        config = simple_config(p_bar=0.0)
        assert dissuasion_threshold(0, config) == 0.0

    def test_thresholds_decrease_with_user_cost(self):
        ts = [
            dissuasion_threshold(0, load_shipped_config(name))
            for name in ("low_cost", "mid_cost", "high_cost")
        ]
        assert all(t is not None and t > 0 for t in ts)
        assert ts[0] > ts[1] > ts[2]

    def test_definition_at_threshold(self):
        config = load_shipped_config("default")
        t = dissuasion_threshold(0, config)
        tol = config.solver.root_tol
        assert user_best_response(t - 10 * tol, 0, config) > 0
        assert user_best_response(t + 10 * tol, 0, config) == 0.0

    def test_none_when_br_positive_up_to_sigma_max(self):
        # zero flat cost keeps the interior branch active through sigma_max
        config = simple_config(p_bar=500.0, rho=0.05, nbar_s=0.0, sigma_max=5.0)
        assert dissuasion_threshold(0, config) is None

    @pytest.mark.parametrize("rho", [1e100, 1e200, 1e300])
    def test_threshold_below_root_tol_to_relative_precision(self, rho):
        config = load_shipped_config("default")
        config = replace(config, users=(replace(config.users[0], privacy_rate=rho),))
        u = config.users[0]
        t = dissuasion_threshold(0, config)
        assert 0 < t < config.solver.root_tol
        # rho * s_star > 1e60, so the privacy term at s_star and the accuracy
        # cost of topping up vanish, and the margin changes sign where
        # P_bar / (1 + rho * t) = N_bar + tie_epsilon
        expected = (u.max_privacy_loss / (u.perturbation_cost + config.solver.tie_epsilon) - 1) / rho
        assert t == pytest.approx(expected, rel=1e-9, abs=0.0)


class TestLeaderObjective:
    def test_closed_form_past_threshold(self):
        config = load_shipped_config("default")
        lp, u = config.learner, config.users[0]
        t = dissuasion_threshold(0, config)
        sigma_L = t + 0.5
        expected = (
            lp.baseline_gain
            - lp.accuracy_weight * sigma_L**2 / lp.regularizer**2
            - u.max_privacy_loss / (1 + u.privacy_rate * sigma_L)
            - lp.perturbation_cost
        )
        assert leader_objective(sigma_L, config) == pytest.approx(expected, rel=1e-12)

    def test_composition_at_zero(self):
        config = load_shipped_config("default")
        br = user_best_response(0.0, 0, config)
        expected = learner_utility(config, StrategyProfile(0.0, (br,)))
        assert leader_objective(0.0, config) == pytest.approx(expected, rel=1e-12)

    def test_upward_jump_at_threshold(self):
        config = load_shipped_config("default")
        t = dissuasion_threshold(0, config)
        eps = 1e-6
        assert leader_objective(t + eps, config) > leader_objective(t - eps, config)


class TestStackelbergSolve:
    def test_prohibitive_learner_cost(self):
        config = simple_config(nbar_l=1e6)
        assert stackelberg_solve(config).sigma_L_star == 0.0

    def test_high_user_cost_columns_dissuade(self):
        for name in ("mid_cost", "high_cost"):
            config = load_shipped_config(name)
            result = stackelberg_solve(config)
            assert result.sigma_L_star > 0
            assert all(s == 0.0 for s in result.sigma_S_star)
            assert result.learner_utility > leader_objective(0.0, config)

    def test_low_user_cost_column_stays_at_zero(self):
        result = stackelberg_solve(load_shipped_config("low_cost"))
        assert result.sigma_L_star == 0.0
        assert result.sigma_S_star[0] > 0

    def test_equilibrium_consistency(self):
        config = load_shipped_config("high_cost")
        result = stackelberg_solve(config)
        for i in range(config.n_users):
            assert result.sigma_S_star[i] == user_best_response(
                result.sigma_L_star, i, config
            )
        profile = StrategyProfile(result.sigma_L_star, result.sigma_S_star)
        assert result.learner_utility == pytest.approx(
            learner_utility(config, profile), rel=1e-12
        )


class TestBruteForce:
    def test_five_by_five_enumeration(self):
        config = simple_config(p_bar=3.0, rho=1.0, nbar_s=0.05, nbar_l=0.1,
                               sigma_max=2.0)
        result = brute_force_equilibrium(config, 0.5)
        # replicate the 5 x 5 enumeration directly
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        best = (-math.inf, None)
        for sl in grid:
            br = max(grid, key=lambda s: user_utility(
                config, 0, StrategyProfile(sl, (s,))))
            u = learner_utility(config, StrategyProfile(sl, (br,)))
            if u > best[0]:
                best = (u, sl, br)
        assert result.learner_utility == pytest.approx(best[0])
        assert result.sigma_L_star == best[1]
        assert result.sigma_S_star[0] == best[2]

    def test_degenerate_config(self):
        config = simple_config(p_bar=0.0, sigma_max=2.0)
        result = brute_force_equilibrium(config, 0.1)
        assert result.sigma_L_star == 0.0
        assert result.sigma_S_star == (0.0,)

    def test_oversized_grid_rejected_before_it_is_built(self):
        # 2e7 points would take hundreds of MB as a list of floats
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError):
                brute_force_equilibrium(simple_config(sigma_max=20.0), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("sigma_max", [4.0, 44.719, 44.7195, 44.72, 44.7205, 50.0])
    def test_default_fine_step_is_1e_3_where_its_grid_fits(self, monkeypatch, sigma_max):
        # one user may have 44,721 points: 1e-3 fits up to sigma_max = 44.72
        # (with sigma_max appended from 44.7195), and past it the default
        # is the step one point under the cap
        grids, real = [], panel._grid
        monkeypatch.setattr(panel, "_grid", lambda *args: grids.append(real(*args)) or grids[-1])
        brute_force_equilibrium(never_perturbing_game(sigma_max))
        try:
            expected = real(0.0, sigma_max, 1e-3, 44_721)
        except GridTooLargeError:
            expected = real(0.0, sigma_max, sigma_max / 44_719, 44_721)
        assert grids[-1].tolist() == expected.tolist()
        if sigma_max > 44.72:
            assert len(expected) == 44_720
        else:
            assert expected[1] == 1e-3

    @pytest.mark.parametrize(
        "make",
        [lambda: load_shipped_config("default"), lambda: mixed_population(4, seed=3)],
        ids=["default", "mixed_4"],
    )
    def test_thresholds_read_off_its_own_table(self, monkeypatch, make):
        config, fine_step = make(), 0.01
        expected = [dissuasion_threshold(i, config) for i in range(config.n_users)]

        def analytic(*args):
            raise AssertionError("the oracle asked the analytic solver")

        monkeypatch.setattr(solver, "dissuasion_threshold", analytic)
        monkeypatch.setattr(solver, "_cut", analytic)
        table = brute_force_equilibrium(config, fine_step).per_user_thresholds
        assert any(t is not None and t > 0 for t in table)
        for t, e in zip(table, expected):
            assert (t is None) == (e is None)
            if t is not None:
                assert abs(t - e) <= fine_step

    # exact oracle outputs: a change to the row kernel's arithmetic must not move them
    @pytest.mark.parametrize(
        "make, fine_step, sigma_L, sigma_S, thresholds, perturbing",
        [
            (lambda: load_shipped_config("default"), 0.01, 3.81, (0.0,), (3.81,), [381]),
            (
                lambda: mixed_population(4, seed=3), 0.01, 7.38, (0.0, 0.0, 41.06905618343195, 0.0),
                (2.32, 4.29, None, 0.36), [232, 429, 2001, 36],
            ),
            (lambda: random_small_config(0), 1e-3, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), [0, 0, 0]),
        ],
        ids=["default", "mixed_4", "random_0"],
    )
    def test_pinned_results(self, monkeypatch, make, fine_step, sigma_L, sigma_S, thresholds, perturbing):
        config = make()
        tables, real = [], panel._best_response_table
        monkeypatch.setattr(panel, "_best_response_table", lambda *args: tables.append(real(*args)) or tables[-1])
        result = brute_force_equilibrium(config, fine_step)
        assert result.sigma_L_star == sigma_L
        assert result.sigma_S_star == sigma_S
        assert result.per_user_thresholds == thresholds
        [table] = tables
        assert (table > 0).sum(axis=1).tolist() == perturbing

    def test_agrees_with_solver_on_random_configs(self):
        for seed in range(5):
            config = random_small_config(seed)
            fast = stackelberg_solve(config)
            slow = brute_force_equilibrium(config, 1e-3)
            assert abs(fast.sigma_L_star - slow.sigma_L_star) <= config.solver.grid_step
            assert abs(fast.learner_utility - slow.learner_utility) <= 1e-6


class TestStructuralProperties:
    def test_independence_of_other_users(self):
        rng = np.random.Generator(np.random.PCG64(7))
        config = simple_config(p_bar=8.0, n=3, sigma_max=5.0)
        base = user_best_response(0.3, 0, config)
        # best response does not reference other users' levels at all, but
        # verify against the full-utility grid with random co-strategies
        for _ in range(5):
            others = rng.uniform(0, 3, size=2)

            def util(own):
                profile = StrategyProfile(0.3, (own, others[0], others[1]))
                return user_utility(config, 0, profile)

            grid = np.arange(0, 5.0, 1e-3)
            best = grid[np.argmax([util(float(s)) for s in grid])]
            assert abs(best - base) <= 2e-3

    def test_effective_noise_clamp(self):
        config = load_shipped_config("default")
        t = dissuasion_threshold(0, config)
        targets = []
        for sigma_L in np.linspace(0, t * 0.95, 12):
            br = user_best_response(float(sigma_L), 0, config)
            assert br > 0
            targets.append(math.hypot(sigma_L, br))
        assert max(targets) - min(targets) < 1e-7
        # hence the best response strictly decreases along the branch
        brs = [math.sqrt(targets[0] ** 2 - s**2) for s in np.linspace(0, t * 0.95, 12)]
        assert all(a > b for a, b in zip(brs, brs[1:]))

    def test_threshold_monotone_in_cost(self):
        base = simple_config(p_bar=8.0, nbar_s=0.05, sigma_max=5.0)
        costs = (0.05, 0.2, 0.5, 1.0)
        thresholds = []
        for c in costs:
            config = simple_config(p_bar=8.0, nbar_s=c, sigma_max=5.0)
            thresholds.append(dissuasion_threshold(0, config))
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


class TestBestResponseCurve:
    def test_curve_matches_pointwise_calls(self):
        config = load_shipped_config("default")
        threshold = dissuasion_threshold(0, config)
        grid = np.arange(0.0, config.solver.sigma_max + 1e-9, 0.5)
        curve = [user_best_response(float(s), 0, config) for s in grid]
        assert threshold is not None and 0 < threshold < grid[-1]
        assert curve[0] > 0.0
        for s, b in zip(grid, curve):
            if s > threshold:
                assert b == 0.0


def mixed_population(n, seed, sigma_max=20.0):
    """An n-user game in which users i % 3 == 0 and 1 have s_star inside
    [0, sigma_max] and a flat cost below their gain from perturbing at
    sigma_L = 0 (the learner can dissuade them), and users i % 3 == 2 have
    s_star beyond sigma_max and a cost below their gain there (no sigma_L in
    range dissuades them)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = float(n * n)  # N^2 Lambda^2 with Lambda = 1
    users = []
    for i in range(n):
        gamma, rho = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5))
        at = sigma_max if i % 3 == 2 else 0.0
        s_star = float(rng.uniform(1.5, 3.0) if i % 3 == 2 else rng.uniform(0.3, 0.9)) * sigma_max
        p_bar = 2.0 * gamma * s_star * (1.0 + rho * s_star) ** 2 / (rho * scale)
        gain = (
            p_bar / (1.0 + rho * at)
            - p_bar / (1.0 + rho * s_star)
            - gamma * (s_star**2 - at**2) / scale
        )
        users.append(UserParams(100.0, gamma, p_bar, rho, float(rng.uniform(0.1, 0.9)) * gain))
    return GameConfig(
        learner=LearnerParams(100.0, 1.0, 0.2, 1.0, n),
        users=tuple(users),
        solver=SolverSettings(sigma_max=sigma_max, grid_step=0.02),
    )


def default_at_sigma_max_2():
    """default.cfg searched up to sigma_max = 2, below its user's s* = 6.96."""
    config = load_shipped_config("default")
    return replace(config, solver=replace(config.solver, sigma_max=2.0))


class TestPerturbingRegime:
    """The oracle and the solve play one game, in which a user's own noise
    runs past sigma_max: where users want more noise than that, they agree."""

    @pytest.mark.parametrize(
        "make",
        [default_at_sigma_max_2, partial(mixed_population, 4, 3)]
        + [partial(mixed_population, n, seed) for n in range(1, 7) for seed in range(3)],
        ids=["default_sigma_max_2", "mixed_4_3"] + [f"mixed_{n}_{seed}" for n in range(1, 7) for seed in range(3)],
    )
    def test_oracle_agrees_with_the_solve(self, make):
        """U_L within the users' own-noise grid error: a response off by up
        to its column's step h_i = fine_step * max(sigma_max, s*_i) /
        sigma_max moves U_L by about gamma_L * s*_i * h_i / (N Lambda)^2,
        summed over users, plus _ORACLE_UTILITY_TOL."""
        config, fine_step = make(), 0.01
        fast, slow = stackelberg_solve(config), brute_force_equilibrium(config, fine_step)
        n, lp, sigma_max = config.n_users, config.learner, config.solver.sigma_max
        tol = _ORACLE_UTILITY_TOL
        for s in s_stars_of(config):
            tol += lp.accuracy_weight * s * (fine_step * max(sigma_max, s) / sigma_max) / (n * lp.regularizer) ** 2
        assert abs(fast.learner_utility - slow.learner_utility) <= tol

    @pytest.mark.parametrize(
        "make",
        [default_at_sigma_max_2, partial(mixed_population, 3, 0), partial(mixed_population, 4, 3),
         partial(mixed_population, 6, 1)],
        ids=["default_sigma_max_2", "mixed_3_0", "mixed_4_3", "mixed_6_1"],
    )
    def test_both_play_past_sigma_max(self, make):
        config = make()
        sigma_max = config.solver.sigma_max
        for result in (stackelberg_solve(config), brute_force_equilibrium(config, 0.01)):
            assert max(result.sigma_S_star) > sigma_max


@st.composite
def games(draw):
    n = draw(st.integers(1, 4))

    def real(lo, hi):
        return draw(st.floats(lo, hi))

    users = tuple(
        UserParams(real(0.0, 10.0), real(0.1, 3.0), real(0.0, 20.0), real(0.05, 2.0), real(0.0, 3.0))
        for _ in range(n)
    )
    learner = LearnerParams(real(0.0, 10.0), real(0.0, 2.0), real(0.0, 1.0), real(0.5, 2.0), n)
    tie = draw(st.sampled_from([0.0, 1e-9]))
    return GameConfig(learner, users, solver=SolverSettings(10.0, 0.05, tie_epsilon=tie))


sigma_levels = st.floats(0.0, 12.0)


class TestBestResponseKernel:
    def test_one_s_star_per_user_per_solve(self, monkeypatch):
        config = mixed_population(8, seed=3)
        calls = []
        real = solver.effective_noise_target

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "effective_noise_target", counting)
        result = stackelberg_solve(config)
        assert len(calls) == config.n_users
        monkeypatch.undo()
        # the population mixes users the learner dissuades, users it leaves
        # perturbing and users no sigma_L in range dissuades
        thresholds = result.per_user_thresholds
        assert None in thresholds and any(t is not None and t > 0 for t in thresholds)
        assert any(s > 0 for s in result.sigma_S_star)
        # the kernel's thresholds and responses are the public queries' values
        assert thresholds == tuple(dissuasion_threshold(i, config) for i in range(8))
        assert result.sigma_S_star == tuple(
            user_best_response(result.sigma_L_star, i, config) for i in range(8)
        )

    @settings(max_examples=100, deadline=None)
    @given(games(), sigma_levels)
    def test_leader_objective_matches_per_user_path(self, config, sigma_L):
        brs = tuple(user_best_response(sigma_L, i, config) for i in range(config.n_users))
        expected = learner_utility(config, StrategyProfile(sigma_L, brs))
        assert leader_objective(sigma_L, config) == expected
        s_stars = s_stars_of(config)
        assert scalar_objective(config, sigma_L, s_stars, solver._cuts(config, s_stars)) == expected

    @settings(max_examples=100, deadline=None)
    @given(games(), sigma_levels, st.lists(sigma_levels, min_size=1, max_size=5), st.integers(0, 3))
    def test_own_noise_rows_match_user_utility(self, config, sigma_L, own, i):
        i %= config.n_users
        expected = []
        for sigma_S in own:
            sigma = [0.0] * config.n_users
            sigma[i] = sigma_S
            expected.append(user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma))))
        levels = np.array(own)
        params = panel._user_columns(config)[:, i]
        assert panel._own_noise(config.n_users, params, sigma_L * sigma_L, levels, levels).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(games(), sigma_levels)
    def test_best_response_is_argmax_of_user_utility(self, config, sigma_L):
        tie = config.solver.tie_epsilon
        for i in range(config.n_users):
            br = user_best_response(sigma_L, i, config)
            cand = interior_point(sigma_L, config, i)
            if cand is None:
                assert br == 0.0
                continue
            sigma = [0.0] * config.n_users
            u0 = user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma)))
            sigma[i] = cand
            gain = user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma))) - u0
            if abs(gain - tie) > 1e-12:
                assert br == (cand if gain > tie else 0.0)

    @pytest.mark.parametrize("sigma_L", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "query",
        [
            lambda s, c: user_best_response(s, 0, c),
            best_response_profile,
            leader_objective,
        ],
        ids=["user_best_response", "best_response_profile", "leader_objective"],
    )
    def test_public_queries_reject_bad_sigma_L(self, query, sigma_L):
        with pytest.raises(ValueError, match="sigma_L"):
            query(sigma_L, simple_config())

    @pytest.mark.parametrize("i", [-1, 1])
    @pytest.mark.parametrize(
        "query",
        [partial(user_best_response, 0.0), dissuasion_threshold],
        ids=["user_best_response", "dissuasion_threshold"],
    )
    def test_public_queries_reject_bad_user_index(self, query, i):
        # default.cfg has one user; -1 must not answer for the last one
        config = load_shipped_config("default")
        with pytest.raises(IndexError, match=f"^user index {i} out of range for N=1$"):
            query(i, config)


def full_scan_table(config, grid, levels):
    """The (N, m) best-response table by a scan of every cell, user i's own
    noise over levels[i], the oracle's kernel before its branch and bound:
    the reference the pruned table must equal."""
    n = config.n_users
    table = []
    for u, column in zip(config.users, np.asarray(levels)):
        squares = column * column
        coef, cost = u.accuracy_weight / (n * config.learner.regularizer**2), u.perturbation_cost * (column > 0)
        row = []
        for sigma_L in grid:
            eff = np.sqrt(sigma_L * sigma_L + squares)
            spread = sigma_L * sigma_L + squares / n
            utility = u.baseline_gain - coef * spread - u.max_privacy_loss / (1.0 + u.privacy_rate * eff) - cost
            row.append(column[utility.argmax()])
        table.append(row)
    return np.array(table)


def same_column(config, grid):
    """grid as every user's column of own noise levels."""
    return np.tile(grid, (config.n_users, 1))


def rescaled_columns(config, grid):
    """Each user's column: grid scaled to end at 2.5, 0.4, 1 or 40 times its
    last point, by user, as the oracle scales a user's column to its bound."""
    unit = grid / grid[-1]
    return np.array([unit * (grid[-1] * (2.5, 0.4, 1.0, 40.0)[i % 4]) for i in range(config.n_users)])


def flat_game(n, sigma_max=10.0):
    """User 0 has no accuracy weight, privacy stake or cost, so its utility
    is the same at every own noise level and the bound of each row's rest
    ties level 0, which settles the row; the other users are peaked."""
    flat = UserParams(1.0, 0.0, 0.0, 1.0, 0.0)
    peaked = UserParams(5.0, 1.0, 8.0, 1.0, 0.1)
    return GameConfig(
        learner=LearnerParams(5.0, 1.0, 0.2, 1.0, n),
        users=(flat,) + (peaked,) * (n - 1),
        solver=SolverSettings(sigma_max=sigma_max, grid_step=0.05),
    )


def saturating_game(sigma_max):
    """One user whose utility, at float resolution, rises from own noise 0
    and is level at its baseline gain of 1 once the effective noise reaches
    0.1: its accuracy weight is too small to move 1 - w * s^2, and its
    privacy loss P / (1 + s) falls to 2^-54, half the spacing below 1, at
    s = 0.1.  So the row stage leaves open each sigma_L row below 0.1, where
    the row rises, and on a grid whose first block ends past 0.1 such a row
    is level from there on: the block stage prunes none of its blocks."""
    return GameConfig(
        learner=LearnerParams(5.0, 1.0, 0.2, 1.0, 1),
        users=(UserParams(1.0, 1e-20, 1.1 * 2.0**-54, 1.0, 0.0),),
        solver=SolverSettings(sigma_max=sigma_max),
    )


def never_perturbing_game(sigma_max):
    """One user whose flat cost exceeds its privacy stake: level 0 wins
    every row of its table."""
    return GameConfig(
        learner=LearnerParams(5.0, 1.0, 0.2, 1.0, 1),
        users=(UserParams(5.0, 1.0, 1.0, 1.0, 2.0),),
        solver=SolverSettings(sigma_max=sigma_max),
    )


def costless(config):
    """config with every user's flat cost N_bar at 0: no bound prunes the
    rest of block 0 by the cost its first level, 0, does not pay."""
    users = tuple(replace(u, perturbation_cost=0.0) for u in config.users)
    return replace(config, users=users)


def evaluations(monkeypatch):
    """Two lists that collect the size of each _own_noise result (cells) and
    of each _settled_row_blocks result (one margin per user and sigma_L
    block) while the monkeypatch holds."""
    cells, margins = [], []
    for name, sizes in (("_own_noise", cells), ("_settled_row_blocks", margins)):

        def counting(*args, real=getattr(panel, name), sizes=sizes):
            values = real(*args)
            sizes.append(values.size)
            return values

        monkeypatch.setattr(panel, name, counting)
    return cells, margins


def settled_rows(config, grid):
    """(rows, rest, level_0), each (N, m): the sigma_L rows that
    _settled_row_blocks settles for each user on the table's blocks of
    grid, and the row test's two cells, the rest's bound and level 0."""
    n, m = config.n_users, len(grid)
    k = max(2, math.isqrt(m))
    blocks = np.append(grid, [grid[-1]] * (-m % k)).reshape(-1, k)
    firsts, lasts, columns = blocks[:, 0], blocks[:, -1], panel._user_columns(config)
    settled = panel._settled_row_blocks(n, columns, firsts * firsts, lasts * lasts, grid[1], grid[-1])
    sigma_sq = grid * grid
    rest = panel._own_noise(n, columns, sigma_sq, grid[1:2], grid[-1:])
    level_0 = panel._own_noise(n, columns, sigma_sq, grid[:1], grid[:1])
    return np.repeat(settled, k, axis=1)[:, :m], rest, level_0


class TestOwnNoiseKernel:
    def test_table_evaluates_under_a_tenth_of_the_cells(self, monkeypatch):
        # with no flat cost the users with a privacy stake perturb, so their
        # sigma_L blocks fall back to the row test and the block stage runs;
        # its bound prunes most blocks: a full scan evaluates all m^2 * N cells
        config, fine_step = costless(random_small_config(0)), 1e-3
        cells, _ = evaluations(monkeypatch)
        brute_force_equilibrium(config, fine_step)
        m = round(config.solver.sigma_max / fine_step) + 1
        assert 0 < sum(cells) < 0.1 * m * m * config.n_users

    def test_sweep_scores_its_own_noise_table_in_one_call(self, monkeypatch):
        # one broadcast over (samples, N, M), not a call per sample and user
        calls = []
        real = panel._own_noise

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(panel, "_own_noise", counting)
        config = mixed_population(8, 3)
        own = solver.sweep(config, 0.0, config.solver.sigma_max, config.solver.grid_step)[2]
        assert len(calls) == 1 and own.shape == (5, 8, 1001)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(games(), st.builds(mixed_population, st.integers(1, 6), st.integers(0, 2**32 - 1))),
        st.floats(0.0, 30.0),
        st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8),
        st.integers(0, 5),
    )
    def test_block_bound_is_sound(self, config, sigma_L, levels, i):
        """No cell of a block of non-decreasing own noise levels exceeds the
        block's bound, the kernel at its first level for the accuracy and
        cost terms and at its last for the privacy term: exactly, not up to
        rounding."""
        i %= config.n_users
        block = np.sort(levels)
        sigma_sq, n, params = sigma_L * sigma_L, config.n_users, panel._user_columns(config)[:, i]
        bound = panel._own_noise(n, params, sigma_sq, block[:1], block[-1:])
        assert (panel._own_noise(n, params, sigma_sq, block, block) <= bound).all()

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(games(), st.builds(mixed_population, st.integers(1, 6), st.integers(0, 2**32 - 1))),
        st.floats(0.0, 30.0),
        st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8),
        st.integers(0, 5),
    )
    def test_rest_of_block_bound_is_sound(self, config, sigma_L, levels, i):
        """No level after a block's first exceeds the bound of the block's
        rest, the kernel at its second level for the accuracy and cost terms
        and at its last for the privacy term: exactly, not up to rounding.
        The first level is scored exactly, as one of the row's candidates."""
        i %= config.n_users
        block = np.sort(levels)
        sigma_sq, n, params = sigma_L * sigma_L, config.n_users, panel._user_columns(config)[:, i]
        bound = panel._own_noise(n, params, sigma_sq, block[1:2], block[-1:])
        assert (panel._own_noise(n, params, sigma_sq, block[1:], block[1:]) <= bound).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_block_is_scanned_where_no_user_perturbs(self, seed, monkeypatch):
        # every user's cost exceeds its privacy stake, so level 0 wins every
        # row and every block of k = 63 sigma_L rows settles at once: the
        # table takes one margin per user and block, 64 * N, and scores no cell
        config, fine_step = random_small_config(seed), 1e-3
        cells, margins = evaluations(monkeypatch)
        result = brute_force_equilibrium(config, fine_step)
        m = round(config.solver.sigma_max / fine_step) + 1
        assert m == 4001 and math.isqrt(m) == 63
        assert not any(result.sigma_S_star)
        assert sum(cells) == 0 and sum(margins) == 64 * config.n_users

    def test_never_perturbing_user_at_the_largest_grid_settles_blocks(self, monkeypatch):
        # one user at m = 44,721 points, the largest grid the budget allows
        # at N = 1: its 212 blocks of 211 sigma_L rows settle, one margin a
        # block, and no cell is scored
        config = never_perturbing_game(50.0)
        grid = panel._grid(0.0, 50.0, 50.0 / 44_720, 44_721)
        assert len(grid) == math.isqrt(solver._BRUTE_FORCE_BUDGET)
        cells, margins = evaluations(monkeypatch)
        tracemalloc.start()
        try:
            table = panel._best_response_table(config, panel._user_columns(config), grid, same_column(config, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not table.any() and sum(cells) == 0 and margins == [212]
        assert peak < 3_000_000

    def test_blocks_with_a_perturbing_user_fall_back_to_the_row_test(self, monkeypatch):
        # mixed_population's two users perturb below their thresholds, so
        # the sigma_L blocks there stay open and each of their rows takes the
        # row test, 2 * N cells; blocks past both thresholds settle
        config = mixed_population(2, 3)
        grid = panel._grid(0.0, 20.0, 0.05, 2001)
        m, k = 401, 20
        row_cells, settled = [], []
        own_noise, settle = panel._own_noise, panel._settled_row_blocks

        def counting(*args):
            values = own_noise(*args)
            if np.ndim(args[1]) == 3:  # all N users' columns: the row test
                row_cells.append(values.size)
            return values

        def recording(*args):
            settled.append(settle(*args))
            return settled[-1]

        monkeypatch.setattr(panel, "_own_noise", counting)
        monkeypatch.setattr(panel, "_settled_row_blocks", recording)
        table = panel._best_response_table(config, panel._user_columns(config), grid, same_column(config, grid))
        [blocks] = settled
        open_rows = int(np.repeat(~blocks.all(axis=0), k)[:m].sum())
        assert len(grid) == m and blocks.shape == (2, 21)
        assert blocks.any() and 0 < open_rows < m
        assert sum(row_cells) == 2 * 2 * open_rows
        assert table.tolist() == full_scan_table(config, grid, same_column(config, grid)).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(games(), st.builds(mixed_population, st.integers(1, 6), st.integers(0, 2**32 - 1))),
        st.integers(1, 300),
    )
    def test_rows_of_a_settled_block_full_scan_to_level_0(self, config, intervals):
        """In each sigma_L block that _settled_row_blocks settles for a user,
        every row's rest bound is at most level 0 and the full scan picks
        level 0: exactly, not up to rounding."""
        sigma_max = config.solver.sigma_max
        grid = panel._grid(0.0, sigma_max, sigma_max / intervals, 301)
        rows, rest, level_0 = settled_rows(config, grid)
        assert not (rows & (rest > level_0)).any()
        assert not (rows & (full_scan_table(config, grid, same_column(config, grid)) > 0)).any()

    @pytest.mark.parametrize("intervals", [1, 7, 40, 300])
    def test_margin_covers_the_cells_rounding_at_near_ties(self, intervals):
        """2,000 users whose flat cost puts the first sigma_L block's bound
        within 1 or 1,000 ulps of their gain or stake of 0, with privacy
        rates up to 1e20, so that the block's first row agrees with the bound
        to rounding: no block settles where a row's rest bound exceeds level
        0.  Without _settled_row_blocks' rounding margin some of them do."""
        rng = np.random.Generator(np.random.PCG64(intervals))
        n, sigma_max = 2000, 10.0
        grid = panel._grid(0.0, sigma_max, sigma_max / intervals, 301)
        k = max(2, math.isqrt(len(grid)))
        s_hi, level_1, top = grid[k - 1] ** 2, float(grid[1]), float(grid[-1])
        gains = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 3.0, n)
        weights, losses = rng.uniform(0.1, 3.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n)
        rates = 10.0 ** rng.uniform(0.0, 20.0, n)
        w = weights / n
        gaps = losses - losses / (1.0 + rates * math.sqrt(s_hi + top * top)) - w * (level_1**2 / n)
        ulps = rng.uniform(-1.0, 1.0, n) * rng.choice([1.0, 1000.0], n)  # at the tie, or past the margin
        costs = np.maximum(0.0, gaps + ulps * np.spacing(np.maximum(abs(gains), losses)))
        users = tuple(map(UserParams, *(a.tolist() for a in (gains, weights, losses, rates, costs))))
        config = GameConfig(LearnerParams(5.0, 1.0, 0.2, 1.0, n), users, SolverSettings(sigma_max))
        rows, rest, level_0 = settled_rows(config, grid)
        assert rows[:, 0].any()
        assert not (rows & (rest > level_0)).any()

    @pytest.mark.parametrize("intervals", [1, 2, 16, 99, 1999.5, 2000])
    @pytest.mark.parametrize(
        "make",
        [partial(load_shipped_config, name) for name in SHIPPED_CONFIGS]
        + [
            partial(parse_config_text, THREE_USERS),
            partial(mixed_population, 4, 3),
            partial(mixed_population, 6, 1),
            partial(random_small_config, 0),
            partial(random_small_config, 7),
            partial(flat_game, 1),
            partial(flat_game, 3),
            lambda: costless(mixed_population(4, 3)),
            partial(saturating_game, 20.0),
        ],
        ids=list(SHIPPED_CONFIGS)
        + ["three_users", "mixed_4", "mixed_6", "random_0", "random_7", "flat_1", "flat_3", "costless_mixed_4",
           "saturating"],
    )
    def test_table_equals_full_scan(self, make, intervals):
        config = make()
        sigma_max = config.solver.sigma_max
        grid = panel._grid(0.0, sigma_max, sigma_max / intervals, 2001)
        for levels in (same_column(config, grid), rescaled_columns(config, grid)):
            table = panel._best_response_table(config, panel._user_columns(config), grid, levels)
            assert table.tolist() == full_scan_table(config, grid, levels).tolist()
        if config.users[0].accuracy_weight == 0:  # a flat row: ties go to the smallest level
            assert not table[0].any()

    def test_flat_rows_are_settled_by_the_row_stage(self, monkeypatch):
        # the bound of a flat row's rest ties level 0, which wins the tie:
        # 2 * m cells in all, where the block stage would scan every cell
        config = flat_game(1, sigma_max=20.0)
        grid = panel._grid(0.0, 20.0, 1e-3, 10**6)
        cells = []
        real = panel._own_noise

        def counting(*args):
            values = real(*args)
            cells.append(values.size)
            return values

        monkeypatch.setattr(panel, "_own_noise", counting)
        table = panel._best_response_table(config, panel._user_columns(config), grid, same_column(config, grid))
        assert not table.any() and sum(cells) == 2 * len(grid)

    def test_block_stage_memory_is_bounded(self, monkeypatch):
        # the worst case of the block stage: the 100 sigma_L rows below 0.1
        # keep all 142 blocks of 141 levels live, each row costing its 142
        # first levels, 142 bounds and every one of its 142 * 141 cells after
        # the row stage's 2 * m.  A chunk of 8192 // 142 = 57 such rows
        # allocates the stage's largest arrays
        config = saturating_game(20.0)
        grid = panel._grid(0.0, 20.0, 1e-3, 10**6)
        m, k, blocks = 20_001, 141, 142
        assert len(grid) == m and math.isqrt(m) == k and blocks * k >= m > (blocks - 1) * k
        cells = []
        real = panel._own_noise

        def counting(*args):
            values = real(*args)
            cells.append(values.size)
            return values

        monkeypatch.setattr(panel, "_own_noise", counting)
        tracemalloc.start()
        try:
            table = panel._best_response_table(config, panel._user_columns(config), grid, same_column(config, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table[0, :100].all() and not table[0, 100:].any()
        assert sum(cells) == 2 * m + 100 * (2 * blocks + blocks * k)
        assert peak < 3_000_000

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(games(), st.builds(mixed_population, st.integers(1, 6), st.integers(0, 2**32 - 1))),
        st.integers(1, 40),
        st.sampled_from([same_column, rescaled_columns]),
    )
    def test_table_is_argmax_of_user_utility(self, config, intervals, columns):
        """Each entry is the first level of user i's column at which its
        utility, with every other user at 0, is highest."""
        sigma_max = config.solver.sigma_max
        step = sigma_max / intervals
        grid = panel._grid(0.0, sigma_max, step, 41).tolist()
        levels = columns(config, np.array(grid)).tolist()
        table = panel._best_response_table(config, panel._user_columns(config), np.array(grid), levels)
        n = config.n_users
        for sigma_L, row in zip(grid, table.T.tolist()):
            for i in range(n):

                def utility(s):
                    return user_utility(
                        config, i, StrategyProfile(sigma_L, tuple(s if k == i else 0.0 for k in range(n)))
                    )

                assert row[i] == max(levels[i], key=utility)


def panel_games():
    games = [load_shipped_config(name) for name in SHIPPED_CONFIGS]
    games.append(parse_config_text(THREE_USERS))
    games += [mixed_population(n, s) for n in range(1, 17) for s in range(4)]
    return games + [random_small_config(seed) for seed in range(40)]


def scalar_columns(config, points):
    """Best responses, U_L and each U_S at each sigma_L in points, by the
    scalar responses and the public utilities."""
    s_stars = s_stars_of(config)
    cuts = solver._cuts(config, s_stars)
    responses, leader, users = [], [], []
    for x in points:
        profile = StrategyProfile(x, scalar_responses(x, s_stars, cuts))
        responses.append(list(profile.sigma_S))
        leader.append(learner_utility(config, profile))
        users.append([user_utility(config, i, profile) for i in range(config.n_users)])
    return responses, leader, users


class TestUtilityPanel:
    """The best responses and the numpy panel that score the sweep and the
    oracle, and the scalar response that the solve plays, equal
    the scalar reference and the public utilities exactly, not
    approximately."""

    @pytest.mark.parametrize("config", panel_games())
    def test_best_responses_equal_scalar_reference(self, config):
        s_stars = s_stars_of(config)
        cuts = solver._cuts(config, s_stars)
        points = panel._grid(0.0, config.solver.sigma_max, config.solver.grid_step, 10**6).tolist()
        points += [x for t in cuts for x in (math.nextafter(t, 0.0), t)]  # the one-sided limits
        got = panel._best_responses(np.array(points), s_stars, cuts)
        assert got.T.tolist() == [scalar_responses(x, s_stars, cuts) for x in points]

    @pytest.mark.parametrize("config", panel_games())
    def test_one_response_kernel_at_every_candidate(self, config):
        # the scalar response, which the solve and the per-user queries play,
        # is _best_responses bit for bit at every candidate of the solve
        s_stars = s_stars_of(config)
        cuts = solver._cuts(config, s_stars)
        points = all_candidates(config, cuts)
        got = panel._best_responses(np.array(points), s_stars, cuts).T.tolist()
        assert got == [[solver._response(x, s, t) for s, t in zip(s_stars, cuts)] for x in points]

    @pytest.mark.parametrize("config", panel_games())
    def test_sweep_equals_scalar_kernel(self, config):
        settings = config.solver
        grid, samples, own, responses, leader, users = solver.sweep(
            config, 0.0, settings.sigma_max, settings.grid_step
        )
        expected = scalar_columns(config, grid.tolist())
        assert (responses.T.tolist(), leader.tolist(), users.T.tolist()) == expected
        # the own-noise table, each user alone with every other user at 0, at
        # every sample and about 64 levels of each row, both ends included: a
        # cell's arithmetic is the same at every level, and all of them cost
        # 5 * N * M public evaluations
        n, m = config.n_users, len(grid)
        levels = sorted({*range(0, m, -(-m // 64)), m - 1})
        for x, table in zip(samples.tolist(), own.tolist()):
            for i, row in enumerate(table):
                sigma = [0.0] * n
                for k in levels:
                    sigma[i] = float(grid[k])
                    assert row[k] == user_utility(config, i, StrategyProfile(x, sigma))
        # the two one-sided limits at each cut, each as a one-point sweep
        s_stars = s_stars_of(config)
        for t in solver._cuts(config, s_stars):
            for x in (math.nextafter(t, 0.0), t):
                _, _, _, responses, leader, users = solver.sweep(config, x, x, 1.0)
                got = (responses.T.tolist(), leader.tolist(), users.T.tolist())
                assert got == scalar_columns(config, [x])

    @pytest.mark.parametrize(
        "shape",
        [(1, 500), (3, panel._ROW_SUM_WIDTH - 1), (3, panel._ROW_SUM_WIDTH), (16, 35), (16, 300), (3, 4001),
         (300, 2)],
    )
    def test_user_sum_equals_accumulate_on_both_sides_of_the_crossover(self, shape):
        # magnitudes 1e-20 to 1e20, so another order of the adds gives other
        # floats, with -0.0, +-inf and NaN among them
        rng = np.random.Generator(np.random.PCG64(shape[1]))
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
        rows.flat[::97] = -0.0
        rows.flat[5::211], rows.flat[7::307], rows.flat[11::401] = math.inf, -math.inf, math.nan
        with np.errstate(invalid="ignore"):  # inf + -inf
            expected = np.add.accumulate(rows, axis=0)[-1]
            assert panel._user_sum(rows.copy()).tobytes() == expected.tobytes()
            if shape[0] > 2:
                assert np.add.accumulate(rows[::-1], axis=0)[-1].tobytes() != expected.tobytes()

    @pytest.mark.parametrize("config", panel_games()[:5] + [mixed_population(8, 3)])
    def test_oracle_leader_row_equals_scalar_kernel(self, config, monkeypatch):
        calls = []
        real = panel._utility_panel

        def recording(config, columns, sigma_L, responses):
            result = real(config, columns, sigma_L, responses)
            calls.append((sigma_L.tolist(), np.transpose(responses).tolist(), result[0].tolist()))
            return result

        monkeypatch.setattr(panel, "_utility_panel", recording)
        brute_force_equilibrium(config, config.solver.sigma_max / 400)
        [(grid, table, leader)] = calls
        assert len(grid) == 401
        assert leader == [learner_utility(config, StrategyProfile(s, row)) for s, row in zip(grid, table)]


def decimal_utilities(config, sigma_L, sigma_S, digits=50):
    """(U, M) for the learner, then for each user, at the profile (sigma_L,
    sigma_S), in decimal at `digits` significant digits with every parameter
    and noise level taken exactly: U is the utility as game.py states it,
    G_bar - gamma / (N Lambda^2) * (sigma_L^2 + sum_j sigma_S[j]^2 / N) -
    privacy - N_bar [noise > 0], a user's privacy loss P_bar / (1 + rho *
    sqrt(sigma_L^2 + sigma_S[i]^2)) and the learner's the users' mean; M is
    the sum of its four terms' magnitudes.  Independent of the float kernels."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        n, lp, x = D(config.n_users), config.learner, D(sigma_L)
        own = [D(s) for s in sigma_S]
        spread = x * x + sum(s * s for s in own) / n
        losses = [D(u.max_privacy_loss) / (1 + D(u.privacy_rate) * (x * x + s * s).sqrt())
                  for u, s in zip(config.users, own)]

        def utility(gain, weight, privacy, cost, noise):
            terms = [D(gain), -D(weight) / (n * D(lp.regularizer) ** 2) * spread, -privacy,
                     -D(cost) if noise > 0 else D(0)]
            return sum(terms), sum(map(abs, terms))

        leader = utility(lp.baseline_gain, lp.accuracy_weight, sum(losses) / n, lp.perturbation_cost, sigma_L)
        return [leader] + [utility(u.baseline_gain, u.accuracy_weight, loss, u.perturbation_cost, s)
                           for u, loss, s in zip(config.users, losses, sigma_S)]


def utility_ulps(n):
    """Float error of a utility in ulps of the sum M of its terms' magnitudes.
    Each step is one correctly rounded operation (relative error u = 2^-53),
    and after k steps a product, quotient, square root or sum of
    nonnegative terms is within gamma_k = k u / (1 - k u) relative: the
    accuracy term takes 3 steps for gamma / (N Lambda^2), N + 2 for the
    spread (two squares, / N, N additions) and 1 for their product; a
    user's privacy loss 6 (two squares, +, sqrt, rho *, 1 +, P_bar /) and
    the learner's N more (N - 1 additions, / N); the three subtractions add
    at most u M each.  So the error is below gamma_{N+9} M < (N + 10) u M,
    and u M < ulp(M)."""
    return n + 10


class TestDecimalUtilities:
    @pytest.mark.parametrize("config", panel_games())
    def test_equilibrium_utilities_match_decimal_reference(self, config):
        result = stackelberg_solve(config)
        got = [result.learner_utility, *result.user_utilities]
        reference = decimal_utilities(config, result.sigma_L_star, result.sigma_S_star)
        for value, (exact, scale) in zip(got, reference):
            bound = utility_ulps(config.n_users) * math.ulp(float(scale))
            assert abs(decimal.Decimal(value) - exact) <= bound, (value, exact, bound)


def assert_result_is_the_public_definition(config, result):
    """The result's utilities are the public utilities of its profile, and
    every field is a Python float (an np.float64 prints as np.float64(...))."""
    profile = StrategyProfile(result.sigma_L_star, result.sigma_S_star)
    assert result.learner_utility == learner_utility(config, profile)
    assert result.user_utilities == tuple(user_utility(config, i, profile) for i in range(config.n_users))
    fields = [result.sigma_L_star, *result.sigma_S_star, result.learner_utility, *result.user_utilities]
    fields += [t for t in result.per_user_thresholds if t is not None]
    assert all(type(v) is float for v in fields)


def assert_results_are_the_public_definition(config):
    result = stackelberg_solve(config)
    assert_result_is_the_public_definition(config, result)
    assert result.sigma_S_star == best_response_profile(result.sigma_L_star, config).sigma_S
    assert result.learner_utility == leader_objective(result.sigma_L_star, config)
    oracle = brute_force_equilibrium(config, config.solver.sigma_max / 200)
    assert_result_is_the_public_definition(config, oracle)


class TestResultFields:
    @pytest.mark.parametrize("config", panel_games())
    def test_results_are_the_public_definition(self, config):
        assert_results_are_the_public_definition(config)

    @settings(max_examples=50, deadline=None)
    @given(games())
    def test_results_are_the_public_definition_on_random_games(self, config):
        assert_results_are_the_public_definition(config)

    def test_solve_memory_is_bounded_in_n(self):
        # the solve holds O(N) plain floats, a few per user: 0.36 MB traced
        # here and 0.66 MB at N = 2,048
        config = mixed_population(1024, 1)
        tracemalloc.start()
        try:
            stackelberg_solve(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def corner_utilities(config, top):
    """U_L and each U_S at the corner solver._admissible checks: sigma_L =
    top, every user at max(top, s_star), or at top if its threshold is 0,
    every privacy loss at P_bar and every flat cost paid, in the kernels'
    order of operations."""
    n, lp = config.n_users, config.learner
    spread, losses = top * top, 0.0
    for i, (u, s) in enumerate(zip(config.users, s_stars_of(config))):
        level = top if dissuasion_threshold(i, config) == 0.0 else max(top, s)
        spread += level * level / n
        losses += u.max_privacy_loss
    scale = n * lp.regularizer**2
    leader = lp.baseline_gain - lp.accuracy_weight / scale * spread - losses / n - lp.perturbation_cost
    users = [u.baseline_gain - u.accuracy_weight / scale * spread - u.max_privacy_loss - u.perturbation_cost
             for u in config.users]
    return leader, np.array(users)[:, None]


# default.cfg with learner.gamma = 5e304: no scored sigma_L overflows U_L, the corner does
INADMISSIBLE = shipped_config_path("default").read_text().replace("learner.gamma  = 4", "learner.gamma  = 5e304")
# a user who never perturbs, with s* = 3.7e66 far above sigma_max = 1
NEVER_AT_TOP = parse_config_text(NEVER_PERTURBS + "solver.sigma_max = 1\nsolver.grid_step = 0.02\n")


class TestAdmissibility:
    """One rule decides, before any kernel runs, whether a command may
    solve a game: the utilities at the corner of its domain are finite."""

    @pytest.mark.parametrize("config", panel_games() + [NEVER_AT_TOP])
    def test_corner_bounds_every_evaluated_utility(self, config, monkeypatch):
        settings = config.solver
        leader_floor, user_floors = corner_utilities(config, settings.sigma_max)
        panels, scores = [], []

        def recording(kernel, into):
            def record(*args):
                into.append(kernel(*args))
                return into[-1]

            return record

        # the oracle and the sweep score by the panel, the solve by the scalar scorer
        monkeypatch.setattr(panel, "_utility_panel", recording(panel._utility_panel, panels))
        monkeypatch.setattr(solver, "_leader", recording(solver._leader, scores))
        result = stackelberg_solve(config)
        brute_force_equilibrium(config, settings.sigma_max / 200)
        own = solver.sweep(config, 0.0, settings.sigma_max, settings.grid_step)[2]
        assert len(panels) == 2 and len(scores) >= 2
        for leader, users in panels:
            assert (leader >= leader_floor).all() and (users >= user_floors).all()
        # U_L at every candidate the solve scores, and each U_S, which it evaluates at its winner only
        assert all(leader >= leader_floor for leader in scores)
        assert result.learner_utility >= leader_floor and (np.array(result.user_utilities) >= user_floors[:, 0]).all()
        assert (own >= user_floors).all()

    @pytest.mark.parametrize(
        "run",
        [
            stackelberg_solve,
            lambda config: brute_force_equilibrium(config, config.solver.sigma_max / 50),
            lambda config: solver.sweep(config, 0.0, config.solver.sigma_max, config.solver.grid_step),
        ],
        ids=["solve", "oracle", "sweep"],
    )
    def test_refusal_comes_before_any_kernel(self, run, monkeypatch):
        def kernel(*args):
            raise AssertionError("a kernel ran on an inadmissible game")

        for name in ("_utility_panel", "_own_noise", "_best_response_table"):
            monkeypatch.setattr(panel, name, kernel)
        with pytest.raises(SolverError, match=f"{OVERFLOW} = 50.0 "):
            run(parse_config_text(INADMISSIBLE))

    def test_corner_holds_a_never_perturbing_user_at_top(self):
        # a user whose cut is 0 plays 0 in the solve and the sweep's
        # responses and at most sigma_max in the oracle's and the own-noise
        # tables; without its flat cost it perturbs, up to s*, where the
        # learner's accuracy term overflows
        s_stars = s_stars_of(NEVER_AT_TOP)
        assert dissuasion_threshold(0, NEVER_AT_TOP) == 0.0 and s_stars[0] > 1e66
        assert solver._admissible(NEVER_AT_TOP, 1.0) == s_stars
        user = replace(NEVER_AT_TOP.users[0], perturbation_cost=0.0)
        perturbs = replace(NEVER_AT_TOP, users=(user,))
        assert dissuasion_threshold(0, perturbs) != 0.0
        with pytest.raises(SolverError, match=f"{OVERFLOW} = 1.0 "):
            solver._admissible(perturbs, 1.0)

    def test_grid_stops_at_its_top(self):
        # 3 * 0.1 rounds to 0.30000000000000004
        assert panel._grid(0.0, 0.3, 0.1, 10).tolist() == [0.0, 0.1, 0.2, 0.3]

    def test_grid_keeps_a_last_point_an_ulp_short_of_its_top(self):
        # 3 * 0.3 rounds to 0.8999999999999999, one ulp below 0.9: no pad
        assert panel._grid(0.0, 0.9, 0.3, 10).tolist() == [0.0, 0.3, 0.6, 0.8999999999999999]

    def test_grid_adds_no_near_duplicate_of_its_top(self):
        # 3071 steps of hi / 3071 round one ulp below hi, a rounding, not a
        # gap; above 8,192 that ulp exceeds 1e-12, so the tolerance scales with hi
        hi = 29410.020397065022
        grid = panel._grid(0.0, hi, hi / 3071, 10**6)
        assert len(grid) == 3072 and grid[-1] == math.nextafter(hi, 0.0)


def assert_no_grid_point_beats_the_solve(config, points):
    """No sigma_L of a grid on [0, sigma_max] beats the solve by more than
    tie_epsilon (near-ties go to the smaller sigma_L, so the solve may sit
    that far below its best candidate), up to float rounding: on a piece
    where every user perturbs the objective is flat, and its evaluations
    differ in the last bit."""
    s_stars = s_stars_of(config)
    cuts = solver._cuts(config, s_stars)
    best = max(
        scalar_objective(config, s, s_stars, cuts)
        for s in np.linspace(0.0, config.solver.sigma_max, points).tolist()
    )
    solved = stackelberg_solve(config).learner_utility
    assert best - solved <= config.solver.tie_epsilon + 1e-12 * max(1.0, abs(solved))


class TestCandidateSet:
    def test_solve_builds_no_grid(self, monkeypatch):
        def build(*args):
            raise AssertionError("stackelberg_solve built a grid")

        monkeypatch.setattr(panel, "_grid", build)
        for config in (load_shipped_config("default"), mixed_population(8, seed=3)):
            result = stackelberg_solve(config)
            assert result.sigma_S_star == tuple(
                user_best_response(result.sigma_L_star, i, config)
                for i in range(config.n_users)
            )

    @settings(max_examples=100, deadline=None)
    @given(games())
    def test_no_grid_point_beats_the_solve(self, config):
        assert_no_grid_point_beats_the_solve(config, 1001)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_no_grid_point_beats_the_solve_on_mixed_populations(self, n, seed):
        assert_no_grid_point_beats_the_solve(mixed_population(n, seed), 2001)


def counted(f, limit=2000):
    """f, raising once it has been called more than limit times."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"no stop after {limit} evaluations")
        return f(x)

    return wrapped


@contextlib.contextmanager
def line_guard(limit):
    """Raise AssertionError inside any one call of _cut, _candidates or
    _dyadic_cell once it has run more than limit lines."""
    codes = {solver._cut.__code__, solver._candidates.__code__, solver._dyadic_cell.__code__}

    def trace(frame, event, arg):
        if frame.f_code not in codes:
            return None
        lines = [0]

        def local(frame, event, arg):
            lines[0] += event == "line"
            if lines[0] > limit:
                raise AssertionError(f"no stop after {limit} lines of {frame.f_code.co_name}")
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(previous)


def slope_tilt(config, outside):
    """2 gamma_L / (N Lambda^2) * (|outside| / N), the slope's accuracy coefficient."""
    n, lp = config.n_users, config.learner
    return 2.0 * lp.accuracy_weight / (n * lp.regularizer**2) * (len(outside) / n)


def bisected_candidates(config, cuts):
    """The solve's candidates with each piece's slope root found by
    _bisect_root on _piece_slope."""
    sigma_max = config.solver.sigma_max
    breakpoints = sorted({t for t in cuts if 0.0 < t < sigma_max})
    candidates = {0.0, sigma_max}
    for t in breakpoints:
        candidates.update((math.nextafter(t, 0.0), t))
    edges = [0.0, *breakpoints, sigma_max]
    for lo, hi in zip(edges, edges[1:]):
        outside = [(u.max_privacy_loss, u.privacy_rate) for u, t in zip(config.users, cuts) if t <= lo]
        slope = partial(solver._piece_slope, outside=outside, n=config.n_users, tilt=slope_tilt(config, outside))
        if slope(lo) > 0 > slope(hi):
            candidates.add(solver._bisect_root(slope, lo, hi, config.solver.root_tol))
    return sorted(candidates)


def all_candidates(config, cuts):
    """Every sigma_L candidate of the unpruned solve: 0, sigma_max and each
    piece's _candidates."""
    sigma_max = config.solver.sigma_max
    edges = [0.0, *sorted({t for t in cuts if 0.0 < t < sigma_max}), sigma_max]
    found = {0.0, sigma_max}
    for lo, hi in zip(edges, edges[1:]):
        found.update(solver._candidates(config, cuts, lo, hi))
    return sorted(found)


class TestRootLoops:
    """_cut and _candidates run _bisect_root's loop with the function written
    inline: the same floats as _bisect_root on _margin and on _piece_slope."""

    def test_cuts_and_slope_roots_equal_bisect_root(self):
        games = panel_games() + [parse_config_text(text) for text, _ in fuzz_configs(1, 150)]
        cuts_found = roots_found = 0
        for config in games:
            s_stars = []
            for user in config.users:
                try:
                    s_stars.append(solver.effective_noise_target(user, config.learner, config.solver.root_tol))
                except SolverError:
                    s_stars.append(None)
            for user, s in zip(config.users, s_stars):
                if s is not None:
                    cut = solver._cut(user, s, config)
                    margin = solver._margin(user, s, config)
                    assert cut == (0.0 if margin(0.0) <= 0 else solver._bisect_root(margin, 0.0, s, 0.0))
                    cuts_found += cut > 0
            if None not in s_stars:
                cuts = solver._cuts(config, s_stars)
                candidates = all_candidates(config, cuts)
                assert candidates == bisected_candidates(config, cuts)
                roots_found += len(set(candidates) - {0.0, config.solver.sigma_max, *cuts,
                                                      *(math.nextafter(t, 0.0) for t in cuts)})
        assert cuts_found >= 200 and roots_found >= 40, (cuts_found, roots_found)


class TestFloatResolution:
    """The search stops once no float lies inside the bracket, also when
    that spacing is coarser than the requested tolerance."""

    @pytest.mark.parametrize("root", [6.956207695883, 1.7e100])
    def test_bisect_root(self, root):
        x = solver._bisect_root(counted(lambda s: root - s), 0.0, 2.0 * root, 1e-16)
        assert x == pytest.approx(root, rel=1e-15)

    @pytest.mark.parametrize(
        "line, value",
        [("solver.tol", "1e-16"), ("users[0].P_bar", "1e300")],
        ids=["tol_below_spacing", "huge_s_star"],
    )
    def test_solve_terminates(self, monkeypatch, line, value):
        text = "\n".join(
            f"{line} = {value}" if raw.startswith(line) else raw
            for raw in shipped_config_path("default").read_text().splitlines()
        )
        bisect = solver._bisect_root
        monkeypatch.setattr(
            solver, "_bisect_root", lambda f, lo, hi, tol: bisect(counted(f), lo, hi, tol)
        )
        config = parse_config_text(text)
        # the guard is live: every guarded function runs more than 3 lines
        with pytest.raises(AssertionError, match="no stop after 3 lines"), line_guard(3):
            stackelberg_solve(config)
        # _cut, _candidates and _dyadic_cell run their loops inline, out of
        # counted's reach: at most 2000 turns of a loop of at most 4 lines
        with line_guard(4 * 2000):
            result = stackelberg_solve(config)
        assert math.isfinite(result.learner_utility)


class TestFloatExactCandidates:
    """A user perturbs exactly below its threshold, which is bisected to
    float resolution, so the float below a threshold and the threshold
    itself are the one-sided limits of the leader objective there, and each
    piece's maximum is its slope's root to root_tol."""

    @pytest.mark.parametrize(
        "make",
        [*(partial(load_shipped_config, name) for name in SHIPPED_CONFIGS),
         partial(mixed_population, 8, 3), partial(mixed_population, 12, 5),
         # the closed-form gain is not monotone within a few ulps of these thresholds
         partial(mixed_population, 6, 1), partial(mixed_population, 12, 0),
         partial(mixed_population, 15, 0)],
        ids=[*SHIPPED_CONFIGS, "mixed_8", "mixed_12", "mixed_6_1", "mixed_12_0", "mixed_15_0"],
    )
    def test_best_response_flips_between_adjacent_floats(self, make):
        config = make()
        flips = [
            (i, t)
            for i in range(config.n_users)
            if (t := dissuasion_threshold(i, config)) is not None and 0 < t < config.solver.sigma_max
        ]
        assert flips
        for i, t in flips:
            assert user_best_response(math.nextafter(t, 0.0), i, config) > 0
            assert user_best_response(t, i, config) == 0.0
            assert user_best_response(math.nextafter(t, math.inf), i, config) == 0.0

    @pytest.mark.parametrize("name", ["default", "high_cost"])
    def test_solve_picks_the_first_dissuading_float(self, name):
        config = load_shipped_config(name)
        sigma_L = stackelberg_solve(config).sigma_L_star
        assert user_best_response(sigma_L, 0, config) == 0.0
        assert user_best_response(math.nextafter(sigma_L, 0.0), 0, config) > 0

    @pytest.mark.parametrize("n, seed", [(8, 3), (12, 5)])
    def test_piece_slope_is_the_objective_derivative(self, n, seed):
        config = mixed_population(n, seed)
        s_stars = s_stars_of(config)
        cuts = solver._cuts(config, s_stars)
        sigma_max = config.solver.sigma_max
        thresholds = {dissuasion_threshold(i, config) for i in range(n)}
        edges = [0.0, *sorted(t for t in thresholds if t is not None and 0 < t < sigma_max), sigma_max]

        def objective(x):
            return scalar_objective(config, x, s_stars, cuts)

        for lo, hi in zip(edges, edges[1:]):
            x, h = 0.5 * (lo + hi), 1e-4 * (hi - lo)
            responses = scalar_responses(x, s_stars, cuts)
            outside = [(u.max_privacy_loss, u.privacy_rate) for u, r in zip(config.users, responses) if r == 0]
            central = (objective(x + h) - objective(x - h)) / (2.0 * h)
            slope = solver._piece_slope(x, outside, n, slope_tilt(config, outside))
            assert slope == pytest.approx(central, rel=1e-6, abs=1e-8)

    def test_interior_maximum_is_the_slope_root(self):
        from scipy.optimize import brentq

        checked = 0
        for seed in range(40):
            config = random_small_config(seed)
            result = stackelberg_solve(config)
            if not 0 < result.sigma_L_star < config.solver.sigma_max:
                continue
            # nobody perturbs in these games, so the objective is one concave piece
            assert result.per_user_thresholds == (0.0,) * config.n_users
            n, lp = config.n_users, config.learner

            def slope(x):
                privacy = sum(
                    u.max_privacy_loss * u.privacy_rate / (1.0 + u.privacy_rate * x) ** 2
                    for u in config.users
                )
                return privacy / n - 2.0 * lp.accuracy_weight / (n * lp.regularizer**2) * x

            root = brentq(slope, 0.0, config.solver.sigma_max, xtol=1e-15)
            assert abs(result.sigma_L_star - root) <= 10 * config.solver.root_tol
            checked += 1
        assert checked == 21


# oracle grid points of the metamorphic relations: coarse, so that the
# 109 panel_games() cost about 0.1 s an oracle pass
ORACLE_POINTS = 100


def scaled_game(config, k):
    """config with every gain, gamma, P_bar and flat cost, the learner's
    too, and tie_epsilon multiplied by k."""
    lp = config.learner
    learner = replace(
        lp,
        baseline_gain=k * lp.baseline_gain,
        accuracy_weight=k * lp.accuracy_weight,
        perturbation_cost=k * lp.perturbation_cost,
    )
    users = tuple(
        replace(
            u,
            baseline_gain=k * u.baseline_gain,
            accuracy_weight=k * u.accuracy_weight,
            max_privacy_loss=k * u.max_privacy_loss,
            perturbation_cost=k * u.perturbation_cost,
        )
        for u in config.users
    )
    return GameConfig(learner, users, replace(config.solver, tie_epsilon=k * config.solver.tie_epsilon))


@cache
def interior_solve(n):
    """mixed_population(n, 0) with the learner's gamma scaled by max(1, n / 16),
    which keeps sigma_L* inside (0, sigma_max) with over a third of the
    users perturbing at N = 64-1024, and its solve."""
    config = mixed_population(n, 0)
    learner = replace(config.learner, accuracy_weight=config.learner.accuracy_weight * max(1, n / 16))
    config = replace(config, learner=learner)
    return config, stackelberg_solve(config)


LARGE_N = [64, 256, 1024]


@st.composite
def scaled_games(draw):
    """A games() game and k = 2^j, j in [-512, 1018] but not 0, such that
    every value scaled_game scales, and every value of the solve and the
    sweep that scales with k, stays in the normal range.  Each such value is
    a scaled parameter (below 2^5 here, so 2^1018 keeps it finite) times a
    factor of the noise levels, rho, N and Lambda.  Where the nonzero scaled
    parameters are at least 2^-64, s* is 0 or above about 2^-80, and a
    nonzero factor is at least about an ulp of s*^2, above 2^-300; so
    2^-512 keeps the value normal.  A game with a smaller parameter is
    skipped: where a value leaves the normal range, k rounds it anew."""
    config = draw(games())
    lp = config.learner
    scaled = [lp.baseline_gain, lp.accuracy_weight, lp.perturbation_cost, config.solver.tie_epsilon]
    for u in config.users:
        scaled += [u.baseline_gain, u.accuracy_weight, u.max_privacy_loss, u.perturbation_cost]
    assume(all(v == 0 or v >= 2.0**-64 for v in scaled))
    return config, 2.0 ** draw(st.integers(-512, 1017).map(lambda j: j + (j >= 0)))


class TestUtilityScale:
    """A power-of-two k scales s*'s right-hand side, every margin and every
    utility exactly, so the equilibrium cannot move and every utility is
    exactly k times as large: a relation that needs no oracle at any N."""

    @pytest.mark.parametrize("k", [0.25, 8.0])
    def test_power_of_two_scale_keeps_the_equilibrium(self, k):
        for config in panel_games():
            base, result = stackelberg_solve(config), stackelberg_solve(scaled_game(config, k))
            assert result.sigma_L_star == base.sigma_L_star, config
            assert result.sigma_S_star == base.sigma_S_star, config
            assert result.per_user_thresholds == base.per_user_thresholds, config
            assert result.learner_utility == k * base.learner_utility, config
            assert result.user_utilities == tuple(k * u for u in base.user_utilities), config

    @pytest.mark.parametrize("k", [0.25, 8.0])
    @pytest.mark.parametrize("n", LARGE_N)
    def test_power_of_two_scale_keeps_the_interior_equilibrium(self, n, k):
        """At N where the grid oracle cannot follow."""
        config, base = interior_solve(n)
        assert 0 < base.sigma_L_star < config.solver.sigma_max and 3 * sum(s > 0 for s in base.sigma_S_star) > n
        result = stackelberg_solve(scaled_game(config, k))
        assert result.sigma_L_star == base.sigma_L_star
        assert result.sigma_S_star == base.sigma_S_star
        assert result.per_user_thresholds == base.per_user_thresholds
        assert result.learner_utility == k * base.learner_utility
        assert result.user_utilities == tuple(k * u for u in base.user_utilities)

    @pytest.mark.parametrize("k", [0.25, 8.0])
    def test_power_of_two_scale_scales_the_sweep(self, k):
        for config in panel_games():
            settings = config.solver
            grid, samples, own, responses, leader, users = solver.sweep(
                config, 0.0, settings.sigma_max, settings.grid_step
            )
            result = solver.sweep(scaled_game(config, k), 0.0, settings.sigma_max, settings.grid_step)
            expected = (grid, samples, k * own, responses, k * leader, k * users)
            assert all(map(np.array_equal, result, expected)), config

    @pytest.mark.parametrize("k", [0.25, 8.0])
    def test_power_of_two_scale_keeps_the_oracle_equilibrium(self, k):
        """Every panel_games() game on an oracle grid of ORACLE_POINTS points."""
        for config in panel_games():
            fine_step = config.solver.sigma_max / ORACLE_POINTS
            base = brute_force_equilibrium(config, fine_step)
            result = brute_force_equilibrium(scaled_game(config, k), fine_step)
            assert result.sigma_L_star == base.sigma_L_star, config
            assert result.sigma_S_star == base.sigma_S_star, config
            assert result.per_user_thresholds == base.per_user_thresholds, config
            assert result.learner_utility == k * base.learner_utility, config
            assert result.user_utilities == tuple(k * u for u in base.user_utilities), config


    @settings(max_examples=20, deadline=None)
    @given(scaled_games())
    def test_power_of_two_scale_on_drawn_games(self, drawn):
        """The solve's and the sweep's relations on games() draws: a draw
        whose scaled game overflows (its record refuses a coefficient, or
        the solver its utilities) is skipped, not judged looser."""
        config, k = drawn
        base = stackelberg_solve(config)
        try:
            scaled = scaled_game(config, k)
            result = stackelberg_solve(scaled)
        except (ValueError, SolverError) as exc:  # ConfigError is a ValueError
            assert "is not finite" in str(exc) or OVERFLOW in str(exc)
            reject()
        assert result.sigma_L_star == base.sigma_L_star
        assert result.sigma_S_star == base.sigma_S_star
        assert result.per_user_thresholds == base.per_user_thresholds
        assert result.learner_utility == k * base.learner_utility
        assert result.user_utilities == tuple(k * u for u in base.user_utilities)
        settings_ = config.solver
        grid, samples, own, responses, leader, users = solver.sweep(
            config, 0.0, settings_.sigma_max, settings_.grid_step
        )
        result = solver.sweep(scaled, 0.0, settings_.sigma_max, settings_.grid_step)
        expected = (grid, samples, k * own, responses, k * leader, k * users)
        assert all(map(np.array_equal, result, expected))


def permuted_game(config, order):
    """config with user order[j] in place j."""
    return replace(config, users=tuple(config.users[i] for i in order))


class TestUserPermutation:
    """Relabelling the users permutes σ_S* and the thresholds exactly and
    leaves σ_L* as it is: each user's s*, cut and best response read only
    that user's parameters and N, Λ.  The utilities differ only by the
    order of the two user-order sums, the spread σ_L² + Σ s_i²/N and the
    privacy total Σ P_i; each float sum of N nonnegative terms is within
    γ_N = N·u/(1 - N·u) of its exact value (u = 2⁻⁵³), so the two orders
    differ by at most 2γ_N of it, and the few operations after the sums
    add at most a rounding each of every term.  Hence the bound
    4(N + 2)·u·(sum of the magnitudes of the utility's terms)."""

    @staticmethod
    def _bound(n, terms):
        return 4 * (n + 2) * 2.0**-53 * sum(map(abs, terms))

    @staticmethod
    def _terms(config, x, s):
        """The terms of U_L and of each U_S at sigma_L = x, user i playing
        s[i]; x and each s[i] are floats, or arrays over a grid."""
        n, lp = config.n_users, config.learner
        x, s = np.asarray(x), np.asarray(s)
        spread = x * x + np.sum(s * s, axis=0) / n
        privacy = [u.max_privacy_loss / (1.0 + u.privacy_rate * np.sqrt(x * x + v * v)) for u, v in zip(config.users, s)]
        accuracy = spread / (n * lp.regularizer**2)
        leader = (lp.baseline_gain, lp.accuracy_weight * accuracy, sum(privacy) / n, lp.perturbation_cost)
        users = [
            (u.baseline_gain, u.accuracy_weight * accuracy, p, u.perturbation_cost) for u, p in zip(config.users, privacy)
        ]
        return leader, users

    def _assert_utilities_permuted(self, config, order, x, s, base, result):
        """U_L and each U_S of the permuted game (result) within the bound of
        the base game's at the base game's strategies."""
        n = config.n_users
        leader_terms, user_terms = self._terms(config, x, s)
        assert np.all(abs(result[0] - base[0]) <= self._bound(n, leader_terms)), config
        for j, i in enumerate(order):
            assert np.all(abs(result[1][j] - base[1][i]) <= self._bound(n, user_terms[i])), config

    def test_permuted_users_keep_the_equilibrium(self):
        for seed, config in enumerate(panel_games()):
            order = np.random.Generator(np.random.PCG64(seed)).permutation(config.n_users)
            base, result = stackelberg_solve(config), stackelberg_solve(permuted_game(config, order))
            assert result.sigma_L_star == base.sigma_L_star, config
            assert result.sigma_S_star == tuple(base.sigma_S_star[i] for i in order), config
            assert result.per_user_thresholds == tuple(base.per_user_thresholds[i] for i in order), config
            self._assert_utilities_permuted(
                config, order, base.sigma_L_star, base.sigma_S_star,
                (base.learner_utility, base.user_utilities), (result.learner_utility, result.user_utilities),
            )

    @pytest.mark.parametrize("n", LARGE_N)
    def test_permuted_users_keep_the_interior_equilibrium(self, n):
        """At N where the grid oracle cannot follow."""
        config, base = interior_solve(n)
        order = np.random.Generator(np.random.PCG64(n)).permutation(n)
        result = stackelberg_solve(permuted_game(config, order))
        assert result.sigma_L_star == base.sigma_L_star
        assert result.sigma_S_star == tuple(base.sigma_S_star[i] for i in order)
        assert result.per_user_thresholds == tuple(base.per_user_thresholds[i] for i in order)
        self._assert_utilities_permuted(
            config, order, base.sigma_L_star, base.sigma_S_star,
            (base.learner_utility, base.user_utilities), (result.learner_utility, result.user_utilities),
        )

    def test_permuted_users_permute_the_sweep(self):
        """Each user's responses and own-noise table read only that user's
        parameters, so they permute exactly; every U_S reads the spread,
        a user-order sum, so U_S moves within the bound as U_L does (in 58
        of the 109 games)."""
        for seed, config in enumerate(panel_games()):
            settings = config.solver
            order = np.random.Generator(np.random.PCG64(seed)).permutation(config.n_users)
            grid, samples, own, responses, leader, users = solver.sweep(
                config, 0.0, settings.sigma_max, settings.grid_step
            )
            result = solver.sweep(permuted_game(config, order), 0.0, settings.sigma_max, settings.grid_step)
            assert np.array_equal(result[0], grid) and np.array_equal(result[1], samples), config
            assert np.array_equal(result[2], own[:, order]), config
            assert np.array_equal(result[3], responses[order]), config
            self._assert_utilities_permuted(config, order, grid, responses, (leader, users), result[4:])

    def test_permuted_users_keep_the_oracle_equilibrium(self):
        """Every panel_games() game on an oracle grid of ORACLE_POINTS points."""
        for seed, config in enumerate(panel_games()):
            fine_step = config.solver.sigma_max / ORACLE_POINTS
            order = np.random.Generator(np.random.PCG64(seed)).permutation(config.n_users)
            base = brute_force_equilibrium(config, fine_step)
            result = brute_force_equilibrium(permuted_game(config, order), fine_step)
            assert result.sigma_L_star == base.sigma_L_star, config
            assert result.sigma_S_star == tuple(base.sigma_S_star[i] for i in order), config
            assert result.per_user_thresholds == tuple(base.per_user_thresholds[i] for i in order), config
            self._assert_utilities_permuted(
                config, order, base.sigma_L_star, base.sigma_S_star,
                (base.learner_utility, base.user_utilities), (result.learner_utility, result.user_utilities),
            )




    @settings(max_examples=30, deadline=None)
    @given(games(), st.data())
    def test_permuted_users_on_drawn_games(self, config, data):
        """The solve's and the sweep's relations on games() draws, each
        under a drawn relabelling, at tie_epsilon > 0.  At tie_epsilon = 0
        an exact tie goes to whichever side a user-order sum rounds up, so
        the order can move sigma_L*: four users at zero flat cost (three
        alike) leave the leader indifferent on [0, s*], and one relabelling
        moved sigma_L* from 0 to s* = 2.5456."""
        assume(config.solver.tie_epsilon > 0)
        order = data.draw(st.permutations(range(config.n_users)))
        base, result = stackelberg_solve(config), stackelberg_solve(permuted_game(config, order))
        assert result.sigma_L_star == base.sigma_L_star
        assert result.sigma_S_star == tuple(base.sigma_S_star[i] for i in order)
        assert result.per_user_thresholds == tuple(base.per_user_thresholds[i] for i in order)
        self._assert_utilities_permuted(
            config, order, base.sigma_L_star, base.sigma_S_star,
            (base.learner_utility, base.user_utilities), (result.learner_utility, result.user_utilities),
        )
        settings_ = config.solver
        grid, samples, own, responses, leader, users = solver.sweep(
            config, 0.0, settings_.sigma_max, settings_.grid_step
        )
        result = solver.sweep(permuted_game(config, order), 0.0, settings_.sigma_max, settings_.grid_step)
        assert np.array_equal(result[0], grid) and np.array_equal(result[1], samples)
        assert np.array_equal(result[2], own[:, order])
        assert np.array_equal(result[3], responses[order])
        self._assert_utilities_permuted(config, order, grid, responses, (leader, users), result[4:])

    @pytest.mark.xfail(strict=True, reason="at tie_epsilon = 0, _winner breaks an exact tie by the rounding of "
                                           "user-order sums, so relabelling the users moves sigma_L*")
    def test_permuted_users_at_an_exact_tie(self):
        """The games() draw that shows the defect the drawn test steps
        around: four users at zero flat cost, the last at half the others'
        privacy rate, leave the leader indifferent on [0, s*].  The solve
        returns sigma_L* = 0 in this order and s* = 2.5456 with the last two
        users swapped; this test passes once the tie rule reads no rounding."""
        users = tuple(UserParams(0.0, 1.0, 1.0, rho, 0.0) for rho in (1.0, 1.0, 1.0, 0.5))
        config = GameConfig(LearnerParams(0.0, 1.0, 0.0, 2.0, 4), users,
                            solver=SolverSettings(10.0, 0.05, tie_epsilon=0.0))
        order = [0, 1, 3, 2]
        assert stackelberg_solve(permuted_game(config, order)).sigma_L_star == stackelberg_solve(config).sigma_L_star


class TestComparativeStatics:
    """Monotone relations, each read off one term's sign in the utilities,
    on every panel_games() game and on the interior family at N = 64 and
    256.  A user's s*, cut and best response read only its own parameters
    and N, Λ, so every user's parameter moves at once."""

    GAMES = [*panel_games(), *(interior_solve(n)[0] for n in (64, 256))]

    @staticmethod
    def _users(config, field):
        """config with every user's field x made 2x + 1."""
        return replace(config, users=tuple(replace(u, **{field: 2 * getattr(u, field) + 1}) for u in config.users))

    @staticmethod
    def _learner(config, **changes):
        return replace(config, learner=replace(config.learner, **changes))

    @staticmethod
    def _cut_relation(config):
        # a higher cost raises the margin's floor; s* does not read the cost
        s_stars = s_stars_of(config)
        costlier = TestComparativeStatics._users(config, "perturbation_cost")
        assert all(b <= a for a, b in zip(solver._cuts(config, s_stars), solver._cuts(costlier, s_stars))), config

    @staticmethod
    def _s_star_relation(config):
        # s (1 + rho s)^2 = P_bar rho N^2 Lambda^2 / (2 gamma): the right-hand side rises with P_bar, falls with gamma
        base, users = s_stars_of(config), TestComparativeStatics._users
        assert all(b <= a for a, b in zip(base, s_stars_of(users(config, "accuracy_weight")))), config
        if all(u.accuracy_weight > 0 for u in config.users):  # gamma = 0 < P_bar has no s*
            assert all(a <= b for a, b in zip(base, s_stars_of(users(config, "max_privacy_loss")))), config

    @staticmethod
    def _learner_cost_relation(config):
        # either lowers the leader objective at every sigma_L, and the solve
        # picks within tie_epsilon of the best candidate
        lp, tie = config.learner, config.solver.tie_epsilon
        base = stackelberg_solve(config).learner_utility
        for field in ("accuracy_weight", "perturbation_cost"):
            changed = TestComparativeStatics._learner(config, **{field: 2 * getattr(lp, field) + 1})
            assert stackelberg_solve(changed).learner_utility <= base + tie, (field, config)

    @staticmethod
    def _learner_gain_relation(config, delta):
        """No user and no sigma_L's ranking reads the learner's gain.  U_L is
        the gain less three terms, each subtraction rounded to within u of a
        partial result no larger than M = |delta| + the terms' magnitudes
        (TestUserPermutation._terms), and so is the gain's sum: 8 u M covers
        both solves and the sum of base U_L and delta."""
        base = stackelberg_solve(config)
        result = stackelberg_solve(TestComparativeStatics._learner(config, baseline_gain=config.learner.baseline_gain
                                                                    + delta))
        assert result.sigma_L_star == base.sigma_L_star, config
        assert result.sigma_S_star == base.sigma_S_star, config
        assert result.user_utilities == base.user_utilities, config
        terms = TestUserPermutation._terms(config, base.sigma_L_star, base.sigma_S_star)[0]
        bound = 8 * 2.0**-53 * (abs(delta) + sum(map(abs, terms)))
        assert abs(result.learner_utility - (base.learner_utility + delta)) <= bound, config

    def test_a_users_cut_does_not_rise_with_its_flat_cost(self):
        for config in self.GAMES:
            self._cut_relation(config)

    def test_s_star_does_not_fall_with_p_bar_or_rise_with_gamma(self):
        for config in self.GAMES:
            self._s_star_relation(config)

    def test_learner_utility_does_not_rise_with_its_gamma_or_flat_cost(self):
        for config in self.GAMES:
            self._learner_cost_relation(config)

    @pytest.mark.parametrize("delta", [0.5, -64.0])
    def test_a_learner_gain_moves_only_its_utility(self, delta):
        for config in self.GAMES:
            self._learner_gain_relation(config, delta)

    @settings(max_examples=40, deadline=None)
    @given(games())
    def test_every_relation_on_drawn_games(self, config):
        """The gain's relation at tie_epsilon > 0 only: at 0, G_bar + delta
        can round candidates' utilities to one float, and the tie then goes
        to the smallest sigma_L (a one-user draw with P_bar = 3.7e-45 moved
        sigma_L* with delta = 0.5).  4,000 draws passed this test."""
        self._cut_relation(config)
        self._s_star_relation(config)
        self._learner_cost_relation(config)
        if config.solver.tie_epsilon > 0:
            for delta in (0.5, -64.0):
                self._learner_gain_relation(config, delta)


def unpruned_solve(config):
    """The solve without pruning: every candidate of every piece scored by
    _best_responses and _utility_panel, the winner by _winner."""
    settings = config.solver
    s_stars = solver._admissible(config, settings.sigma_max)
    cuts = solver._cuts(config, s_stars)
    grid = np.array(all_candidates(config, cuts))
    responses = panel._best_responses(grid, s_stars, cuts)
    leader, users = panel._utility_panel(config, panel._user_columns(config), grid, responses)
    j = panel._winner(leader, settings.tie_epsilon)
    thresholds = tuple(None if t > settings.sigma_max else t for t in cuts)
    return solver.EquilibriumResult(float(grid[j]), tuple(responses[:, j].tolist()), float(leader[j]),
                                    tuple(users[:, j].tolist()), thresholds)


class TestPrunedSolve:
    """The solve scores only the pieces whose bound reaches the best exact
    utility less tie_epsilon and the rounding margin, in plain floats, and
    returns what scoring every candidate through the numpy panel returns."""

    @pytest.mark.parametrize("config", panel_games())
    def test_equals_the_unpruned_solve(self, config):
        # and at tie_epsilon 1 and 5, where a tie reaches pieces below the best one
        for game in (config, *(replace(config, solver=replace(config.solver, tie_epsilon=t)) for t in (1.0, 5.0))):
            assert stackelberg_solve(game) == unpruned_solve(game)

    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_equals_the_unpruned_solve_at_both_tie_epsilons(self, config):
        # and at 0.5, where the winner is often not the best candidate
        for tie in (0.0, 1e-9, 0.5):
            game = replace(config, solver=replace(config.solver, tie_epsilon=tie))
            assert stackelberg_solve(game) == unpruned_solve(game)

    @pytest.mark.parametrize("config", panel_games() + [interior_solve(256)[0]])
    def test_piece_bounds_are_the_stated_sums(self, config):
        """Each piece's two bounds within the margin of the bound summed in
        user order, by its formula; on a piece where every user perturbs the
        objective is flat, and its bound is the utility there."""
        n, lp, sigma_max = config.n_users, config.learner, config.solver.sigma_max
        s_stars = s_stars_of(config)
        cuts = solver._cuts(config, s_stars)
        users = [(u.max_privacy_loss, u.privacy_rate, s, t) for u, s, t in zip(config.users, s_stars, cuts)]
        pieces, margin = solver._piece_bounds(config, sorted(users, key=lambda user: user[3]))
        assert 0 < margin < 1e-9 * max(1.0, abs(lp.baseline_gain))

        def stated(lo, at):
            inside = [(p, rho, s) for p, rho, s, t in users if t > lo]
            spread = lo * lo * (1 - len(inside) / n) + sum(s * s for p, rho, s in inside) / n
            privacy = sum(p / (1 + rho * s) for p, rho, s in inside)
            privacy += sum(p / (1 + rho * at) for p, rho, s, t in users if t <= lo)
            return lp.baseline_gain - lp.accuracy_weight / (n * lp.regularizer**2) * spread - privacy / n \
                - lp.perturbation_cost

        assert [piece[1:3] for piece in pieces] == list(itertools.pairwise(
            [0.0, *sorted({t for t in cuts if 0 < t < sigma_max}), sigma_max]))
        for bound, lo, hi, k, rest in pieces:
            assert k == sum(t <= lo for t in cuts)
            assert abs(bound - stated(lo, sigma_max)) <= margin
            at_hi = sum(p / (1 + rho * hi) for p, rho, s, t in users if t <= lo)
            assert abs(rest - at_hi / n - stated(lo, hi)) <= margin
            if k == 0:
                assert abs(solver._leader(config, math.nextafter(hi, 0.0), users) - bound) <= margin

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_equals_the_unpruned_solve_on_the_interior_family(self, n):
        config, result = interior_solve(n)
        assert result == unpruned_solve(config)

    def test_scores_a_few_candidates_at_n_1024(self, monkeypatch):
        config = interior_solve(1024)[0]
        cuts = solver._cuts(config, s_stars_of(config))
        assert len(all_candidates(config, cuts)) > 1300
        scored, live, leader, candidates = [], [], solver._leader, solver._candidates
        monkeypatch.setattr(solver, "_leader", lambda *args: scored.append(args[1]) or leader(*args))
        monkeypatch.setattr(solver, "_candidates", lambda *args: live.append(args[2:]) or candidates(*args))
        stackelberg_solve(config)
        # 0, sigma_max and the candidates of one live piece of 684
        assert len(live) == 1 and len(scored) <= 5

