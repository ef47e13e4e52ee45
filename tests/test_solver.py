import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfusgame import solver
from obfusgame.config_io import (
    SHIPPED_CONFIGS,
    load_shipped_config,
    parse_config_text,
    shipped_config_path,
)
from obfusgame.errors import GridTooLargeError, NoFiniteOptimumError
from obfusgame.game import (
    GameConfig,
    LearnerParams,
    SolverSettings,
    StrategyProfile,
    UserParams,
    _learner_utility,
    _spread,
    _user_utility,
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
from obfusgame.validate import random_small_config
from test_config_cli import THREE_USERS


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


def interior_point(sigma_L, config, i=0):
    """User i's positive stationary point sqrt(s_star^2 - sigma_L^2), or None
    when the learner's noise already reaches s_star."""
    s_star = solver.effective_noise_target(config.users[i], config.learner, config.solver.root_tol)
    return math.sqrt(s_star**2 - sigma_L**2) if s_star > sigma_L else None


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


class TestEffectiveNoiseTarget:
    def test_zero_gamma_raises(self):
        user = UserParams(1.0, 0.0, 1.0, 1.0, 0.0)
        learner = LearnerParams(1.0, 1.0, 0.0, 1.0, 1)
        with pytest.raises(NoFiniteOptimumError):
            solver.effective_noise_target(user, learner)

    @pytest.mark.parametrize("rho", [1e100, 1e200, 1e300])
    def test_root_below_root_tol_to_relative_precision(self, rho):
        config = load_shipped_config("default")
        user = dataclasses.replace(config.users[0], privacy_rate=rho)
        rhs = solver._stationarity_rhs(user, config.learner)
        s_star = solver.effective_noise_target(user, config.learner, config.solver.root_tol)
        assert s_star < config.solver.root_tol
        # rho * s_star > 1e60, so (rhs / rho^2)^(1/3) is the root to 1e-60 relative
        assert s_star == pytest.approx((rhs / rho / rho) ** (1 / 3), rel=1e-9, abs=0.0)

    def test_underflowed_rhs_gives_zero(self):
        user = UserParams(1.0, 1.0, 1e-300, 1e-300, 0.0)
        learner = LearnerParams(1.0, 1.0, 0.0, 1.0, 1)
        assert solver._stationarity_rhs(user, learner) == 0.0
        assert solver.effective_noise_target(user, learner) == 0.0


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
        config = dataclasses.replace(
            config, users=(dataclasses.replace(config.users[0], privacy_rate=rho),)
        )
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
                lambda: mixed_population(4, seed=3), 0.01, 8.84, (0.0, 0.0, 20.0, 0.0),
                (2.32, 4.29, None, 0.36), [232, 429, 2001, 36],
            ),
            (lambda: random_small_config(0), 1e-3, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), [0, 0, 0]),
        ],
        ids=["default", "mixed_4", "random_0"],
    )
    def test_pinned_results(self, make, fine_step, sigma_L, sigma_S, thresholds, perturbing):
        config = make()
        result = brute_force_equilibrium(config, fine_step)
        assert result.sigma_L_star == sigma_L
        assert result.sigma_S_star == sigma_S
        assert result.per_user_thresholds == thresholds
        table = solver._best_response_table(config, solver._grid(0.0, config.solver.sigma_max, fine_step, 10**6))
        assert (table > 0).sum(axis=0).tolist() == perturbing

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
        s_stars = solver._s_stars(config)
        kernel = solver._responses(sigma_L, s_stars, solver._cuts(config, s_stars))
        assert solver._learner_utility(config, sigma_L, kernel) == expected

    @settings(max_examples=100, deadline=None)
    @given(games(), sigma_levels, st.lists(sigma_levels, min_size=1, max_size=5), st.integers(0, 3))
    def test_own_noise_rows_match_user_utility(self, config, sigma_L, own, i):
        i %= config.n_users
        expected = []
        for sigma_S in own:
            sigma = [0.0] * config.n_users
            sigma[i] = sigma_S
            expected.append(user_utility(config, i, StrategyProfile(sigma_L, tuple(sigma))))
        rows = [row.tolist() for row in solver._own_noise_rows(config, np.array(own), [sigma_L])]
        assert rows[i] == expected

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


class TestOwnNoiseKernel:
    def test_one_shared_row_build_per_sigma_L(self, monkeypatch):
        # the kernel builds the rows its users share once per sigma_L it is
        # given; the oracle gives it each grid point once, in one call
        config, fine_step = mixed_population(3, seed=1), 0.5
        builds = []
        real = solver._own_noise_rows

        def recording(config, column, sigma_Ls):
            builds.append(list(sigma_Ls))
            return real(config, column, builds[-1])

        monkeypatch.setattr(solver, "_own_noise_rows", recording)
        brute_force_equilibrium(config, fine_step)
        m = round(config.solver.sigma_max / fine_step) + 1
        assert builds == [[k * fine_step for k in range(m)]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(games(), st.builds(mixed_population, st.integers(1, 6), st.integers(0, 2**32 - 1))),
        st.integers(1, 40),
    )
    def test_table_is_argmax_of_user_utility(self, config, intervals):
        """Each entry is the first grid point at which user i's utility, with
        every other user at 0, is highest."""
        sigma_max = config.solver.sigma_max
        step = sigma_max / intervals
        grid = solver._grid(0.0, sigma_max, step, 41)
        table = solver._best_response_table(config, grid)
        n = config.n_users
        for sigma_L, row in zip(grid, table.tolist()):
            for i in range(n):

                def utility(s):
                    return user_utility(
                        config, i, StrategyProfile(sigma_L, tuple(s if k == i else 0.0 for k in range(n)))
                    )

                assert row[i] == max(grid, key=utility)


def panel_games():
    games = [load_shipped_config(name) for name in SHIPPED_CONFIGS]
    games.append(parse_config_text(THREE_USERS))
    games += [mixed_population(n, s) for n in range(1, 17) for s in range(4)]
    return games + [random_small_config(seed) for seed in range(40)]


def scalar_columns(config, points):
    """Best responses, U_L and each U_S at each sigma_L in points, by the
    solve's scalar kernel."""
    s_stars = solver._s_stars(config)
    cuts = solver._cuts(config, s_stars)
    responses, leader, users = [], [], []
    for x in points:
        brs = solver._responses(x, s_stars, cuts)
        spread = _spread(x, brs, config.n_users)
        responses.append(brs)
        leader.append(_learner_utility(config, x, brs))
        users.append([_user_utility(config, i, x, brs[i], spread) for i in range(config.n_users)])
    return responses, leader, users


class TestUtilityPanel:
    """The sweep's and the oracle's numpy panel equals the scalar kernel
    exactly, not approximately."""

    @pytest.mark.parametrize("config", panel_games())
    def test_sweep_equals_scalar_kernel(self, config):
        settings = config.solver
        grid, _, _, responses, leader, users = solver.sweep(config, 0.0, settings.sigma_max, settings.grid_step)
        expected = scalar_columns(config, grid.tolist())
        assert (responses.T.tolist(), leader.tolist(), users.T.tolist()) == expected
        # the two one-sided limits at each cut, each as a one-point sweep
        s_stars = solver._s_stars(config)
        for t in solver._cuts(config, s_stars):
            for x in (math.nextafter(t, 0.0), t):
                _, _, _, responses, leader, users = solver.sweep(config, x, x, 1.0)
                got = (responses.T.tolist(), leader.tolist(), users.T.tolist())
                assert got == scalar_columns(config, [x])

    @pytest.mark.parametrize("config", panel_games()[:5] + [mixed_population(8, 3)])
    def test_oracle_leader_row_equals_scalar_kernel(self, config, monkeypatch):
        calls = []
        real = solver._utility_panel

        def recording(config, sigma_L, responses):
            result = real(config, sigma_L, responses)
            calls.append((sigma_L.tolist(), np.transpose(responses).tolist(), result[0].tolist()))
            return result

        monkeypatch.setattr(solver, "_utility_panel", recording)
        brute_force_equilibrium(config, config.solver.sigma_max / 400)
        [(grid, table, leader)] = calls
        assert len(grid) == 401
        assert leader == [_learner_utility(config, s, row) for s, row in zip(grid, table)]


def assert_no_grid_point_beats_the_solve(config, points):
    """No sigma_L of a grid on [0, sigma_max] beats the solve by more than
    tie_epsilon (near-ties go to the smaller sigma_L, so the solve may sit
    that far below its best candidate), up to float rounding: on a piece
    where every user perturbs the objective is flat, and its evaluations
    differ in the last bit."""
    s_stars = solver._s_stars(config)
    cuts = solver._cuts(config, s_stars)
    best = max(
        solver._learner_utility(config, s, solver._responses(s, s_stars, cuts))
        for s in np.linspace(0.0, config.solver.sigma_max, points).tolist()
    )
    solved = stackelberg_solve(config).learner_utility
    assert best - solved <= config.solver.tie_epsilon + 1e-12 * max(1.0, abs(solved))


class TestCandidateSet:
    def test_solve_builds_no_grid(self, monkeypatch):
        def build(*args):
            raise AssertionError("stackelberg_solve built a grid")

        monkeypatch.setattr(solver, "_grid", build)
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
        result = stackelberg_solve(parse_config_text(text))
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
        s_stars = solver._s_stars(config)
        cuts = solver._cuts(config, s_stars)
        sigma_max = config.solver.sigma_max
        thresholds = {dissuasion_threshold(i, config) for i in range(n)}
        edges = [0.0, *sorted(t for t in thresholds if t is not None and 0 < t < sigma_max), sigma_max]

        def objective(x):
            return solver._learner_utility(config, x, solver._responses(x, s_stars, cuts))

        for lo, hi in zip(edges, edges[1:]):
            x, h = 0.5 * (lo + hi), 1e-4 * (hi - lo)
            responses = solver._responses(x, s_stars, cuts)
            outside = [u for u, r in zip(config.users, responses) if r == 0]
            central = (objective(x + h) - objective(x - h)) / (2.0 * h)
            assert solver._piece_slope(x, config, outside) == pytest.approx(central, rel=1e-6, abs=1e-8)

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
