import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obfusgame.errors import ConfigError
from obfusgame.game import (
    GameConfig,
    LearnerParams,
    StrategyProfile,
    UserParams,
    learner_utility,
    user_utility,
)


def make_config(n=1, g_bar=1.0, gamma_s=1.0, p_bar=1.0, rho=1.0, nbar_s=0.1,
                g_bar_l=2.0, gamma_l=1.0, nbar_l=0.2, lam=1.0):
    return GameConfig(
        learner=LearnerParams(g_bar_l, gamma_l, nbar_l, lam, n),
        users=tuple(UserParams(g_bar, gamma_s, p_bar, rho, nbar_s) for _ in range(n)),
    )


def accuracy_gap(sigma_L, sigma_S, weight, regularizer, n_users):
    """(weight / (N * Lambda^2)) * (sigma_L^2 + sum_i sigma_S[i]^2 / N), read
    off user 0's utility with no baseline gain, privacy stake or flat cost."""
    config = make_config(n=n_users, g_bar=0.0, gamma_s=weight, p_bar=0.0, nbar_s=0.0,
                         lam=regularizer)
    return -user_utility(config, 0, StrategyProfile(sigma_L, tuple(sigma_S)))


def privacy_loss(max_privacy_loss, rate, sigma_L, sigma_S_i):
    """P_bar / (1 + rate * sqrt(sigma_L^2 + sigma_S_i^2)), read off a lone
    user's share of the learner's utility with no baseline gain, accuracy
    weight or flat cost."""
    config = make_config(p_bar=max_privacy_loss, rho=rate, g_bar_l=0.0, gamma_l=0.0,
                         nbar_l=0.0)
    return -learner_utility(config, StrategyProfile(sigma_L, (sigma_S_i,)))


def perturbation_cost(cost, sigma):
    """The flat cost a user with no baseline gain, privacy stake or accuracy
    weight pays at own noise sigma."""
    config = make_config(g_bar=0.0, gamma_s=0.0, p_bar=0.0, nbar_s=cost)
    return -user_utility(config, 0, StrategyProfile(0.0, (sigma,)))


class TestAccuracyGapTerm:
    def test_zero_noise(self):
        assert accuracy_gap(0.0, [0.0], 1.0, 1.0, 1) == 0.0

    def test_hand_substitution(self):
        assert accuracy_gap(1.0, [0.0], 1.0, 1.0, 1) == pytest.approx(1.0)

    def test_derived_two_users(self):
        # (2 / (2 * 0.25)) * (1 + (1 + 1) / 2) = 8
        assert accuracy_gap(1.0, [1.0, 1.0], 2.0, 0.5, 2) == pytest.approx(8.0)

    def test_rejects_nonfinite(self):
        # a profile with non-finite noise never reaches the utilities
        with pytest.raises(ValueError):
            accuracy_gap(math.inf, [0.0], 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            accuracy_gap(0.0, [math.nan], 1.0, 1.0, 1)

    @given(
        st.floats(0.01, 10),
        st.floats(0, 5),
        st.floats(0, 5),
    )
    def test_strictly_increasing_in_each_sigma(self, lam, s_l, s_s):
        base = accuracy_gap(s_l, [s_s], 1.0, lam, 1)
        assert accuracy_gap(s_l + 0.1, [s_s], 1.0, lam, 1) > base
        assert accuracy_gap(s_l, [s_s + 0.1], 1.0, lam, 1) > base


class TestPrivacyLossTerm:
    def test_unperturbed_maximum(self):
        assert privacy_loss(1.0, 1.0, 0.0, 0.0) == 1.0

    def test_hand_substitution(self):
        assert privacy_loss(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_derived(self):
        # 4 / (1 + 0.5 * 5) = 8/7
        assert privacy_loss(4.0, 0.5, 3.0, 4.0) == pytest.approx(8.0 / 7.0)

    @given(st.floats(0.1, 10), st.floats(0, 5), st.floats(0, 5))
    def test_strictly_decreasing(self, rho, s_l, s_s):
        base = privacy_loss(1.0, rho, s_l, s_s)
        assert privacy_loss(1.0, rho, s_l + 0.1, s_s) < base
        assert privacy_loss(1.0, rho, s_l, s_s + 0.1) < base

    def test_range(self):
        assert 0 < privacy_loss(3.0, 2.0, 100.0, 100.0) < 3.0


class TestPerturbationCostTerm:
    def test_indicator_off(self):
        assert perturbation_cost(10.0, 0.0) == 0.0

    def test_indicator_on_for_tiny_sigma(self):
        assert perturbation_cost(10.0, 1e-12) == 10.0

    def test_zero_cost(self):
        assert perturbation_cost(0.0, 5.0) == 0.0


class TestUserUtility:
    def test_hand_substitution(self):
        config = make_config()
        value = user_utility(config, 0, StrategyProfile(0.0, (1.0,)))
        assert value == pytest.approx(1.0 - 1.0 - 0.5 - 0.1)

    def test_zero_noise_leaves_privacy_term(self):
        config = make_config(g_bar=3.0, p_bar=2.0)
        value = user_utility(config, 0, StrategyProfile(0.0, (0.0,)))
        assert value == pytest.approx(3.0 - 2.0)

    def test_index_out_of_range(self):
        config = make_config()
        with pytest.raises(IndexError):
            user_utility(config, 1, StrategyProfile(0.0, (0.0,)))

    def test_dimension_mismatch(self):
        config = make_config(n=2)
        with pytest.raises(ValueError):
            user_utility(config, 0, StrategyProfile(0.0, (0.0,)))

    @settings(max_examples=50)
    @given(
        st.floats(0, 3),
        st.floats(0, 3),
        st.floats(0, 3),
        st.floats(0, 3),
        st.floats(0, 3),
    )
    def test_other_users_shift_is_additively_separable(self, a, b, s_l, o1, o2):
        # U(s_l, others, a) - U(s_l, others', a) does not depend on a
        config = make_config(n=3)

        def diff(own):
            u1 = user_utility(config, 0, StrategyProfile(s_l, (own, o1, o2)))
            u2 = user_utility(config, 0, StrategyProfile(s_l, (own, o2 / 2, o1 / 3)))
            return u1 - u2

        assert diff(a) == pytest.approx(diff(b), abs=1e-9)


class TestLearnerUtility:
    def test_zero_noise_leaves_average_privacy(self):
        config = make_config(n=2, p_bar=3.0, g_bar_l=10.0)
        value = learner_utility(config, StrategyProfile(0.0, (0.0, 0.0)))
        assert value == pytest.approx(10.0 - 3.0)

    def test_hand_substitution(self):
        config = make_config()
        value = learner_utility(config, StrategyProfile(1.0, (0.0,)))
        assert value == pytest.approx(2.0 - 1.0 - 0.5 - 0.2)

    @settings(max_examples=50)
    @given(st.floats(0, 4), st.floats(0, 4), st.floats(0, 4))
    def test_matches_hand_composition(self, s_l, s1, s2):
        config = make_config(n=2, gamma_l=1.5, p_bar=2.0, rho=0.7, nbar_l=0.3,
                             g_bar_l=5.0, lam=0.8)
        profile = StrategyProfile(s_l, (s1, s2))
        expected = (
            5.0
            - 1.5 / (2 * 0.8**2) * (s_l**2 + (s1**2 + s2**2) / 2)
            - 0.5 * (2.0 / (1 + 0.7 * math.hypot(s_l, s1))
                     + 2.0 / (1 + 0.7 * math.hypot(s_l, s2)))
            - (0.3 if s_l > 0 else 0.0)
        )
        value = learner_utility(config, profile)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_user_sigma_term_by_term(self):
        config = make_config(n=2, g_bar_l=5.0)
        lo = learner_utility(config, StrategyProfile(0.5, (0.2, 0.3)))
        # raising one user's noise lowers accuracy term and privacy term
        acc_lo = 1.0 / (2 * 1.0**2) * (0.5**2 + (0.2**2 + 0.3**2) / 2)
        acc_hi = 1.0 / (2 * 1.0**2) * (0.5**2 + (0.2**2 + 0.9**2) / 2)
        priv_lo = 1.0 / (1 + 1.0 * math.hypot(0.5, 0.3))
        priv_hi = 1.0 / (1 + 1.0 * math.hypot(0.5, 0.9))
        assert acc_hi > acc_lo and priv_hi < priv_lo
        hi = learner_utility(config, StrategyProfile(0.5, (0.2, 0.9)))
        assert hi - lo == pytest.approx(
            (acc_lo - acc_hi) + 0.5 * (priv_lo - priv_hi), rel=1e-12
        )


class TestValidation:
    def test_user_count_must_match_n(self):
        with pytest.raises(ConfigError):
            GameConfig(
                learner=LearnerParams(1.0, 1.0, 0.0, 1.0, 2),
                users=(UserParams(1.0, 1.0, 1.0, 1.0, 0.0),),
            )

    def test_zero_gamma_with_privacy_stake_rejected(self):
        with pytest.raises(ValueError, match="gamma = 0 with P_bar > 0"):
            make_config(gamma_s=0.0, p_bar=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            StrategyProfile(-1.0, (0.0,))
        with pytest.raises(ValueError):
            StrategyProfile(0.0, (-0.5,))


def _coefficient_finite(gamma, lam, n):
    """The Lambda domain LearnerParams and GameConfig admit: (N Lambda)^2
    finite, Lambda^2 > 0 and the accuracy coefficient gamma / (N Lambda^2)
    finite."""
    scale = n * lam
    return math.isfinite(scale * scale) and lam * lam > 0 and math.isfinite(gamma / (n * lam**2))


class TestAccuracyCoefficientDomain:
    """GameConfig tests gamma / (N Lambda^2) alone: wherever that is finite
    with Lambda^2 > 0, so is the best responses' gamma / (N^2 Lambda^2)."""

    @settings(max_examples=1000)
    @given(
        st.floats(0, allow_infinity=False),
        st.floats(0, exclude_min=True, allow_infinity=False),
        st.integers(1, 10**9),
    )
    def test_drawn_across_the_float_range(self, gamma, lam, n):
        if _coefficient_finite(gamma, lam, n):
            assert math.isfinite(gamma / (n**2 * lam**2))

    @pytest.mark.parametrize("gamma", [5e-324, 1.0, 1e300, 1.7976931348623157e308])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 10**9])
    def test_at_the_least_admitted_lambda(self, gamma, n):
        lo, hi = 0.0, 1.0  # _coefficient_finite fails at lo and holds at hi
        while lo < (mid := lo + (hi - lo) / 2) < hi:
            lo, hi = (lo, mid) if _coefficient_finite(gamma, mid, n) else (mid, hi)
        lam = hi
        for _ in range(4):
            assert _coefficient_finite(gamma, lam, n)
            assert math.isfinite(gamma / (n**2 * lam**2))
            lam = math.nextafter(lam, 1.0)
