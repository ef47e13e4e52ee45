import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from obfusgame.dp import (
    chi_square_cdf,
    epsilon_from_sigma,
    norm_bound_probability,
    sigma_from_epsilon,
)


class TestEpsilonFromSigma:
    def test_log_equals_one_anchor(self):
        # delta = 1.25 e^{-1} makes the log exactly 1; sigma = 2 sqrt(2) gives eps = 1
        delta = 1.25 * math.exp(-1)
        g = epsilon_from_sigma(2 * math.sqrt(2), delta)
        assert g.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_calculator_value(self):
        g = epsilon_from_sigma(5.0745, 0.05)
        assert g.epsilon == pytest.approx(1.0000, abs=1e-4)

    def test_inverse_proportionality(self):
        a = epsilon_from_sigma(3.0, 0.1).epsilon
        b = epsilon_from_sigma(6.0, 0.1).epsilon
        assert a == pytest.approx(2 * b, rel=1e-14)

    def test_zero_sigma_gives_infinity(self):
        g = epsilon_from_sigma(0.0, 0.1)
        assert math.isinf(g.epsilon)
        assert not g.in_stated_range

    def test_out_of_range_flag(self):
        assert not epsilon_from_sigma(0.5, 0.05).epsilon < 1
        assert not epsilon_from_sigma(0.5, 0.05).in_stated_range
        assert epsilon_from_sigma(50.0, 0.05).in_stated_range

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            epsilon_from_sigma(1.0, 1.25)
        with pytest.raises(ValueError):
            epsilon_from_sigma(1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_from_sigma(1.0, 0.0)


class TestSigmaFromEpsilon:
    def test_anchor(self):
        delta = 1.25 * math.exp(-1)
        assert sigma_from_epsilon(1.0, delta) == pytest.approx(2 * math.sqrt(2), rel=1e-14)

    def test_half_epsilon_doubles_sigma(self):
        assert sigma_from_epsilon(0.5, 0.05) == pytest.approx(10.149, abs=1e-3)

    def test_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(1000):
            eps = float(rng.uniform(0.01, 5.0))
            delta = float(rng.uniform(1e-6, 0.999))
            sigma = sigma_from_epsilon(eps, delta)
            back = epsilon_from_sigma(sigma, delta).epsilon
            assert abs(back - eps) <= 1e-9 * eps

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_epsilon(0.0, 0.1)


def exact_delta(epsilon, sigma, sensitivity=2.0):
    """The least delta for which Gaussian noise of standard deviation sigma
    makes a query of L2 sensitivity sensitivity (epsilon, delta)-DP (Balle &
    Wang, ICML 2018, Thm 8): Phi(D / (2 sigma) - epsilon sigma / D) - e^epsilon
    Phi(-D / (2 sigma) - epsilon sigma / D), with Phi(x) = erfc(-x / sqrt 2) / 2,
    which keeps its relative accuracy in the far lower tail.  D = 2 is the
    sensitivity dp's _EPS_CONSTANT absorbs."""
    a, b = sensitivity / (2.0 * sigma), epsilon * sigma / sensitivity

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return phi(a - b) - math.exp(epsilon) * phi(-a - b)


# delta from 0.9 down to 1e-12, sigma from 0.01 to 10^4 in twentieths of a decade
DELTAS = [0.9, 0.5, *(10.0**-k for k in range(1, 13))]
SIGMAS = [10.0 ** (k / 20) for k in range(-40, 81)]


class TestExactPrivacyCurve:
    """epsilon_from_sigma's classic bound (Dwork & Roth 2014, Thm A.1) is a
    true (epsilon, delta) guarantee wherever it flags epsilon in range, and
    not everywhere outside that range."""

    def test_in_range_epsilon_is_a_guarantee_on_a_grid(self):
        in_range = [(g.epsilon, sigma, delta) for delta in DELTAS for sigma in SIGMAS
                    if (g := epsilon_from_sigma(sigma, delta)).in_stated_range]
        assert len(in_range) > 700
        assert all(exact_delta(eps, sigma) <= delta for eps, sigma, delta in in_range)

    @given(st.floats(1e-15, 0.99), st.floats(1e-3, 1.0, exclude_max=True))
    def test_in_range_epsilon_is_a_guarantee_on_draws(self, delta, epsilon):
        sigma = sigma_from_epsilon(epsilon, delta)
        g = epsilon_from_sigma(sigma, delta)
        if g.in_stated_range:
            assert exact_delta(g.epsilon, sigma) <= delta

    def test_out_of_range_epsilon_can_break_its_delta(self):
        # sigma = 1 at delta = 1e-5: epsilon = 9.7, and the exact curve needs more than 1.9 delta
        g = epsilon_from_sigma(1.0, 1e-5)
        assert not g.in_stated_range and exact_delta(g.epsilon, 1.0) > 1.9e-5


class TestChiSquareCdf:
    def test_d2_closed_form(self):
        zeta = 2 * math.log(2)
        assert chi_square_cdf(2, zeta) == pytest.approx(0.5, abs=1e-12)
        for z in (0.1, 1.0, 5.0, 20.0):
            assert chi_square_cdf(2, z) == pytest.approx(1 - math.exp(-z / 2), abs=1e-12)

    def test_at_zero(self):
        assert chi_square_cdf(2, 0.0) == 0.0

    def test_chi2_5_median(self):
        assert chi_square_cdf(5, 4.351) == pytest.approx(0.5, abs=5e-3)

    def test_large_zeta_limit(self):
        assert chi_square_cdf(2, 60.0) > 1 - 1e-12
        assert chi_square_cdf(5, math.inf) == 1.0

    def test_subnormal_zeta(self):
        # 5e-324 / 2 underflows to 0, yet the d = 1 CDF erf(sqrt(zeta / 2))
        # is still about 1.8e-162 there
        for zeta in (5e-324, 1e-300):
            exact = math.erf(math.sqrt(zeta) / math.sqrt(2.0))
            assert chi_square_cdf(1, zeta) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_against_scipy(self):
        for d in (1, 2, 3, 5, 10, 50, 99, 100, 1001):
            # d + 2 -+ 1e-9 straddles the switch from power series to finite sum
            for zeta in (0.01, 0.5, 1.0, d / 2, d, d + 2 - 1e-9, d + 2 + 1e-9, 2 * d, 5 * d):
                mine = chi_square_cdf(d, zeta)
                ref = float(stats.chi2.cdf(zeta, d))
                assert abs(mine - ref) < 1e-10

    def test_lower_tail_relative_accuracy(self):
        for zeta in (0.5, 2.0):
            assert chi_square_cdf(20, zeta) == pytest.approx(
                float(stats.chi2.cdf(zeta, 20)), rel=1e-12, abs=0.0
            )

    def test_power_series_runs_to_convergence(self):
        # 10,000 series terms are far from enough here
        assert chi_square_cdf(10**8, 0.9999e8) == pytest.approx(0.2397573840, abs=1e-6)

    @given(st.integers(1, 20), st.floats(0, 50), st.floats(0, 50))
    def test_monotone_in_zeta(self, d, z1, z2):
        lo, hi = sorted((z1, z2))
        assert 0.0 <= chi_square_cdf(d, lo) <= chi_square_cdf(d, hi) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_cdf(2, -1.0)
        with pytest.raises(ValueError):
            chi_square_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi_square_cdf(2, math.nan)
        with pytest.raises(ValueError):
            chi_square_cdf(2.5, 1.0)


class TestNormBoundProbability:
    def test_hand_substitution(self):
        report = norm_bound_probability(2, 2 * math.log(2), 0.1)
        assert report.probability == pytest.approx(0.5, abs=1e-12)
        assert report.combined_success == pytest.approx(0.95, abs=1e-12)
        assert report.union_bound_success == pytest.approx(0.4, abs=1e-12)

    def test_union_bound_never_exceeds_product_form(self):
        for zeta in (0.5, 2.0, 10.0):
            r = norm_bound_probability(5, zeta, 0.2)
            assert r.union_bound_success <= r.combined_success

    def test_monte_carlo_oracle(self):
        sigma_L, sigma_S = 3.0, 4.0
        s2 = sigma_L**2 + sigma_S**2
        d = 5
        rng = np.random.Generator(np.random.PCG64(11))
        draws = math.sqrt(s2) * rng.standard_normal((100_000, d))
        for zeta in (2.0, 5.0, 8.0):
            report = norm_bound_probability(d, zeta, 0.05)
            empirical = float(np.mean(np.sum(draws**2, axis=1) <= zeta * s2))
            assert abs(empirical - report.probability) < 0.01

    def test_exceedance_matches_cdf_across_dims(self):
        # binomial 3-sigma agreement at 1e5 samples
        n = 100_000
        for d in (1, 2, 5, 10):
            rng = np.random.Generator(np.random.PCG64(100 + d))
            draws = rng.standard_normal((n, d))
            norms2 = np.sum(draws**2, axis=1)
            for zeta in (0.5 * d, d, 2.0 * d):
                p = chi_square_cdf(d, zeta)
                emp = float(np.mean(norms2 <= zeta))
                assert abs(emp - p) <= 3 * math.sqrt(p * (1 - p) / n) + 1e-9
