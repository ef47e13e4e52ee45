"""Gaussian mechanism guarantees and chi-square norm-bound probabilities.

The (epsilon, delta) guarantee follows the Gaussian-mechanism formula
epsilon = 2 * sqrt(2 * ln(1.25 / delta)) / sigma (Dwork & Roth 2014,
Thm A.1), where sigma is the total noise standard deviation
sqrt(sigma_L^2 + sigma_S^2) and the L2 sensitivity is absorbed into the
leading constant.  delta must lie in (0, 1).  The guarantee is stated for
epsilon in (0, 1); values outside that range are computed anyway and
flagged rather than refused, since parameter sweeps naturally cross the
boundary.

The chi-square CDF is only ever needed at an integer number of degrees of
freedom d, where the upper incomplete gamma function is a finite sum
(Abramowitz & Stegun 26.4.4-5); the lower tail uses the power series
instead, which does not cancel.  Target accuracy 1e-10 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS_CONSTANT = 2.0  # absorbed L2 sensitivity
_SUM_TOL = 1e-15  # relative size of the last term kept in a CDF sum


@dataclass(frozen=True)
class DpGuarantee:
    """The epsilon a total noise standard deviation buys at a given delta."""

    epsilon: float
    in_stated_range: bool  # True when epsilon lies in (0, 1)


@dataclass(frozen=True)
class NormBoundReport:
    """Probability that a noise row's squared norm stays below
    zeta * (sigma_L^2 + sigma_S^2), plus the combined success probability
    of the accuracy bound."""

    probability: float
    combined_success: float  # 1 - delta * (1 - probability), product form
    union_bound_success: float  # 1 - delta - (1 - probability), clipped at 0


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def epsilon_from_sigma(total_sigma: float, delta: float) -> DpGuarantee:
    """Privacy level for a given total noise standard deviation.

    total_sigma = 0 yields epsilon = inf (no privacy), not an error.
    """
    _check_delta(delta)
    if total_sigma < 0 or not math.isfinite(total_sigma):
        raise ValueError(f"total_sigma must be finite and >= 0, got {total_sigma}")
    if total_sigma == 0:
        return DpGuarantee(math.inf, False)
    eps = _EPS_CONSTANT * math.sqrt(2.0 * math.log(1.25 / delta)) / total_sigma
    return DpGuarantee(eps, 0.0 < eps < 1.0)


def sigma_from_epsilon(epsilon: float, delta: float) -> float:
    """Noise standard deviation achieving a given epsilon (exact inverse)."""
    _check_delta(delta)
    if epsilon <= 0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    return _EPS_CONSTANT * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def chi_square_cdf(d: int, zeta: float) -> float:
    """CDF of a chi-square variable with d degrees of freedom at zeta.

    This is P(a, x), the regularized lower incomplete gamma function, at
    a = d / 2 and x = zeta / 2.  Below x = a + 1 it sums the power series
    (A&S 6.5.29) to convergence.  Above, it takes 1 - Q(a, x), where for
    integer d Q is the finite sum of e^{-x} x^k / k! over k = a - 1,
    a - 2, ... >= 0, plus erfc(sqrt(x)) when d is odd (A&S 26.4.4-5).
    The sum runs downward and stops once a term is negligible.
    """
    if d < 1 or d != int(d):
        raise ValueError(f"d must be an integer >= 1, got {d}")
    if not zeta >= 0:
        raise ValueError(f"zeta must be >= 0, got {zeta}")
    if zeta == 0:
        return 0.0
    if zeta == math.inf:
        return 1.0
    a, x = d / 2.0, zeta / 2.0
    if x < a + 1.0:
        term = total = 1.0 / a
        k = 0
        while term >= total * _SUM_TOL:
            k += 1
            term *= x / (a + k)
            total += term
        # log(zeta) - log 2, not log(x): a subnormal zeta halves to x = 0
        log_x = math.log(zeta) - math.log(2.0)
        return min(1.0, total * math.exp(-x + a * log_x - math.lgamma(a)))
    k = a - 1.0
    term = math.exp(-x + k * math.log(x) - math.lgamma(a)) if k >= 0 else 0.0
    upper = math.erfc(math.sqrt(x)) if d % 2 else 0.0
    while k >= 0 and term > upper * _SUM_TOL:
        upper += term
        term *= k / x
        k -= 1.0
    return min(1.0, max(0.0, 1.0 - upper))


def norm_bound_probability(d: int, zeta: float, delta: float) -> NormBoundReport:
    """Chance that a d-dimensional Gaussian noise row has squared norm below
    zeta times its per-component variance, whatever that variance is, with
    the combined success probability of the accuracy bound.

    Both the product-form combination (independent failures) and the more
    conservative union bound are reported.
    """
    _check_delta(delta)
    p = chi_square_cdf(d, zeta)
    return NormBoundReport(
        probability=p,
        combined_success=1.0 - delta * (1.0 - p),
        union_bound_success=max(0.0, 1.0 - delta - (1.0 - p)),
    )
