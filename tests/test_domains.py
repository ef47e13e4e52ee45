"""Each domain check raises its own ValueError message, so a caller who
passes an out-of-domain value is told which value and which bound."""

import math

import numpy as np
import pytest

from obfusgame import dp, erm, solver
from obfusgame.config_io import SHIPPED_CONFIGS, load_config, shipped_config_path
from obfusgame.game import LearnerParams, SolverSettings, StrategyProfile, UserParams


def _learner(**kwargs):
    return LearnerParams(**{"baseline_gain": 1.0, "accuracy_weight": 1.0, "perturbation_cost": 0.0,
                            "regularizer": 1.0, "population_size": 1, **kwargs})


def _user(**kwargs):
    return UserParams(**{"baseline_gain": 1.0, "accuracy_weight": 1.0, "max_privacy_loss": 1.0,
                         "privacy_rate": 1.0, "perturbation_cost": 1.0, **kwargs})


def _data():
    return erm.generate_synthetic(4, 2, 1.0, seed=0)


def _perturb(sigma_L=0.1, sigma_S=0.2):
    return erm.perturb_inputs(_data(), sigma_L, [0.2, sigma_S, 0.2, 0.2], seed=0)


def _classifier_gap(lam):
    return erm.check_classifier_gap(_zero, _zero, np.ones((4, 2)), lam)


def _s_star(root_tol):
    # default.cfg's user, whose s* is 6.95620769588
    config = load_config(shipped_config_path("default"))
    return solver.effective_noise_target(config.users[0], config.learner, root_tol)


_zero = erm.Classifier(np.zeros(2))
NOISE = "noise standard deviations must be finite and >= 0"


CASES = {
    "learner baseline_gain inf": (lambda: _learner(baseline_gain=math.inf), "baseline_gain must be finite, got inf"),
    "learner baseline_gain NaN": (lambda: _learner(baseline_gain=math.nan), "baseline_gain must be finite, got nan"),
    "learner regularizer": (lambda: _learner(regularizer=0.0), "regularizer must be > 0"),
    "learner accuracy_weight": (lambda: _learner(accuracy_weight=-1.0), "accuracy_weight must be >= 0"),
    "learner perturbation_cost": (lambda: _learner(perturbation_cost=-1.0), "perturbation_cost must be >= 0"),
    "learner population_size": (lambda: _learner(population_size=0), "population_size must be >= 1"),
    "user baseline_gain inf": (lambda: _user(baseline_gain=math.inf), "baseline_gain must be finite, got inf"),
    "user baseline_gain NaN": (lambda: _user(baseline_gain=math.nan), "baseline_gain must be finite, got nan"),
    "user privacy_rate": (lambda: _user(privacy_rate=0.0), "privacy_rate must be > 0"),
    "user accuracy_weight": (lambda: _user(accuracy_weight=-1.0), "accuracy_weight must be >= 0"),
    "user max_privacy_loss": (lambda: _user(max_privacy_loss=-1.0), "max_privacy_loss must be >= 0"),
    "user perturbation_cost": (lambda: _user(perturbation_cost=-1.0), "perturbation_cost must be >= 0"),
    "sigma_max": (lambda: SolverSettings(sigma_max=0.0), "sigma_max must be > 0"),
    "sigma_max NaN": (lambda: SolverSettings(sigma_max=math.nan), "sigma_max must be finite, got nan"),
    "root_tol inf": (lambda: SolverSettings(root_tol=math.inf), "root_tol must be finite, got inf"),
    "tie_epsilon NaN": (lambda: SolverSettings(tie_epsilon=math.nan), "tie_epsilon must be finite, got nan"),
    "profile sigma_L NaN": (lambda: StrategyProfile(math.nan, (0.0,)), "sigma_L must be finite and >= 0, got nan"),
    "profile sigma_S negative": (lambda: StrategyProfile(0.0, (-0.5,)), "sigma_S[0] must be finite and >= 0, got -0.5"),
    "grid_step": (lambda: SolverSettings(grid_step=0.0), "grid_step must be in (0, sigma_max)"),
    "root_tol": (lambda: SolverSettings(root_tol=0.0), "root_tol must be > 0"),
    "s_star root_tol 0": (lambda: _s_star(0.0), "root_tol must be > 0"),
    "s_star root_tol negative": (lambda: _s_star(-1.0), "root_tol must be > 0"),
    "s_star root_tol NaN": (lambda: _s_star(math.nan), "root_tol must be finite, got nan"),
    "s_star root_tol inf": (lambda: _s_star(math.inf), "root_tol must be finite, got inf"),
    "tie_epsilon": (lambda: SolverSettings(tie_epsilon=-1.0), "tie_epsilon must be >= 0"),
    "features 1-D": (lambda: erm.Dataset(np.zeros(3), np.ones(3)), "features must be a 2-D array"),
    "label length": (lambda: erm.Dataset(np.zeros((3, 2)), np.ones(2)), "labels length must match feature rows"),
    "features NaN": (lambda: erm.Dataset(np.array([[math.nan]]), np.ones(1)), "features must be finite"),
    "labels 0": (lambda: erm.Dataset(np.zeros((2, 1)), np.array([1.0, 0.0])), "labels must be -1 or +1"),
    "weights 2-D": (lambda: erm.Classifier(np.zeros((2, 2))), "weights must be a finite 1-D array"),
    "synthetic n": (lambda: erm.generate_synthetic(1, 2, 1.0, seed=0), "need n >= 2 and d >= 1"),
    "synthetic d": (lambda: erm.generate_synthetic(4, 0, 1.0, seed=0), "need n >= 2 and d >= 1"),
    "synthetic separation NaN": (lambda: erm.generate_synthetic(4, 2, math.nan, seed=0),
                                 "separation must be finite, got nan"),
    "synthetic separation inf": (lambda: erm.generate_synthetic(4, 2, math.inf, seed=0),
                                 "separation must be finite, got inf"),
    "risk lam NaN": (lambda: erm.empirical_risk(_zero, _data(), math.nan), "lam must be finite, got nan"),
    "risk lam inf": (lambda: erm.empirical_risk(_zero, _data(), math.inf), "lam must be finite, got inf"),
    "risk lam negative": (lambda: erm.empirical_risk(_zero, _data(), -1.0), "lam must be >= 0"),
    "empirical gap lam NaN": (lambda: erm.check_empirical_gap(_zero, _zero, _data(), math.nan),
                              "lam must be finite, got nan"),
    "empirical gap lam inf": (lambda: erm.check_empirical_gap(_zero, _zero, _data(), math.inf),
                              "lam must be finite, got inf"),
    "empirical gap lam 0": (lambda: erm.check_empirical_gap(_zero, _zero, _data(), 0.0), "lam must be > 0"),
    "classifier gap lam inf": (lambda: _classifier_gap(math.inf), "lam must be finite, got inf"),
    "classifier gap lam NaN": (lambda: _classifier_gap(math.nan), "lam must be finite, got nan"),
    "classifier gap lam 0": (lambda: _classifier_gap(0.0), "lam must be > 0"),
    "classifier gap lam^2 0": (lambda: _classifier_gap(1e-200),
                               "lam = 1e-200 has no finite nonzero n^2 lam^2 at n = 4"),
    "classifier gap lam^2 inf": (lambda: _classifier_gap(1e200),
                                 "lam = 1e+200 has no finite nonzero n^2 lam^2 at n = 4"),
    "train lam": (lambda: erm.train_erms([_data()], 0.0), "lam must be > 0 for strict convexity"),
    "train lam NaN": (lambda: erm.train_erms([_data()], math.nan), "lam must be finite, got nan"),
    "train lam inf": (lambda: erm.train_erms([_data()], math.inf), "lam must be finite, got inf"),
    "train tol 0": (lambda: erm.train_erms([_data()], 1.0, tol=0.0), "tol must be > 0"),
    "train tol NaN": (lambda: erm.train_erms([_data()], 1.0, tol=math.nan), "tol must be finite, got nan"),
    "train tol inf": (lambda: erm.train_erms([_data()], 1.0, tol=math.inf), "tol must be finite, got inf"),
    "sigma_L negative": (lambda: _perturb(sigma_L=-1.0), NOISE),
    "sigma_L NaN": (lambda: _perturb(sigma_L=math.nan), NOISE),  # NaN and inf pass a sign test alone
    "sigma_L inf": (lambda: _perturb(sigma_L=math.inf), NOISE),
    "sigma_S negative": (lambda: _perturb(sigma_S=-1.0), NOISE),
    "sigma_S NaN": (lambda: _perturb(sigma_S=math.nan), NOISE),
    "sigma_S inf": (lambda: _perturb(sigma_S=math.inf), NOISE),
    "chi2 d inf": (lambda: dp.chi_square_cdf(math.inf, 1.0), "d must be an integer >= 1, got inf"),
    "chi2 d NaN": (lambda: dp.chi_square_cdf(math.nan, 1.0), "d must be an integer >= 1, got nan"),
    "total_sigma": (lambda: dp.epsilon_from_sigma(-1.0, 1e-5), "total_sigma must be finite and >= 0, got -1.0"),
    "shipped config": (
        lambda: shipped_config_path("nope"),
        f"unknown shipped config 'nope'; choose from {SHIPPED_CONFIGS}",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_domain_check_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message

