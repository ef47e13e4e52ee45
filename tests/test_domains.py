"""Each domain check raises its own ValueError message, so a caller who
passes an out-of-domain value is told which value and which bound."""

import inspect
import math
import re

import numpy as np
import pytest

from obfusgame import cli, config_io, dp, erm, game, solver, validate
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
SIGMA_S = "sigma_S must be finite and >= 0"


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
    "profile sigma_L NaN": (lambda: StrategyProfile(math.nan, (0.0,)), "sigma_L must be finite, got nan"),
    "profile sigma_S negative": (lambda: StrategyProfile(0.0, (-0.5,)), "sigma_S[0] must be >= 0"),
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
    "train lam": (lambda: erm.train_erms([_data()], 0.0), "lam must be > 0"),
    "train lam NaN": (lambda: erm.train_erms([_data()], math.nan), "lam must be finite, got nan"),
    "train lam inf": (lambda: erm.train_erms([_data()], math.inf), "lam must be finite, got inf"),
    "train tol 0": (lambda: erm.train_erms([_data()], 1.0, tol=0.0), "tol must be > 0"),
    "train tol NaN": (lambda: erm.train_erms([_data()], 1.0, tol=math.nan), "tol must be finite, got nan"),
    "train tol inf": (lambda: erm.train_erms([_data()], 1.0, tol=math.inf), "tol must be finite, got inf"),
    "sigma_L negative": (lambda: _perturb(sigma_L=-1.0), "sigma_L must be >= 0"),
    "sigma_L NaN": (lambda: _perturb(sigma_L=math.nan), "sigma_L must be finite, got nan"),
    "sigma_L inf": (lambda: _perturb(sigma_L=math.inf), "sigma_L must be finite, got inf"),
    "sigma_S negative": (lambda: _perturb(sigma_S=-1.0), SIGMA_S),
    "sigma_S NaN": (lambda: _perturb(sigma_S=math.nan), SIGMA_S),  # NaN and inf pass a sign test alone
    "sigma_S inf": (lambda: _perturb(sigma_S=math.inf), SIGMA_S),
    "chi2 d inf": (lambda: dp.chi_square_cdf(math.inf, 1.0), "d must be an integer >= 1, got inf"),
    "chi2 d NaN": (lambda: dp.chi_square_cdf(math.nan, 1.0), "d must be an integer >= 1, got nan"),
    "total_sigma": (lambda: dp.epsilon_from_sigma(-1.0, 1e-5), "total_sigma must be >= 0"),
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


# Every public function and class of the layer modules that takes a float
# parameter, with valid arguments for all of its parameters: each float
# parameter is fed NaN, +inf and -inf in turn, and must be refused with a
# ValueError that names it, unless ALLOWED says why not.
LAYERS = (cli, config_io, solver, game, erm, dp, validate)
_CONFIG = load_config(shipped_config_path("default"))
_DATA = _data()
BASE = {
    "solver.EquilibriumResult": dict(sigma_L_star=0.0, sigma_S_star=(0.0,), learner_utility=0.0,
                                     user_utilities=(0.0,), per_user_thresholds=(None,)),
    "solver.effective_noise_target": dict(user=_CONFIG.users[0], learner=_CONFIG.learner, root_tol=1e-9),
    "solver.user_best_response": dict(sigma_L=1.0, i=0, config=_CONFIG),
    "solver.best_response_profile": dict(sigma_L=1.0, config=_CONFIG),
    "solver.leader_objective": dict(sigma_L=1.0, config=_CONFIG),
    "solver.sweep": dict(config=_CONFIG, lo=0.0, hi=1.0, step=0.5),
    "solver.brute_force_equilibrium": dict(config=_CONFIG, fine_step=1.0),
    "game.LearnerParams": dict(baseline_gain=1.0, accuracy_weight=1.0, perturbation_cost=0.0, regularizer=1.0,
                               population_size=1),
    "game.UserParams": dict(baseline_gain=1.0, accuracy_weight=1.0, max_privacy_loss=1.0, privacy_rate=1.0,
                            perturbation_cost=1.0),
    "game.SolverSettings": dict(sigma_max=50.0, grid_step=0.05, root_tol=1e-9, tie_epsilon=1e-9),
    "game.StrategyProfile": dict(sigma_L=1.0, sigma_S=(0.0,)),
    "erm.BoundReport": dict(lhs=0.0, rhs=1.0, slack=1.0),
    "erm.generate_synthetic": dict(n=4, d=2, separation=1.0, seed=0),
    "erm.empirical_risk": dict(f=_zero, data=_DATA, lam=1.0),
    "erm.train_erm": dict(data=_DATA, lam=1.0, tol=1e-8),
    "erm.train_erms": dict(datasets=[_DATA], lam=1.0, tol=1e-8),
    "erm.perturb_inputs": dict(data=_DATA, sigma_L=0.1, sigma_S=[0.2] * 4, seed=0),
    "erm.check_classifier_gap": dict(clean_f=_zero, pert_f=_zero, noise=np.ones((4, 2)), lam=1.0),
    "erm.check_empirical_gap": dict(f_d=_zero, f_dagger=_zero, data=_DATA, lam=1.0),
    "dp.DpGuarantee": dict(epsilon=0.5, in_stated_range=True),
    "dp.NormBoundReport": dict(probability=0.5, combined_success=0.95, union_bound_success=0.4),
    "dp.epsilon_from_sigma": dict(total_sigma=2.0, delta=1e-5),
    "dp.sigma_from_epsilon": dict(epsilon=1.0, delta=1e-5),
    "dp.chi_square_cdf": dict(d=2, zeta=1.0),
    "dp.norm_bound_probability": dict(d=2, zeta=1.0, delta=0.1),
}
# a callable's name, or name(parameter=value): in the domain on purpose, or
# refused by a message that does not name the parameter; such a call must
# still return or raise ValueError
ALLOWED = {
    "solver.EquilibriumResult": "an output record: it holds what a solve computed",
    "erm.BoundReport": "an output record: it holds what a bound check computed",
    "dp.DpGuarantee": "an output record: epsilon = inf is total_sigma = 0's answer",
    "dp.NormBoundReport": "an output record: it holds what norm_bound_probability computed",
    "dp.chi_square_cdf(zeta=inf)": "P(chi-square <= inf) = 1.0",
    "dp.norm_bound_probability(zeta=inf)": "its probability is chi_square_cdf(d, inf) = 1.0",
    "solver.sweep": "its one message quotes the grid as [lo, hi] by step",
}
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _public_float_parameters():
    """{module.name: (callable, its float parameters' names)} over the
    public functions and classes defined in the layer modules."""
    found = {}
    for module in LAYERS:
        layer = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                params = [p.name for p in inspect.signature(obj).parameters.values()
                          if p.annotation in (float, "float", "Optional[float]", "float | None")]
                if params:
                    found[f"{layer}.{name}"] = (obj, params)
    return found


FLOAT_PARAMETERS = _public_float_parameters()
FLOAT_CASES = [(name, param, value) for name, (_, params) in FLOAT_PARAMETERS.items()
               for param in params for value in VALUES]


def test_every_float_parameter_has_a_base_row():
    rows = {name: sorted(set(params) - BASE.get(name, {}).keys()) for name, (_, params) in FLOAT_PARAMETERS.items()}
    assert {name: missing for name, missing in rows.items() if missing} == {}
    assert sorted(BASE) == sorted(FLOAT_PARAMETERS)
    assert {key.partition("(")[0] for key in ALLOWED} <= BASE.keys()


@pytest.mark.parametrize("name", BASE)
def test_base_arguments_are_in_the_domain(name):
    FLOAT_PARAMETERS[name][0](**BASE[name])


@pytest.mark.parametrize("name, param, value", FLOAT_CASES, ids=[f"{n}({p}={v})" for n, p, v in FLOAT_CASES])
def test_non_finite_float_is_refused_by_name(name, param, value):
    call = FLOAT_PARAMETERS[name][0]
    kwargs = BASE[name] | {param: VALUES[value]}
    if name in ALLOWED or f"{name}({param}={value})" in ALLOWED:
        try:
            call(**kwargs)
        except ValueError:
            pass
        return
    with pytest.raises(ValueError) as excinfo:
        call(**kwargs)
    assert re.search(rf"\b{re.escape(param)}\b", str(excinfo.value)), str(excinfo.value)
