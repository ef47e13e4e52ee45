"""Stackelberg obfuscation game: utilities, best responses, equilibria,
Gaussian-mechanism privacy guarantees and ERM accuracy validation."""

__version__ = "0.1.0"

from .game import (  # noqa: F401
    GameConfig,
    LearnerParams,
    SolverSettings,
    StrategyProfile,
    UserParams,
    learner_utility,
    user_utility,
)
from .solver import (  # noqa: F401
    EquilibriumResult,
    brute_force_equilibrium,
    dissuasion_threshold,
    leader_objective,
    stackelberg_solve,
    user_best_response,
)
from .dp import (  # noqa: F401
    DpGuarantee,
    NormBoundReport,
    chi_square_cdf,
    epsilon_from_sigma,
    norm_bound_probability,
    sigma_from_epsilon,
)
from .config_io import load_config, load_shipped_config, shipped_config_path  # noqa: F401
