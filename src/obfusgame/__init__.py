"""Stackelberg obfuscation game: utilities, best responses, equilibria,
Gaussian-mechanism privacy guarantees and ERM accuracy validation.

`import obfusgame` loads no numpy: the solver's exports are imported on
first access (PEP 562), so the commands that compute nothing start fast.
A bare `import obfusgame.cli` loads the game's records, dp, the config
reader and the CLI, and from the standard library little more than
argparse, json, datetime and pathlib: no numpy, csv, importlib.resources,
inspect or the standard library's data classes (the records are plain
classes on game._Record)."""

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
from .dp import (  # noqa: F401
    DpGuarantee,
    NormBoundReport,
    chi_square_cdf,
    epsilon_from_sigma,
    norm_bound_probability,
    sigma_from_epsilon,
)
from .config_io import load_config, load_shipped_config, shipped_config_path  # noqa: F401

# the validate suites, named here so the CLI can offer them without numpy
SUITES = ("lemma1", "lemma2", "chi2", "scaling", "oracle")

_SOLVER_EXPORTS = ("EquilibriumResult", "brute_force_equilibrium", "dissuasion_threshold", "leader_objective",
                   "stackelberg_solve", "user_best_response")
# a star import still brings in every public name, the solver's too, which
# it finds only when they are listed here
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"solver", *_SOLVER_EXPORTS})


def __getattr__(name):
    if name in _SOLVER_EXPORTS:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SOLVER_EXPORTS])
