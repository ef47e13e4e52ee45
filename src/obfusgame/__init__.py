"""Stackelberg obfuscation game: utilities, best responses, equilibria,
Gaussian-mechanism privacy guarantees and ERM accuracy validation.

`import obfusgame` loads no numpy and no dp: the solver's and dp's exports
are imported on first access (PEP 562), so the commands that compute
nothing start fast.  A bare `import obfusgame.cli` loads the game's
records, the config reader and the CLI, and from the standard library
little more than argparse and pathlib: no numpy, json, datetime, csv,
inspect or the standard library's data classes (the records are plain
classes on game._Record, and the CLI imports json and datetime when it
writes a manifest), and without a site hook that loads them first no
importlib.resources or typing (annotations are strings).  The import took
15.0 ms before json, datetime and dp left it, and 11.1 ms after
(perfbench setup_s on oracle_suite, with the site hook).  A command loads
what it runs: numpy brings datetime and typing back to solve, sweep and
validate, validate loads dp, and each of the three writes a manifest, so
solve and sweep save dp, validate nothing, and dp json and datetime; a
usage or config error exits before any of them."""

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
from .config_io import load_config, load_shipped_config, shipped_config_path  # noqa: F401

# the validate suites, named here so the CLI can offer them without numpy
SUITES = ("lemma1", "lemma2", "chi2", "scaling", "oracle")

# name -> the submodule that defines it, imported on the name's first access:
# the solver loads numpy, and only dp's command and the chi2 suite use dp
_LAZY_EXPORTS = {
    **dict.fromkeys(("EquilibriumResult", "brute_force_equilibrium", "dissuasion_threshold", "leader_objective",
                     "stackelberg_solve", "user_best_response"), "solver"),
    **dict.fromkeys(("DpGuarantee", "NormBoundReport", "chi_square_cdf", "epsilon_from_sigma",
                     "norm_bound_probability", "sigma_from_epsilon", "dp"), "dp"),
}
# a star import still brings in every public name, the lazy ones too, which
# it finds only when they are listed here
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"solver", *_LAZY_EXPORTS})


def __getattr__(name):
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY_EXPORTS[name]
    __import__(f"{__name__}.{module}")  # binds the submodule in this namespace
    return globals()[module] if name == module else getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS})
