"""Flat key = value config files.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys follow the symbol names used throughout the package:

    learner.G_bar  learner.gamma  learner.N_bar  learner.Lambda  learner.N
    users[i].G_bar users[i].gamma users[i].P_bar users[i].rho users[i].N_bar
    solver.sigma_max  solver.grid_step  solver.tol

Unknown and duplicate keys are errors (no silent typo acceptance).  An error
found on a line names its number; a missing or invalid value names the file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .game import GameConfig, LearnerParams, SolverSettings, UserParams

_LEARNER_FIELDS = {"G_bar": "baseline_gain", "gamma": "accuracy_weight", "N_bar": "perturbation_cost",
                   "Lambda": "regularizer", "N": "population_size"}
_USER_FIELDS = {"G_bar": "baseline_gain", "gamma": "accuracy_weight", "P_bar": "max_privacy_loss",
                "rho": "privacy_rate", "N_bar": "perturbation_cost"}
_SOLVER_FIELDS = {"sigma_max": "sigma_max", "grid_step": "grid_step", "tol": "root_tol"}
# each learner and solver key, whole, to its section and field; users[i].<field> is read apart
_SECTION_KEYS = {f"{section}.{field}": (section, field)
                 for section, fields in (("learner", _LEARNER_FIELDS), ("solver", _SOLVER_FIELDS)) for field in fields}

SHIPPED_CONFIGS = ("default", "low_cost", "mid_cost", "high_cost")


def _user(i: int, fields: dict[str, float]) -> UserParams:
    """users[i]'s record; an error names the user."""
    try:
        return UserParams(**{_USER_FIELDS[k]: v for k, v in fields.items()})
    except ValueError as exc:
        raise ConfigError(f"users[{i}]: {exc}") from exc


def _number(text: str, key: str, line: int) -> float:
    """float(text.strip()), for a value that float() refuses as it stands:
    float() strips the whitespace that str.strip() strips but \x1f."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"non-numeric value {text!r} for {key}", line=line)


def parse_config_text(text: str, source: str = "<string>") -> GameConfig:
    values: dict[str, dict[str, float]] = {"learner": {}, "solver": {}}
    users: dict[int, dict[str, float]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        key, eq, value_str = line.partition("=")
        if not eq:
            if line := line.strip():
                raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
            continue
        key = key.strip()
        try:
            value = float(value_str)  # float() strips its own whitespace
        except ValueError:
            value = _number(value_str, key, lineno)

        if (where := _SECTION_KEYS.get(key)) is not None:
            section, field = where
            target = values[section]
        else:
            index, dot, field = key.partition("].")
            if not (dot and index[:6] == "users[" and index[6:].isdecimal() and field in _USER_FIELDS):
                raise ConfigError(f"unknown key {key!r}", line=lineno)
            target = users.setdefault(int(index[6:]), {})  # i: any Unicode decimal digits
        if key == "learner.N":
            if not (value >= 1 and value.is_integer()):
                raise ConfigError(f"learner.N must be an integer >= 1, got {value_str.strip()}", line=lineno)
            n_line = lineno
        if field in target:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        target[field] = value

    learner, solver = values["learner"], values["solver"]
    missing = _LEARNER_FIELDS.keys() - learner.keys()
    if missing:
        raise ConfigError(f"{source}: missing learner keys {sorted(missing)}")
    n = int(learner["N"])
    # the count first: learner.N may be far larger than the file
    if len(users) != n or sorted(users) != list(range(n)):
        raise ConfigError(
            f"learner.N = {n:g} requires users[0..{n - 1:g}], got indices {sorted(users)}",
            line=n_line,
        )
    for i, fields in users.items():
        missing = _USER_FIELDS.keys() - fields.keys()
        if missing:
            raise ConfigError(f"{source}: users[{i}] missing keys {sorted(missing)}")

    try:
        return GameConfig(
            # learner.N as the integer n, not its float
            learner=LearnerParams(**{_LEARNER_FIELDS[k]: v for k, v in learner.items()} | {"population_size": n}),
            users=tuple(_user(i, users[i]) for i in range(n)),
            # only the keys the file sets: SolverSettings holds the defaults
            solver=SolverSettings(**{_SOLVER_FIELDS[k]: v for k, v in solver.items()}),
        )
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: "str | Path") -> GameConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def shipped_config_path(name: str) -> Path:
    """Filesystem path of a config shipped with the package, in the
    configs directory next to this module."""
    if name not in SHIPPED_CONFIGS:
        raise ValueError(f"unknown shipped config {name!r}; choose from {SHIPPED_CONFIGS}")
    return Path(__file__).with_name("configs") / f"{name}.cfg"


def load_shipped_config(name: str) -> GameConfig:
    return load_config(shipped_config_path(name))
