import ast
import csv
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import chain, count
from pathlib import Path

import pytest

import obfusgame
from obfusgame import erm
from obfusgame.cli import main
from obfusgame.config_io import (
    SHIPPED_CONFIGS,
    load_shipped_config,
    parse_config_text,
    shipped_config_path,
)
from obfusgame.errors import ConfigError, ConvergenceError
from obfusgame.game import SolverSettings


def replace(record, **changes):
    """A new record of record's type with the given fields changed."""
    return type(record)(**{**vars(record), **changes})


MINIMAL = """
learner.G_bar  = 1
learner.gamma  = 1
learner.N_bar  = 0
learner.Lambda = 1
learner.N      = 1
users[0].G_bar = 1
users[0].gamma = 1
users[0].P_bar = 1
users[0].rho   = 1
users[0].N_bar = 0
"""

# the one message of solver._admissible's refusal
OVERFLOW = "utilities overflow at sigma_L"

# users 0 and 1 are dissuaded at sigma_L = 4.85 and 3.41, user 2 never perturbs
THREE_USERS = """
learner.G_bar  = 100
learner.gamma  = 4
learner.N_bar  = 75
learner.Lambda = 1
learner.N      = 3
users[0].G_bar = 100
users[0].gamma = 1
users[0].P_bar = 45
users[0].rho   = 0.1
users[0].N_bar = 1
users[1].G_bar = 90
users[1].gamma = 2
users[1].P_bar = 60
users[1].rho   = 0.2
users[1].N_bar = 3
users[2].G_bar = 80
users[2].gamma = 1
users[2].P_bar = 0
users[2].rho   = 1
users[2].N_bar = 0
"""


# the kinds of best-response row perfbench's population configs mix, at
# sigma_max = 20: users 0, 1, 5 and 6 are dissuaded at sigma_L = 13.17, 8.13,
# 6.08 and 3.06, user 3 at 18.82, user 7 only past sigma_max (at 24.89), and
# users 2 (P_bar = 0) and 4 (cut at 0) never perturb
EIGHT_USERS = """
learner.G_bar  = 100
learner.gamma  = 4
learner.N_bar  = 75
learner.Lambda = 1
learner.N      = 8
users[0].G_bar = 100
users[0].gamma = 1
users[0].P_bar = 45
users[0].rho   = 0.1
users[0].N_bar = 1
users[1].G_bar = 90
users[1].gamma = 2
users[1].P_bar = 60
users[1].rho   = 0.2
users[1].N_bar = 3
users[2].G_bar = 80
users[2].gamma = 1
users[2].P_bar = 0
users[2].rho   = 1
users[2].N_bar = 0
users[3].G_bar = 100
users[3].gamma = 1
users[3].P_bar = 400
users[3].rho   = 0.1
users[3].N_bar = 40
users[4].G_bar = 95
users[4].gamma = 1
users[4].P_bar = 2
users[4].rho   = 0.05
users[4].N_bar = 0.5
users[5].G_bar = 100
users[5].gamma = 4
users[5].P_bar = 30
users[5].rho   = 0.3
users[5].N_bar = 0.2
users[6].G_bar = 85
users[6].gamma = 2
users[6].P_bar = 5
users[6].rho   = 0.1
users[6].N_bar = 0.05
users[7].G_bar = 100
users[7].gamma = 1
users[7].P_bar = 400
users[7].rho   = 0.1
users[7].N_bar = 20
solver.sigma_max = 20
"""

def three_users_with(line):
    """THREE_USERS with the line of line's key replaced by line."""
    [old] = [row for row in THREE_USERS.splitlines() if row.startswith(line.partition("=")[0])]
    return THREE_USERS.replace(old, line)


def population_config(n):
    """MINIMAL with n copies of its one user."""
    head, _, user = MINIMAL.partition("users[0]")
    user = "users[0]" + user
    text = head.replace("learner.N      = 1", f"learner.N      = {n}")
    return text + "".join(user.replace("users[0]", f"users[{i}]") for i in range(n))


class TestConfigParsing:
    def test_minimal_round_trip(self):
        config = parse_config_text(MINIMAL)
        assert config.n_users == 1
        assert config.learner.baseline_gain == 1.0
        assert config.solver.sigma_max == 50.0  # defaults apply

    def test_no_solver_key_gives_the_default_settings(self):
        assert parse_config_text(MINIMAL).solver == SolverSettings()

    @pytest.mark.parametrize("value", ["1.5", "inf", "nan", "1e300", "0"])
    def test_bad_population_size_is_line_anchored(self, tmp_path, capsys, value):
        cfg = tmp_path / "n.cfg"
        cfg.write_text(MINIMAL.replace("learner.N      = 1", f"learner.N      = {value}"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        line = MINIMAL.splitlines().index("learner.N      = 1") + 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: learner.N ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_population_size_checked_before_index_list(self):
        # an index list of 2e6 ints would take tens of MB
        text = MINIMAL.replace("learner.N      = 1", "learner.N      = 2000000")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="users"):
                parse_config_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text("# top\n\n" + MINIMAL + "solver.tol = 0.1 # inline\n")
        assert config.solver.root_tol == 0.1

    @pytest.mark.parametrize("pad", [" ", "\t", "\x1f", "\u3000"])
    def test_a_value_is_read_as_str_strip_strips_it(self, pad):
        # float() strips whitespace itself, but for \x1f, which str.strip strips
        assert parse_config_text(MINIMAL + f"solver.tol = {pad}0.5{pad}\n").solver.root_tol == 0.5

    @pytest.mark.parametrize("key", ["dp.delta", "dp.d"])
    def test_dp_keys_are_unknown(self, tmp_path, capsys, key):
        # delta and d are flags of the dp subcommand; no game quantity reads them
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(MINIMAL + f"{key} = 0.05\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        line = MINIMAL.count("\n") + 1
        assert capsys.readouterr().err == f"error: line {line}: unknown key '{key}'\n"

    def test_zero_padded_user_index(self):
        # users[01] is user 1, not a key of its own
        text = population_config(2)
        assert parse_config_text(text.replace("users[1]", "users[01]")) == parse_config_text(text)

    @pytest.mark.parametrize("text, message", [
        pytest.param(MINIMAL + "learner.G_bar 2\n", "line 12: expected 'key = value', got 'learner.G_bar 2'",
                     id="no_equals"),
        pytest.param(MINIMAL + "solver.tol = abc\n", "line 12: non-numeric value 'abc' for solver.tol",
                     id="non_numeric"),
        pytest.param(MINIMAL + "users[0].rho =\n", "line 12: non-numeric value '' for users[0].rho",
                     id="empty_value"),
        pytest.param(MINIMAL + "learner.typo = 3\n", "line 12: unknown key 'learner.typo'", id="unknown_learner"),
        pytest.param(MINIMAL + "solver.typo = 3\n", "line 12: unknown key 'solver.typo'", id="unknown_solver"),
        pytest.param(MINIMAL + "users[0].typo = 3\n", "line 12: unknown key 'users[0].typo'", id="unknown_user"),
        pytest.param(MINIMAL + "users[+1].rho = 1\n", "line 12: unknown key 'users[+1].rho'", id="signed_index"),
        pytest.param(MINIMAL + "users[0].rho.x = 1\n", "line 12: unknown key 'users[0].rho.x'", id="user_subfield"),
        pytest.param(MINIMAL + "learner.users[0].rho = 1\n", "line 12: unknown key 'learner.users[0].rho'",
                     id="user_under_learner"),
        pytest.param(MINIMAL + "learner = 1\n", "line 12: unknown key 'learner'", id="bare_section"),
        pytest.param(MINIMAL + "solver.N = 2\n", "line 12: unknown key 'solver.N'", id="learner_field_in_solver"),
        pytest.param(MINIMAL.replace("learner.N      = 1", "learner.N      = 1.5"),
                     "line 6: learner.N must be an integer >= 1, got 1.5", id="fractional_N"),
        pytest.param(MINIMAL.replace("learner.N      = 1", "learner.N      = 0"),
                     "line 6: learner.N must be an integer >= 1, got 0", id="zero_N"),
        # the domain check comes first: a second, invalid learner.N is not reported as a duplicate
        pytest.param(MINIMAL + "learner.N = -1\n", "line 12: learner.N must be an integer >= 1, got -1",
                     id="duplicate_invalid_N"),
        pytest.param(MINIMAL + "learner.G_bar = 2\n", "line 12: duplicate key 'learner.G_bar'",
                     id="duplicate_learner"),
        pytest.param(MINIMAL + "solver.tol = 0.1\nsolver.tol = 0.2\n", "line 13: duplicate key 'solver.tol'",
                     id="duplicate_solver"),
        pytest.param(MINIMAL + "users[00].rho = 2\n", "line 12: duplicate key 'users[00].rho'",
                     id="duplicate_padded_user"),
        pytest.param(MINIMAL.replace("learner.Lambda = 1\n", "").replace("learner.gamma  = 1\n", ""),
                     "game.cfg: missing learner keys ['Lambda', 'gamma']", id="missing_learner"),
        pytest.param(MINIMAL.replace("learner.N      = 1", "learner.N      = 2"),
                     "line 6: learner.N = 2 requires users[0..1], got indices [0]", id="too_few_users"),
        pytest.param(MINIMAL.replace("users[0]", "users[1]"),
                     "line 6: learner.N = 1 requires users[0..0], got indices [1]", id="wrong_index"),
        pytest.param(MINIMAL.replace("users[0].rho   = 1\n", ""), "game.cfg: users[0] missing keys ['rho']",
                     id="missing_user_key"),
        pytest.param(MINIMAL.replace("users[0].rho   = 1", "users[0].rho   = 0"),
                     "game.cfg: users[0]: privacy_rate must be > 0", id="dataclass_error"),
        pytest.param(MINIMAL + "solver.sigma_max = inf\n", "game.cfg: sigma_max must be finite, got inf",
                     id="dataclass_finite"),
        # a user's record error names the user, one case per field
        pytest.param(three_users_with("users[1].G_bar = inf"),
                     "game.cfg: users[1]: baseline_gain must be finite, got inf", id="user_G_bar"),
        pytest.param(three_users_with("users[1].gamma = -2"), "game.cfg: users[1]: accuracy_weight must be >= 0",
                     id="user_gamma"),
        pytest.param(three_users_with("users[1].gamma = 0"),
                     "game.cfg: users[1]: gamma = 0 with P_bar > 0 has no finite optimal perturbation",
                     id="user_zero_gamma"),
        pytest.param(three_users_with("users[1].P_bar = -60"), "game.cfg: users[1]: max_privacy_loss must be >= 0",
                     id="user_P_bar"),
        pytest.param(three_users_with("users[1].rho   = 0"), "game.cfg: users[1]: privacy_rate must be > 0",
                     id="user_rho"),
        pytest.param(three_users_with("users[1].N_bar = nan"),
                     "game.cfg: users[1]: perturbation_cost must be finite, got nan", id="user_N_bar"),
    ])
    def test_every_error_message(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text, source="game.cfg")
        assert str(exc.value) == message

    def test_all_shipped_configs_load(self):
        for name in SHIPPED_CONFIGS:
            config = load_shipped_config(name)
            assert config.n_users == 1
            assert config.solver.sigma_max == 50.0

    def test_shipped_columns_differ_only_in_user_cost(self):
        cols = [load_shipped_config(n) for n in ("low_cost", "mid_cost", "high_cost")]
        assert [c.users[0].perturbation_cost for c in cols] == [10.0, 20.0, 30.0]
        for c in cols[1:]:
            assert c.learner == cols[0].learner


def read_equilibrium(path):
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    return values


class TestCliSolve:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "solve", "--config", str(shipped_config_path("default")),
            "--out", str(out),
        ])
        assert code == 0
        eq = read_equilibrium(out / "equilibrium.txt")
        assert eq["sigma_L_star"] > 0
        assert (out / "thresholds.csv").read_text().startswith("user,threshold")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["seed"] is None
        assert "sigma_L_star" in capsys.readouterr().out

    def test_solve_takes_no_seed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "solve", "--config", str(shipped_config_path("default")),
                "--out", str(tmp_path), "--seed", "1",
            ])
        assert exc.value.code == 2

    def test_solve_is_byte_reproducible(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([
                "solve", "--config", str(shipped_config_path("default")),
                "--out", str(out),
            ]) == 0
            outs.append(out)
        for name in ("equilibrium.txt", "thresholds.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_solve_all_zero_privacy(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINIMAL.replace("users[0].P_bar = 1", "users[0].P_bar = 0"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        eq = read_equilibrium(out / "equilibrium.txt")
        assert eq["sigma_L_star"] == 0.0
        assert eq["sigma_S_star[0]"] == 0.0

    def test_solve_oracle_agrees_within_grid_tolerances(self, tmp_path):
        cfg_path = shipped_config_path("default")
        out_fast, out_slow = tmp_path / "fast", tmp_path / "slow"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out_fast)]) == 0
        assert main([
            "solve", "--config", str(cfg_path), "--out", str(out_slow),
            "--oracle", "--fine-step", "0.01",
        ]) == 0
        fast = read_equilibrium(out_fast / "equilibrium.txt")
        slow = read_equilibrium(out_slow / "equilibrium.txt")
        # the grid oracle lands within one step of the jump point; utility
        # differs by at most the local slope times the step
        assert abs(fast["sigma_L_star"] - slow["sigma_L_star"]) <= 0.01 + 1e-6
        assert abs(fast["learner_utility"] - slow["learner_utility"]) <= 0.2

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL + "unknown.key = 1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, config, out",
        [
            ("solve", "default", "file"),  # FileExistsError
            ("solve", "dir", "out"),  # IsADirectoryError
            ("sweep", "default", "file/sub"),  # NotADirectoryError
        ],
        ids=["out_is_file", "config_is_dir", "out_under_file"],
    )
    def test_unusable_path_exit_2(self, tmp_path, capsys, command, config, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        cfg = shipped_config_path("default") if config == "default" else tmp_path / config
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_sigma_max_with_overflowing_square_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(MINIMAL + "solver.sigma_max = 1e200\nsolver.grid_step = 1e199\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "square" in capsys.readouterr().err

    # at 1e-320, sigma_max / fine_step overflows to inf
    @pytest.mark.parametrize("fine_step", ["1e-6", "1e-320"])
    def test_oversized_oracle_grid_exit_3(self, tmp_path, capsys, fine_step):
        assert main([
            "solve", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path / "out"), "--oracle", "--fine-step", fine_step,
        ]) == 3
        assert "solver error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_oracle_default_fine_step_fits_the_budget(self, tmp_path, name):
        # sigma_max = 50 by 1e-3 is 50,001 points, over the 44,721 of one user
        assert main([
            "solve", "--config", str(shipped_config_path(name)), "--out", str(tmp_path), "--oracle",
        ]) == 0

    @pytest.mark.parametrize("fine_step", ["nan", "inf", "0", "-1"])
    def test_bad_oracle_fine_step_exit_2(self, tmp_path, capsys, fine_step):
        assert main([
            "solve", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), "--oracle", "--fine-step", fine_step,
        ]) == 2
        finite = fine_step not in ("nan", "inf")
        message = "fine_step must be > 0" if finite else f"fine_step must be finite, got {fine_step}"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fine_step", ["nan", "0.5"])
    def test_fine_step_without_oracle_exit_2(self, tmp_path, capsys, fine_step):
        out = tmp_path / "out"
        assert main([
            "solve", "--config", str(shipped_config_path("default")),
            "--out", str(out), "--fine-step", fine_step,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --fine-step applies only with --oracle\n"
        assert captured.out == ""
        assert not out.exists()


# 1.2e154 squared is finite, but sigma_L^2 + sigma_S^2 at the grid's top is not
@pytest.mark.parametrize(
    "command, config_edits, args",
    [
        ("solve", "solver.sigma_max = 1.2e154\nsolver.grid_step = 1e153\n", ["--oracle", "--fine-step", "1e153"]),
        ("sweep", "", ["--max", "1.2e154", "--step", "1e153"]),
    ],
    ids=["solve_oracle", "sweep"],
)
def test_doubled_square_overflow_exit_2(tmp_path, capsys, command, config_edits, args):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINIMAL + config_edits)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "1.2e+154" in err
    assert not (tmp_path / "out").exists()


# (N * Lambda)^2, (1 + rho * s)^2 and s_star^2 overflow a Python float, and
# a gamma near the float maximum overflows the utilities to -inf at the
# domain's corner, which every command refuses alike; codes are those of
# solve, solve --oracle and sweep
@pytest.mark.parametrize(
    "k, command", enumerate([["solve"], ["solve", "--oracle", "--fine-step", "0.5"], ["sweep"]]),
    ids=["solve", "solve_oracle", "sweep"],
)
@pytest.mark.parametrize(
    "edits, codes, message",
    [
        ({"learner.Lambda": "1e200"}, (2, 2, 2), "regularizer"),
        ({"users[0].rho": "1e300"}, (0, 0, 0), None),
        # s_star = 5e199 has no finite square: the oracle refuses the game as the solve does
        ({"learner.Lambda": "1e100", "users[0].rho": "1e-300", "users[0].P_bar": "1e300"}, (3, 3, 3), "square"),
        ({"learner.gamma": "1e306"}, (3, 3, 3), OVERFLOW),
        ({"learner.gamma": "1e308"}, (3, 3, 3), OVERFLOW),
        # only losing sigma_L overflow user 0's utility, but the corner does
        ({"users[0].gamma": "1e306"}, (3, 3, 3), OVERFLOW),
        # no scored sigma_L overflows the learner's utility; the corner does
        ({"learner.gamma": "5e304"}, (3, 3, 3), OVERFLOW),
    ],
    ids=["huge_Lambda", "huge_rho", "huge_s_star", "huge_learner_gamma", "max_learner_gamma", "huge_user_gamma",
         "large_learner_gamma"],
)
def test_huge_parameter_ends_cleanly(tmp_path, capsys, k, command, edits, codes, message):
    text = shipped_config_path("default").read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    (tmp_path / "huge.cfg").write_text(text)
    out = tmp_path / "out"
    code = codes[k]
    assert main([*command, "--config", str(tmp_path / "huge.cfg"), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and message in err
        assert not out.exists()
        return
    assert err == ""
    assert_outputs_are_finite(out)


def test_sweep_grid_stops_at_max(tmp_path, capsys):
    # the largest sigma_max with a finite doubled square: 87 steps of
    # sigma_max / 87 round one ulp past it, where the own-noise table's
    # spread, sigma_L^2 + sigma_S^2, overflows
    sigma_max = 9.480751908109176e153
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(MINIMAL + f"solver.sigma_max = {sigma_max!r}\nsolver.grid_step = {sigma_max / 87!r}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert_outputs_are_finite(tmp_path / "out")


def assert_outputs_are_finite(out):
    for path in [*out.glob("*.csv"), *out.glob("*.txt")]:
        fields = re.split(r"[,\n]| = ", path.read_text())
        values = [float(f) for f in fields if re.fullmatch(r"[-+.\deinfa]+", f)]
        assert values and all(math.isfinite(v) for v in values), path.name


# every parameter is drawn from these, from 0 to near the float maximum
FUZZ_VALUES = [0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e-3, 0.1, 1.0, 4.0, 75.0, 1e20, 1e150, 1e300, 1.7e308]


def fuzz_configs(seed, count):
    """count (config text, grid step) pairs that load, each of 1-3 users,
    with every parameter from FUZZ_VALUES, sigma_max log-uniform on [1e-300,
    1e300] and the step sigma_max / 50."""
    rng = random.Random(seed)
    while count:
        n, sigma_max = rng.randint(1, 3), 10.0 ** rng.uniform(-300, 300)
        keys = [f"learner.{k}" for k in ("G_bar", "gamma", "N_bar", "Lambda")]
        keys += [f"users[{i}].{k}" for i in range(n) for k in ("G_bar", "gamma", "P_bar", "rho", "N_bar")]
        lines = [f"{key} = {rng.choice(FUZZ_VALUES)!r}" for key in keys]
        lines += [f"learner.N = {n}", f"solver.sigma_max = {sigma_max!r}", f"solver.grid_step = {sigma_max / 50!r}"]
        text = "\n".join(lines) + "\n"
        try:
            parse_config_text(text)
        except ConfigError:
            continue
        count -= 1
        yield text, sigma_max / 50


def test_commands_agree_on_fuzzed_configs(tmp_path, capsys):
    """solve, solve --oracle and sweep exit alike on every game: a refusal
    prints one line and writes nothing, a success writes only finite values."""
    for k, (text, step) in enumerate(fuzz_configs(1, 150)):
        cfg = tmp_path / f"{k}.cfg"
        cfg.write_text(text)
        codes = []
        for j, command in enumerate([["solve"], ["solve", "--oracle", "--fine-step", repr(step)], ["sweep"]]):
            out = tmp_path / f"{k}-{j}"
            codes.append(main([*command, "--config", str(cfg), "--out", str(out)]))
            err = capsys.readouterr().err
            if codes[-1]:
                assert len(err.splitlines()) == 1 and not out.exists(), (text, command, err)
            else:
                assert err == ""
                assert_outputs_are_finite(out)
        assert len(set(codes)) == 1, (text, codes)


# one user whose flat cost (2) exceeds its whole privacy stake (1), so its
# cut is 0 and it never perturbs, with s* = 3.7e66: at max(sigma_max, s*)
# the learner's accuracy term would overflow, so the corner holds that user
# at sigma_max and all three commands solve the game
NEVER_PERTURBS = MINIMAL.replace("learner.gamma  = 1", "learner.gamma  = 1e300").replace(
    "users[0].gamma = 1", "users[0].gamma = 1e-200").replace("users[0].N_bar = 0", "users[0].N_bar = 2")


def test_user_who_never_perturbs_sits_at_the_top(tmp_path, capsys):
    cfg = tmp_path / "never.cfg"
    cfg.write_text(NEVER_PERTURBS + "solver.sigma_max = 1\nsolver.grid_step = 0.02\n")
    for j, command in enumerate([["solve"], ["solve", "--oracle", "--fine-step", "0.02"], ["sweep"]]):
        out = tmp_path / str(j)
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert_outputs_are_finite(out)
        if j < 2:
            assert "sigma_S_star[0] = 0\n" in (out / "equilibrium.txt").read_text()
            assert (out / "thresholds.csv").read_text() == "user,threshold\n0,0\n"


# at 1e-160 gamma / (N * Lambda^2) overflows (NaN and -inf utilities before
# this was checked); at 1e-170 Lambda^2 underflows to 0 (ZeroDivisionError)
@pytest.mark.parametrize(
    "command, args",
    [("solve", ["--oracle", "--fine-step", "0.5"]), ("sweep", [])],
    ids=["solve_oracle", "sweep"],
)
@pytest.mark.parametrize(
    "lam, message",
    [("1e-160", "gamma / (N * Lambda^2) is not finite"), ("1e-170", "squares to 0")],
)
def test_tiny_Lambda_exit_2(tmp_path, capsys, command, args, lam, message):
    text, count = re.subn(r"^learner\.Lambda\s*=.*$", f"learner.Lambda = {lam}",
                          shipped_config_path("default").read_text(), flags=re.M)
    assert count == 1
    (tmp_path / "tiny.cfg").write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "tiny.cfg"), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err and lam in err
    assert not out.exists()


def test_tiny_Lambda_with_zero_weights_is_usable():
    # no accuracy coefficient to overflow: gamma = 0 everywhere, P_bar = 0
    text = MINIMAL.replace("learner.Lambda = 1", "learner.Lambda = 1e-160")
    text = text.replace("gamma  = 1", "gamma  = 0").replace("gamma = 1", "gamma = 0")
    text = text.replace("P_bar = 1", "P_bar = 0")
    assert parse_config_text(text).learner.regularizer == 1e-160
    with pytest.raises(ConfigError, match="squares to 0"):
        parse_config_text(text.replace("1e-160", "1e-170"))


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main([
        "sweep", "--config", str(shipped_config_path("default")),
        "--out", str(out), "--max", "6", "--step", "0.05",
    ])
    assert code == 0
    return out


@pytest.fixture
def no_sweep_output(monkeypatch):
    # fail at once, rather than hang, if an invalid range gets to the grid
    import obfusgame.cli

    def no_output(args):
        raise AssertionError("sweep went past its input checks")

    monkeypatch.setattr(obfusgame.cli, "_outdir", no_output)


class TestCliSweep:
    def test_files_and_headers(self, sweep_out):
        br = (sweep_out / "sweep_best_response.csv").read_text().splitlines()
        assert br[0] == "sigma_L,br_user_0"
        leader = (sweep_out / "sweep_leader.csv").read_text().splitlines()
        assert leader[0] == "sigma_L,br_user_0,U_L,U_S_0"
        user = (sweep_out / "sweep_user_utility.csv").read_text().splitlines()
        assert user[0] == "sigma_L,sigma_S,U_S_0"

    def test_br_zero_beyond_threshold(self, sweep_out):
        from obfusgame.solver import dissuasion_threshold

        t = dissuasion_threshold(0, load_shipped_config("default"))
        rows = [line.split(",") for line in
                (sweep_out / "sweep_best_response.csv").read_text().splitlines()[1:]]
        for sigma_L, br in ((float(a), float(b)) for a, b in rows):
            if sigma_L > t:
                assert br == 0.0
            else:
                assert br > 0.0

    def test_leader_jump_at_threshold(self, sweep_out):
        from obfusgame.solver import dissuasion_threshold, leader_objective

        config = load_shipped_config("default")
        t = dissuasion_threshold(0, config)
        assert leader_objective(t + 1e-6, config) > leader_objective(t - 1e-6, config)
        rows = [line.split(",") for line in
                (sweep_out / "sweep_leader.csv").read_text().splitlines()[1:]]
        below = max(float(r[2]) for r in rows if float(r[0]) < t)
        just_above = [float(r[2]) for r in rows if t < float(r[0]) < t + 0.1]
        assert just_above and max(just_above) > below

    def test_dropoff_ordering_across_columns(self, tmp_path):
        dropoffs = []
        for name in ("low_cost", "mid_cost", "high_cost"):
            out = tmp_path / name
            assert main([
                "sweep", "--config", str(shipped_config_path(name)),
                "--out", str(out), "--max", "6", "--step", "0.05",
            ]) == 0
            rows = [line.split(",") for line in
                    (out / "sweep_best_response.csv").read_text().splitlines()[1:]]
            dropoffs.append(min(float(r[0]) for r in rows if float(r[1]) == 0.0))
        assert dropoffs[0] > dropoffs[1] > dropoffs[2]

    def test_rows_match_public_path(self, tmp_path):
        from obfusgame.cli import _fmt
        from obfusgame.game import StrategyProfile, learner_utility, user_utility
        from obfusgame.solver import best_response_profile

        (tmp_path / "three.cfg").write_text(THREE_USERS)
        config = parse_config_text(THREE_USERS)
        assert main([
            "sweep", "--config", str(tmp_path / "three.cfg"),
            "--out", str(tmp_path), "--max", "6", "--step", "0.05",
        ]) == 0
        leader = (tmp_path / "sweep_leader.csv").read_text().splitlines()[1:]
        for line in leader:
            sigma_L = float(line.split(",")[0])
            profile = best_response_profile(sigma_L, config)
            values = [sigma_L, *profile.sigma_S, learner_utility(config, profile)]
            values += [user_utility(config, i, profile) for i in range(3)]
            assert line == ",".join(_fmt(v) for v in values)
        assert {line.split(",")[1] == "0" for line in leader} == {True, False}
        own = (tmp_path / "sweep_user_utility.csv").read_text().splitlines()[1:]
        assert len(own) == 5 * len(leader)
        for line in own:
            sigma_L, sigma_S = (float(v) for v in line.split(",")[:2])
            utilities = []
            for i in range(3):
                sigma = [0.0, 0.0, 0.0]
                sigma[i] = sigma_S
                utilities.append(user_utility(config, i, StrategyProfile(sigma_L, sigma)))
            assert line == ",".join(_fmt(v) for v in (sigma_L, sigma_S, *utilities))

    def test_responses_past_sigma_max(self, tmp_path):
        # user 0 is dissuaded at 4.85, beyond sigma_max: no threshold is
        # reported, but the sweep past sigma_max still sees the user stop
        from obfusgame.cli import _fmt
        from obfusgame.solver import dissuasion_threshold, user_best_response

        text = THREE_USERS + "solver.sigma_max = 4\n"
        (tmp_path / "three.cfg").write_text(text)
        config = parse_config_text(text)
        assert dissuasion_threshold(0, config) is None
        assert main([
            "sweep", "--config", str(tmp_path / "three.cfg"),
            "--out", str(tmp_path), "--max", "6", "--step", "0.05",
        ]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep_best_response.csv").read_text().splitlines()[1:]]
        for row in rows:
            sigma_L = float(row[0])
            assert row[1:] == [_fmt(user_best_response(sigma_L, i, config)) for i in range(3)]
            assert (row[1] == "0") == (sigma_L >= 4.9)

    def test_grid_ends_at_max(self, tmp_path):
        # 0.3 does not divide 1; the last row is --max itself
        assert main([
            "sweep", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), "--max", "1", "--step", "0.3",
        ]) == 0
        rows = (tmp_path / "sweep_best_response.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.3", "0.6", "0.9", "1"]

    def test_last_row_is_not_repeated(self, tmp_path):
        # 3071 steps of --max / 3071 end one ulp below --max, a point the
        # CSV writes as --max itself; the grid adds no second one
        top = 29410.020397065022
        assert main([
            "sweep", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), "--max", repr(top), "--step", repr(top / 3071),
        ]) == 0
        rows = (tmp_path / "sweep_best_response.csv").read_text().splitlines()[1:]
        assert len(rows) == 3072 and rows[-2:] == ["29400.4437053,0", "29410.0203971,0"]

    @pytest.mark.parametrize(
        "args, code",
        [
            pytest.param(["--min", "2", "--max", "1"], 2, id="min_above_max"),
            pytest.param(["--min", "-1"], 2, id="negative_min"),
            pytest.param(["--min", "nan"], 2, id="nan_min"),
            pytest.param(["--max", "inf"], 2, id="infinite_max"),
            pytest.param(["--step", "inf"], 2, id="infinite_step"),
            pytest.param(["--step", "0"], 2, id="zero_step"),
            # the accumulated grid point would never pass --max
            pytest.param(["--min", "1e20", "--max", "1e20", "--step", "1"], 2, id="step_below_spacing"),
            # --max squared overflows a float
            pytest.param(["--min", "1e200", "--max", "1e200", "--step", "1e190"], 2, id="max_square_overflows"),
            pytest.param(["--step", "1e-300"], 3, id="tiny_step"),
            pytest.param(["--max", "1e6", "--step", "0.5"], 3, id="over_point_cap"),
        ],
    )
    def test_invalid_range_exit_2(self, tmp_path, capsys, no_sweep_output, args, code):
        assert main([
            "sweep", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), *args,
        ]) == code
        assert "error" in capsys.readouterr().err

    def test_over_cell_cap_exit_3(self, tmp_path, capsys, no_sweep_output):
        # 500,001 points: under 10^6, over the 21e6 // (8 * 8 + 13) = 272,727 of 8 users
        cfg = tmp_path / "eight.cfg"
        cfg.write_text(population_config(8))
        assert main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path), "--max", "50", "--step", "1e-4",
        ]) == 3
        assert "exceeds 272727 points" in capsys.readouterr().err


# sha256 of each output of `solve` and a default-grid `sweep`, in this order;
# a change that is meant to leave the outputs alone must not move them
PINNED_FILES = (
    "equilibrium.txt", "thresholds.csv",
    "sweep_user_utility.csv", "sweep_best_response.csv", "sweep_leader.csv",
)
PINNED_DIGESTS = {
    "default": (
        "fe5be2741b2e9240ac0203ca3e79cc11e57ac7e1231d4255df2d004ed581900d",
        "b956630bc6ee9d06b412efc23430b90f06b081845de5aa8eea5a73d5fdab2dca",
        "c5696635eb7620e68fda6ee0dc1e6bc9de54e1ae59be716313bb6e67e6aa5ce0",
        "65a7085c36f322d2de09d4b876d06d70d5f2e95e71558c22a943457ace84959d",
        "e69a31135eacc4eec1e19e7f77ae367d40884af0cfabf506cd386e9505f74bb3",
    ),
    "low_cost": (
        "8866899cdace5d24c79e3d67c77c4aabee2c09e47378df78a6066577c1fd5e98",
        "155df2d3cfb66ffa93939edf1d2bc0e797fdbf3394ddae57e37745421ebbcf26",
        "b3f1692e62ce2880ae37d93d638af9d3888fac40ac5a51c242f67d49c381e9f3",
        "c6f1a066e865ad4d8e0f1d796ee8a9ea1c844aff74f6fdd4e5fea3f0e783e110",
        "76d7f818ff159f5739b2d4d80560e20b3e59a87d0b782739e782f01c5374f327",
    ),
    # the same game as default
    "mid_cost": (
        "fe5be2741b2e9240ac0203ca3e79cc11e57ac7e1231d4255df2d004ed581900d",
        "b956630bc6ee9d06b412efc23430b90f06b081845de5aa8eea5a73d5fdab2dca",
        "c5696635eb7620e68fda6ee0dc1e6bc9de54e1ae59be716313bb6e67e6aa5ce0",
        "65a7085c36f322d2de09d4b876d06d70d5f2e95e71558c22a943457ace84959d",
        "e69a31135eacc4eec1e19e7f77ae367d40884af0cfabf506cd386e9505f74bb3",
    ),
    "high_cost": (
        "980545b5c1d52b281a2a55020f18748a97a6691a5e9b93e45412cf6fbcefdc97",
        "ce50fef61a1a224aca614383a89e6fcb5751e1bba30fc1e25e7c23fea17aa74a",
        "522c9980d16a7184e3a1924da75e81ecee47d1f637c294d9e84c5806d89b95af",
        "da8d584da17e3e9bcff7d195deda89603022be746ab419e005f583831038c287",
        "175a44479232faacdbc5e6f1e9f711c506ff2e276c455c87cc3ef7c498de8bb8",
    ),
    "three_users": (
        "c579119c956a21ac3295512dbe151f9531e50784568026c85fa249d458e99569",
        "c5ff20f43ab3f2b36ef5545774fa4fe2f6e3a261bcd3612fda21103181e3cff6",
        "4e946ee4c823d9c27d9fdeb5b041d2073dd3e7dfe2eaaf29ace5b1653bb9b79f",
        "9028fe5b23ce0de06f3093407387d846ab58ea8e367277ddb8cd6eec142b9846",
        "6a1a7f3424a79ee95686e7178051a9f63e962ee930b7fb495093c91d0bdcae8a",
    ),
}


# sha256 of the three sweep files on a non-default grid
SWEEP_GRIDS = {
    "padded": ["--min", "0.3", "--max", "1", "--step", "0.3"],  # 4 samples, --max appended
    "one_point": ["--min", "5", "--max", "5", "--step", "1"],
    "step_past_max": ["--max", "1", "--step", "5"],  # 0, then --max
    # 8,001 points: at N = 8, more rows than the CLI formats and writes in one chunk
    "chunked": ["--step", "0.0025"],
}
PINNED_SWEEP_DIGESTS = {
    ("default", "padded"): (
        "f0992ffc5863ae5e2a067054b2449cabb7797a5d1358dd81ba793e753b14f38a",
        "856fed4ba19f6f966a88480ff091fdcd8282ababb88b2fbb026948dab89b1fad",
        "c5d71b28168b12a50a964dd211e5ddc7abe9bd3e12a33749a562dde1b05158e0",
    ),
    ("default", "one_point"): (
        "583c885c0e9be46789a4cd8a9c0a6dbb77d28946ac0f4c8fa2e28aa7017dbd77",
        "efe79b7ed38fb1b87160abb41228ac245f4e35295ecde988ac76711d589d52d5",
        "cb6fb6539095cfa9e3af3e19c79a6271b4542176b87cad68ee5c2be42902e644",
    ),
    ("default", "step_past_max"): (
        "3d7ca2e1247d236b780ac5410f7c420d361cf3bafd917fda869142391a6b4572",
        "dabd9cb28b34c02b7572b9f893c5d3f28c2f4c2327b0d2771ffedd6342bf9592",
        "59fb74feb51835ad468d290db5d271884e07db9f192f841e82fb995d0bcf3bf3",
    ),
    ("three_users", "padded"): (
        "53d49256c9904c166eb9f1bfc074805b15406a5946794d09df7f674e0c6edaa6",
        "0930e4949e7e8ede920520856ca728e519a14974857a8804b6f6c1432c07fdff",
        "3e6c8e224168541a0c5a6992d7bba5b41818b7547cf5c7b60a5fb8cc0545af57",
    ),
    ("three_users", "one_point"): (
        "13623534222ccbeb6ab82b25d90d262858dfe8275c3cb78ea20c049c11b22cfc",
        "edcd0ba496a1b13dd19abbc3e11d09d7c5a9861334a3a72b04ca0c12bdf57c11",
        "6aaa891b84fc5f5f3c6bb2a1b21677b0355a5b706aad9d2859edc8186f7cb3ec",
    ),
    ("three_users", "step_past_max"): (
        "983eb2ccaa4f13c007e5ed5b0c611cca6e9981efe8a99aa5765e389ba37e17af",
        "08ceefaafd91ade1cbeab1fc7998569486bae2c06faa12eef6f2be04f6c522b8",
        "04f7df1bf71e1e9986daca58285895d7ddc3276539fada358648d0a89de4bc77",
    ),
    ("eight_users", "chunked"): (
        "6c2b25be5ad262ada7be837ca6a4bf049d03f7cb2fc9caad767a4e48f79fc3e9",
        "7e7223f4abefa17b5021511192f5517b5dff82faf33ead02958b0b83b87398a1",
        "3bdb13f75d868559fd39102907454684a650c982eeff770eceb3ef13df83fc27",
    ),
}


def pinned_config(tmp_path, name):
    if name in ("three_users", "eight_users"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(THREE_USERS if name == "three_users" else EIGHT_USERS)
        return cfg
    return shipped_config_path(name)


@pytest.mark.parametrize("name", list(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, capsys, name):
    cfg = pinned_config(tmp_path, name)
    for command in ("solve", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED_FILES)
    assert digests == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name, grid", list(PINNED_SWEEP_DIGESTS))
def test_sweep_outputs_match_pinned_digests(tmp_path, capsys, name, grid):
    cfg = pinned_config(tmp_path, name)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), *SWEEP_GRIDS[grid]]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED_FILES[2:])
    assert digests == PINNED_SWEEP_DIGESTS[name, grid]


def test_sweep_write_memory_is_bounded(tmp_path, capsys, monkeypatch):
    """A 50,001-point sweep of default.cfg formats and writes its files a
    bounded chunk of rows at a time.  With sweep's arrays made before tracing
    starts, the command peaked at 6.54 MiB traced (Python 3.11, numpy 2.4)
    with the column writer that the row templates replaced, and at 6.86 MiB
    with them; the bound is the first plus 10%.  Heads built for the whole grid at once (7.70
    MiB), or one % per whole table (10.96 MiB), go past it."""
    from obfusgame import solver

    cfg = shipped_config_path("default")
    arrays = solver.sweep(load_shipped_config("default"), 0.0, 50.0, 0.001)
    assert len(arrays[0]) == 50_001
    monkeypatch.setattr(solver, "sweep", lambda *args: arrays)
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--step", "0.001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1.1 * 6.54 * 2**20


# each command with each flag that shapes its outputs
MANIFEST_RUNS = {
    "solve": ["solve"],
    "solve_oracle": ["solve", "--oracle", "--fine-step", "0.01"],
    "sweep": ["sweep"],
    "sweep_grid": ["sweep", "--max", "6", "--step", "0.05"],
    "sweep_min": ["sweep", "--min", "2.5", "--max", "3"],
    "validate": ["validate", "--suite", "lemma1", "--seed", "3"],
    "validate_trials": ["validate", "--suite", "lemma1", "--trials", "5"],
}


def argv_from_manifest(manifest):
    """The argv, --out aside, that reruns a run, built from its manifest alone."""
    command, _, suite = manifest["command"].partition(" ")
    if command == "validate":
        argv = [command, "--suite", suite, "--seed", str(manifest["seed"])]
        return argv + ([] if manifest.get("trials") is None else ["--trials", str(manifest["trials"])])
    argv = [command, "--config", manifest["config"]]
    if command == "solve":
        argv += ["--oracle"] if manifest.get("oracle") else []
        return argv + ([] if manifest.get("fine_step") is None else ["--fine-step", repr(manifest["fine_step"])])
    flags = (("--min", "lo"), ("--max", "hi"), ("--step", "step"))
    return argv + [v for flag, key in flags if key in manifest for v in (flag, repr(manifest[key]))]


@pytest.mark.parametrize("run", list(MANIFEST_RUNS))
def test_manifest_reruns_its_run(tmp_path, capsys, run):
    """Rerun from nothing but its manifest, a run writes the same files."""
    argv = MANIFEST_RUNS[run]
    if argv[0] != "validate":
        argv = [*argv, "--config", str(shipped_config_path("default"))]
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert main([*argv_from_manifest(manifest), "--out", str(tmp_path / "again")]) == 0
    files = sorted(p.name for p in (tmp_path / "first").iterdir() if p.name != "manifest.json")
    assert files == sorted(p.name for p in (tmp_path / "again").iterdir() if p.name != "manifest.json")
    for name in files:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes(), name
    if argv[0] == "sweep":
        lines = (tmp_path / "first" / "sweep_leader.csv").read_bytes().count(b"\n")
        assert manifest["points"] == lines - 1


# Runs solve, solve --oracle and sweep on each config given, into directories
# of the working directory, and prints what each printed
BLAS_SESSION = """
import sys
from obfusgame.cli import main
for k, config in enumerate(sys.argv[1:]):
    for name, argv in (("solve", ["solve"]), ("oracle", ["solve", "--oracle", "--fine-step", "0.01"]),
                       ("sweep", ["sweep"])):
        assert main([*argv, "--config", config, "--out", f"{k}-{name}"]) == 0
"""


def test_game_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """solve, solve --oracle and sweep print and write the same bytes, the
    manifests aside, under OpenBLAS's default kernel and under
    OPENBLAS_CORETYPE=Prescott: the game's arithmetic is elementwise, so
    no BLAS kernel enters it (the ERM suites' matrix products do).  On a
    numpy without OpenBLAS the variable does nothing, and the two sides
    run alike."""
    (tmp_path / "eight.cfg").write_text(EIGHT_USERS)
    configs = [str(shipped_config_path("default")), str(tmp_path / "eight.cfg")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(obfusgame.__file__).parents[1])
    printed, written = {}, {}
    for kernel in ("default", "Prescott"):
        where = tmp_path / kernel
        where.mkdir()
        printed[kernel] = subprocess.run(
            [sys.executable, "-c", BLAS_SESSION, *configs], capture_output=True, check=True, cwd=where,
            env=env if kernel == "default" else {**env, "OPENBLAS_CORETYPE": kernel},
        ).stdout
        written[kernel] = {str(p.relative_to(where)): p.read_bytes() for p in sorted(where.rglob("*"))
                           if p.is_file() and p.name != "manifest.json"}
    assert len(written["default"]) == 2 * (2 + 2 + 3)  # equilibrium.txt and thresholds.csv, twice; 3 sweep files
    assert printed["Prescott"] == printed["default"]
    assert written["Prescott"] == written["default"]


# sha256 of equilibrium.txt and thresholds.csv of `solve --oracle --fine-step
# 0.002` (25,001 points), and of validate_oracle.csv of `validate --suite
# oracle` (20 configs, seed 0): the oracle's table must not move them
PINNED_ORACLE_DIGESTS = {
    "default": (
        "5c4ef924c098b38ddce7c8fb1111c28d3e0105c789213c63c1847b976dd8eb61",
        "913f3ec8ff0c5d3ee1c68d380aa29d47cb6b913530cd37ffd70796977960341d",
    ),
    "low_cost": (
        "2867bdce7a6f03c46a82afeae50eb531043f95d1217e857080b228332dc75286",
        "4486e0ed5c30ef0669829ac180ffa9d174075a0ba7aff0b609109e793d11bd41",
    ),
    # the same game as default
    "mid_cost": (
        "5c4ef924c098b38ddce7c8fb1111c28d3e0105c789213c63c1847b976dd8eb61",
        "913f3ec8ff0c5d3ee1c68d380aa29d47cb6b913530cd37ffd70796977960341d",
    ),
    "high_cost": (
        "beaef663dd2b9a47f3444e2bd2a72a33f8fd6a0cb50ec1f79bac7a5b8c82ab58",
        "daec0a0237d808221cf876091a554d7ec0ad4ea8b9bd874c7a42bf84897f47f7",
    ),
}
PINNED_VALIDATE_ORACLE_DIGEST = "30564d89d37059fbc6f66e6450f26d9af5418cb46a0c53dce9d6cd04a98dab19"


@pytest.mark.parametrize("name", list(PINNED_ORACLE_DIGESTS))
def test_oracle_solve_outputs_match_pinned_digests(tmp_path, capsys, name):
    assert main([
        "solve", "--config", str(shipped_config_path(name)), "--out", str(tmp_path),
        "--oracle", "--fine-step", "0.002",
    ]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED_FILES[:2])
    assert digests == PINNED_ORACLE_DIGESTS[name]


def test_oracle_suite_output_matches_pinned_digest(tmp_path, capsys):
    assert main(["validate", "--suite", "oracle", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "validate_oracle.csv").read_bytes()).hexdigest()
    assert digest == PINNED_VALIDATE_ORACLE_DIGEST


def reference_csv(path, header, rows):
    """The reference writer: csv.writer over _fmt of each value."""
    from obfusgame.cli import _fmt

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


WRITER_TABLES = (
    "sweep_user_utility", "sweep_best_response", "sweep_leader", "thresholds",
    "validate_oracle", "validate_chi2", "validate_lemma1", "special", "float_arrays",
    "eight_users_sweep_user_utility", "eight_users_sweep_best_response", "eight_users_sweep_leader",
)


def sweep_tables(directory, text, grid_args):
    """The rows of the three sweep tables of config text over the grid that
    grid_args (sweep's flags) give, with the sweep's best responses, after
    the CLI has written the files into directory."""
    import numpy as np

    from obfusgame import solver

    (directory / "game.cfg").write_text(text)
    assert main(["sweep", "--config", str(directory / "game.cfg"), "--out", str(directory), *grid_args]) == 0
    config, flags = parse_config_text(text), dict(zip(grid_args[::2], grid_args[1::2]))
    step = float(flags.get("--step", config.solver.grid_step))
    columns = solver.sweep(config, 0.0, config.solver.sigma_max, step)
    grid, samples, own, responses, leader, users = (np.asarray(c).tolist() for c in columns)
    tables = {
        "sweep_user_utility": [[s, *row] for s, block in zip(samples, own) for row in zip(grid, *block)],
        "sweep_best_response": [list(row) for row in zip(grid, *responses)],
        "sweep_leader": [list(row) for row in zip(grid, *responses, leader, *users)],
    }
    return tables, columns[3]


@pytest.fixture(scope="module")
def writer_tables(tmp_path_factory):
    """Each table's rows of values, and the directory of the CLI's sweep of
    each table that starts with a sweep file's name: THREE_USERS' on its
    grid, and EIGHT_USERS' on the grid of more rows than one chunk."""
    import numpy as np

    from obfusgame import cli, solver, validate

    outs = {"": tmp_path_factory.mktemp("sweep"), "eight_users_": tmp_path_factory.mktemp("sweep8")}
    tables, _ = sweep_tables(outs[""], THREE_USERS, [])
    eight, responses = sweep_tables(outs["eight_users_"], EIGHT_USERS, SWEEP_GRIDS["chunked"])
    tables |= {f"eight_users_{name}": rows for name, rows in eight.items()}
    # the heads span more than one chunk of rows, and the best-response rows
    # hold each kind of zero tail: none (user 7), the whole row (users 2 and
    # 4), and one that starts inside the first chunk and inside the second
    m, rows = responses.shape[1], cli._WRITE_CELLS // 9
    ends = [int(np.flatnonzero(row)[-1]) + 1 if row.any() else 0 for row in responses]
    assert m > rows and ends[7] == m and ends[2] == ends[4] == 0
    assert 0 < ends[6] < rows < ends[3] < m and ends[3] % rows
    # user 0's threshold lies past sigma_max and is written as an empty field
    capped = solver.stackelberg_solve(parse_config_text(THREE_USERS + "solver.sigma_max = 4\n"))
    assert capped.per_user_thresholds[0] is None
    tables["thresholds"] = [[i, "" if t is None else t] for i, t in enumerate(capped.per_user_thresholds)]
    for suite, trials in (("oracle", 2), ("chi2", 50), ("lemma1", 2)):
        tables[f"validate_{suite}"] = [list(row.values()) for row in validate.run_suite(suite, trials=trials).rows]
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 10**20,
               np.float64(1 / 3), np.int64(5), True]
    tables["special"] = [special, special[::-1], [0, ""] * 5, [2.5] * 10]
    # each column holds each value; each half has more rows (a head and six
    # floats each) than one % of the writer formats
    floats = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1 / 3]
    tables["float_arrays"] = [[floats[(j + c) % 7] for c in range(7)] for j in range(2 * 10**4)]
    assert 10**4 > cli._WRITE_CELLS // 7
    return tables, outs


@pytest.mark.parametrize("name", WRITER_TABLES)
def test_writer_matches_reference_bytes(tmp_path, writer_tables, name):
    """The sweep files as the CLI writes them, float_arrays in two blocks of
    a float table beside heads of one formatted column, as the sweep writes
    its utilities, and every other table as heads of _fmt of each value
    joined by commas, as solve and validate write them, are byte for byte
    what csv.writer writes from _fmt of each value."""
    import numpy as np

    from obfusgame.cli import _fmt, _formatted, _write_csv

    tables, outs = writer_tables
    rows = tables[name]
    prefix, sweep, file = name.partition("sweep_")
    if sweep:
        written = outs[prefix] / f"sweep_{file}.csv"
        header = written.read_text().splitlines()[0].split(",")
    else:
        written = tmp_path / "written.csv"
        header = [f"c{k}" for k in range(len(rows[0]))]
        if name == "float_arrays":
            blocks = [(_formatted(half[:, 0]), half[:, 1:]) for half in np.split(np.array(rows), 2)]
        else:
            blocks = [([",".join(map(_fmt, row)) for row in rows], None)]
        _write_csv(written, header, blocks)
    reference_csv(tmp_path / "reference.csv", header, rows)
    assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_formatted_is_each_value_formatted():
    """One % over the whole array gives the same strings as %.12g of each
    value, at every magnitude and at the special values."""
    import numpy as np

    from obfusgame.cli import _formatted

    rng = np.random.Generator(np.random.PCG64(29))
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324])
    arrays = [np.array([]), special]
    for m in (1, 2, 1001, 5000):
        magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, m)
        arrays.append(np.where(rng.random(m) < 0.5, magnitudes, -magnitudes))
    arrays.append(rng.permutation(np.concatenate([arrays[-1], special])))
    for values in arrays:
        assert _formatted(values) == ["%.12g" % v for v in values.tolist()]
    assert _formatted(np.array([])) == []


class TestCliDp:
    def test_epsilon_to_sigma(self, capsys):
        assert main(["dp", "--epsilon", "1", "--delta", "0.4598"]) == 0
        out = capsys.readouterr().out
        sigma = float(re.search(r"sigma   = (\S+)", out).group(1))
        assert sigma == pytest.approx(2 * math.sqrt(2), abs=1e-3)

    def test_sigma_to_epsilon(self, capsys):
        assert main(["dp", "--sigma", "5.0745", "--delta", "0.05"]) == 0
        eps = float(re.search(r"epsilon = (\S+)", capsys.readouterr().out).group(1))
        assert eps == pytest.approx(1.0, abs=1e-4)

    def test_norm_bound_report(self, capsys):
        assert main(["dp", "--sigma", "1", "--delta", "0.1",
                     "--d", "2", "--zeta", "1.3863"]) == 0
        out = capsys.readouterr().out
        prob = float(re.search(r"norm_bound_prob     = (\S+)", out).group(1))
        assert prob == pytest.approx(0.5, abs=1e-4)

    def test_both_sigma_and_epsilon_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dp", "--sigma", "1", "--epsilon", "1", "--delta", "0.1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "obfusgame dp: error: argument --epsilon: not allowed with argument --sigma\n")

    @pytest.mark.parametrize("argv, message", [
        ("--sigma nan", "total_sigma must be finite, got nan"),
        ("--sigma -1", "total_sigma must be >= 0"),
        ("--epsilon 0", "epsilon must be > 0"),
        ("--epsilon inf", "epsilon must be finite, got inf"),
    ])
    def test_bad_noise_or_epsilon_exit_2(self, capsys, argv, message):
        assert main(["dp", *argv.split(), "--delta", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_delta_exit_2(self, capsys):
        assert main(["dp", "--sigma", "1", "--delta", "1.5"]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["3", "5", "0"])
    def test_d_without_zeta_exit_2(self, capsys, d):
        # the --d given without --zeta would be ignored, so it is refused, as
        # --fine-step is without --oracle, before any check of the other values
        assert main(["dp", "--sigma", "2", "--delta", "1e-5", "--d", d]) == 2
        assert capsys.readouterr() == ("", "error: --d applies only with --zeta\n")
        assert main(["dp", "--sigma", "nan", "--delta", "1e-5", "--d", d]) == 2
        assert capsys.readouterr().err == "error: --d applies only with --zeta\n"

    def test_d_is_5_by_default_with_zeta(self, capsys):
        assert main(["dp", "--sigma", "1", "--delta", "0.1", "--zeta", "1.3863"]) == 0
        implicit = capsys.readouterr().out
        assert main(["dp", "--sigma", "1", "--delta", "0.1", "--zeta", "1.3863", "--d", "5"]) == 0
        assert capsys.readouterr().out == implicit
        assert "d                   = 5\n" in implicit

    def test_delta_domain_same_with_and_without_zeta(self, capsys):
        assert main(["dp", "--sigma", "1", "--delta", "1.1"]) == 2
        assert main(["dp", "--sigma", "1", "--delta", "1.1", "--zeta", "5"]) == 2
        assert "delta must be in (0, 1)" in capsys.readouterr().err


class TestCliValidate:
    def test_chi2_suite_passes(self, tmp_path, capsys):
        code = main(["validate", "--suite", "chi2", "--trials", "20000",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "validate_chi2.csv").exists()
        assert "chi2" in capsys.readouterr().out

    def test_undersampled_chi2_fails_with_exit_1(self, tmp_path, capsys):
        code = main(["validate", "--suite", "chi2", "--trials", "50",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "seeds" in capsys.readouterr().err

    def test_chi2_failed_seeds_listed_once(self, tmp_path, capsys):
        assert main(["validate", "--suite", "chi2", "--trials", "3",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "failed seeds (for replay): [1, 2, 5, 10]\n"

    def test_chi2_failed_seeds_are_the_seeds_of_their_d(self, tmp_path, capsys):
        assert main(["validate", "--suite", "chi2", "--trials", "3", "--seed", "1000",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "failed seeds (for replay): [1001, 1002, 1005, 1010]\n"

    def test_failing_lemma_trials_are_listed_for_replay(self, tmp_path, capsys, monkeypatch):
        check, calls = erm.check_classifier_gap, count(1)

        def every_other_fails(*args):  # calls 1, 3 and 5: seeds 3, 5 and 7
            report = check(*args)
            return replace(report, slack=-1.0) if next(calls) % 2 else report

        monkeypatch.setattr(erm, "check_classifier_gap", every_other_fails)
        assert main(["validate", "--suite", "lemma1", "--trials", "6", "--seed", "3",
                     "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "lemma1: 3/6 trials hold, worst slack -1.000e+00\n"
        assert err == "failed seeds (for replay): [3, 5, 7]\n"

    def test_failing_oracle_configs_are_listed_for_replay(self, tmp_path, capsys, monkeypatch):
        from obfusgame import validate

        solve = validate.stackelberg_solve

        def off_by_one_on_two_users(config):
            result = solve(config)
            if config.n_users != 2:
                return result
            return replace(result, learner_utility=result.learner_utility + 1.0)

        monkeypatch.setattr(validate, "stackelberg_solve", off_by_one_on_two_users)
        assert main(["validate", "--suite", "oracle", "--trials", "8", "--seed", "0",
                     "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "oracle: 6/8 configs agree, worst utility error 1.000e+00\n"
        assert err == "failed seeds (for replay): [1, 6]\n"

    def test_failing_scaling_trend_names_no_seed(self, tmp_path, capsys, monkeypatch):
        from obfusgame import validate

        monkeypatch.setattr(validate, "_spearman", lambda x, y: 0.0)
        assert main(["validate", "--suite", "scaling", "--trials", "1",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("scaling: Spearman rho = 0.000 (threshold 0.9)\n", "")
        assert (tmp_path / "validate_scaling.csv").exists()

    def test_manifest_records_seed(self, tmp_path):
        assert main(["validate", "--suite", "lemma1", "--trials", "2", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 7

    def test_oracle_suite_small(self, tmp_path):
        assert main(["validate", "--suite", "oracle", "--trials", "3",
                     "--out", str(tmp_path)]) == 0

    def test_lemma1_suite_small(self, tmp_path):
        assert main(["validate", "--suite", "lemma1", "--trials", "5",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
    def test_scaling_suite_single_trial_has_infinite_stderr(self, tmp_path, capsys):
        assert main(["validate", "--suite", "scaling", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        with (tmp_path / "validate_scaling.csv").open(newline="") as fh:
            cells = [row["stderr"] for row in csv.DictReader(fh)]
        assert len(cells) == 10 and set(cells) == {"inf"}

    def test_chi2_draw_budget_checked_before_any_draw(self, tmp_path, capsys):
        # 10^12 samples would ask numpy for terabytes; 10^7 * 10 dimensions is the cap
        tracemalloc.start()
        try:
            code = main(["validate", "--suite", "chi2", "--trials", "1000000000000",
                         "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1_000_000
        assert capsys.readouterr().err == "error: chi2 --trials must be <= 10000000, got 1000000000000\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["lemma1", "lemma2", "chi2", "scaling", "oracle"])
    def test_trials_below_one_exit_2(self, tmp_path, capsys, suite, trials):
        assert main(["validate", "--suite", suite, "--trials", trials,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2", "chi2", "scaling", "oracle"])
    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, suite):
        def draw(*args):
            raise AssertionError("a sample was drawn before the seed was checked")

        monkeypatch.setattr(erm, "generate_synthetic", draw)
        assert main(["validate", "--suite", suite, "--seed", "-5",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", ["lemma1", "lemma2", "scaling"])
    def test_unconverged_training_exits_3(self, tmp_path, capsys, monkeypatch, suite):
        def fail(*args, **kwargs):
            raise ConvergenceError("no convergence in 200 iterations")

        monkeypatch.setattr(erm, "train_erms", fail)
        assert main(["validate", "--suite", suite, "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "solver error: no convergence in 200 iterations\n"
        assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency and numpy is loaded by the commands
    # that compute; importing either would cost every start-up
    code = (
        "import sys, obfusgame; loaded = {'numpy': 'numpy' in sys.modules}; import obfusgame.cli; "
        "loaded['cli'] = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')); print(loaded)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(obfusgame.__file__).parents[1])}
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert loaded == "{'numpy': False, 'cli': []}"


# what no command needs before it runs, and the package's dp, which only dp's
# command and the chi2 suite use
NOT_AT_START = ["csv", "dataclasses", "inspect", "json", "datetime", "obfusgame.dp"]


@pytest.mark.parametrize("flags, modules", [
    pytest.param([], NOT_AT_START, id="site"),
    # -S: no site hook loads importlib.resources or typing ahead of the package
    pytest.param(["-S"], [*NOT_AT_START, "importlib.resources", "typing"], id="no_site"),
])
def test_cli_import_loads_no_csv_or_resources(flags, modules):
    # a CSV header is one join, a shipped config's path is next to its module,
    # a record is a plain class, json and datetime wait for the manifest,
    # and annotations are strings
    code = f"import sys, obfusgame.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(obfusgame.__file__).parents[1])}
    loaded = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert loaded == "[]"


def test_dp_module_loads_with_the_dp_command():
    # --help and a usage error load no dp; the dp command loads it, and as it
    # writes no manifest it loads no json or datetime
    code = ("import sys, obfusgame.cli as cli; loaded = []\n"
            "for argv in (['--help'], ['dp', '--delta', '0.1'], ['dp', '--sigma', '2', '--delta', '1e-5']):\n"
            "    try:\n"
            "        cli.main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    loaded.append('obfusgame.dp' in sys.modules)\n"
            "print(loaded, 'json' in sys.modules, 'datetime' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=CLI_ENV)
    assert done.stderr.splitlines()[-1] == "[False, False, True] False False"


def test_manifest_timestamp_is_utc_iso_8601_to_the_microsecond(tmp_path):
    from datetime import datetime, timezone

    before = datetime.now(timezone.utc)
    assert main(["solve", "--config", str(shipped_config_path("default")), "--out", str(tmp_path)]) == 0
    stamp = json.loads((tmp_path / "manifest.json").read_text())["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", stamp)
    assert before.replace(microsecond=0) <= datetime.fromisoformat(stamp) <= datetime.now(timezone.utc)


def test_cli_imports_nothing_private():
    # the CLI parses arguments and writes files; the arithmetic stays
    # behind the package's public names
    import obfusgame.cli

    tree = ast.parse(Path(obfusgame.cli.__file__).read_text(encoding="utf-8"))

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "obfusgame"
        ):
            found += [a.name for a in node.names if private(a.name)]
            if not node.module or node.module == "obfusgame":
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    assert "solver" in modules
    assert found == []


def test_every_private_name_has_a_caller_in_src():
    """Each module-level private function, class or constant of the package
    is used in src/ outside its own definition: a helper kept only for its
    tests is dead code."""
    defined, used = {}, set()
    for path in sorted(Path(obfusgame.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            private = [n for n in names if n.startswith("_") and not n.endswith("__")]
            defined.update((n, path.name) for n in private)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name not in private:
                    used.add(name)
    assert len(defined) > 20
    assert {n: where for n, where in defined.items() if n not in used} == {}


def test_every_import_is_used_in_its_module():
    """Each name a module of the package imports, at module level or in a
    function, is read in that module: an import left behind by a deleted
    caller is dead code.  __init__.py imports to re-export."""
    unused, imported = {}, 0
    for path in sorted(Path(obfusgame.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported += len(bound)
        unused.update((name, path.name) for name in bound - read)
    assert imported > 20
    assert unused == {}


# Run in a fresh interpreter: count the argparse parsers built by importing
# obfusgame.cli and by each main call that follows, and record each call's
# stdout, stderr and exit code (argparse's own SystemExit included), and
# whether numpy is loaded after it.
CLI_SESSION = """
import argparse, contextlib, io, json, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from obfusgame.cli import main
report = {"import": built, "calls": []}
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    report["calls"].append([out.getvalue(), err.getvalue(), code, built, "numpy" in sys.modules])
print(json.dumps(report))
"""

# argparse wraps its help and usage text at the terminal width it reads when printing
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(obfusgame.__file__).parents[1]), "COLUMNS": "80"}


def cli_session(argvs):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SESSION, json.dumps(argvs)],
        capture_output=True, text=True, check=True, env=CLI_ENV,
    )
    return json.loads(proc.stdout)


def test_cli_builds_one_parser_per_process(tmp_path):
    # the root parser and its 4 subcommands, built by the first call and
    # not at import, which would add to every start-up
    config = str(shipped_config_path("default"))
    report = cli_session([
        ["solve", "--config", config, "--out", str(tmp_path / "solve")],
        ["sweep", "--config", config, "--out", str(tmp_path / "sweep")],
        ["dp", "--sigma", "2", "--delta", "1e-5"],
        ["validate", "--suite", "chi2", "--trials", "1000", "--out", str(tmp_path / "chi2")],
    ])
    assert report["import"] == 0
    assert [(code, built) for _, _, code, built, _ in report["calls"]] == [(0, 5), (0, 5), (0, 5), (1, 5)]


def test_no_state_crosses_calls(tmp_path, capsys):
    config = str(shipped_config_path("default"))
    assert main(["solve", "--config", config, "--oracle", "--fine-step", "0.5",
                 "--out", str(tmp_path / "oracle")]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", config, "--out", str(tmp_path / "after")]) == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "obfusgame.cli", "solve", "--config", config,
         "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, check=True, env=CLI_ENV,
    )
    assert capsys.readouterr().out == fresh.stdout
    for name in ("equilibrium.txt", "thresholds.csv"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    chi2 = ["validate", "--suite", "chi2", "--trials", "1000"]
    main([*chi2, "--seed", "7", "--out", str(tmp_path / "seeded")])
    main([*chi2, "--out", str(tmp_path / "default")])
    assert json.loads((tmp_path / "seeded" / "manifest.json").read_text())["seed"] == 7
    assert json.loads((tmp_path / "default" / "manifest.json").read_text())["seed"] == 0


# argparse's own paths: help exits 0, a usage error exits 2
ARGPARSE_EXITS = {
    "--help": 0,
    "solve --help": 0,
    "sweep --help": 0,
    "dp --help": 0,
    "validate --help": 0,
    "solve": 2,
    "validate --suite nope": 2,
}


@pytest.fixture(scope="module")
def argparse_session():
    """Three rounds of every ARGPARSE_EXITS call in one fresh process; the
    first call builds the parser."""
    calls = cli_session([argv.split() for argv in ARGPARSE_EXITS] * 3)["calls"]
    return {argv: calls[k::len(ARGPARSE_EXITS)] for k, argv in enumerate(ARGPARSE_EXITS)}


@pytest.mark.parametrize("argv", list(ARGPARSE_EXITS))
def test_argparse_output_repeats_exactly(argv, argparse_session, capsys, monkeypatch):
    first, second, third = [call[:3] for call in argparse_session[argv]]
    assert first == second == third
    out, err, code = first
    assert code == ARGPARSE_EXITS[argv]
    assert (out if code == 0 else err).startswith("usage: obfusgame")
    # a parser this process built long before prints the same
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert [*capsys.readouterr(), exc.value.code] == first


def test_commands_that_compute_nothing_load_no_numpy(tmp_path):
    # dp, help, usage and config errors need no numpy, nor does a solve, which
    # runs in plain floats
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(MINIMAL + "users[0].typo = 1\n")
    out = str(tmp_path / "out")
    argvs = [["dp", "--sigma", "2", "--delta", "1e-5"], *(argv.split() for argv in ARGPARSE_EXITS)]
    argvs += [["solve", "--config", str(tmp_path / "missing.cfg"), "--out", out],
              ["solve", "--config", str(unknown), "--out", out],
              ["solve", "--config", str(shipped_config_path("default")), "--out", out]]
    calls = cli_session(argvs)["calls"]
    assert [(code, numpy) for _, _, code, _, numpy in calls] == [
        (0, False), *((code, False) for code in ARGPARSE_EXITS.values()), (2, False), (2, False), (0, False)
    ]
    assert calls[-2][1] == "error: line 12: unknown key 'users[0].typo'\n"


# a CLI call from a fresh interpreter's argv, for loaded_after
CLI_CALL = "import sys, obfusgame.cli as cli; assert cli.main(sys.argv[1:]) == 0"


def loaded_after(flags, code, argv, modules):
    """Which of modules are loaded after code runs, with argv as its
    arguments, in a fresh interpreter started with flags."""
    code += f"\nimport sys; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True, text=True, check=True,
                          env=CLI_ENV)
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("flags, modules", [
    pytest.param([], ["obfusgame.solver", "numpy", "obfusgame.panel"], id="site"),
    # -S: no site hook loads typing ahead of the package
    pytest.param(["-S"], ["obfusgame.solver", "numpy", "obfusgame.panel", "typing"], id="no_site"),
])
def test_the_solver_and_a_solve_load_no_numpy(tmp_path, flags, modules):
    # the solve and the per-user queries run in plain floats: numpy is
    # obfusgame.panel's, which only the sweep and the oracle import
    population = tmp_path / "population.cfg"
    population.write_text(population_config(64))
    runs = {
        "import": ("import obfusgame.solver", []),
        "star": ("from obfusgame import *", []),
        "solve": (CLI_CALL, ["solve", "--config", str(shipped_config_path("default")), "--out", str(tmp_path / "1")]),
        "solve_64": (CLI_CALL, ["solve", "--config", str(population), "--out", str(tmp_path / "64")]),
    }
    loaded = {name: loaded_after(flags, code, argv, modules) for name, (code, argv) in runs.items()}
    assert loaded == dict.fromkeys(runs, ["obfusgame.solver"])


@pytest.mark.parametrize("argv", [["solve", "--oracle", "--fine-step", "0.5"], ["sweep"]], ids=["oracle", "sweep"])
def test_the_oracle_and_the_sweep_load_the_array_module(tmp_path, argv):
    argv = [*argv, "--config", str(shipped_config_path("default")), "--out", str(tmp_path)]
    assert loaded_after([], CLI_CALL, argv, ["numpy", "obfusgame.panel"]) == ["numpy", "obfusgame.panel"]


# the package's exports by the module that defines them
EXPORTS = {
    "game": ["GameConfig", "LearnerParams", "SolverSettings", "StrategyProfile", "UserParams",
             "learner_utility", "user_utility"],
    "solver": ["EquilibriumResult", "brute_force_equilibrium", "dissuasion_threshold", "leader_objective",
               "stackelberg_solve", "user_best_response"],
    "dp": ["DpGuarantee", "NormBoundReport", "chi_square_cdf", "epsilon_from_sigma", "norm_bound_probability",
           "sigma_from_epsilon"],
    "config_io": ["load_config", "load_shipped_config", "shipped_config_path"],
}


def test_package_exports_are_their_modules_objects():
    # the solver's are imported on first access (obfusgame.__getattr__)
    names = dir(obfusgame)
    for module, exports in EXPORTS.items():
        defining = importlib.import_module(f"obfusgame.{module}")
        for name in exports:
            assert getattr(obfusgame, name) is getattr(defining, name)
            assert name in names
    assert sum(map(len, EXPORTS.values())) == 22
    # in a fresh interpreter the first access imports the solver
    code = ("import sys, obfusgame; from obfusgame import stackelberg_solve; "
            "print(stackelberg_solve is sys.modules['obfusgame.solver'].stackelberg_solve)")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=CLI_ENV)
    assert fresh.stdout == "True\n"
    # a star import brings in what it did when the package imported the solver eagerly, and SUITES
    code = "before = set(globals()); from obfusgame import *; print(*sorted(set(globals()) - before - {'before'}))"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=CLI_ENV)
    modules = {"config_io", "dp", "errors", "game", "solver"}
    assert fresh.stdout.split() == sorted({*chain.from_iterable(EXPORTS.values()), "SUITES", *modules})
    # in a fresh interpreter dir() lists these names, and dp and solver's are imported on first access
    code = ("import sys, obfusgame; print(*[n for n in dir(obfusgame) if not n.startswith('_')]); "
            "print(obfusgame.dp is sys.modules['obfusgame.dp'], obfusgame.chi_square_cdf.__module__)")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=CLI_ENV)
    names = sorted({*chain.from_iterable(EXPORTS.values()), "SUITES", *modules - {"solver"}})
    assert fresh.stdout == " ".join(names) + "\nTrue obfusgame.dp\n"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        obfusgame.no_such_name


def test_suite_choices_are_the_suites_run_suite_runs(monkeypatch):
    from obfusgame import cli, validate

    [suite] = [a for a in cli.build_parser()[1]["validate"]._actions if a.dest == "suite"]
    for runner in ("run_lemma_suite", "run_chi2_suite", "run_scaling_suite", "run_oracle_suite"):
        monkeypatch.setattr(validate, runner, lambda *args, runner=runner, **kwargs: (runner, args))
    ran = {name: validate.run_suite(name) for name in suite.choices}
    assert {runner for runner, _ in ran.values()} == {"run_lemma_suite", "run_chi2_suite", "run_scaling_suite",
                                                      "run_oracle_suite"}
    assert ran["lemma1"][1] == ("lemma1",) and ran["lemma2"][1] == ("lemma2",)
    with pytest.raises(ValueError, match=re.escape(f"choose from {tuple(suite.choices)}")):
        validate.run_suite("nope")


def test_shipped_configs_differ_only_in_the_user_cost():
    # find_default_config.py scans the learner's and the user's flat costs
    # around mid_cost and takes everything else from it
    configs = {name: load_shipped_config(name) for name in SHIPPED_CONFIGS}
    assert configs["default"] == configs["mid_cost"]
    base = configs["mid_cost"]
    costs = {}
    for name, config in configs.items():
        costs[name] = config.users[0].perturbation_cost
        user = replace(config.users[0], perturbation_cost=base.users[0].perturbation_cost)
        assert replace(config, users=(user,)) == base
    assert costs == {"default": 20.0, "low_cost": 10.0, "mid_cost": 20.0, "high_cost": 30.0}


def test_find_default_config_script_verifies_shipped_value(capsys):
    # the script behind the shipped configs calls the public solver API
    path = Path(__file__).parents[1] / "scripts" / "find_default_config.py"
    spec = importlib.util.spec_from_file_location("find_default_config", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    assert "shipped N_bar_L = 75 is inside the window" in capsys.readouterr().out
