import ast
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import obfusgame
from obfusgame.cli import main
from obfusgame.config_io import (
    SHIPPED_CONFIGS,
    load_shipped_config,
    parse_config_text,
    shipped_config_path,
)
from obfusgame.errors import ConfigError

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

    def test_unknown_key_is_line_anchored(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(MINIMAL + "learner.typo = 3\n")
        assert re.search(r"line \d+", str(exc.value))
        assert "learner.typo" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "learner.G_bar = 2\n")

    def test_missing_user_rejected(self):
        bad = MINIMAL.replace("learner.N      = 1", "learner.N      = 2")
        with pytest.raises(ConfigError, match="users"):
            parse_config_text(bad)

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

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_config_text(MINIMAL + "solver.tol = abc\n")

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text("# top\n\n" + MINIMAL + "solver.tol = 0.1 # inline\n")
        assert config.solver.root_tol == 0.1

    @pytest.mark.parametrize("key", ["dp.delta", "dp.d"])
    def test_dp_keys_are_unknown(self, tmp_path, capsys, key):
        # delta and d are flags of the dp subcommand; no game quantity reads them
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(MINIMAL + f"{key} = 0.05\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        line = MINIMAL.count("\n") + 1
        assert capsys.readouterr().err == f"error: line {line}: unknown key '{key}'\n"

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
            "--out", str(tmp_path), "--oracle", "--fine-step", fine_step,
        ]) == 3
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("fine_step", ["nan", "inf", "0", "-1"])
    def test_bad_oracle_fine_step_exit_2(self, tmp_path, capsys, fine_step):
        assert main([
            "solve", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), "--oracle", "--fine-step", fine_step,
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: fine_step must be finite and > 0, got {float(fine_step)}\n"


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


# (N * Lambda)^2, (1 + rho * s)^2 and s_star^2 overflow a Python float
@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "edits, code, message",
    [
        ({"learner.Lambda": "1e200"}, 2, "regularizer"),
        ({"users[0].rho": "1e300"}, 0, None),
        # s_star = 5e199
        ({"learner.Lambda": "1e100", "users[0].rho": "1e-300", "users[0].P_bar": "1e300"}, 3, "square"),
    ],
    ids=["huge_Lambda", "huge_rho", "huge_s_star"],
)
def test_huge_parameter_ends_cleanly(tmp_path, capsys, command, edits, code, message):
    text = shipped_config_path("default").read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    (tmp_path / "huge.cfg").write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "huge.cfg"), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and message in err
        return
    assert err == ""
    for path in [*out.glob("*.csv"), *out.glob("*.txt")]:
        fields = re.split(r"[,\n]| = ", path.read_text())
        values = [float(f) for f in fields if re.fullmatch(r"[-+.\deinfa]+", f)]
        assert values and all(math.isfinite(v) for v in values), path.name


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
}


def pinned_config(tmp_path, name):
    if name == "three_users":
        cfg = tmp_path / "three.cfg"
        cfg.write_text(THREE_USERS)
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
    "validate_oracle", "validate_chi2", "validate_lemma1", "special",
)


@pytest.fixture(scope="module")
def writer_tables(tmp_path_factory):
    """Each table's rows of values, and the directory of the CLI's sweep of
    THREE_USERS, whose three files hold the sweep tables."""
    import numpy as np

    from obfusgame import solver, validate

    three = parse_config_text(THREE_USERS)
    columns = solver.sweep(three, 0.0, three.solver.sigma_max, three.solver.grid_step)
    grid, samples, own, responses, leader, users = (np.asarray(c).tolist() for c in columns)
    tables = {
        "sweep_user_utility": [[s, *row] for s, block in zip(samples, own) for row in zip(grid, *block)],
        "sweep_best_response": [list(row) for row in zip(grid, *responses)],
        "sweep_leader": [list(row) for row in zip(grid, *responses, leader, *users)],
    }
    sweep_out = tmp_path_factory.mktemp("sweep")
    (sweep_out / "three.cfg").write_text(THREE_USERS)
    assert main(["sweep", "--config", str(sweep_out / "three.cfg"), "--out", str(sweep_out)]) == 0
    # user 0's threshold lies past sigma_max and is written as an empty field
    capped = solver.stackelberg_solve(parse_config_text(THREE_USERS + "solver.sigma_max = 4\n"))
    assert capped.per_user_thresholds[0] is None
    tables["thresholds"] = [[i, "" if t is None else t] for i, t in enumerate(capped.per_user_thresholds)]
    for suite, trials in (("oracle", 2), ("chi2", 50), ("lemma1", 2)):
        tables[f"validate_{suite}"] = [list(row.values()) for row in validate.run_suite(suite, trials=trials).rows]
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 10**20,
               np.float64(1 / 3), np.int64(5), True]
    tables["special"] = [special, special[::-1], [0, ""] * 5, [2.5] * 10]
    return tables, sweep_out


@pytest.mark.parametrize("name", WRITER_TABLES)
def test_writer_matches_reference_bytes(tmp_path, writer_tables, name):
    """The sweep files as the CLI writes them, and every other table through
    the column writer as solve and validate call it, are byte for byte what
    csv.writer writes from _fmt of each value."""
    from obfusgame.cli import _columns, _write_csv

    tables, sweep_out = writer_tables
    rows = tables[name]
    if name.startswith("sweep_"):
        written = sweep_out / f"{name}.csv"
        header = written.read_text().splitlines()[0].split(",")
    else:
        written = tmp_path / "written.csv"
        header = [f"c{k}" for k in range(len(rows[0]))]
        _write_csv(written, header, [_columns(rows)])
    reference_csv(tmp_path / "reference.csv", header, rows)
    assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
        assert main(["dp", "--sigma", "1", "--epsilon", "1", "--delta", "0.1"]) == 2

    def test_bad_delta_exit_2(self, capsys):
        assert main(["dp", "--sigma", "1", "--delta", "1.5"]) == 2
        assert "delta" in capsys.readouterr().err

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


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost start-up time
    code = "import sys, obfusgame.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(obfusgame.__file__).parents[1])}
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert loaded == "[]"


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


def test_find_default_config_script_verifies_shipped_value(capsys):
    # the script behind the shipped configs calls the public solver API
    path = Path(__file__).parents[1] / "scripts" / "find_default_config.py"
    spec = importlib.util.spec_from_file_location("find_default_config", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    assert "shipped N_bar_L = 75 is inside the window" in capsys.readouterr().out
