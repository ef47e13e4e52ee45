import ast
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
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
    def test_invalid_range_exit_2(self, tmp_path, capsys, monkeypatch, args, code):
        import obfusgame.cli

        # fail at once, rather than hang, if an invalid range gets to the grid
        def no_output(args):
            raise AssertionError("sweep went past its input checks")

        monkeypatch.setattr(obfusgame.cli, "_outdir", no_output)
        assert main([
            "sweep", "--config", str(shipped_config_path("default")),
            "--out", str(tmp_path), *args,
        ]) == code
        assert "error" in capsys.readouterr().err


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
