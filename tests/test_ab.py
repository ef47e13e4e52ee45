"""The A/B judge (scripts/ab.py): its verdict rule on synthetic paired runs,
and its cold mode and output comparison on stub sides, without a benchmark
run."""

import gzip
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [100.0, 98.0, 102.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5]  # median 100, IQR 1.75


def shifted(runs, by):
    return [x + by for x in runs]


@pytest.mark.parametrize("better, sign", [("higher", 1.0), ("lower", -1.0)])
def test_a_clear_gain_in_ten_pairs(better, sign):
    assert ab.verdict(BASE, shifted(BASE, sign * 5.0), better, 0.2) == "gain"
    # the same runs read the other way are no gain, and within a 20% bound
    assert ab.verdict(BASE, shifted(BASE, -sign * 5.0), better, 0.2) == "within bound"


def test_nine_wins_in_ten_are_enough_and_eight_are_not():
    head = shifted(BASE, 5.0)
    nine, eight = head.copy(), head.copy()
    nine[0] = BASE[0] - 1.0
    eight[0], eight[1] = BASE[0] - 1.0, BASE[1] - 1.0
    assert ab.wins(BASE, nine, "higher") == 9 and ab.verdict(BASE, nine, "higher", 0.2) == "gain"
    assert ab.wins(BASE, eight, "higher") == 8 and ab.verdict(BASE, eight, "higher", 0.2) == "within bound"


def test_no_gain_from_fewer_than_ten_pairs():
    assert ab.verdict(BASE[:9], shifted(BASE[:9], 5.0), "higher", 0.2) == "within bound"


def test_no_gain_within_the_base_interquartile_range():
    # every pair won, but the medians differ by 1 against an IQR of 1.75
    head = shifted(BASE, 1.0)
    assert ab.wins(BASE, head, "higher") == 10
    assert ab.spread(BASE) == 1.75
    assert ab.verdict(BASE, head, "higher", 0.2) == "within bound"


@pytest.mark.parametrize("better, sign", [("higher", -1.0), ("lower", 1.0)])
def test_a_median_worse_by_more_than_the_bound_is_a_regression(better, sign):
    assert ab.verdict(BASE, shifted(BASE, sign * 6.0), better, 0.05) == "regression"
    assert ab.verdict(BASE, shifted(BASE, sign * 4.0), better, 0.05) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    base = [10.0, 14.0, 6.0, 12.0]  # IQR 3.5 on a median of 11
    assert ab.verdict(base, [11.0, 13.0, 7.0, 10.0], "higher", 0.25) == "unresolved"
    assert ab.verdict(base, [15.0, 15.5, 16.0, 14.5], "higher", 0.25) == "within bound"


def test_ties_count_for_neither_side():
    assert ab.wins(BASE, BASE, "higher") == 0 and ab.wins(BASE, BASE, "lower") == 0
    assert ab.verdict(BASE, list(BASE), "higher", 0.05) == "within bound"


def test_one_run_has_no_spread():
    assert ab.quartiles([3.0]) == (3.0, 3.0) and ab.spread([3.0]) == 0.0


SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}


def test_cold_and_workload_are_the_two_modes():
    assert ab.parse_args(["--base", "HEAD", "--cold"]).cold
    assert ab.parse_args(["--base", "HEAD", "--workload", "grid_sweep"]).workload == "grid_sweep"
    for argv in (["--base", "HEAD"], ["--base", "HEAD", "--cold", "--workload", "grid_sweep"]):
        with pytest.raises(SystemExit):
            ab.parse_args(argv)


def test_cold_commands_are_judged_by_the_setup_bound():
    assert ab.judged(SPEC, cold=False) == SPEC["end_to_end"]
    assert ab.judged(SPEC, cold=True) == [{**SPEC["end_to_end"][0], "name": name} for name in ab.COLD_COMMANDS]


def test_cold_commands_are_every_command_and_each_suite_at_perfbenchs_trials(monkeypatch):
    from obfusgame import SUITES

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its data classes look their module up
    spec.loader.exec_module(workloads)
    assert [command[0] for command in ab.COLD_COMMANDS.values()] == ["dp", "solve", "sweep", *["validate"] * 5]
    suites = {command[2]: int(command[4]) for command in ab.COLD_COMMANDS.values() if command[0] == "validate"}
    # the oracle workload runs its suite at --trials 1, one seed per op
    assert suites == {**dict(workloads.ERM_SUITES), "oracle": 1} and set(suites) == set(SUITES)
    assert list(ab.COLD_COMMANDS) == ["dp_s", "solve_s", "sweep_s", *(f"validate_{s}_s" for s in suites)]
    for command in ab.COLD_COMMANDS.values():  # each runs from its side's root; the writers write under it
        assert "--config" not in command or (ROOT / command[command.index("--config") + 1]).is_file()
        assert command[0] == "dp" or command[-2:] == ["--out", "cold-out"]


def test_numpy_build_names_the_version_and_the_blas():
    import numpy

    build = ab.numpy_build()
    assert build["version"] == numpy.__version__
    assert build["blas"] == numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]


def _stub_side(where, body):
    """A side whose obfusgame.cli runs body in place of the program."""
    (where / "src" / "obfusgame").mkdir(parents=True)
    (where / "src" / "obfusgame" / "__init__.py").write_text("")
    (where / "src" / "obfusgame" / "cli.py").write_text(body)


def test_cold_run_times_one_fresh_process_per_command(tmp_path):
    # each process appends its arguments and numpy's thread pin to calls.txt
    _stub_side(tmp_path, "import os, sys\nwith open('calls.txt', 'a') as f:\n"
                         "    print(*sys.argv[1:], os.environ['OPENBLAS_NUM_THREADS'], file=f)\n")
    cpu = min(os.sched_getaffinity(0))
    result = ab.cold_once(tmp_path, cpu)
    assert list(result["metrics"]) == list(ab.COLD_COMMANDS)
    assert all(metric["value"] > 0 and metric["unit"] == "s" for metric in result["metrics"].values())
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert calls == [" ".join([*command, "1"]) for command in ab.COLD_COMMANDS.values()]


def test_a_failing_cold_command_stops_the_judge(tmp_path):
    _stub_side(tmp_path, "raise SystemExit(2)\n")
    with pytest.raises(SystemExit, match="obfusgame dp .* failed \\(2\\)"):
        ab.cold_once(tmp_path, min(os.sched_getaffinity(0)))


def test_cold_judge_writes_one_record_per_side(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(ab, "ROOT", tmp_path)

    def side(rev, where):
        (where / "src").mkdir()  # an empty src/ to compile
        return "base" if rev else "head+"

    monkeypatch.setattr(ab, "side", side)
    monkeypatch.setattr(ab, "numpy_build", lambda: {"version": "9.9", "blas": {"name": "stub"}})
    times = iter(range(1, 100))
    monkeypatch.setattr(ab, "cold_once", lambda where, cpu: {
        "metrics": {name: {"value": next(times) * (0.5 if where.name == "head" else 1.0), "unit": "s"}
                    for name in ab.COLD_COMMANDS}})
    assert ab.main(["--base", "REV", "--cold", "--pairs", "2"]) == 0
    written = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
    assert written == ["BENCH_cold_base.json", "BENCH_cold_head+.json"]
    base, head = (json.loads((tmp_path / name).read_text()) for name in written)
    assert base["workload"] == head["workload"] == "cold"
    assert base["numpy"] == head["numpy"] == {"version": "9.9", "blas": {"name": "stub"}}
    assert [run["first"] for run in base["runs"]] == [True, False]
    assert all(run["seed"] is None and set(run["metrics"]) == set(ab.COLD_COMMANDS) for run in base["runs"])
    assert set(head["verdicts"]) == {"base", *ab.COLD_COMMANDS}
    assert head["verdicts"]["dp_s"]["pairs"] == 2


# a stub obfusgame.cli: each op writes its arguments, but its --out, and a manifest naming the side
POOL_STUB = """import sys
from pathlib import Path


def main(argv):
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir(parents=True)
    (out / "manifest.json").write_text(str(Path.cwd()))
    (out / "ran.txt").write_text(" ".join(argv[:-2]) + {changed!r} * ("--seed" in argv and argv[-3] == {seed!r}))
    return 3 if argv[-3] == {fails!r} else 0
"""


def test_pool_ops_whose_outputs_differ_are_listed(tmp_path):
    with gzip.open(ROOT / "perfbench" / "reference.json.gz", "rt") as fh:
        seeds = json.load(fh)["oracle_seeds"]
    changed, fails = str(seeds["2"][0]), str(seeds["3"][1])
    for key, edit in (("base", ""), ("twin", ""), ("head", " changed")):
        shutil.copytree(ROOT / "perfbench", tmp_path / key / "perfbench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        _stub_side(tmp_path / key, POOL_STUB.format(changed=edit, seed=changed, fails=fails if edit else None))
    # every manifest differs, and is left out; the head writes other bytes in one op and fails another
    ops, differ = ab.differing_ops(tmp_path / "base", tmp_path / "head", "oracle_suite")
    assert ops == 9 and differ == sorted([f"validate/oracle/{changed}", f"validate/oracle/{fails}"])
    assert (tmp_path / "head" / "pool" / "validate" / "oracle" / fails / "ran.txt").is_file()
    shutil.rmtree(tmp_path / "base" / "pool")
    ops, differ = ab.differing_ops(tmp_path / "base", tmp_path / "twin", "oracle_suite")
    assert ops == 9 and differ == []

