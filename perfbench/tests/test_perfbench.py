"""Tests of the benchmark itself: output checks, tracing coverage, determinism.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_program()
REFERENCE = run.load_reference()


def _plan(workload: str, tmp_path: Path, seed: int = 0) -> workloads.Plan:
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workload, inputs)
    return workloads.Plan(workload, seed, inputs, run.SHIPPED_CONFIGS, REFERENCE["oracle_seeds"])


def _client(tmp_path: Path, reference: dict = REFERENCE) -> run.Client:
    return run.Client(CLI, reference, tmp_path / "ops")


def _cheapest_op(workload: str, tmp_path: Path) -> workloads.Op:
    """First-class op of cycle 0: the smallest population, a shipped
    sweep, lemma1, or a one-user oracle game."""
    return _plan(workload, tmp_path).cycle(0)[0]


def test_benchmark_json_matches_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == run.spec()
    for workload in on_disk["workloads"]:
        assert len(workload["why"]) <= 200
    assert len(on_disk["per_layer"]) <= 128


def test_same_seed_gives_same_inputs(tmp_path):
    a = _plan("population_solve", tmp_path / "a", seed=7)
    b = _plan("population_solve", tmp_path / "b", seed=7)
    c = _plan("population_solve", tmp_path / "c", seed=8)
    keys = lambda plan: [[op.key for op in plan.cycle(k)] for k in range(16)]  # noqa: E731
    assert keys(a) == keys(b) != keys(c)
    files = sorted(p.name for p in (tmp_path / "a" / "inputs").iterdir())
    assert len(files) == len(workloads.POPULATION_SIZES) * workloads.POOL_SIZE
    for name in files:
        assert (tmp_path / "a" / "inputs" / name).read_bytes() == (tmp_path / "b" / "inputs" / name).read_bytes()


@pytest.mark.parametrize("workload", ["population_solve", "grid_sweep", "erm_suites", "oracle_suite"])
def test_every_seed_times_the_same_ops(workload, tmp_path):
    epochs = run.epochs_for(workload, run.RUN_SECONDS)
    timed = range(workloads.POOL_SIZE, workloads.POOL_SIZE * (1 + epochs))
    multisets = [
        sorted(op.key for c in timed for op in _plan(workload, tmp_path / str(seed), seed).cycle(c))
        for seed in (1, 2)
    ]
    assert multisets[0] == multisets[1]
    # the slowest class (the last one) has at least 11 ops, so the tail op is one of them
    assert epochs * workloads.POOL_SIZE > run.TAIL_BEYOND


@pytest.mark.parametrize("workload", ["population_solve", "grid_sweep", "erm_suites", "oracle_suite"])
def test_recorded_outputs_pass(workload, tmp_path):
    client = _client(tmp_path)
    client.run(_cheapest_op(workload, tmp_path))
    assert (client.attempted, client.failed) == (1, 0), client.problems


def _alter_first_number(node, factor: float) -> bool:
    """Scale the first non-zero number in a reference observation in place."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            if _alter_first_number(value, factor):
                return True
            continue
        try:
            number = float(value)
        except (TypeError, ValueError):
            continue
        if number != 0 and not (isinstance(value, str) and value.lstrip("-").isdigit()):
            node[key] = repr(number * factor) if isinstance(value, str) else number * factor
            return True
    return False


@pytest.mark.parametrize("workload", ["population_solve", "grid_sweep", "erm_suites"])
def test_altered_reference_fails_the_op(workload, tmp_path):
    op = _cheapest_op(workload, tmp_path)
    wrong = copy.deepcopy(REFERENCE)
    assert _alter_first_number(wrong["ops"][op.key], 1.01)
    client = _client(tmp_path, wrong)
    client.run(op)
    assert client.failed == 1
    assert "mismatch" in client.problems[0]


def test_difference_within_tolerance_passes(tmp_path):
    op = _cheapest_op("population_solve", tmp_path)
    close = copy.deepcopy(REFERENCE)
    assert _alter_first_number(close["ops"][op.key], 1 + checks.REL_TOL / 10)
    client = _client(tmp_path, close)
    client.run(op)
    assert client.failed == 0, client.problems


def test_wrong_exit_code_fails_the_op(tmp_path):
    client = _client(tmp_path)
    client.run(workloads.Op("population/N4/00", "solve", ("solve", "--config", str(tmp_path / "missing.cfg"))))
    assert client.failed == 1
    assert "exit code 2" in client.problems[0]


def test_compare_rules():
    assert checks.compare("3", "3") == []
    assert checks.compare("3", "4") != []
    assert checks.compare("1.0", "1.00001") == []
    assert checks.compare("", "0.5") != []
    assert checks.compare(["a", "1"], ["a", "1", "2"]) != []


def test_tail_latency_leaves_ten_ops_beyond():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail_latency(latencies)
    assert value == 89.0 and percentile == 90.0
    assert sum(x > value for x in latencies) == run.TAIL_BEYOND
    assert run.tail_latency([1.0, 2.0, 3.0]) == (3.0, 100.0)


def _tracing_op(workload: str, tmp_path: Path) -> workloads.Op:
    cycle = _plan(workload, tmp_path).cycle(0)
    if workload == "erm_suites":
        return cycle[-1]  # scaling: the only suite that calls expected_loss_estimate
    if workload == "grid_sweep":
        return cycle[len(workloads.SWEEP_SHIPPED)]  # an N = 4 sweep
    return cycle[0]


@pytest.mark.parametrize("workload", ["population_solve", "grid_sweep", "erm_suites", "oracle_suite"])
def test_span_counts_equal_cprofile_calls(workload, tmp_path):
    """No name bound by value escapes the wrappers: every wrapped function's
    span count equals cProfile's call count of the function itself."""
    op = _tracing_op(workload, tmp_path)
    client = _client(tmp_path)
    original_main = CLI.main
    tracer = spans.Tracer()
    tracer.install()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        client.run(op)
        profiler.disable()
    finally:
        tracer.uninstall()
    assert client.failed == 0, client.problems
    profiled = {entry.code: entry.callcount for entry in profiler.getstats() if not isinstance(entry.code, str)}
    summary = tracer.summary()
    functions = spans.public_functions()
    called = 0
    for qualname, fn in functions.items():
        assert summary[qualname]["calls"] == profiled.get(fn.__code__, 0), qualname
        called += summary[qualname]["calls"] > 0
    assert called >= 3
    assert CLI.main is original_main


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        plan = _plan("population_solve", tmp_path / str(attempt), seed=3)
        client = _client(tmp_path / str(attempt))
        metrics, _ = run.trace(plan, client)
        assert client.failed == 0, client.problems
        counts.append({k: v for k, v in metrics.items() if not k.endswith((".s", ".self_s", "_ratio"))})
    assert counts[0] == counts[1]
    assert counts[0]["solver.stackelberg_solve.calls"] == len(plan.cycle(1))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "population_solve", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
