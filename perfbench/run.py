#!/usr/bin/env python3
"""obfusgame benchmark: one closed-loop client driving `obfusgame.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json

Run from anywhere; the program is imported from the `src/` directory next
to this one.  One process, one client, no think time: each op is one
`cli.main([...])` call and starts only after the previous one returned
and its outputs were checked.  Checks, output clean-up and the regime
count run between ops, outside the op timings.

--trace 0 measures the end-to-end metrics: set-up (fresh-interpreter
import of obfusgame.cli plus writing the inputs, median of SETUP_REPEATS),
then one untimed warm-up cycle, then a fixed number of whole epochs: the
number that took about `--seconds` at the recording commit (see
workloads.CYCLE_SECONDS), so every run of a workload does the same work.

--trace 1 measures the per-layer metrics on a fixed op list (the warm-up
cycle, then one cycle untraced and the same cycle traced), so that every
count repeats exactly for a given seed; `--seconds` is not used.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
tail percentile, regime mix, span summary) goes to perfbench/.out/.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is first imported (with obfusgame).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_CONFIGS = SRC / "obfusgame" / "configs"
OUT = HERE / ".out"
REFERENCE = HERE / "reference.json.gz"

RUN_SECONDS = 12
# Stop starting cycles after this much wall time of the timed phase, so
# that a run of a much slower program still ends within three minutes.
MAX_PHASE_SECONDS = 120.0
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Machine-speed normalisation.  On the shared 2-vCPU VM this benchmark was
# written on (Intel Xeon, 2.1 GHz), the same code ran up to 25% slower or
# faster for minutes at a time.  A fixed pure-Python loop measures that
# speed: it is timed before an op whenever CALIBRATION_EVERY_S have passed
# since it last ran (so around every op that takes longer), and the op's
# time is scaled by CALIBRATION_REF_S / (mean of the loop times just
# before and just after it).  The reference is the loop's typical time on
# that VM.  Raw figures go to the record.
CALIBRATION_REF_S = 0.025
CALIBRATION_EVERY_S = 0.2

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# span name -> the per-span figures reported for it
SPAN_METRICS = {
    "cli.main": ("calls", "self_s"),
    "config_io.load_config": ("calls", "s"),
    "solver.stackelberg_solve": ("calls", "s", "self_s"),
    "solver.dissuasion_threshold": ("calls", "s"),
    "solver.leader_objective": ("calls", "s"),
    "solver.best_response_profile": ("calls", "s"),
    "solver.user_best_response": ("calls", "s"),
    "solver.effective_noise_target": ("calls", "s"),
    "solver.brute_force_equilibrium": ("calls", "s", "self_s"),
    "game.user_utility": ("calls", "s"),
    "game.learner_utility": ("calls", "s"),
    "erm.train_erm": ("calls", "s"),
    "erm.generate_synthetic": ("calls", "s", "rows", "bytes"),
    "erm.expected_loss_estimate": ("calls", "s"),
    "erm.perturb_inputs": ("calls", "s"),
    "dp.chi_square_cdf": ("calls", "s"),
    "validate.run_suite": ("calls", "s", "self_s"),
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows": "count", "bytes": "bytes"}
DERIVED_METRICS = (
    ("cli.bytes_written", "bytes"),
    ("solver.leader_objective_per_solve", "ratio"),
    ("solver.s_star_calls_per_user", "ratio"),
    ("erm.empirical_risk_per_train", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)
PER_LAYER = tuple(
    (f"{span}.{figure}", _UNITS[figure]) for span, figures in SPAN_METRICS.items() for figure in figures
) + DERIVED_METRICS


class SetupError(RuntimeError):
    """The program could not be imported or its inputs not written."""


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in PER_LAYER],
    }


def setup_sample(workload: str, work: Path) -> tuple[float, float, Path]:
    """Import obfusgame.cli in a fresh interpreter, then write the inputs.

    Returns (import seconds, input seconds, input directory).
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import obfusgame.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=150
    )
    if proc.returncode != 0:
        raise SetupError(f"importing obfusgame from {SRC} failed:\n{proc.stderr.strip()}")
    import_s = float(proc.stdout.split()[-1])
    inputs = Path(tempfile.mkdtemp(dir=work, prefix="inputs-"))
    start = perf_counter()
    workloads.write_inputs(workload, inputs)
    return import_s, perf_counter() - start, inputs


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import obfusgame.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import obfusgame from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"obfusgame was imported from {cli.__file__}, not from {SRC}")
    return cli


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (the speed probe)."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - start


class Speed:
    """Calibration samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the loop now; returns the sample's index."""
        self.samples.append(calibration_loop())
        self._last = perf_counter()
        return len(self.samples) - 1

    def sample_if_due(self) -> int:
        """Index of a sample at most CALIBRATION_EVERY_S old, taken now if needed."""
        if perf_counter() - self._last >= CALIBRATION_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor that brings a time measured between sample `before` and
        the next sample to the reference speed."""
        return 2.0 * CALIBRATION_REF_S / (self.samples[before] + self.samples[before + 1])


class Client:
    """Runs ops one after another and checks each one's outputs."""

    def __init__(self, cli, reference: dict, scratch: Path):
        self.cli = cli
        self.reference = reference
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.mix: Counter = Counter()
        self.problems: list[str] = []

    def run(self, op: workloads.Op) -> float:
        """Run one op; returns its latency in seconds."""
        out = self.scratch / f"op-{self.attempted:06d}"
        argv = op.command(out)
        sink = io.StringIO()
        code, error = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # SystemExit: argparse rejected argv
            error = exc
        latency = perf_counter() - start
        self.attempted += 1
        problem = self._check(op, out, code, error)
        if problem:
            self.failed += 1
            self.problems.append(f"{op.key} ({' '.join(argv)}): {problem}")
        shutil.rmtree(out, ignore_errors=True)
        return latency

    def _check(self, op: workloads.Op, out: Path, code, error) -> str | None:
        if error is not None:
            return f"raised {error!r}"
        if code != 0:
            return f"exit code {code}"
        try:
            mismatches = checks.compare(
                checks.observe(op.kind, op.argv, out), self.reference["ops"][op.key]
            )
            if op.kind in ("solve", "sweep"):
                self.mix.update(checks.regime_mix(op.kind, out))
            elif op.key in self.reference["mix"]:
                self.mix.update(self.reference["mix"][op.key])
            self.bytes_written += checks.bytes_written(out)
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        if mismatches:
            return f"{len(mismatches)} mismatches, first {mismatches[0]}"
        return None


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND ops
    beyond it; the maximum when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def epochs_for(workload: str, seconds: float) -> int:
    nominal = workloads.POOL_SIZE * workloads.CYCLE_SECONDS[workload]
    return max(workloads.MIN_EPOCHS[workload], round(seconds / nominal))


def measure(plan: workloads.Plan, client: Client, speed: Speed, seconds: float) -> dict:
    """Time whole epochs after the warm-up epoch, epochs_for() of them."""
    timed: list[tuple[str, float, int]] = []
    cycle = workloads.POOL_SIZE
    end = cycle * (1 + epochs_for(plan.workload, seconds))
    start = perf_counter()
    while cycle < end and perf_counter() - start < MAX_PHASE_SECONDS:
        for op in plan.cycle(cycle):
            before = speed.sample_if_due()
            timed.append((op.key, client.run(op), before))
        cycle += 1
    speed.sample()  # the sample after the last op
    ops = [(key, latency, speed.scale(before)) for key, latency, before in timed]
    raw = [latency for _, latency, _ in ops]
    scaled = [latency * scale for _, latency, scale in ops]
    busy = math.fsum(raw)
    tail, percentile = tail_latency(scaled)
    return {
        "ops_per_s": len(scaled) / math.fsum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail * 1e3,
        "raw_ops_per_s": len(raw) / busy,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": tail_latency(raw)[0] * 1e3,
        "tail_percentile": percentile,
        "timed_ops": len(scaled),
        "cycles": cycle - workloads.POOL_SIZE,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [{"key": k, "latency_s": t, "scale": f} for k, t, f in ops],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, bytes_written: int, overhead: float) -> dict:
    def figure(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    values = {
        f"{span}.{key}": figure(span, key) for span, keys in SPAN_METRICS.items() for key in keys
    }
    solves = figure("solver.stackelberg_solve", "calls")
    risk_in_train = summary.get("erm.train_erm", {}).get("children", {}).get("erm.empirical_risk", 0)
    values.update(
        {
            "cli.bytes_written": bytes_written,
            "solver.leader_objective_per_solve": _ratio(figure("solver.leader_objective", "calls"), solves),
            "solver.s_star_calls_per_user": _ratio(
                figure("solver.effective_noise_target", "calls"), figure("solver.stackelberg_solve", "users")
            ),
            "erm.empirical_risk_per_train": _ratio(risk_in_train, figure("erm.train_erm", "calls")),
            "trace_overhead_ratio": overhead,
        }
    )
    return values


def trace(plan: workloads.Plan, client: Client) -> tuple[dict, dict]:
    """Run cycle 1 untraced, then traced; returns (metrics, span summary)."""
    import spans

    ops = plan.cycle(1)
    untraced = sum(client.run(op) for op in ops)
    client.bytes_written = 0
    tracer = spans.Tracer()
    tracer.install()
    traced = 0.0
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            traced += client.run(op)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{plan.workload}.npz")
    summary = tracer.summary()
    return layer_metrics(summary, client.bytes_written, traced / untraced), summary


def run(args, work: Path) -> int:
    speed = Speed()
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        samples.append((*setup_sample(args.workload, work), before))
    speed.sample()
    samples = [(imp, gen, inputs, speed.scale(before)) for imp, gen, inputs, before in samples]
    cli = import_program()
    reference = load_reference()
    plan = workloads.Plan(
        args.workload, args.seed, samples[-1][2], SHIPPED_CONFIGS, reference["oracle_seeds"]
    )
    client = Client(cli, reference, work / "ops")
    for op in plan.cycle(0):  # warm-up: lazy imports and first-call costs
        client.run(op)

    record = {"workload": args.workload, "environment": environment(args.seed)}
    if args.trace:
        values, record["spans"] = trace(plan, client)
        units = dict(PER_LAYER)
    else:
        measured = measure(plan, client, speed, args.seconds)
        measured["raw_setup_s"] = statistics.median(imp + gen for imp, gen, _, _ in samples)
        record["run"] = measured
        record["setup_samples"] = [
            {"import_s": imp, "inputs_s": gen, "scale": scale} for imp, gen, _, scale in samples
        ]
        record["calibration_s"] = speed.samples
        values = {
            "setup_s": statistics.median((imp + gen) * scale for imp, gen, _, scale in samples),
            **{name: measured[name] for name, *_ in END_TO_END[1:]},
        }
        units = {name: unit for name, unit, *_ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(
        metrics=metrics,
        attempted=client.attempted,
        failed=client.failed,
        fail_ratio=client.failed / client.attempted,
        regime_mix=dict(client.mix),
        problems=client.problems,
    )
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in client.problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    env = record["environment"]
    print(
        f"workload {args.workload} seed {args.seed} trace {int(args.trace)}; nproc {env['nproc']}, "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, commit {env['commit']}"
    )
    mix = ", ".join(f"{k} {v}" for k, v in sorted(client.mix.items())) or "no game users"
    print(f"regime mix over all {client.attempted} ops: {mix}")
    if args.workload == "oracle_suite":
        print("  (validate.random_small_config draws only games in which no user perturbs)")
    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"  op_tail_ms is p{measured['tail_percentile']:.1f} of {measured['timed_ops']} timed ops "
            f"({measured['cycles']} cycles), {TAIL_BEYOND} ops beyond it"
        )
        print(
            f"  times above are at the reference speed; raw: "
            f"setup_s {measured['raw_setup_s']:.4g}, ops_per_s {measured['raw_ops_per_s']:.4g}, "
            f"op_p50_ms {measured['raw_op_p50_ms']:.4g}, op_tail_ms {measured['raw_op_tail_ms']:.4g}"
        )
    print(f"fail_ratio {record['fail_ratio']:.6g} ({client.failed} of {client.attempted} ops)")
    print(f"details: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": client.failed == 0,
                "attempted": client.attempted,
                "failed": client.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        return run(args, work)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
