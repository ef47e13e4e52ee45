#!/usr/bin/env python3
"""A/B judge: the benchmark at two revisions, in alternating pairs on one CPU.

    python3 scripts/ab.py --base REV [--head REV] --workload W [--pairs K]
    python3 scripts/ab.py --base REV [--head REV] --cold [--pairs K]

Each side is a fresh directory holding that revision's `src/` (from `git
archive`; without --head, the working tree's tracked and unignored files)
next to one copy of the current `perfbench/`, whose unmodified `run.py`
runs as a child process.  Pair i runs base then head when i is even, head
then base when it is odd, with seed i + 1 on both sides.  Every run is
pinned to one CPU (`os.sched_setaffinity` on the child before it starts
the interpreter), the same CPU for every pair, and the CPU is recorded: on
a small VM the CPU can move a run more than the change does.

Before the timed pairs, each side runs every pool op of the workload
once (perfbench's `workloads.pool_ops`) into its own directory, and the
report lists every op whose exit code or output files differ between the
sides, each op's manifest.json left out: it names the config and the
output paths, and holds a timestamp.

For each end-to-end metric of BENCHMARK.json it prints both sides'
medians and quartiles, head/base, the pairs the head won (ties count for
neither) and the verdict of `verdict`.  It writes BENCH_<workload>_<name>.json
at the repository root for each side, name being the revision's short hash,
with "+" appended for the working tree ("-base" and "-head" follow the
name when both sides are one revision): every run's metrics, seed, order
and CPU, the numpy version and the BLAS it was built against (one
interpreter runs both sides), and in the head's file the verdicts and the
ops whose outputs differ.  It may run from any
directory; git runs in this repository.

With --cold, a run is one fresh `python -m obfusgame.cli` process of each
of COLD_COMMANDS (`dp`, `solve` and `sweep`, and each `validate` suite at
perfbench's trial counts), pinned and with numpy's threads pinned as perfbench pins
them, and its metric is each process's wall time.  These are the
commands' end-to-end times, start-up included, which perfbench's ops,
run in one warm process, do not see.  Each side's src/ is compiled to
bytecode first, as an installed package is.  Each command is judged with
setup_s's bound, the benchmark's one cold-start metric, and the workload
is named "cold".
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# metric name: the obfusgame arguments of one cold process, run in its side's directory
COLD_COMMANDS = {
    "dp_s": ["dp", "--sigma", "2", "--delta", "1e-5"],
    "solve_s": ["solve", "--config", "src/obfusgame/configs/default.cfg", "--out", "cold-out"],
    "sweep_s": ["sweep", "--config", "src/obfusgame/configs/default.cfg", "--out", "cold-out"],
    # each suite at perfbench's --trials (workloads.ERM_SUITES, and the oracle suite's 1)
    **{f"validate_{suite}_s": ["validate", "--suite", suite, "--trials", str(trials), "--out", "cold-out"]
       for suite, trials in (("lemma1", 5), ("lemma2", 5), ("chi2", 50_000), ("scaling", 2), ("oracle", 1))},
}
# perfbench/run.py's thread pins, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs (base[i] and head[i] ran
    as pair i): "gain" when there are at least 10 pairs, the head wins at
    least 9 in 10 of them and its median beats the base's by more than the
    base's interquartile range;
    else "regression" when the head's median is worse than the base's by
    more than bound (relative); else "unresolved" when either side's
    interquartile range exceeds bound times its median and not every head
    run beats every base run; else "within bound"."""
    sign = 1.0 if better == "higher" else -1.0
    mid_base, mid_head = statistics.median(base), statistics.median(head)
    won = wins(base, head, better)
    if len(base) >= 10 and won >= 0.9 * len(base) and sign * (mid_head - mid_base) > spread(base):
        return "gain"
    if sign * (mid_base - mid_head) > bound * abs(mid_base):
        return "regression"
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if max(spread(base) / abs(mid_base), spread(head) / abs(mid_head)) > bound and not all_better:
        return "unresolved"
    return "within bound"


def wins(base: list[float], head: list[float], better: str) -> int:
    """The pairs in which the head reads better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def spread(values: list[float]) -> float:
    """The interquartile range (0 for one value)."""
    q1, q3 = quartiles(values)
    return q3 - q1


# run in a side's directory: each pool op of the workload argv[1] once, into pool/<op key>; prints "key code" a line
POOL_RUN = """
import contextlib, io, sys
sys.path.insert(0, "perfbench")
import run, workloads
from pathlib import Path
cli, out = run.import_program(), Path("pool")
inputs = out / "inputs"
workloads.write_inputs(sys.argv[1], inputs)
for op in workloads.pool_ops(sys.argv[1], inputs, run.SHIPPED_CONFIGS, run.load_reference()["oracle_seeds"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(op.command(out / op.key))
    print(op.key, code)
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def tracked(prefix: str) -> list[str]:
    """The working tree's tracked and unignored files under prefix."""
    listing = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", prefix)
    return [name for name in listing.decode().split("\0") if name and (ROOT / name).is_file()]


def copy(names: list[str], where: Path) -> None:
    for name in names:
        (where / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / name, where / name)


def side(rev: str | None, where: Path) -> str:
    """Build one side under where, src/ of rev (or of the working tree) and
    the current perfbench/, and return its name."""
    if rev is None:
        copy(tracked("src"), where)
    else:
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, "src")))
        archive.extractall(where, filter="data")
    copy(tracked("perfbench"), where)
    name = git("rev-parse", "--short", rev or "HEAD").decode().strip()
    return name if rev else name + "+"


def run_once(where: Path, workload: str, seed: int, cpu: int) -> dict:
    """One perfbench run of the side at where, pinned to cpu: its result line."""
    command = [sys.executable, str(where / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=where,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if done.returncode != 0:
        raise SystemExit(f"perfbench failed ({done.returncode}) in {where}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pool_run(where: Path, workload: str) -> dict[str, str]:
    """Each pool op of the workload once on the side at where, into
    where/pool/<op key>: the exit code of each op, by key."""
    done = subprocess.run([sys.executable, "-c", POOL_RUN, workload], capture_output=True, text=True, cwd=where)
    if done.returncode != 0:
        raise SystemExit(f"pool ops failed ({done.returncode}) in {where}:\n{done.stderr}")
    return dict(line.split() for line in done.stdout.splitlines())


def outputs(op: Path) -> dict[str, bytes]:
    """The files under one op's output directory by relative path, manifest.json left out."""
    return {path.relative_to(op).as_posix(): path.read_bytes()
            for path in op.rglob("*") if path.is_file() and path.name != "manifest.json"}


def differing_ops(base: Path, head: Path, workload: str) -> tuple[int, list[str]]:
    """Run the workload's pool ops on both sides: how many there are, and
    the keys of those whose exit code or output files differ."""
    codes = {key: pool_run(where, workload) for key, where in (("base", base), ("head", head))}
    keys = sorted(codes["base"].keys() | codes["head"].keys())
    return len(keys), [key for key in keys if codes["base"].get(key) != codes["head"].get(key)
                       or outputs(base / "pool" / key) != outputs(head / "pool" / key)]


def cold_once(where: Path, cpu: int) -> dict:
    """Each of COLD_COMMANDS once, a fresh interpreter on the side at where
    pinned to cpu: its wall time in seconds as a metric."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": str(where / "src")}
    metrics = {}
    for name, command in COLD_COMMANDS.items():
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "obfusgame.cli", *command], capture_output=True, text=True,
                              cwd=where, env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        metrics[name] = {"value": time.perf_counter() - start, "unit": "s"}
        if done.returncode != 0:
            raise SystemExit(f"obfusgame {' '.join(command)} failed ({done.returncode}) in {where}:\n{done.stderr}")
    return {"metrics": metrics}


def numpy_build() -> dict:
    """The version of the numpy that the runs import, and the BLAS it was
    built against as numpy.show_config reports it."""
    code = ("import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
            "print(json.dumps({'version': numpy.__version__, 'blas': blas}))")
    return json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                     check=True).stdout)


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--head", help="revision of the changed side (default: the working tree)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--cold", action="store_true", help="time fresh CLI processes of COLD_COMMANDS")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def judged(spec: dict, cold: bool) -> list[dict]:
    """The metrics to judge: BENCHMARK.json's end-to-end metrics, or with
    cold each COLD_COMMANDS time, with setup_s's direction and bound."""
    if not cold:
        return spec["end_to_end"]
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    return [{**setup, "name": name} for name in COLD_COMMANDS]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = "cold" if args.cold else args.workload
    cpu = min(os.sched_getaffinity(0))
    build = numpy_build()  # both sides run on this interpreter's numpy
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        sides = {}
        for key, rev in (("base", args.base), ("head", args.head)):
            (work / key).mkdir()
            sides[key] = {"name": side(rev, work / key), "revision": rev or "working tree", "numpy": build,
                          "runs": []}
            if args.cold:  # an installed package starts from its bytecode, not by compiling src/
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(work / key / "src")], check=True)
        if not args.cold:
            ops, differ = differing_ops(work / "base", work / "head", workload)
            for key in sides:
                shutil.rmtree(work / key / "pool")
        for i in range(args.pairs):
            for key in ("base", "head") if i % 2 == 0 else ("head", "base"):
                if args.cold:
                    result, seed, status = cold_once(work / key, cpu), None, "ok"
                else:
                    result, seed = run_once(work / key, workload, i + 1, cpu), i + 1
                    status = f"correct {result['correct']}"
                sides[key]["runs"].append({"pair": i, "first": (i % 2 == 0) == (key == "base"),
                                           "seed": seed, "cpu": cpu, **result})
                print(f"pair {i + 1}/{args.pairs} {key}: {status}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = {}
    print(f"{workload}: base {sides['base']['name']}, head {sides['head']['name']}, "
          f"{args.pairs} pairs on CPU {cpu}")
    metrics = judged(spec, args.cold)
    width = max(len(metric["name"]) for metric in metrics)
    print(f"{'metric':{width}s} {'base median [q1, q3]':>30s} {'head median [q1, q3]':>30s} {'head/base':>9s} "
          f"{'wins':>6s}  verdict")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base, head = ([run["metrics"][name]["value"] for run in sides[key]["runs"]] for key in ("base", "head"))
        verdicts[name] = {"verdict": verdict(base, head, better, metric["bound"]),
                          "wins": wins(base, head, better), "pairs": args.pairs,
                          "ratio": statistics.median(head) / statistics.median(base)}
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(v), *quartiles(v)) for v in (base, head)]
        print(f"{name:{width}s} {cells[0]:>30s} {cells[1]:>30s} {verdicts[name]['ratio']:9.3f} "
              f"{verdicts[name]['wins']:>2d}/{args.pairs:<3d}  {verdicts[name]['verdict']}")
    if not args.cold:  # a cold command that fails stops the judge
        for key in sides:
            runs = sides[key]["runs"]
            print(f"{key} failed ops: {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        print(f"outputs differ in {len(differ)} of {ops} pool ops (manifest.json left out)"
              + "".join(f"\n  {key}" for key in differ))
        sides["head"]["outputs_differ"] = differ
    sides["head"]["verdicts"] = {"base": sides["base"]["name"], **verdicts}
    same = sides["base"]["name"] == sides["head"]["name"]  # an A/A run of one revision
    for key, record in sides.items():
        path = ROOT / f"BENCH_{workload}_{record['name']}{'-' + key if same else ''}.json"
        path.write_text(json.dumps({"workload": workload, **record}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
