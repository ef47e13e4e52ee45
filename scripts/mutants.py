#!/usr/bin/env python3
"""Mutation catalogue: edits of the source that the tier-1 tests must catch.

    python3 scripts/mutants.py [--only NAME ...] [--list]

Each mutant is one exact edit of one file: an old string, which must occur
exactly once, a new string, and the verdict expected of the tests, killed
or a reason the mutant survives.  Each runs in a fresh copy of the working
tree's tracked and unignored files (tier-1 runs scripts/ and perfbench/
too), with tier-1's command:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

A mutant is killed when that command exits non-zero.  For each mutant the
script prints its verdict, its wall time and every test that failed, a
parametrized test once with its count of failing cases.  It
exits 1 when a verdict differs from the expected one or an old string does
not occur exactly once, and 0 otherwise.  A survivor costs a whole tier-1
run (about 40 s on a 2-vCPU VM), and so does a kill: every killing test is
recorded, not the first.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KILLED = "killed"
SOLVER = "src/obfusgame/solver.py"
TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# name: (file, old, new, expected verdict)
MUTANTS = {
    # the oracle's user columns stop at sigma_max again, as before one strategy space for every player
    "oracle_column_capped_at_sigma_max": (
        SOLVER,
        "    tops = [max(sigma_max, _reach(u, s, config)) for u, s in zip(config.users, s_stars)]\n",
        "    tops = [sigma_max for u, s in zip(config.users, s_stars)]\n",
        KILLED,
    ),
    # the pruned solve's bounds and prune tests (TestPrunedSolve)
    "piece_spread_at_hi": (
        SOLVER,
        "coef * (lo * lo * (k / n) + squares[k])",
        "coef * (hi * hi * (k / n) + squares[k])",
        KILLED,
    ),
    "first_prune_plus_tie": (SOLVER, "if bound + margin < best - tie:", "if bound + margin < best + tie:", KILLED),
    "second_prune_plus_tie": (
        SOLVER,
        "if rest - at_hi / n + margin < best - tie:",
        "if rest - at_hi / n + margin < best + tie:",
        KILLED,
    ),
    "doubled_rho_in_the_sums": (
        SOLVER,
        "at_top[-1] + p / (1.0 + rho * sigma_max)",
        "at_top[-1] + p / (1.0 + 2.0 * rho * sigma_max)",
        KILLED,
    ),
    "squares_times_1_01": (SOLVER, "squares[k + 1] + s * s / n", "squares[k + 1] + 1.01 * s * s / n", KILLED),
    "bisect_left": (SOLVER, "k = bisect.bisect_right(cuts, lo)", "k = bisect.bisect_left(cuts, lo)", KILLED),
    "margin_times_1e6": (SOLVER, "return pieces, 2.0**-50 * (n + 16)", "return pieces, 1e6 * 2.0**-50 * (n + 16)",
                         KILLED),
    "ascending_piece_order": (SOLVER, "sorted(pieces, reverse=True)", "sorted(pieces)", KILLED),
    "lo_candidate_dropped": (SOLVER, "candidates = [lo] if lo > 0 else []", "candidates = []", KILLED),
    "right_end_rho_hi_halved": (
        SOLVER,
        "at_hi = sum(p / (1.0 + rho * hi) for",
        "at_hi = sum(p / (1.0 + 0.5 * rho * hi) for",
        KILLED,
    ),
    "right_end_rho_hi_doubled": (
        SOLVER,
        "at_hi = sum(p / (1.0 + rho * hi) for",
        "at_hi = sum(p / (1.0 + 2.0 * rho * hi) for",
        "survives: the right-end bound is looser but still sound, so no output changes",
    ),
}


def copy_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():  # a deleted file is still listed until its deletion is staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(name: str) -> tuple[str, float, list[str]]:
    """(verdict, seconds, failing test ids) of one mutant, or ValueError if its old string does not occur once."""
    path, old, new, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy_tree(Path(tmp))
        target = Path(tmp, path)
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{name}: the old string occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        done = subprocess.run(TIER_1, cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, flags=re.M)
    return (KILLED if done.returncode else "survives"), seconds, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(MUTANTS), help="run these mutants only")
    parser.add_argument("--list", action="store_true", help="print the catalogue and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, (path, _, _, expected) in MUTANTS.items():
            print(f"{name}  {path}  expected: {expected}")
        return 0
    mismatches = 0
    for name in args.only or MUTANTS:
        expected = MUTANTS[name][3]
        try:
            verdict, seconds, failed = run(name)
        except ValueError as exc:
            print(f"{name}: STALE  {exc}")
            mismatches += 1
            continue
        ok = verdict == expected.split(":")[0]
        mismatches += not ok
        print(f"{name}: {verdict} in {seconds:.1f} s, expected {expected}{'' if ok else '  MISMATCH'}")
        for test, cases in Counter(test.split("[")[0] for test in failed).items():  # parametrized cases once
            print(f"    {test}" + (f" ({cases} cases)" if cases > 1 else ""))
    print(f"{mismatches} mismatch{'es' if mismatches != 1 else ''}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
