"""Output checks: each op's files against the outputs recorded from the program.

An observation is the part of an op's output directory that is checked,
as nested lists and dicts of strings and numbers:

- solve: every `key = value` line of equilibrium.txt and every row of
  thresholds.csv;
- validate: every row of the suite's CSV;
- sweep: each CSV's header, row count and, per column, the sums of blocks
  of BLOCK_ROWS consecutive rows.  Storing every value of the 3 sweep CSVs
  would take about 1 MB per N = 8 config; a block sum still moves when any
  one value in its block moves by more than about BLOCK_ROWS * REL_TOL of
  its size.

manifest.json is never checked: it holds a timestamp and the output path.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import SOLVER_TOL

# Roots and thresholds are located to solver.tol, but an interior maximum
# of the leader objective is flat: its argmax is resolved only to about the
# square root of the objective's resolution.  Outputs of two correct
# implementations may therefore differ by up to about sqrt(tol) relative.
REL_TOL = math.sqrt(SOLVER_TOL)
BLOCK_ROWS = 50

SWEEP_FILES = ("sweep_user_utility.csv", "sweep_best_response.csv", "sweep_leader.csv")


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh)]


def observe(kind: str, argv: tuple[str, ...], out: Path) -> dict:
    """Read the checked outputs of one op; raises OSError if a file is missing."""
    if kind == "solve":
        lines = (out / "equilibrium.txt").read_text(encoding="utf-8").splitlines()
        return {
            "equilibrium.txt": [line.split(" = ", 1) for line in lines],
            "thresholds.csv": _csv_rows(out / "thresholds.csv"),
        }
    if kind == "sweep":
        return {name: _block_sums(_csv_rows(out / name)) for name in SWEEP_FILES}
    suite = argv[argv.index("--suite") + 1]
    name = f"validate_{suite}.csv"
    return {name: _csv_rows(out / name)}


def _block_sums(rows: list[list[str]]) -> dict:
    header, body = rows[0], rows[1:]
    columns = list(zip(*body)) if body else [()] * len(header)
    return {
        "header": header,
        "rows": len(body),
        "block_sums": [
            [math.fsum(float(v) for v in col[k : k + BLOCK_ROWS]) for k in range(0, len(col), BLOCK_ROWS)]
            for col in columns
        ],
    }


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def compare(actual, expected, where: str = "") -> list[str]:
    """Mismatches between an observation and its reference.

    Numbers (and strings that parse as numbers) agree when
    |actual - expected| <= REL_TOL * max(1, |expected|); two integers must
    be equal.  Everything else must be equal.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        return [m for k in expected for m in compare(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            n = len(actual) if isinstance(actual, list) else actual
            return [f"{where}: length {n} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in compare(a, e, f"{where}[{i}]")]
    a, e = actual, expected
    if isinstance(e, str) and isinstance(a, str):
        try:
            a, e = _number(a), _number(e)
        except ValueError:
            return [] if a == e else [f"{where}: {a!r} != {e!r}"]
    if isinstance(a, str) or isinstance(e, str):
        return [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(a, int) and isinstance(e, int):
        return [] if a == e else [f"{where}: {a} != {e}"]
    if math.isfinite(e) and abs(a - e) <= REL_TOL * max(1.0, abs(e)):
        return []
    if not math.isfinite(e) and a == e:
        return []
    return [f"{where}: {a!r} differs from {e!r} by more than {REL_TOL:.3g} relative"]


def regime_mix(kind: str, out: Path) -> dict:
    """User regimes counted from a solve's or a sweep's output files.

    solve: perturbing = sigma_S* > 0 at the equilibrium, dissuaded =
    sigma_S* = 0, never_dissuaded = no threshold below sigma_max (these
    users also perturb).  sweep: perturbing = best response > 0 at
    sigma_L = 0, dissuaded = perturbing at sigma_L = 0 but not at
    sigma_max, never_dissuaded = best response > 0 at sigma_max.
    """
    if kind == "solve":
        lines = (out / "equilibrium.txt").read_text(encoding="utf-8").splitlines()
        sigma_S = [float(line.split(" = ")[1]) for line in lines if line.startswith("sigma_S_star[")]
        thresholds = [row[1] for row in _csv_rows(out / "thresholds.csv")[1:]]
        return {
            "perturbing": sum(s > 0 for s in sigma_S),
            "dissuaded": sum(s == 0 for s in sigma_S),
            "never_dissuaded": sum(t == "" for t in thresholds),
        }
    rows = _csv_rows(out / "sweep_best_response.csv")
    first, last = [float(v) for v in rows[1][1:]], [float(v) for v in rows[-1][1:]]
    return {
        "perturbing": sum(b > 0 for b in first),
        "dissuaded": sum(b > 0 and e == 0 for b, e in zip(first, last)),
        "never_dissuaded": sum(e > 0 for e in last),
    }


def bytes_written(out: Path) -> int:
    """Bytes of the op's result files, manifest excluded."""
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")
