"""Command-line front end.

Subcommands:

    solve     compute the Stackelberg equilibrium for a config
    sweep     emit CSV sweeps over sigma_L (user utility, best
              response, induced leader utility)
    dp        sigma <-> epsilon conversion and norm-bound report
    validate  run a named property suite

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 internal solver error.  All file outputs are byte-reproducible for a
fixed (config, version), and for validate also a fixed seed; only the
manifest timestamp varies.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import __version__, dp, solver, validate
from .config_io import load_config
from .errors import ConfigError, GridTooLargeError, SolverError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


@dataclasses.dataclass
class RunManifest:
    command: str
    config: str | None
    seed: int | None  # set by validate only; solve and sweep are not random
    out: str
    version: str
    timestamp: str


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _formatted(values) -> list[str]:
    """_fmt of each value of a float array."""
    return list(map("%.12g".__mod__, values.tolist()))


def _columns(rows: Iterable[list]) -> list[list[str]]:
    """The columns of equal-length rows, each value formatted by _fmt."""
    return [list(map(_fmt, column)) for column in zip(*rows)]


def _write_csv(path: Path, header: list[str], blocks: Iterable[list[list[str]]]) -> None:
    """Write header, then each block's rows: a block is a list of equal-length
    columns of formatted strings.  Fields are not quoted, so a value must
    hold no comma, quote or line break; lines end in \\r\\n as csv.writer's."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            lines = "\r\n".join(map(",".join, zip(*columns)))
            fh.write(lines and lines + "\r\n")


def _write_manifest(out: Path, args, command: str) -> None:
    manifest = RunManifest(
        command=command,
        config=getattr(args, "config", None),
        seed=getattr(args, "seed", None),
        out=str(out),
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    (out / "manifest.json").write_text(
        json.dumps(dataclasses.asdict(manifest), indent=2) + "\n", encoding="utf-8"
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    out = _outdir(args)
    if args.oracle:
        result = solver.brute_force_equilibrium(config, args.fine_step)
    else:
        result = solver.stackelberg_solve(config)

    lines = [
        f"sigma_L_star = {_fmt(result.sigma_L_star)}",
        f"learner_utility = {_fmt(result.learner_utility)}",
    ]
    for i, (s, u) in enumerate(zip(result.sigma_S_star, result.user_utilities)):
        lines.append(f"sigma_S_star[{i}] = {_fmt(s)}")
        lines.append(f"user_utility[{i}] = {_fmt(u)}")
    (out / "equilibrium.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_csv(
        out / "thresholds.csv",
        ["user", "threshold"],
        [_columns([i, "" if t is None else t] for i, t in enumerate(result.per_user_thresholds))],
    )
    _write_manifest(out, args, "solve")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    settings = config.solver
    lo = 0.0 if args.min is None else args.min
    hi = settings.sigma_max if args.max is None else args.max
    step = settings.grid_step if args.step is None else args.step
    grid, samples, own, responses, leader, utilities = solver.sweep(config, lo, hi, step)
    out = _outdir(args)
    # each value is formatted once; a column is shared by the tables that hold it
    sigma, brs = _formatted(grid), list(map(_formatted, responses))
    br_head = [f"br_user_{i}" for i in range(config.n_users)]
    u_head = [f"U_S_{i}" for i in range(config.n_users)]
    # one block per sampled sigma_L, formatted as it is written
    samples = _formatted(samples)
    own_blocks = ([[s] * len(sigma), sigma, *map(_formatted, block)] for s, block in zip(samples, own))
    _write_csv(out / "sweep_user_utility.csv", ["sigma_L", "sigma_S", *u_head], own_blocks)
    _write_csv(out / "sweep_best_response.csv", ["sigma_L", *br_head], [[sigma, *brs]])
    leader_columns = [sigma, *brs, _formatted(leader), *map(_formatted, utilities)]
    _write_csv(out / "sweep_leader.csv", ["sigma_L", *br_head, "U_L", *u_head], [leader_columns])
    _write_manifest(out, args, "sweep")
    print(f"wrote 3 sweep files to {out}")
    return EXIT_OK


def _cmd_dp(args) -> int:
    if (args.sigma is None) == (args.epsilon is None):
        print("dp: exactly one of --sigma / --epsilon is required", file=sys.stderr)
        return EXIT_USAGE
    lines = []
    if args.sigma is not None:
        guarantee = dp.epsilon_from_sigma(args.sigma, args.delta)
        lines.append(f"sigma   = {_fmt(abs(args.sigma))}")  # -0.0 prints as 0
        lines.append(f"epsilon = {_fmt(guarantee.epsilon)}")
        if not guarantee.in_stated_range:
            lines.append("warning: epsilon outside (0, 1), guarantee range exceeded")
    else:
        sigma = dp.sigma_from_epsilon(args.epsilon, args.delta)
        lines.append(f"epsilon = {_fmt(args.epsilon)}")
        lines.append(f"sigma   = {_fmt(sigma)}")
    lines.append(f"delta   = {_fmt(args.delta)}")

    if args.zeta is not None:
        report = dp.norm_bound_probability(args.d, args.zeta, args.delta)
        lines.append(f"d                   = {args.d}")
        lines.append(f"zeta                = {_fmt(args.zeta)}")
        lines.append(f"norm_bound_prob     = {_fmt(report.probability)}")
        lines.append(f"combined_success    = {_fmt(report.combined_success)}")
        lines.append(f"union_bound_success = {_fmt(report.union_bound_success)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_validate(args) -> int:
    result = validate.run_suite(args.suite, trials=args.trials, base_seed=args.seed)
    out = _outdir(args)
    if result.rows:
        header = list(result.rows[0].keys())
        _write_csv(
            out / f"validate_{args.suite}.csv",
            header,
            [_columns([row[k] for k in header] for row in result.rows)],
        )
    _write_manifest(out, args, f"validate {args.suite}")
    print(result.summary)
    if not result.passed:
        if result.failed_seeds:
            print(f"failed seeds (for replay): {result.failed_seeds}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obfusgame",
        description="Stackelberg obfuscation game: equilibria, sweeps, DP "
        "calculators and validation suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the Stackelberg equilibrium")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default="out")
    p_solve.add_argument(
        "--oracle", action="store_true", help="use the brute-force grid oracle"
    )
    p_solve.add_argument("--fine-step", type=float, default=1e-3)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="emit CSV sweeps over sigma_L")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--min", type=float, default=None)
    p_sweep.add_argument("--max", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dp = sub.add_parser("dp", help="sigma <-> epsilon and norm-bound report")
    p_dp.add_argument("--sigma", type=float, default=None)
    p_dp.add_argument("--epsilon", type=float, default=None)
    p_dp.add_argument("--delta", type=float, required=True)
    p_dp.add_argument("--d", type=int, default=5)
    p_dp.add_argument("--zeta", type=float, default=None)
    p_dp.set_defaults(func=_cmd_dp)

    p_val = sub.add_parser("validate", help="run a named property suite")
    p_val.add_argument("--suite", required=True, choices=validate.SUITES)
    p_val.add_argument("--trials", type=int, default=None)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default="out")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:  # OSError: unusable --config or --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, GridTooLargeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
