"""Command-line front end.

Subcommands:

    solve     compute the Stackelberg equilibrium for a config
    sweep     emit CSV sweeps over sigma_L (user utility, best
              response, induced leader utility)
    dp        sigma <-> epsilon conversion and norm-bound report
    validate  run a named property suite

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 internal solver error.  The outputs of solve, sweep, dp and validate
--suite oracle|chi2 are byte-reproducible for a fixed (config, version),
and for validate also a fixed seed, on any BLAS: their arithmetic is
elementwise.  validate lemma1, lemma2 and scaling train with BLAS matrix
products, so their bytes hold for one BLAS build.  lemma2's lhs, a
difference of two risks equal to about 11 digits, moves in the 12th digit
under OPENBLAS_CORETYPE=Prescott by two dgemv calls: the gradient's
X^T coef in erm.train_erms and the margins X w in erm.empirical_risk.
With both summed without BLAS its bytes hold under both kernels; with
either alone they do not.  The manifest's timestamp varies.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import zip_longest
from pathlib import Path

from . import SUITES, __version__  # dp, solver and validate: each command imports what it runs
from .config_io import load_config
from .errors import SolverError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

# cells (a row's head is one) filled by one % in _write_csv: a table of 10^6
# rows is written a bounded slice at a time, the default sweep's tables in one %
_WRITE_CELLS = 2**16


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _formatted(values) -> list[str]:
    """_fmt of each value of a float array, by one % over the whole array."""
    values = values.tolist()
    return (("%.12g\n" * len(values)) % tuple(values)).splitlines()


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write header, then each block's rows.  A block is (heads, table): heads
    holds each row's leading fields, formatted and joined by commas (written
    as they are, so one list can serve two files), and table is None or a
    float array of one row per head, written after it %.12g as _fmt writes a
    float.  A slice of _WRITE_CELLS cells (a head is one) is one template, its
    heads joined by the row's tail, filled by one %: a head beside a table may
    hold no %.  No field is quoted, the header's included, so none may hold a
    comma, quote or line break; lines end in \\r\\n."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for heads, table in blocks:
            width = 0 if table is None else table.shape[1]
            tail, rows = ",%.12g" * width + "\r\n", max(1, _WRITE_CELLS // (width + 1))
            for k in range(0, len(heads), rows):
                lines = tail.join(heads[k : k + rows]) + tail
                fh.write(lines if table is None else lines % tuple(table[k : k + rows].ravel().tolist()))


def _write_manifest(out: Path, args, command: str, **resolved) -> None:
    """manifest.json: what ran, on what, where, when, with each argument that
    shapes its outputs.  json and datetime are imported here, not at start-up:
    dp, --help and a usage or config error write no manifest."""
    import json
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "config": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),  # set by validate only; solve and sweep are not random
        **resolved,
        "out": str(out),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    if args.fine_step is not None and not args.oracle:
        raise ValueError("--fine-step applies only with --oracle")
    config = load_config(args.config)
    from . import solver  # after the config parses: a config error needs no numpy
    if args.oracle:
        result = solver.brute_force_equilibrium(config, args.fine_step)
    else:
        result = solver.stackelberg_solve(config)
    out = _outdir(args)

    lines = [
        f"sigma_L_star = {_fmt(result.sigma_L_star)}",
        f"learner_utility = {_fmt(result.learner_utility)}",
    ]
    for i, (s, u) in enumerate(zip(result.sigma_S_star, result.user_utilities)):
        lines.append(f"sigma_S_star[{i}] = {_fmt(s)}")
        lines.append(f"user_utility[{i}] = {_fmt(u)}")
    (out / "equilibrium.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    thresholds = [f"{i},{'' if t is None else _fmt(t)}" for i, t in enumerate(result.per_user_thresholds)]
    _write_csv(out / "thresholds.csv", ["user", "threshold"], [(thresholds, None)])
    _write_manifest(out, args, "solve", oracle=args.oracle, fine_step=args.fine_step)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    from . import solver
    import numpy as np  # after solver: solver.py compiles before numpy is loaded, a lower peak
    lo = 0.0 if args.min is None else args.min
    hi = config.solver.sigma_max if args.max is None else args.max
    step = config.solver.grid_step if args.step is None else args.step
    grid, samples, own, responses, leader, utilities = solver.sweep(config, lo, hi, step)
    out, n = _outdir(args), config.n_users
    # each row's head, "sigma_L,br_user_0,...", is joined once for both files that
    # hold it, a chunk of rows at a time (one % of sweep_leader.csv).  A user's
    # responses are +0.0 from np.zeros at and after its cut, and the grid never
    # decreases, so those zeros form a suffix, never -0.0 (nor is any sqrt(s*^2 -
    # sigma_L^2)): a row is formatted up to its last nonzero, and the rest is "0"
    nonzero = responses != 0
    ends = (nonzero.any(axis=1) * (len(grid) - nonzero[:, ::-1].argmax(axis=1))).tolist()
    sigma, heads, rows = [], [], max(1, _WRITE_CELLS // (n + 2))
    for k in range(0, len(grid), rows):
        sigma.append("\n".join(chunk := _formatted(grid[k : k + rows])))  # the grid's strings, one per chunk
        brs = (_formatted(r[k : min(e, k + rows)]) for r, e in zip(responses, ends))
        heads += map(",".join, zip_longest(chunk, *brs, fillvalue="0"))
    del chunk  # the grid's strings live on only in sigma's text
    br_head, u_head = [f"br_user_{i}" for i in range(n)], [f"U_S_{i}" for i in range(n)]
    _write_csv(out / "sweep_best_response.csv", ["sigma_L", *br_head], [(heads, None)])
    table = ((heads[k : k + rows], np.vstack((leader[k : k + rows], utilities[:, k : k + rows])).T)
             for k in range(0, len(grid), rows))
    _write_csv(out / "sweep_leader.csv", ["sigma_L", *br_head, "U_L", *u_head], table)
    del heads  # the own-noise blocks hold one head per point of a chunk, one sample at a time
    own_blocks = ((f"{s},{text}".replace("\n", f"\n{s},").split("\n"), block.T[j * rows : (j + 1) * rows])
                  for s, block in zip(_formatted(samples), own) for j, text in enumerate(sigma))
    _write_csv(out / "sweep_user_utility.csv", ["sigma_L", "sigma_S", *u_head], own_blocks)
    _write_manifest(out, args, "sweep", lo=lo, hi=hi, step=step, points=len(grid))
    print(f"wrote 3 sweep files to {out}")
    return EXIT_OK


def _cmd_dp(args) -> int:
    if args.d is not None and args.zeta is None:
        raise ValueError("--d applies only with --zeta")
    from . import dp
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
        d = 5 if args.d is None else args.d
        report = dp.norm_bound_probability(d, args.zeta, args.delta)
        lines.append(f"d                   = {d}")
        lines.append(f"zeta                = {_fmt(args.zeta)}")
        lines.append(f"norm_bound_prob     = {_fmt(report.probability)}")
        lines.append(f"combined_success    = {_fmt(report.combined_success)}")
        lines.append(f"union_bound_success = {_fmt(report.union_bound_success)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import validate
    result = validate.run_suite(args.suite, trials=args.trials, base_seed=args.seed)
    out = _outdir(args)
    header = list(result.rows[0].keys())
    heads = [",".join(_fmt(row[k]) for k in header) for row in result.rows]
    _write_csv(out / f"validate_{args.suite}.csv", header, [(heads, None)])
    _write_manifest(out, args, f"validate {args.suite}", trials=args.trials)
    print(result.summary)
    if not result.passed:
        if result.failed_seeds:
            print(f"failed seeds (for replay): {result.failed_seeds}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache  # built by the first main call, not at import; parse_args leaves it as it was
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each command's parser by its name."""
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
    p_solve.add_argument("--fine-step", type=float, default=None)  # solver.brute_force_equilibrium's default
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="emit CSV sweeps over sigma_L")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--min", type=float, default=None)
    p_sweep.add_argument("--max", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dp = sub.add_parser("dp", help="sigma <-> epsilon and norm-bound report")
    noise = p_dp.add_mutually_exclusive_group(required=True)  # exactly one; argparse's usage error, exit 2
    noise.add_argument("--sigma", type=float, default=None)
    noise.add_argument("--epsilon", type=float, default=None)
    p_dp.add_argument("--delta", type=float, required=True)
    p_dp.add_argument("--d", type=int, default=None)  # 5 with --zeta; refused without it
    p_dp.add_argument("--zeta", type=float, default=None)
    p_dp.set_defaults(func=_cmd_dp)

    p_val = sub.add_parser("validate", help="run a named property suite")
    p_val.add_argument("--suite", required=True, choices=SUITES)
    p_val.add_argument("--trials", type=int, default=None)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", default="out")
    p_val.set_defaults(func=_cmd_validate)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:  # one pass, the command's parser, with the full parser's leftover error
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:  # no command, a help flag or an unknown command: the full parser's usage
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError; OSError: unusable --config or --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
