#!/usr/bin/env python3
"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record.py

Runs every pool entry of every workload once through `obfusgame.cli.main`
(under a minute) and writes perfbench/reference.json.gz:

- ops: the checked observation of each op (see checks.py), by op key;
- oracle_seeds: for each game size 1-3, the first POOL_SIZE validate
  seeds whose `random_small_config` game has that many users;
- mix: the regime mix of each oracle seed's game at its equilibrium.

Record only from a commit whose outputs are known to be right: the
benchmark counts every later difference beyond checks.REL_TOL as a failed op.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def oracle_pools() -> tuple[dict, dict]:
    from obfusgame import solver, validate

    seeds: dict[str, list[int]] = {str(n): [] for n in workloads.ORACLE_SIZES}
    mix = {}
    for seed in itertools.count():
        config = validate.random_small_config(seed)
        pool = seeds.get(str(config.n_users))
        if pool is None or len(pool) == workloads.POOL_SIZE:
            if all(len(p) == workloads.POOL_SIZE for p in seeds.values()):
                return seeds, mix
            continue
        pool.append(seed)
        result = solver.stackelberg_solve(config)
        mix[f"validate/oracle/{seed}"] = {
            "perturbing": sum(s > 0 for s in result.sigma_S_star),
            "dissuaded": sum(s == 0 for s in result.sigma_S_star),
            "never_dissuaded": sum(t is None for t in result.per_user_thresholds),
        }


def main() -> int:
    cli = run.import_program()
    oracle_seeds, mix = oracle_pools()
    ops = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for workload in workloads.WORKLOADS:
            inputs = Path(tmp) / workload
            workloads.write_inputs(workload, inputs)
            for op in workloads.pool_ops(workload, inputs, run.SHIPPED_CONFIGS, oracle_seeds):
                out = Path(tmp) / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(op.command(out))
                if code != 0:
                    print(f"{op.key}: exit code {code}", file=sys.stderr)
                    return 1
                ops[op.key] = checks.observe(op.kind, op.argv, out)
                shutil.rmtree(out)
                print(f"recorded {op.key}", flush=True)
    reference = {"oracle_seeds": oracle_seeds, "mix": mix, "ops": ops}
    with open(run.REFERENCE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(reference, sort_keys=True) + "\n").encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
