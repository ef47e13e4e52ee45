#!/usr/bin/env python3
"""Search/verification script behind the shipped benchmark configs.

The shipped scenarios (low_cost / mid_cost / high_cost, with default an
alias of mid_cost) share one base parameterization and differ only in the
user's flat perturbation cost N_bar_S in {10, 20, 30}.  The base values
were chosen so the three cost levels span both qualitative equilibrium
regimes:

    low_cost   the learner stays at sigma_L = 0 and the user perturbs
    mid/high   the learner adds noise up to the dissuasion threshold and
               the user best-responds with zero

The free knob is the learner's flat cost N_bar_L: dissuading is worth it
only when the utility jump at the threshold beats the quadratic accuracy
cost of the noise needed to get there.  This script scans N_bar_L, prints
the window in which exactly the {mid, high} columns dissuade, and verifies
the shipped value (75) sits inside it.

Usage: python3 scripts/find_default_config.py
"""

from __future__ import annotations

import numpy as np

from obfusgame.config_io import load_shipped_config
from obfusgame.game import GameConfig
from obfusgame.solver import dissuasion_threshold, stackelberg_solve

USER_COSTS = {
    name: load_shipped_config(name).users[0].perturbation_cost for name in ("low_cost", "mid_cost", "high_cost")
}
BASE = load_shipped_config("mid_cost")  # every shipped parameter but the two N_bar values
SHIPPED_NBAR_L = BASE.learner.perturbation_cost


def replace(record, **changes):
    """A new record of record's type with the given fields changed."""
    return type(record)(**{**vars(record), **changes})


def build_config(nbar_l: float, nbar_s: float) -> GameConfig:
    return replace(
        BASE,
        learner=replace(BASE.learner, perturbation_cost=nbar_l),
        users=(replace(BASE.users[0], perturbation_cost=nbar_s),),
    )


def dissuades(nbar_l: float, nbar_s: float) -> bool:
    result = stackelberg_solve(build_config(nbar_l, nbar_s))
    return result.sigma_L_star > 0


def main() -> None:
    print("dissuasion thresholds (independent of N_bar_L):")
    for name, nbar_s in USER_COSTS.items():
        t = dissuasion_threshold(0, build_config(0.0, nbar_s))
        print(f"  {name:9s} N_bar_S = {nbar_s:4.0f}  threshold = {t:.6f}")

    print("\nscanning learner flat cost N_bar_L in [0, 120]:")
    feasible = []
    for nbar_l in np.arange(0.0, 120.0 + 1e-9, 1.0):
        pattern = tuple(dissuades(nbar_l, c) for c in USER_COSTS.values())
        if pattern == (False, True, True):
            feasible.append(float(nbar_l))
    if not feasible:
        raise SystemExit("no N_bar_L produces the target regime split")
    print(f"  target split (low stays, mid+high dissuade) for "
          f"N_bar_L in [{feasible[0]:.0f}, {feasible[-1]:.0f}] (step 1)")
    assert feasible[0] <= SHIPPED_NBAR_L <= feasible[-1], "shipped value outside window"
    print(f"  shipped N_bar_L = {SHIPPED_NBAR_L:.0f} is inside the window")

    print("\nequilibria at the shipped value:")
    for name, nbar_s in USER_COSTS.items():
        r = stackelberg_solve(build_config(SHIPPED_NBAR_L, nbar_s))
        print(f"  {name:9s} sigma_L* = {r.sigma_L_star:8.4f}  "
              f"sigma_S* = {r.sigma_S_star[0]:8.4f}  U_L = {r.learner_utility:9.3f}")


if __name__ == "__main__":
    main()
