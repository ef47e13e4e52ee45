"""Utility panels over sigma_L grids: the array kernels of the sweep and
the brute-force oracle.

solver imports no numpy.  solver.sweep and solver.brute_force_equilibrium
import this module in their bodies, so a solve and the per-user queries,
which run in plain floats, never load it.  _best_responses is
solver._response over arrays, the same floats, and _utility_panel scores
sigma_L values as game.learner_utility and user_utility do, bit for bit.
Like solver's kernels, these trust sigma_L to be finite and >= 0 once
solver._admissible has passed the game.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import GridTooLargeError
from .game import GameConfig
from .solver import _NORMAL

# cells evaluated at once, 64 KB a float array: the oracle's own-noise
# cells (rows by N users in its row stage, by blocks or levels in its block
# stage), so its worst case, no block pruned, peaks at a few MB at any grid
# the budget allows (larger chunks raised the oracle suite's peak RSS)
_CHUNK_CELLS = 2**13
# cap on a sweep's grid points, _SWEEP_MAX_CELLS // (8N + 13): 10^6 points
# at N = 1; the default sweep has 1,001.  A point holds 7N + 2 floats in
# sweep's columns and, of the N + 1 strings budgeted while the CLI writes
# them, uses one: its row's head (sigma_L and the best responses, joined
# once for two files), beside its share of the grid's text, which the CLI
# keeps one string per chunk; it formats the rest a bounded chunk at a time
_SWEEP_MAX_CELLS = 21_000_000
# _user_sum's crossover in columns: warm on one 2.1 GHz Xeon vCPU, np.add.accumulate took 72 us
# against 6 for one np.add a row at (3, 4001), 4.7 against 6.4 at (8, 128), 28 against 1,585 at (4096, 2)
_ROW_SUM_WIDTH = 136


def _best_responses(sigma_L: np.ndarray, s_stars: Sequence[float], cuts: Sequence[float]) -> np.ndarray:
    """(N, M): each user's best response at each sigma_L, sqrt(s_star^2 -
    sigma_L^2) below its cut, where s_star >= sigma_L, and 0 from it on."""
    s, below = np.asarray(s_stars)[:, None], sigma_L < np.asarray(cuts)[:, None]
    return np.sqrt(s * s - sigma_L * sigma_L, out=np.zeros(below.shape), where=below)


def _grid(lo: float, hi: float, step: float, max_points: int) -> np.ndarray:
    """lo + k * step for k = 0, 1, ... up to hi, then hi unless the last
    point falls short of it by no more than 4 ulps of hi, the rounding of a
    step that divides the range; a last point that rounds past hi is hi, so
    no command plays above its top.  Before any point is built:
    GridTooLargeError for more than max_points points, then ValueError for
    a step below the float spacing at hi."""
    n = math.floor(min((hi - lo) / step + 1e-9, max_points))  # the quotient may be inf
    pad = hi - (lo + n * step) > 4 * math.ulp(hi)
    if n + 1 + pad > max_points:
        raise GridTooLargeError(f"grid over [{lo}, {hi}] by {step} exceeds {max_points} points")
    if step < math.ulp(hi):
        raise ValueError(f"grid step {step} is below the float spacing at {hi}")
    return np.append(np.minimum(lo + np.arange(n + 1) * step, hi), [hi] * pad)


def _winner(leader: np.ndarray, tie_epsilon: float) -> int:
    """The first column whose leader utility is within tie_epsilon of the best."""
    return int(np.argmax(leader >= leader.max() - tie_epsilon))


def _own_noise(
    n: int, params: np.ndarray, sigma_sq: np.ndarray | float, acc: np.ndarray, priv: np.ndarray
) -> np.ndarray:
    """Each user's utility, params the rows of _user_columns (or one user's
    five values), every other user at 0, at sigma_L^2 = sigma_sq broadcast
    against own noise levels acc in the accuracy and cost terms and priv in
    the privacy term: user_utility's arithmetic, bit for bit if priv is acc."""
    gain, weight, loss, rate, cost = params
    with np.errstate(over="ignore"):
        squares = acc * acc
        accuracy = gain - weight * (sigma_sq + squares / n)
        effective = np.sqrt(sigma_sq + (squares if priv is acc else priv * priv))
        return accuracy - loss / (1.0 + rate * effective) - cost * (acc > 0)


def _user_columns(config: GameConfig) -> np.ndarray:
    """(5, N, 1): the users' gains, accuracy coefficients, privacy stakes,
    rates and costs as columns, built once per command (O(N) in Python)."""
    scale = config.n_users * config.learner.regularizer**2
    return np.array([(u.baseline_gain, u.accuracy_weight / scale, u.max_privacy_loss, u.privacy_rate,
                      u.perturbation_cost) for u in config.users]).T[:, :, None]


def _utility_panel(
    config: GameConfig, columns: np.ndarray, sigma_L: np.ndarray, responses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """U_L (M,) and each U_S (N, M) at every sigma_L, user i playing
    responses[i, k] at sigma_L[k], with _user_columns: the public utilities'
    arithmetic in the same order, the user-order sums by _user_sum, which
    adds strictly in order, so equal to them bit for bit, -inf included
    (no command reaches one: solver._admissible refuses the game first)."""
    n, lp = config.n_users, config.learner
    gain, weight, loss, rate, cost = columns
    squares = sigma_L * sigma_L
    with np.errstate(over="ignore"):
        block = responses * responses
        privacy = squares + block
        np.sqrt(privacy, out=privacy)
        privacy *= rate
        privacy += 1.0
        np.divide(loss, privacy, out=privacy)
        block /= n
        block[0] += squares
        spread = _user_sum(block).copy()
        users = np.subtract(gain, np.multiply(weight, spread, out=block), out=block)
        users -= privacy
        np.subtract(users, cost, out=users, where=responses > 0)
        total = _user_sum(privacy)
        leader = lp.baseline_gain - lp.accuracy_weight / (n * lp.regularizer**2) * spread - total / n
        leader -= lp.perturbation_cost * (sigma_L > 0)
    return leader, users


def _user_sum(rows: np.ndarray) -> np.ndarray:
    """The (N, M) rows summed in user order, spending rows: np.add.accumulate
    on a panel narrower than _ROW_SUM_WIDTH, else one np.add per row into
    rows[0].  Both add strictly in order, so they give the same floats."""
    if rows.shape[1] < _ROW_SUM_WIDTH:
        return np.add.accumulate(rows, axis=0, out=rows)[-1]
    for row in rows[1:]:
        rows[0] += row
    return rows[0]


def _best_response_table(config: GameConfig, columns: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(N, m) table of each user's best own noise level on grid at each
    sigma_L of grid, every other user at 0; ties go to the smaller one.

    Exact branch and bound.  In _own_noise every step (x*x, /N, +, sqrt,
    coef*, base -, rho*, 1 +, P /, -) is correctly rounded and monotone in
    each argument; every parameter but the gain G is >= 0 and rho, Lambda
    > 0; and the column is non-decreasing.  So on a run [a, b] of levels
    the accuracy term is highest at a, the privacy loss lowest at b and the
    flat cost lowest at a: no computed cell of the run exceeds its bound,
    _own_noise with acc = a and priv = b.  Row stage: level 0 is scored
    exactly and the rest of the (padded) column is one run; where its bound
    is at most level 0 the pick is 0, as no cell of the rest exceeds level
    0 and a tie goes to the smaller level.  The sigma_L rows are cut into
    the blocks below first, and a block settles, each row picking 0, where
    _settled_row_blocks proves the rest's bound below level 0 in all its
    rows; the other blocks' rows are tested one by one.  A user whose cost
    outweighs its privacy gain settles whole blocks; a flat row, within the
    margin, costs 2 cells a row.  Block stage, the other rows: blocks of
    k = max(2, isqrt(m)) levels (the last padded with the top level) have their first
    levels' utilities as the row's candidates, L the highest.  A block
    whose rest, its levels after the first, has a bound below L holds
    neither the maximum nor a tie with it and keeps its first level's
    utility; any other block is evaluated whole, its first level again (the
    same float), so a tie goes to the block's first maximum.  The pick is
    the first of the blocks' maxima: the same argmax as a scan of the whole
    row.  A row that rises and then, at float resolution, is level from the
    end of its first block on prunes no block: m + 2m/k cells.  m^2 * N
    cells remain the budget, evaluated _CHUNK_CELLS at a time."""
    m, n = len(grid), config.n_users
    k = max(2, math.isqrt(m))
    blocks = np.append(grid, [grid[-1]] * (-m % k)).reshape(-1, k)
    column, firsts, seconds, lasts = blocks.ravel(), blocks[:, 0], blocks[:, 1], blocks[:, -1]
    chunk = _CHUNK_CELLS // len(blocks)  # sigma_L rows bounded at once
    batch = _CHUNK_CELLS // k  # live blocks evaluated at once
    width = max(1, _CHUNK_CELLS // n)  # sigma_L rows of the row stage, all N users at once
    settled = _settled_row_blocks(n, columns, firsts * firsts, lasts * lasts, column[1], column[-1])
    tested = np.flatnonzero(np.repeat(~settled.all(axis=0), k)[:m])  # rows of blocks some user leaves open
    unsettled = np.zeros((n, m), dtype=bool)  # rows whose rest's bound exceeds level 0
    for start in range(0, len(tested), width):
        rows = tested[start : start + width]
        sigma_sq = grid[rows] * grid[rows]
        rest = _own_noise(n, columns, sigma_sq, column[1:2], column[-1:])
        unsettled[:, rows] = rest > _own_noise(n, columns, sigma_sq, column[:1], column[:1])
    picks = np.zeros((n, m), dtype=np.intp)
    for params, user_picks, open_rows in zip(columns[:, :, 0].T.tolist(), picks, unsettled):  # floats beat (1,) arrays
        rows_left = np.flatnonzero(open_rows)
        for start in range(0, len(rows_left), chunk):
            at_rows = rows_left[start : start + chunk]
            sigma_sq = (grid[at_rows] * grid[at_rows])[:, None]
            best = _own_noise(n, params, sigma_sq, firsts, firsts)
            bound = _own_noise(n, params, sigma_sq, seconds, lasts)
            rows, live = np.nonzero(bound >= best.max(axis=1, keepdims=True))
            at = np.zeros(best.shape, dtype=np.intp)
            for j in range(0, len(rows), batch):
                r, b = rows[j : j + batch], live[j : j + batch]
                cells = blocks[b]
                values = _own_noise(n, params, sigma_sq[r], cells, cells)
                best[r, b] = values.max(axis=1)
                at[r, b] = values.argmax(axis=1)
            block = best.argmax(axis=1)
            user_picks[at_rows] = block * k + at[np.arange(len(block)), block]
    return column[picks]


def _settled_row_blocks(
    n: int, columns: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray, level_1: float, top: float
) -> np.ndarray:
    """(N, blocks): True where every sigma_L row of a block has the bound of
    the column's rest below level 0, s_lo and s_hi the block's first and
    last fl(sigma_L^2).  With q = fl(level_1^2) / N and T = fl(top^2), the
    floats both cells use, a row at s = fl(sigma_L^2) has, in reals, bound
    less level 0 = P/(1 + rho sqrt(s)) - P/(1 + rho sqrt(s + T)) - w q - c
    (the w s terms cancel; level_1 > 0 pays c), at most D = the same with
    s_lo in the first term and s_hi in the second.  Each cell errs by under
    9u M and fl(D) by under 16u M, u = 2^-53, M = |G| + w (s_hi + T) + P +
    c (gamma_k bounds, Higham ch. 3), plus a few subnormal roundings, each
    at most 2^-1075, or under u P where 1 + rho sqrt(.) absorbs it.  So where
    fl(D) + 2^-46 M + 2^-1022 is finite and < 0, each row's computed bound
    is below its level 0.  A non-finite value settles nothing."""
    gain, weight, loss, rate, cost = columns
    top_sq = top * top
    with np.errstate(over="ignore", invalid="ignore"):
        gap = loss / (1.0 + rate * np.sqrt(s_lo)) - loss / (1.0 + rate * np.sqrt(s_hi + top_sq))
        gap -= weight * (level_1 * level_1 / n) + cost
        gap += 2.0**-46 * (np.abs(gain) + weight * (s_hi + top_sq) + loss + cost) + _NORMAL
    return (gap < 0) & (gap > -math.inf)
