import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from obfusgame import validate
from obfusgame.validate import _spearman, run_chi2_suite, run_lemma_suite, run_scaling_suite, run_suite

# Every CSV value of validate lemma1/lemma2 (5 trials), chi2 (50,000 samples)
# and scaling (2 trials a point) at seeds 0, 1000 and 2000, in full precision
_ERM_REFERENCE = json.loads((Path(__file__).parent / "data" / "erm_suites_reference.json").read_text())


@pytest.mark.parametrize("seed", range(20))
def test_spearman_matches_scipy(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(8, 60))
    untied = (rng.standard_normal(n), rng.standard_normal(n))
    tied = (rng.integers(0, 4, n).astype(float), rng.integers(0, 6, n).astype(float))
    for x, y in (untied, tied, (untied[0], tied[1])):
        np.testing.assert_allclose(
            _spearman(x, y), stats.spearmanr(x, y).statistic, rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize("key", sorted(_ERM_REFERENCE))
def test_erm_suite_values_pinned(key):
    """Relative, not bitwise: SIMD exp and log1p may round differently on
    another CPU."""
    expected = _ERM_REFERENCE[key]
    suite, seed = key.split("/")
    result = run_suite(suite, trials=expected["trials"], base_seed=int(seed))
    assert result.passed == expected["passed"]
    assert [list(row) for row in result.rows] == [expected["columns"]] * len(result.rows)
    assert len(result.rows) == len(expected["rows"])
    for row, values in zip(result.rows, expected["rows"]):
        for column, value in zip(expected["columns"], values):
            got = row[column]
            assert type(got) is type(value), (column, got, value)
            assert math.isclose(got, value, rel_tol=1e-12, abs_tol=0.0), (key, column, got, value)


def _traced_peak(run) -> int:
    np.random.PCG64(0)  # numpy.random is imported on first use; keep that out of the peak
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scaling_suite_memory_is_bounded():
    """The 100k-row f* training sets the peak, about 9.9 MiB: the set
    (4.6 MiB with its labels) and seven more values a row at the Hessian's
    gemm.  One more 100k-row set held anywhere (3.8 MiB) exceeds 11 MiB."""
    assert _traced_peak(lambda: run_scaling_suite(2, 0)) <= 11 * 2**20


def test_lemma_suite_memory_does_not_grow_with_trials():
    """The trials train in stacks of at most _STACK_ROWS rows, one stack's
    data held at a time: only the result rows grow with --trials."""
    one_stack = validate._STACK_ROWS * validate._ERM_D * 8
    peaks = [_traced_peak(lambda: run_lemma_suite("lemma1", trials, 0)) for trials in (100, 400)]
    assert abs(peaks[1] - peaks[0]) <= one_stack


def test_chi2_suite_holds_about_one_draw():
    """Each d's draw is scaled in place, reduced to its squared row norms
    in one einsum pass and freed before the next; the d = 10 draw alone is
    200,000 * 10 * 8 bytes."""
    assert _traced_peak(lambda: run_chi2_suite(200_000)) < 1.3 * 200_000 * 10 * 8
