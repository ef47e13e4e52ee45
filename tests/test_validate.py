import numpy as np
import pytest
from scipy import stats

from obfusgame.validate import _spearman


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
