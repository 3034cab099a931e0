import numpy as np

from altiter.bench import run_bench


def test_one_decomposition_per_trial(group_inverse_calls):
    reports = run_bench(n=6, seed=0, trials=2)
    assert len(reports) == 6
    assert len(group_inverse_calls) == 2
    assert not np.array_equal(group_inverse_calls[0], group_inverse_calls[1])
