import functools
import operator

import numpy as np
import pytest

from ggff.seeds import batch_plan, run_batches


def test_batch_plan_covers_the_total_in_order():
    assert batch_plan(10, 4) == [(0, 4), (1, 4), (2, 2)]
    assert batch_plan(1, 4) == [(0, 1)]


@pytest.mark.parametrize("total, batch_size, word", [
    (0, 4, "samples or soups"), (-3, 4, "samples or soups"),
    (10, 0, "batch size"), (10, -1, "batch size")])
def test_batch_plan_rejects_counts_below_one(total, batch_size, word):
    with pytest.raises(ValueError, match=word):
        batch_plan(total, batch_size)


@pytest.mark.parametrize("kind", ["int", "float", "array"])
def test_run_batches_adds_the_results_in_plan_order(kind):
    """Float addition is not associative, so only the plan order from 0
    gives these bits; threads must not change them."""
    values = [1e16, 1.0, -1e16, 1.0, 0.1, 3.0, -0.7]

    def worker(i, n):
        if kind == "int":
            return i * n
        x = values[i] * n
        return x if kind == "float" else np.array([x, -x / 3, float(n)])

    plan = batch_plan(7 * 5 - 2, 5)
    expected = functools.reduce(operator.add, (worker(i, n) for i, n in plan), 0)
    for threads in (1, 3):
        total = run_batches(plan, worker, threads)
        assert type(total) is type(expected)
        assert np.asarray(total).tobytes() == np.asarray(expected).tobytes()
