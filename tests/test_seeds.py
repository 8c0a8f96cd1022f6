import functools
import operator

import numpy as np
import pytest

from ggff.seeds import batch_plan, run_batches, substream, substreams


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


def soup_draws(rng) -> bytes:
    """A stream's first draws, in the loop-soup sampler's order, then a
    32-bit draw, whose buffered half the next stream must not inherit."""
    return b"".join(np.asarray(x).tobytes() for x in (
        rng.standard_exponential(), rng.logseries(0.3), rng.random(32),
        rng.standard_gamma(0.5, 3), rng.standard_normal(6), rng.random(dtype=np.float32)))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70])
def test_substreams_equal_each_substream(seed):
    """The batched streams are substream(seed, i, s) for s = 0..n-1, bit for
    bit: equal PCG64 states, then equal draws, also for seeds and batch
    indices of two and three 32-bit words."""
    for i in (0, 5, 2**32 + 1):
        for n in (1, 2, 256, 1000):
            streams = [(rng.bit_generator.state, soup_draws(rng))
                       for rng in substreams(seed, i, n)]
            assert streams == [(ref.bit_generator.state, soup_draws(ref))
                               for ref in (substream(seed, i, s) for s in range(n))]


@pytest.mark.parametrize("seed, i", [(-1, 0), (0, -1)])
def test_substreams_reject_negative_entropy(seed, i):
    with pytest.raises(ValueError):
        substream(seed, i, 0)
    with pytest.raises(ValueError):
        list(substreams(seed, i, 4))
