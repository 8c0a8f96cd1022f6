"""Deterministic random substreams, batch execution and the mean/SE reduction.

Estimators split their work into fixed-size batches; batch i draws from the
generator derived from (master seed, i), and soup s of a loop-soup batch i
from (master seed, i, s).  The batch plan depends only on the total count,
and run_batches adds the batches' results in batch order, so estimates are
bit-identical for every worker count.  mean_se turns the sums into estimates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

DEFAULT_BATCH = 4096

T = TypeVar("T")


def substream(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def batch_plan(total: int, batch_size: int = DEFAULT_BATCH) -> list[tuple[int, int]]:
    """(batch index, batch count) pairs covering `total` samples."""
    if total < 1:
        raise ValueError(f"the number of samples or soups must be at least 1, got {total}")
    if batch_size < 1:
        raise ValueError(f"the batch size must be at least 1, got {batch_size}")
    return [(i, min(batch_size, total - done))
            for i, done in enumerate(range(0, total, batch_size))]


def run_batches(plan: Sequence[tuple[int, int]],
                worker: Callable[[int, int], T],
                threads: int = 1) -> T:
    """Run worker(batch_index, batch_count) for every batch and return the
    sum of the results, a number or one array each, added in plan order
    starting from 0."""
    if threads <= 1 or len(plan) <= 1:
        return sum(worker(i, n) for i, n in plan)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(worker, *zip(*plan)))


def mean_se(s1, s2, n: int):
    """Mean and standard error of n values from their sum and sum of squares
    (elementwise for arrays)."""
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    return mean, np.sqrt(var / n)
