"""Deterministic random substreams, batch execution and the mean/SE reduction.

Estimators split their work into fixed-size batches; batch i draws from the
generator derived from (master seed, i), and soup s of a loop-soup batch i
from (master seed, i, s), that is from SeedSequence([seed, i, s]).  The
loop-soup checks take a batch's soup streams from substreams, which computes
them one batch at a time, bit for bit those of substream.  The batch plan
depends only on the total count, and run_batches adds the batches' results
in batch order, so estimates are bit-identical for every worker count.
mean_se turns the sums into estimates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

DEFAULT_BATCH = 4096

T = TypeVar("T")

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), its
# pool of four 32-bit words, and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def substream(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an entropy integer: 32-bit words, low first."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: xor with the running constant,
    step it (times mult, mod 2^32), multiply by it, fold the high half down."""
    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> 16


def substreams(seed: int, i: int, n: int) -> Iterator[np.random.Generator]:
    """substream(seed, i, s) for s = 0..n-1, bit for bit, as one Generator
    that is re-seeded in place for each s: take a stream's draws before the
    next.  SeedSequence([seed, i, s]) mixes its pool and generates its four
    64-bit words in uint32 arithmetic on arrays over s, and PCG64 seeds each
    stream from them in Python ints (pcg64_set_seed, then srandom), so the
    batch pays no SeedSequence, bit generator or Generator per stream."""
    entropy = [np.full(n, w, np.uint32) for w in _words(int(seed)) + _words(int(i))]
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(n, np.uint32))
            for k in range(_POOL_SIZE)]
    for a in range(_POOL_SIZE):
        for b in range(_POOL_SIZE):
            if a != b:
                pool[b] = _mix(pool[b], hashmix(pool[a]))
    for word in entropy[_POOL_SIZE:]:
        for b in range(_POOL_SIZE):
            pool[b] = _mix(pool[b], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)  # generate_state(4, np.uint64): 8 words, low half first
    state = np.stack([out(pool[k % _POOL_SIZE]) for k in range(8)], axis=1)
    rng = np.random.default_rng(0)
    for s0, s1, q0, q1 in state.astype("<u4").view("<u8").tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128,
                      "inc": inc}}
        yield rng


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
