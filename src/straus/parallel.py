"""Order-preserving map with optional process workers.

stats and verify map blocks of primes; results merge by input order, so the
output is byte-identical regardless of worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import accumulate
from multiprocessing import get_context
from time import perf_counter
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# What a 2-worker fork pool adds to a sweep on top of its halved work: 0.11 s
# for conj1 to 10^5 and conj5-pattern to 1.7 * 10^5 (2-vCPU box, Python 3.11).
_POOL_START_S = 0.1

# blocks cuts a sweep's primes into pmap items, each one kernel call.  There
# are at least ceil(n / _BLOCK_CAP) of them, so a block weighed by count holds
# at most _BLOCK_CAP primes.  That bounds memory: verify keeps a tuple per
# prime of a block, and one whole-range block raised `verify conj1 --to 10^7
# --workers 1` from 66 to 179 MiB peak RSS.  Each kernel call pays its rounds'
# numpy overhead, so small blocks cost more: in verify's window kernel, below
# 10^6 and in [9 * 10^6, 10^7], blocks of 512 to 4096 primes took the same
# time, 256 1.3-1.7 times and 128 about twice as long (2-vCPU box, Python
# 3.11, best of five).  At N > 1 workers there are at least
# BLOCKS_PER_WORKER * N blocks, so that pmap has items to fork and its sample
# of every (8 * workers)-th item times two of them.
_BLOCK_CAP = 1 << 12
BLOCKS_PER_WORKER = 16


def default_workers() -> int:
    """The available parallelism: --workers' default."""
    return os.cpu_count() or 1


def pmap(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """list(map(fn, items)), forked across workers only when they would save
    more than a pool costs.

    A timed sample of every (8 * workers)-th item runs here first, and the
    rest is projected at its pace: the workers save the time of every item
    but the busiest worker's share.  The sample is strided over the whole
    list, not its head, so that it sees the whole range even where a
    sweep's blocks of ascending primes differ in cost.  The item before
    the sample runs before it, untimed: a first call's one-time cost,
    numpy's import, recurs neither here nor in workers forked after it.
    """
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    stride = min(8 * workers, len(items))
    timed = range(stride // 2, len(items), stride)
    done = {stride // 2 - 1: fn(items[stride // 2 - 1])}
    start = perf_counter()
    done.update((i, fn(items[i])) for i in timed)
    rest = [i for i in range(len(items)) if i not in done]
    item_s = (perf_counter() - start) / len(timed)
    if item_s * (len(rest) - -(-len(rest) // workers)) > _POOL_START_S:
        # Pool.map, not a nested pmap, which perfbench's pmap wrapper would time twice
        with get_context("fork").Pool(workers) as pool:
            mapped = pool.map(fn, [items[i] for i in rest],
                              chunksize=max(1, len(rest) // (workers * 8)))
    else:
        mapped = [fn(items[i]) for i in rest]
    done.update(zip(rest, mapped))
    return [done[i] for i in range(len(items))]


def blocks(primes: Sequence[int], workers: int,
           weights: Sequence[int] | None = None) -> list[Sequence[int]]:
    """The primes, in order, as pmap items: max(ceil(n / _BLOCK_CAP),
    BLOCKS_PER_WORKER * workers if workers > 1 else 1) blocks of about equal
    weight, or fewer where a prime outweighs a block's share.  No block is
    empty and no prime is split.

    A prime weighs 1 by default: verify's window kernel takes about the same
    per prime at any p (0.5-0.7 us per prime in blocks of 4096 near 10^5,
    10^6 and 9 * 10^6).  stats passes the primes themselves, since a prime's
    columns and rows grow about in proportion to p.  Equal blocks let pmap's
    strided sample time its items fairly and keep a worker's last chunk from
    holding the costliest primes.
    """
    n = len(primes)
    if not n:
        return []
    count = max(-(-n // _BLOCK_CAP), BLOCKS_PER_WORKER * workers if workers > 1 else 1)
    total = range(1, n + 1) if weights is None else list(accumulate(weights))
    ends = {bisect_left(total, -(-k * total[-1] // count)) + 1 for k in range(1, count)}
    cuts = [0, *sorted(ends | {n})]
    return [primes[a:b] for a, b in zip(cuts, cuts[1:])]
