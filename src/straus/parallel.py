"""Order-preserving map with optional process workers.

Range sweeps partition per prime; results merge by input order, so the output
is byte-identical regardless of worker count.
"""

from __future__ import annotations

import os
from multiprocessing import get_context
from time import perf_counter
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# What a 2-worker fork pool adds to a sweep on top of its halved work: 0.11 s
# for conj1 to 10^5 and conj5-pattern to 1.7 * 10^5 (2-vCPU box, Python 3.11).
_POOL_START_S = 0.1


def default_workers() -> int:
    """The available parallelism: --workers' default."""
    return os.cpu_count() or 1


def pmap(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """list(map(fn, items)), forked across workers only when they would save
    more than a pool costs.

    A timed sample of every (8 * workers)-th item runs here first, and the
    rest is projected at its pace.  The sample is strided over the whole
    list, not its head, because a sweep's items are ascending primes that
    cost more as p grows.  The item before the sample runs before it,
    untimed: a first call's one-time costs, such as numpy's import or a rule
    table's validation, recur neither here nor in workers forked after it.
    """
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    stride = min(8 * workers, len(items))
    timed = range(stride // 2, len(items), stride)
    done = {stride // 2 - 1: fn(items[stride // 2 - 1])}
    start = perf_counter()
    done.update((i, fn(items[i])) for i in timed)
    rest = [i for i in range(len(items)) if i not in done]
    rest_s = (perf_counter() - start) * len(rest) / len(timed)
    if rest_s * (1 - 1 / workers) > _POOL_START_S:
        # Pool.map, not a nested pmap, which perfbench's pmap wrapper would time twice
        with get_context("fork").Pool(workers) as pool:
            mapped = pool.map(fn, [items[i] for i in rest],
                              chunksize=max(1, len(rest) // (workers * 8)))
    else:
        mapped = [fn(items[i]) for i in rest]
    done.update(zip(rest, mapped))
    return [done[i] for i in range(len(items))]
