"""Aggregate boundary-offset statistics over prime ranges.

The distribution buckets every solution of every prime in range by its
boundary offset i (x minus the floor of the y-side boundary).  Buckets 1-4
are exact; bucket 5 is the terminal row and absorbs every offset >= 5, which
is how the published distribution for primes <= 4000 tallies (its final row
aggregates the tail).  The overflow slot therefore only counts entries the
bucketing cannot place at all and stays empty by construction.

A range's summary is a map over blocks of its primes, cut by
parallel.blocks with each prime weighed by p.  A block's rows come from
enumeration._block_hits, the enumerator's one driver, which enumerate_fast
reads one prime at a time.  All of it runs over the whole block in numpy:
the divisor walks of every prime, in one pass; the listed columns x-major,
in rounds that factor each distinct x once and test every (prime, divisor)
pair of the round in int64; then the progression columns of all the
block's primes, in calls that span primes.  The hits come as (p, x, D)
int64 arrays, a chunk per walk, round or call, and every value stays exact
in int64 up to enumeration.FAST_LIMIT (x**2 < 6.3 * 10**12 in the listed
columns, u**2 < 6.1 * 10**15 in the walks).  The chunks are joined or cut
into slices of at most _SLICE hits.  Each slice is checked by one exact
certificate over the arrays (enumeration._certify), then bucketed in int64
and counted with one np.bincount, unsorted, since a bucket count does not
depend on the order of the rows.  A range costs about the sum of its
primes' costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .enumeration import FAST_LIMIT, _block_hits, _offsets, _require_certified
from .parallel import blocks, pmap
from .sieve import PrimeRange, primes_in
from .sink import write_to

BUCKETS = (1, 2, 3, 4, 5)
OVERFLOW = "overflow"


def _work(lo: int, hi: int) -> float:
    """About the sum of the primes in [lo, hi]: a prime costs about p."""
    return (hi * hi - lo * lo) / (2 * log(hi))


# A range within FAST_LIMIT can still run for long: [2, 10**5] takes 6.2-6.3 s
# and [2, 200000] 25 s on one worker (two fresh processes each, 2-vCPU box),
# so [2, 10**6] would take about 9 min.  Ranges costing more than
# [2, 200000] are refused; a narrow range at the top still runs:
# [9999900, 10**7], 9 primes, takes 1.8-1.9 s on one worker.
_WORK_BOUND = _work(2, 200_000)


@dataclass(frozen=True)
class PerPrimeProportion:
    """Solution count and type-II count for one prime."""

    p: int
    n_solutions: int
    n_type_ii: int

    def __post_init__(self) -> None:
        if self.n_solutions < 1:
            raise ValueError(
                f"p = {self.p} has no solutions, which would falsify solvability"
            )
        if not 0 <= self.n_type_ii <= self.n_solutions:
            raise ValueError(f"bad type-II count for p = {self.p}")

    @property
    def proportion_ii(self) -> float:
        return self.n_type_ii / self.n_solutions


@dataclass(frozen=True)
class DistTable:
    """Offset-bucket counts over a prime range; proportions always derived."""

    prime_range: PrimeRange
    counts: dict[int, int]
    overflow: int
    total: int

    def __post_init__(self) -> None:
        if sorted(self.counts) != list(BUCKETS):
            raise ValueError(f"expected buckets {BUCKETS}, got {sorted(self.counts)}")
        if self.total != sum(self.counts.values()) + self.overflow:
            raise ValueError("bucket counts do not sum to total")

    def proportion(self, i: int) -> float:
        return self.counts[i] / self.total


# _block_buckets certifies and buckets a block's hits in slices of this many,
# so that their int64 temporaries stay small: the first listed round of a
# block of small primes holds a quarter million hits, which in one piece
# raised a block's traced peak memory from 25 to 49 MiB.
_SLICE = 1 << 13


def _slices(chunks: Iterable[tuple]) -> Iterator[tuple]:
    """The (p, x, D) int64 chunks as slices of at most _SLICE hits: a run of
    chunks is joined until it holds _SLICE hits, then cut.  Near FAST_LIMIT
    a block's progression calls yield thousands of chunks of a few hits
    each, and a numpy call on each of them would cost more than its work."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    held, size = [], 0
    for chunk in chunks:
        held.append(chunk)
        size += chunk[0].size
        if size >= _SLICE:
            joined = held[0] if len(held) == 1 else tuple(map(np.concatenate, zip(*held)))
            for a in range(0, size, _SLICE):
                yield tuple(v[a : a + _SLICE] for v in joined)
            held, size = [], 0
    if held:
        yield tuple(map(np.concatenate, zip(*held)))


def _block_buckets(primes: Sequence[int]) -> list[tuple[int, ...]]:
    """The solution counts of each prime of the block (ascending primes, a
    slice of primes_in) per offset bucket, in the order of `primes`; top
    level so range_summary can fork it.

    Each slice of _block_hits' hits is certified (a ValueError names the
    first hit that fails enumeration._certify) and bucketed in int64, as
    min(offset_x, 5) (enumeration._offsets, which solve's type labels
    read as well).  One np.bincount per slice counts its (prime, bucket)
    cells.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    ps = np.array(primes, dtype=np.int64)
    tally = np.zeros(ps.size * len(BUCKETS), dtype=np.int64)
    for p, x, d in _slices(_block_hits(primes)):
        _require_certified(p, x, d)
        bucket = np.minimum(_offsets(p, x, d)[0], 5)
        tally += np.bincount(ps.searchsorted(p) * len(BUCKETS) + bucket - 1,
                             minlength=tally.size)
    return [tuple(row) for row in tally.reshape(-1, len(BUCKETS)).tolist()]


def range_summary(
    r: PrimeRange, workers: int = 1
) -> tuple[DistTable, list[PerPrimeProportion]]:
    """Distribution table and per-prime series from a single sweep; a range
    ending above enumeration.FAST_LIMIT, or costing more than [2, 200000],
    is refused before sieving."""
    r.require_within(FAST_LIMIT, "stats")
    work = _work(r.lo, r.hi)
    if work > _WORK_BOUND:
        raise ValueError(
            f"range [{r.lo}, {r.hi}] costs about {work / _WORK_BOUND:.1f}x "
            "the stats work bound, the cost of [2, 200000]; split it into "
            "narrower ranges"
        )
    primes = primes_in(r)
    per_prime = [b for block in pmap(_block_buckets, blocks(primes, workers, primes), workers)
                 for b in block]
    counts = {i: sum(b[i - 1] for b in per_prime) for i in BUCKETS}
    series = [PerPrimeProportion(p, sum(b), sum(b[1:])) for p, b in zip(primes, per_prime)]
    table = DistTable(r, counts, overflow=0, total=sum(counts.values()))
    return table, series


def distribution(r: PrimeRange, workers: int = 1) -> DistTable:
    """Bucket every solution of every prime in r by boundary offset."""
    return range_summary(r, workers)[0]


def typeII_series(r: PrimeRange, workers: int = 1) -> list[PerPrimeProportion]:
    """One record per prime in r, ascending."""
    return range_summary(r, workers)[1]


def emit_csv(obj: DistTable | list[PerPrimeProportion], dest: str | Path | IO[str]) -> None:
    """Write a distribution table (`i,count,proportion`) or a per-prime series
    (`p,n_solutions,n_typeII,proportion_II`) as CSV."""
    if isinstance(obj, DistTable):
        lines = ["i,count,proportion"]
        if obj.total > 0:
            for i in BUCKETS:
                lines.append(f"{i},{obj.counts[i]},{obj.proportion(i):.4f}")
            lines.append(f"{OVERFLOW},{obj.overflow},{obj.overflow / obj.total:.4f}")
    else:
        lines = ["p,n_solutions,n_typeII,proportion_II"]
        for row in obj:
            lines.append(
                f"{row.p},{row.n_solutions},{row.n_type_ii},{row.proportion_ii:.4f}"
            )
    text = "\n".join(lines) + "\n"
    write_to(dest, text)


def emit_gnuplot(table: DistTable, dest: str | Path | IO[str]) -> None:
    """Two-column `i proportion` variant for line plots."""
    lines = [f"{i} {table.proportion(i):.4f}" for i in BUCKETS] if table.total else []
    text = "\n".join(lines) + ("\n" if lines else "")
    write_to(dest, text)
