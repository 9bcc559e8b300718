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
block's primes, in calls that span primes.  Every value stays exact in
int64 up to enumeration.FAST_LIMIT (x**2 < 6.3 * 10**12 in the
listed columns, u**2 < 6.1 * 10**15 in the walks).  Each row is checked
(enumeration._row) and tallied in one flat loop, unsorted, since a bucket
count does not depend on the order of the rows.  A range costs about the
sum of its primes' costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from pathlib import Path
from typing import IO, Sequence

from .core import offset_x
from .enumeration import FAST_LIMIT, _block_hits, _row
from .parallel import blocks, pmap
from .sieve import PrimeRange, primes_in
from .sink import write_to

BUCKETS = (1, 2, 3, 4, 5)
OVERFLOW = "overflow"


def _work(lo: int, hi: int) -> float:
    """About the sum of the primes in [lo, hi]: a prime costs about p."""
    return (hi * hi - lo * lo) / (2 * log(hi))


# A range within FAST_LIMIT can still run for long: [2, 10**5] takes 11-14 s
# and [2, 200000] 45 s on one worker (fresh process, 2-vCPU box), so
# [2, 10**6] would take about 17 min.  Ranges costing more than [2, 200000]
# are refused; a narrow range at the top still runs: [9999900, 10**7],
# 9 primes, takes 2.3-2.4 s on one worker.
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


def _block_buckets(primes: Sequence[int]) -> list[tuple[int, ...]]:
    """The solution counts of each prime of the block per offset bucket, in
    the order of `primes`; top level so range_summary can fork it."""
    tally = {p: [0] * len(BUCKETS) for p in primes}
    for p, x, d in _block_hits(primes):
        _x, y, _z = _row(p, x, d)
        tally[p][min(offset_x(p, x, y), 5) - 1] += 1
    return [tuple(buckets) for buckets in tally.values()]


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
            "the stats work bound, the cost of [2, 200000] (about 45 s on one "
            "worker); split it into narrower ranges"
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
