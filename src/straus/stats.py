"""Aggregate boundary-offset statistics over prime ranges.

The distribution buckets every solution of every prime in range by its
boundary offset i (x minus the floor of the y-side boundary).  Buckets 1-4
are exact; bucket 5 is the terminal row and absorbs every offset >= 5, which
is how the published distribution for primes <= 4000 tallies (its final row
aggregates the tail).  The overflow slot therefore only counts entries the
bucketing cannot place at all and stays empty by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO

from .core import offset_x
from .enumeration import iter_range_solutions
from .parallel import pmap
from .sieve import PrimeRange, primes_in
from .sink import write_to

BUCKETS = (1, 2, 3, 4, 5)
OVERFLOW = "overflow"

# Desk-scale ceiling, like sweep's: time grows about as hi**1.7 from 2, yet
# [999900, 10**6] takes 24-29 s at 35 MiB peak RSS on one worker (2-vCPU
# box).  Its columns, x <= 3 * STATS_CEILING / 4, stay inside the bound that
# enumeration._square_divisors factors exactly.
STATS_CEILING = 1_000_000


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


def _summarize_x_block(primes: list[int], block: tuple[int, int]) -> Counter:
    """Solution counts keyed by (p, bucket) for the x-columns in block."""
    return Counter(
        (p, min(offset_x(p, x, y), 5))
        for p, x, y, _z in iter_range_solutions(primes, *block)
    )


# Columns per block, the same at every worker count: pmap forks only from
# eight blocks (x_max > 1400, a range reaching p = 1871), below which a pool
# costs more than it saves.  Small blocks keep any one from holding up the
# pool, since a column's cost is no simple function of x.
_BLOCK_COLUMNS = 200


def _x_blocks(x_max: int) -> list[tuple[int, int]]:
    """[1, x_max] cut into blocks of _BLOCK_COLUMNS columns, the last shorter."""
    starts = range(1, x_max + 1, _BLOCK_COLUMNS)
    return [(lo, min(lo + _BLOCK_COLUMNS - 1, x_max)) for lo in starts]


def range_summary(
    r: PrimeRange, workers: int = 1
) -> tuple[DistTable, list[PerPrimeProportion]]:
    """Distribution table and per-prime series from a single sweep; a range
    ending above STATS_CEILING is refused before sieving."""
    r.require_within(STATS_CEILING, "stats")
    primes = primes_in(r)
    x_max = 3 * primes[-1] // 4 if primes else 0
    tally = Counter()
    for block in pmap(partial(_summarize_x_block, primes), _x_blocks(x_max), workers):
        tally.update(block)
    counts = dict.fromkeys(BUCKETS, 0)
    for (_, i), c in tally.items():
        counts[i] += c
    series = []
    for p in primes:
        buckets = [tally[p, i] for i in BUCKETS]
        series.append(PerPrimeProportion(p, sum(buckets), sum(buckets[1:])))
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
