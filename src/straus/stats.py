"""Aggregate boundary-offset statistics over prime ranges.

The distribution buckets every solution of every prime in range by its
boundary offset i (x minus the floor of the y-side boundary).  Buckets 1-4
are exact; bucket 5 is the terminal row and absorbs every offset >= 5, which
is how the published distribution for primes <= 4000 tallies (its final row
aggregates the tail).  The overflow slot therefore only counts entries the
bucketing cannot place at all and stays empty by construction.

A range's summary is a map over its primes: each prime's bucket counts come
from the per-prime enumerator, so a range costs the sum of its primes' costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from pathlib import Path
from typing import IO

from .core import offset_x
from .enumeration import _solution_rows
from .parallel import pmap
from .sieve import PrimeRange, primes_in
from .sink import write_to

BUCKETS = (1, 2, 3, 4, 5)
OVERFLOW = "overflow"

# Desk-scale ceiling, like sweep's; it lies inside enumeration.FAST_LIMIT.
# [999900, 10**6] takes 1.4-1.6 s on one worker (2-vCPU box).
STATS_CEILING = 1_000_000


def _work(lo: int, hi: int) -> float:
    """About the sum of the primes in [lo, hi]: a prime costs about p."""
    return (hi * hi - lo * lo) / (2 * log(hi))


# A range below the ceiling can still run for hours: [2, 10**5] takes 77-85 s
# on one worker (2-vCPU box), so [2, 10**6] would take about 2 h.  Ranges
# costing more than [2, 200000], about 5 min on one worker, are refused.
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


def _prime_buckets(p: int) -> tuple[int, ...]:
    """The solution counts of p per offset bucket."""
    buckets = [0] * len(BUCKETS)
    for x, y, _z in _solution_rows(p):
        buckets[min(offset_x(p, x, y), 5) - 1] += 1
    return tuple(buckets)


def range_summary(
    r: PrimeRange, workers: int = 1
) -> tuple[DistTable, list[PerPrimeProportion]]:
    """Distribution table and per-prime series from a single sweep; a range
    ending above STATS_CEILING, or costing more than [2, 200000], is refused
    before sieving."""
    r.require_within(STATS_CEILING, "stats")
    work = _work(r.lo, r.hi)
    if work > _WORK_BOUND:
        raise ValueError(
            f"range [{r.lo}, {r.hi}] costs about {work / _WORK_BOUND:.1f}x "
            "the stats work bound, the cost of [2, 200000] (about 5 min on one "
            "worker); split it into narrower ranges"
        )
    primes = primes_in(r)
    per_prime = pmap(_prime_buckets, primes, workers)
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
