"""Complete solution sets, three ways.

enumerate_oracle sweeps one prime's whole (x, y) search region and is
deliberately naive; enumerate_fast reformulates each x-column as a
divisor-pair problem and finds most pairs by walking the divisors of a few
small numbers, and iter_range_solutions runs the columns over a whole list of
primes for stats.  Both must reproduce the oracle, which exists so they can be
checked against it wholesale.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .core import Triple, next_boundary, require_solution
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

ORACLE_LIMIT = 10_000
# `straus solve 9999991` takes 2.5 s on one core at 20 MiB peak RSS (2-vCPU
# box, Python 3.11); the time grows like p, the memory stays flat.
FAST_LIMIT = 10_000_000

_BLOCK_CELLS = 1 << 18  # most (prime, divisor) pairs per numpy call

# The largest number either enumerator factors: iter_solutions_fast walks the
# divisors of u**2 with u = (m*p + 1)/4, m <= 31, for p <= FAST_LIMIT (and
# lists them for columns x <= 8p/31), and the stats kernel lists them for
# x <= 3 * STATS_CEILING / 4.  Every n up to it has at most one prime factor
# above _TRIAL_PRIMES[-1] = 8803, so trial division factors it exactly.
_FACTOR_LIMIT = (31 * FAST_LIMIT + 1) // 4
_TRIAL_PRIMES = tuple(primes_in(PrimeRange(2, isqrt(_FACTOR_LIMIT))))


def _square_divisors(x: int) -> tuple[int, ...]:
    """All divisors of x**2, from the factorization of x (unsorted)."""
    if x > _FACTOR_LIMIT:
        raise ValueError(f"{x} exceeds the factoring bound {_FACTOR_LIMIT}")
    factors = []
    n = x
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
    if n > 1:
        factors.append((n, 1))
    divs = [1]
    for q, e in factors:
        qk = [q**k for k in range(1, 2 * e + 1)]
        divs += [d * f for d in divs for f in qk]
    return tuple(divs)


@dataclass(frozen=True)
class SolutionSet:
    """All solutions for one prime, strictly ordered by (x, y)."""

    p: int
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        prev = None
        for t in self.triples:
            if t.p != self.p:
                raise ValueError(f"triple for p = {t.p} in set for p = {self.p}")
            key = (t.x, t.y)
            if prev is not None and key <= prev:
                raise ValueError(f"triples not in strict (x, y) order at {key}")
            prev = key

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def as_tuples(self) -> list[tuple[int, int, int]]:
        return [t.as_tuple() for t in self.triples]

    def pairs(self) -> set[tuple[int, int]]:
        """The (x, y) cells occupied by solutions."""
        return {(t.x, t.y) for t in self.triples}


def enumerate_oracle(p: int) -> SolutionSet:
    """Exhaustive reference enumeration over the full search region.

    For each x in (p/4, 3p/4], y runs from the first integer above the
    boundary while y <= z still holds (y*(4x-p) <= 2px); a cell is a solution
    iff D = 4xy - p(x+y) divides pxy, giving z = pxy/D.
    """
    require_prime(p)
    if p > ORACLE_LIMIT:
        raise ValueError(
            f"p = {p} exceeds the oracle limit {ORACLE_LIMIT}; use enumerate_fast"
        )
    triples = []
    for x in range(p // 4 + 1, (3 * p) // 4 + 1):
        r = 4 * x - p
        top = 2 * p * x
        y = max(x, next_boundary(p, x))
        while y * r <= top:
            d = 4 * x * y - p * (x + y)
            assert d > 0, "y starts strictly above the boundary"
            pxy = p * x * y
            if pxy % d == 0:
                z = pxy // d
                assert z >= y
                triples.append(Triple(p, x, y, z))
            y += 1
    return SolutionSet(p, tuple(triples))


def iter_solutions_fast(p: int) -> Iterator[Triple]:
    """Yield all solutions for p in (x, y) lexicographic order, as Triples."""
    require_prime(p)  # first, so p past _MR_LIMIT is told so, not the ceiling
    for x, y, z in _solution_rows(p):
        yield Triple(p, x, y, z)


def _solution_rows(p: int) -> Iterator[tuple[int, int, int]]:
    """The solutions for the prime p as (x, y, z) ints in (x, y) order.

    Each row is checked with require_solution; x <= y <= z and the window
    p/4 < x <= 3p/4 hold by construction.

    Per x-column 1/y + 1/z = r/N with r = 4x - p and N = px, so solutions
    correspond to divisor pairs d*e = N**2 with d <= N and r | (N + d),
    via y = (N+d)/r, z = (N+e)/r.  Divisors of N**2 = p**2 * x**2 that are
    <= N are exactly the divisors of x**2 (all below N since x < p) plus
    p*d0 for divisors d0 of x**2 with d0 <= x.  The first columns, x > 8r,
    list the divisors of x**2.

    In the other columns r is coprime to N and p = 4x (mod r), so a divisor
    d of x**2 with d <= x needs d = -4x**2 (mod r): a progression in [1, x],
    tested per column, that holds at most x/r <= 8 values and is empty once
    x > p/2 (then d < 2x(2x - p), so y < x).  The other two types come
    from divisor walks over small numbers (_walked_hits).
    """
    if p > FAST_LIMIT:
        raise ValueError(f"p = {p} exceeds the enumeration ceiling {FAST_LIMIT}")
    last_listed = 1 if p == 2 else (8 * p - 1) // 31  # last x with x > 8(4x - p)
    for x in range(p // 4 + 1, last_listed + 1):  # x <= p/2, so every d gives y >= x
        r = 4 * x - p
        n = p * x
        hits = []
        for d in _square_divisors(x):
            if (n + d) % r == 0:
                hits.append(d)
            if d <= x and (n + p * d) % r == 0:
                hits.append(p * d)
        if hits:
            yield from _column_rows(p, x, hits)
    walked = _walked_hits(p, last_listed)
    for x in range(last_listed + 1, p // 2 + 1):
        r = 4 * x - p
        xx = x * x
        hits = [d for d in range(-p * x % r or r, x + 1, r) if xx % d == 0]
        if x in walked:
            hits += walked.pop(x)
        if hits:
            yield from _column_rows(p, x, hits)
    for x in sorted(walked):
        yield from _column_rows(p, x, walked[x])


def _walked_hits(p: int, last_listed: int) -> dict[int, list[int]]:
    """x -> the divisors d > x of x**2 and the p*d0 that give solutions in
    the columns x > last_listed, where x <= 8r with r = 4x - p.

    e-type: d = x**2/e with e < x and 4e = -1 (mod r).  Then 4e = m*r - 1
    with m = -p (mod 4), so e = m*x - u with u = (m*p + 1)/4; e is coprime
    to m (4u - m*p = 1), hence e | x**2 iff e | u**2.  e < x needs
    4(m - 1)x < 4u, so only the few m allowed at x = last_listed + 1 occur
    (m <= 31 for every p; only m = 1 once x > p/2).  Walking the divisors
    e of u**2 gives x = (u + e)/m; y >= x still needs d >= 2x(2x - p).

    d0-type (x <= p/2): d0 = s*r - x with s <= 2x/r <= 16, so
    d0 = (4s - 1)x - s*p, and since r is coprime to x, d0 | x**2 iff
    d0 | s**2.  Walking the divisors d0 of s**2 gives x = (s*p + d0)/(4s - 1).
    """
    hits: dict[int, list[int]] = {}
    lo4 = 4 * (last_listed + 1)
    for m in range(-p % 4, lo4 // (lo4 - p) + 1, 4):  # (m - 1)*lo4 < m*p + 1
        u = (m * p + 1) // 4
        for e in _square_divisors(u):
            x, rest = divmod(u + e, m)
            if not rest and last_listed < x <= 3 * p // 4 and e < x:
                d = x * x // e
                if d >= 2 * x * (2 * x - p):
                    hits.setdefault(x, []).append(d)
    for s in range(1, 17):
        for d0 in _square_divisors(s):
            x, rest = divmod(s * p + d0, 4 * s - 1)
            if not rest and last_listed < x <= p // 2 and d0 <= x:
                hits.setdefault(x, []).append(p * d0)
    return hits


def _column_rows(p: int, x: int, hits: list[int]) -> Iterator[tuple[int, int, int]]:
    """Column x's rows for the divisors `hits` of (px)**2, sorted by y."""
    r = 4 * x - p
    n = p * x
    n2 = n * n
    for y, z in sorted(((n + d) // r, (n + n2 // d) // r) for d in hits):
        require_solution(p, x, y, z)
        yield x, y, z


def iter_range_solutions(
    primes: Sequence[int], x_lo: int = 1, x_hi: int | None = None
) -> Iterator[tuple[int, int, int, int]]:
    """Yield the rows (p, x, y, z) with x in [x_lo, x_hi] of every prime in
    the ascending list `primes`, ordered by (x, p, y).

    iter_solutions_fast with its loops swapped: the divisors of x**2 are
    formed once per x-column and tested against all the column's primes
    (p/4 < x <= 3p/4).  Since p = 4x (mod r), the tests r | px + d and
    r | px + dp read r | 4x**2 + d and r | 4x(x + d), whose left sides do not
    depend on p and stay at most 8 * x**2, an int64 (about 4.5 * 10**12 at
    stats' ceiling).  numpy runs them as one vector operation per block of at
    most _BLOCK_CELLS (prime, test) cells.  Each hit is checked with
    require_solution; y >= x (the filter on d), z >= y (d <= px) and the
    window (the column's prime slice) hold by construction.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    if x_hi is None:
        x_hi = 3 * primes[-1] // 4 if primes else 0
    ps = np.array(primes, dtype=np.int64)
    for x in range(x_lo, x_hi + 1):
        first = bisect_left(primes, (4 * x + 2) // 3)  # p >= 4x/3
        stop = bisect_left(primes, 4 * x, first)  # p < 4x
        if first == stop:
            continue
        divs = _square_divisors(x)
        small = [d for d in divs if d <= x]
        tests = np.array([4 * x * x + d for d in divs] + [4 * x * (x + d) for d in small],
                         dtype=np.int64)
        width = len(tests)
        cols = []
        step = max(1, _BLOCK_CELLS // width)
        for lo in range(first, stop, step):
            hi = min(lo + step, stop)
            hits = np.flatnonzero(tests % (4 * x - ps[lo:hi, None]) == 0).tolist()
            for k in hits:
                i, j = divmod(k, width)
                p = primes[lo + i]
                d = divs[j] if j < len(divs) else p * small[j - len(divs)]
                if d >= 2 * x * (2 * x - p):  # y >= x
                    n, q = p * x, 4 * x - p
                    cols.append((p, (n + d) // q, (n + n * n // d) // q))
        for p, y, z in sorted(cols):
            require_solution(p, x, y, z)
            yield p, x, y, z


def enumerate_fast(p: int) -> SolutionSet:
    """Divisor-pair enumeration; identical set to enumerate_oracle."""
    return SolutionSet(p, tuple(iter_solutions_fast(p)))


def write_solutions_csv(sets: Iterable[SolutionSet], dest: str | Path | IO[str]) -> None:
    """Dump solution sets as CSV rows `p,x,y,z`, ascending by (p, x, y)."""
    rows = sorted((s.p, t.x, t.y, t.z) for s in sets for t in s)
    lines = ["p,x,y,z"] + [f"{p},{x},{y},{z}" for (p, x, y, z) in rows]
    text = "\n".join(lines) + "\n"
    write_to(dest, text)
