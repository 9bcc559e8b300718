"""Complete solution sets, two ways.

enumerate_oracle sweeps one prime's whole (x, y) search region and is
deliberately naive; enumerate_fast reformulates each x-column as a
divisor-pair problem and finds most pairs by walking the divisors of a few
small numbers.  It is the one enumerator: solve, the claim checks and stats
all read its rows.  It must reproduce the oracle, which exists so it can be
checked against it wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import IO, Iterable, Iterator

from .core import Triple, next_boundary, require_solution
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

ORACLE_LIMIT = 10_000
# `straus solve 9999991` takes 3.0-3.7 s on one core at 38 MiB peak RSS
# (2-vCPU box, Python 3.11, numpy 2.4); the time grows like p, and the memory
# stays flat because the column pass runs in blocks of _COLUMN_BLOCK.
FAST_LIMIT = 10_000_000

# Columns per numpy call in the progression pass: at FAST_LIMIT the pass spans
# 2.4 M columns, and one int64 array over all of them would take 19 MB.
_COLUMN_BLOCK = 1 << 16

# The largest number the enumerator factors: _walked_hits walks the divisors
# of u**2 with u = (m*p + 1)/4, m <= 31, for p <= FAST_LIMIT, and the listed
# columns x <= 8p/31 lie below it.  Every n up to it has at most one prime
# factor above _TRIAL_PRIMES[-1] = 8803, so trial division factors it exactly.
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


# The (s, d0) pairs that _walked_hits' d0-type walk tries for every prime:
# s <= 16 and d0 a divisor of s**2.
_D0_PAIRS = tuple((s, d0) for s in range(1, 17) for d0 in _square_divisors(s))


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
    d of x**2 with d <= x needs d = -4x**2 (mod r): a progression in [1, x]
    that holds at most x/r <= 8 values and is empty once x > p/2 (then
    d < 2x(2x - p), so y < x); _progression_hits tests it in numpy.  The
    other two types come from divisor walks over small numbers (_walked_hits).
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
    for lo in range(last_listed + 1, p // 2 + 1, _COLUMN_BLOCK):
        hi = min(lo + _COLUMN_BLOCK, p // 2 + 1)
        columns = _progression_hits(p, lo, hi)
        for x in [x for x in walked if x < hi]:
            columns.setdefault(x, []).extend(walked.pop(x))
        for x in sorted(columns):
            yield from _column_rows(p, x, columns[x])
    for x in sorted(walked):
        yield from _column_rows(p, x, walked[x])


def _progression_hits(p: int, lo: int, hi: int) -> dict[int, list[int]]:
    """x -> the divisors d <= x of x**2 with d = -p*x (mod r), r = 4x - p,
    for the columns lo <= x < hi, where x <= 8r, so each column has at most
    8 candidates.  Every int64 value is below p*x < 5 * 10**13 at FAST_LIMIT.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    x = np.arange(lo, hi, dtype=np.int64)
    r = 4 * x - p
    d = r - p * x % r  # the least positive d = -p*x (mod r)
    xx = x * x
    hits: dict[int, list[int]] = {}
    while True:
        keep = d <= x
        x, r, d, xx = x[keep], r[keep], d[keep], xx[keep]
        if not x.size:
            return hits
        hit = xx % d == 0
        for col, dd in zip(x[hit].tolist(), d[hit].tolist()):
            hits.setdefault(col, []).append(dd)
        d += r


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
    for s, d0 in _D0_PAIRS:
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


def enumerate_fast(p: int) -> SolutionSet:
    """Divisor-pair enumeration; identical set to enumerate_oracle."""
    return SolutionSet(p, tuple(iter_solutions_fast(p)))


def write_solutions_csv(sets: Iterable[SolutionSet], dest: str | Path | IO[str]) -> None:
    """Dump solution sets as CSV rows `p,x,y,z`, ascending by (p, x, y)."""
    rows = sorted((s.p, t.x, t.y, t.z) for s in sets for t in s)
    lines = ["p,x,y,z"] + [f"{p},{x},{y},{z}" for (p, x, y, z) in rows]
    text = "\n".join(lines) + "\n"
    write_to(dest, text)
