"""Complete solution sets, two ways.

enumerate_oracle sweeps one prime's whole (x, y) search region and is
deliberately naive; enumerate_fast reformulates each x-column as a
divisor-pair problem, lists divisors only in the first columns and finds the
other pairs as residue classes mod 4x - p or by walking the divisors of a few
small numbers.  One driver, _block_hits, walks the columns of a block of
primes: stats tallies its hits unordered, and _solution_rows, behind
enumerate_fast, solve and the claim checks, reads one prime's hits in (x, y)
order.  enumerate_fast must reproduce the oracle, which exists so it can
be checked against it wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .core import Triple, next_boundary, require_solution
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

ORACLE_LIMIT = 10_000
# `straus solve 9999991` takes 0.60-0.76 s on one core at 40 MiB peak RSS
# (2-vCPU box, Python 3.11, numpy 2.4); the time grows like p, and the memory
# stays flat because the progression pass runs in blocks of _COLUMN_BLOCK
# columns and _CELL_BLOCK candidates.
FAST_LIMIT = 10_000_000

# The progression pass spans 2.4 M columns at FAST_LIMIT and lays up to 3 * 64
# candidates per column end to end.  Its progressions are set up for
# _COLUMN_BLOCK columns at a time (a few int64 arrays of up to 3 entries per
# column), and each numpy test covers at most _CELL_BLOCK candidates.
_COLUMN_BLOCK = 1 << 14
_CELL_BLOCK = 1 << 16

# The largest number the enumerator factors: _walked_hits walks the divisors
# of u**2 with u = (m*p + 1)/4, m <= 31, for p <= FAST_LIMIT, and the listed
# columns x <= 64p/255 lie below it.  Every n up to it has at most one prime
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


# The s <= 16 of _walked_hits' d0-type walk, each with the divisors d0 of s**2.
_D0_WALKS = tuple((s, _square_divisors(s)) for s in range(1, 17))


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


def _edges(p: int) -> tuple[int, int]:
    """(listed_to, band_to) for p: the last x with x > 64(4x - p), the last
    listed column, and the last x with x > 8(4x - p), the end of the band."""
    return (64 * p - 1) // 255, (8 * p - 1) // 31


def _solution_rows(p: int) -> Iterator[tuple[int, int, int]]:
    """The solutions for the prime p as (x, y, z) ints in (x, y) order: the
    hits of _block_hits([p]), each turned into its row and checked by _row.

    The listed columns' hits arrive column by column in ascending D, which
    is ascending y, and pass on as they come, so a caller that stops at a
    row there pays only for the columns up to it.  The hits past the
    listed columns come unordered: at the first of them the rest are
    collected and sorted by (x, D).
    """
    hits = _block_hits([p])
    listed_to = _edges(p)[0]
    for _p, x, d in hits:
        if x > listed_to:  # the rest, sorted; the loop below reads them
            hits = sorted([(p, x, d), *hits])
            break
        yield _row(p, x, d)
    for _p, x, d in hits:
        yield _row(p, x, d)


def _block_hits(primes: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(p, x, D) for every solution (x, y, z) of every prime p in `primes`:
    D is the divisor of (px)**2 behind the row, which _row turns into y and
    z and checks.  x <= y <= z and the window p/4 < x <= 3p/4 hold by
    construction.

    Per x-column 1/y + 1/z = r/N with r = 4x - p and N = px, so solutions
    correspond to divisor pairs d*e = N**2 with d <= N and r | (N + d),
    via y = (N+d)/r, z = (N+e)/r.  Divisors of N**2 = p**2 * x**2 that are
    <= N are exactly the divisors of x**2 (all below N since x < p) plus
    p*d0 for divisors d0 of x**2 with d0 <= x.  The first columns, x > 64r,
    list the divisors of x**2 (_listed_hits).

    In the other columns r is coprime to N and p = 4x (mod r), so each
    candidate type is one residue class mod r inside [1, x], holding at most
    x/r <= 64 values: d <= x with d = -p*x, the co-divisor e = x**2/d < x of
    a d > x with 4e = -1, and d0 <= x (for D = p*d0) with d0 = -x (mod r).
    _progression_hits tests the d-type up to p/2 (past it d < 2x(2x - p),
    so y < x) and, in the band 8r < x <= 64r, the other two types as well;
    above the band, where x <= 8r, divisor walks over small numbers find
    those two (_walked_hits).

    Each prime's listed columns come first, in (x, D) order, then its
    walks; the progression columns of all the primes go last to
    _progression_hits, in calls of _COLUMN_BLOCK columns, so that one call
    may span several primes.  Past the listed columns the hits come in no
    particular order.
    """
    if max(primes, default=0) > FAST_LIMIT:
        raise ValueError(f"p = {max(primes)} exceeds the enumeration ceiling {FAST_LIMIT}")
    segments = []
    for p in primes:
        listed_to, band_to = _edges(p)
        for x in range(p // 4 + 1, listed_to + 1):
            for d in _listed_hits(p, x):
                yield p, x, d
        for x, d in _walked_hits(p, band_to):
            yield p, x, d
        segments.append((p, listed_to + 1, p // 2 + 1, band_to))
    call, room = [], _COLUMN_BLOCK
    for p, lo, hi, band_to in segments:
        while lo < hi:
            cut = min(hi, lo + room)
            call.append((p, lo, cut, band_to))
            room -= cut - lo
            lo = cut
            if not room:
                yield from _progression_hits(call)
                call, room = [], _COLUMN_BLOCK
    if call:
        yield from _progression_hits(call)


def _listed_hits(p: int, x: int) -> list[int]:
    """The divisors D of (p*x)**2 that give solutions in the listed column x
    (p/4 < x <= 64r, so x <= p/2 and every D gives y >= x): the divisors d
    of x**2 with r | px + d, and p*d0 for the divisors d0 <= x of x**2 with
    r | px + p*d0, in ascending order."""
    r = 4 * x - p
    n = p * x
    hits = []
    for d in _square_divisors(x):
        if (n + d) % r == 0:
            hits.append(d)
        if d <= x and (n + p * d) % r == 0:
            hits.append(p * d)
    return sorted(hits)


def _progression_hits(segments: Sequence[tuple[int, int, int, int]]) -> list[tuple[int, int, int]]:
    """(p, x, D) for the divisors D of (p*x)**2 that give solutions in the
    column segments (p, lo, hi, band_to), each the columns lo <= x < hi of
    the prime p (x <= 64r, r = 4x - p), from three progressions mod r:
    - d <= x with d = -p*x, in every column; D = d;
    - e < x with 4e = -1, in the band x <= band_to; D = x**2/e;
    - d0 <= x with d0 = -x, in the band; D = p*d0.
    A candidate v is a hit when x*x % v == 0.

    The segments, which may belong to different primes, are joined into one
    run of columns, each column known by x and r alone (p = 4x - r, and
    p*x = 4x**2 mod r).  Each progression holds at most 64 values.  Its
    first value, about 3 in 10 of all the values, is tested in place,
    aligned with its column (square % first), with no gathers.  The values
    past it are laid end to end as one run of cells, progression k owning
    cells [edges[k], edges[k+1]), and each numpy test covers at most
    _CELL_BLOCK cells.  int64 is exact: at FAST_LIMIT, 4x**2 <= p**2 stays
    below 2**47 and, with at most _COLUMN_BLOCK columns per call, c*r with
    c < 3 * 64 * _COLUMN_BLOCK cells below 2**46.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    # the segments, then their bands (a prefix of each) twice, as runs of columns
    band = [(p, lo, min(hi, b + 1)) for p, lo, hi, b in segments if lo <= b]
    ps, los, his = np.array([s[:3] for s in segments] + band + band, dtype=np.int64).T
    size = his - los
    ends = np.cumsum(size)
    col = np.arange(ends[-1], dtype=np.int64)  # in place below: fewer fresh pages
    col += np.repeat(los - ends + size, size)
    step = 4 * col
    step -= np.repeat(ps, size)  # r = 4x - p
    n = int(ends[len(segments) - 1])
    nb = (len(col) - n) // 2
    x, r, bx, br = col[:n], step[:n], col[n : n + nb], step[n : n + nb]
    e0 = (br % 4 * br - 1) // 4  # 4*e0 + 1 = m*r, m = -p % 4 = r % 4
    # the least positive member of each class (p*x = 4*x**2 mod r), and the
    # largest value allowed: x, or x - 1 for e < x
    first = np.concatenate([r - 4 * x * x % r, (e0 - 1) % br + 1, br - bx % br])
    last = np.concatenate([x, bx - 1, bx])
    square = col * col
    k = np.flatnonzero((first <= last) & (square % first == 0))
    found_k, found_v = [k], [first[k]]  # the hits: progression, candidate
    # cells 1 and up, of the progressions that have them
    count = (last - first) // step
    np.maximum(count, 0, out=count)
    edges = np.concatenate([[0], np.cumsum(count)])
    base = first + (1 - edges[:-1]) * step  # cell c of progression k holds base[k] + c*step[k]
    cells = int(edges[-1])
    for c0 in range(0, cells, _CELL_BLOCK):
        c1 = min(c0 + _CELL_BLOCK, cells)
        k0, k1 = np.searchsorted(edges, [c0, c1 - 1], side="right") - 1  # of the first, last cell
        k = np.repeat(np.arange(k0, k1 + 1), np.diff(np.clip(edges[k0 : k1 + 2], c0, c1)))
        v = base[k] + np.arange(c0, c1) * step[k]
        hit = np.flatnonzero(square[k] % v == 0)
        found_k.append(k[hit])
        found_v.append(v[hit])
    k, v = np.concatenate(found_k), np.concatenate(found_v)
    ck = col[k]
    pk = 4 * ck - step[k]  # progression k steps by its column's r = 4x - p
    d = np.where(k < n, v, np.where(k < n + nb, square[k] // v, pk * v))
    return list(zip(pk.tolist(), ck.tolist(), d.tolist()))


def _walked_hits(p: int, band_to: int) -> list[tuple[int, int]]:
    """(x, D) for the divisors D = d > x of x**2 and D = p*d0 that give
    solutions in the columns x > band_to, where x <= 8r with r = 4x - p.

    e-type: d = x**2/e with e < x and 4e = -1 (mod r).  Then 4e = m*r - 1
    with m = -p (mod 4), so e = m*x - u with u = (m*p + 1)/4; e is coprime
    to m (4u - m*p = 1), hence e | x**2 iff e | u**2.  e < x needs
    4(m - 1)x < 4u, so only the few m allowed at x = band_to + 1 occur
    (m <= 31 for every p; only m = 1 once x > p/2).  Walking the divisors
    e of u**2 gives x = (u + e)/m; y >= x still needs d >= 2x(2x - p).
    Before the division the walk drops every e that cannot meet the
    column's bounds: for x = (u + e)/m, x > band_to iff e > m*band_to - u,
    x <= floor(3p/4) iff e <= m*floor(3p/4) - u, and e < x iff me < u + e,
    that is (m - 1)e < u, which holds for every e when m = 1 and reads
    e <= (u - 1)//(m - 1) otherwise.

    d0-type (x <= p/2): d0 = s*r - x with s <= 2x/r <= 16, so
    d0 = (4s - 1)x - s*p, and since r is coprime to x, d0 | x**2 iff
    d0 | s**2.  Walking the divisors d0 of s**2 gives x = (s*p + d0)/(4s - 1).
    Again the bounds come first: x > band_to iff d0 > (4s - 1)band_to - s*p,
    x <= floor(p/2) iff d0 <= (4s - 1)floor(p/2) - s*p, and d0 <= x iff
    (4s - 2)d0 <= s*p.  For s > 8 the first bound grows like (s - 8)p/31
    and leaves no divisor of s**2 above it once p > 3499.
    """
    hits = []
    lo4 = 4 * (band_to + 1)
    for m in range(-p % 4, lo4 // (lo4 - p) + 1, 4):  # (m - 1)*lo4 < m*p + 1
        u = (m * p + 1) // 4
        e_lo = m * band_to - u
        e_hi = m * (3 * p // 4) - u
        if m > 1:
            e_hi = min(e_hi, (u - 1) // (m - 1))
        for e in _square_divisors(u):
            if e_lo < e <= e_hi:
                x, rest = divmod(u + e, m)
                if not rest:
                    d = x * x // e
                    if d >= 2 * x * (2 * x - p):
                        hits.append((x, d))
    for s, divisors in _D0_WALKS:
        d0_lo = (4 * s - 1) * band_to - s * p
        d0_hi = min((4 * s - 1) * (p // 2) - s * p, s * p // (4 * s - 2))
        for d0 in divisors:
            if d0_lo < d0 <= d0_hi:
                x, rest = divmod(s * p + d0, 4 * s - 1)
                if not rest:
                    hits.append((x, p * d0))
    return hits


def _row(p: int, x: int, d: int) -> tuple[int, int, int]:
    """The row (x, y, z) of column x for the divisor d of (px)**2, with
    y = (px + d)/r and z = (px + (px)**2/d)/r, r = 4x - p, checked with
    require_solution.  Every row of the enumerator passes through here."""
    r = 4 * x - p
    n = p * x
    y = (n + d) // r
    z = (n + n * n // d) // r
    require_solution(p, x, y, z)
    return x, y, z


def enumerate_fast(p: int) -> SolutionSet:
    """Divisor-pair enumeration; identical set to enumerate_oracle."""
    return SolutionSet(p, tuple(iter_solutions_fast(p)))


def write_solutions_csv(sets: Iterable[SolutionSet], dest: str | Path | IO[str]) -> None:
    """Dump solution sets as CSV rows `p,x,y,z`, ascending by (p, x, y)."""
    rows = sorted((s.p, t.x, t.y, t.z) for s in sets for t in s)
    lines = ["p,x,y,z"] + [f"{p},{x},{y},{z}" for (p, x, y, z) in rows]
    text = "\n".join(lines) + "\n"
    write_to(dest, text)
