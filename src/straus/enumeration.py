"""Complete solution sets, two ways.

enumerate_oracle sweeps one prime's whole (x, y) search region and is
deliberately naive; enumerate_fast reformulates each x-column as a
divisor-pair problem, lists divisors only in the first columns and finds the
other pairs as residue classes mod 4x - p or by walking the divisors of a few
small numbers, all in numpy.  One driver, _block_hits, walks the columns of
a block of primes and hands its hits out as int64 array chunks: stats
tallies them unordered, and _solution_rows, behind enumerate_fast, solve
and the claim checks, sorts one prime's hits into (x, y) order.  Both check
every hit with one exact certificate over the arrays (_certify) before they
use it.  The listed columns, like verify's window cells, go in rounds that
one scheduler lays out (_rounds).  The progression columns and the listed
pairs are tested in work arrays kept from call to call (_work), so that a
call faults in no fresh pages.  enumerate_labelled reads solve's type
labels off the same certified arrays.  enumerate_fast must reproduce the
oracle, which exists so it can be checked against it wholesale.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .core import TYPE_LABELS, Triple, next_boundary, require_solution
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

ORACLE_LIMIT = 10_000
# `straus solve 9999991` takes 0.52-0.78 s on one core at 42 MiB peak RSS
# (four fresh-process runs, 2-vCPU box, Python 3.11, numpy 2.4); the time
# grows like p, and the memory stays flat because every numpy step is
# bounded: the listed rounds and the walks factor and test at most
# _CELL_BLOCK numbers or pairs at a time, and the progression pass runs in
# blocks of _COLUMN_BLOCK columns and _CELL_BLOCK candidates.
FAST_LIMIT = 10_000_000

# The progression pass spans 2.4 M columns at FAST_LIMIT and lays up to 3 * 64
# candidates per column end to end.  Its progressions are set up for
# _COLUMN_BLOCK columns at a time (a few int64 arrays of up to 3 entries per
# column), and each numpy test covers at most _CELL_BLOCK candidates.
_COLUMN_BLOCK = 1 << 14
_CELL_BLOCK = 1 << 16

# The work arrays of _progression_hits and _pair_keys by name (_work), kept
# from call to call so that a call writes into pages the process already
# holds.
_WORK: dict = {}

# The largest number the enumerator factors: the walks factor u = (m*p + 1)/4,
# m <= 31, for p <= FAST_LIMIT, and the listed columns x <= 64p/255 lie below
# it.  Every n up to it has at most one prime factor above _TRIAL_PRIMES[-1] =
# 8803, so trial division factors it exactly.
_FACTOR_LIMIT = (31 * FAST_LIMIT + 1) // 4
# The tables are int64 arrays, which numpy reads in place (np.frombuffer).
_TRIAL_PRIMES = array("q", primes_in(PrimeRange(2, isqrt(_FACTOR_LIMIT))))
# For each trial prime q, a power q**k > _FACTOR_LIMIT, so that gcd(n, q**k) is
# the exact power of q in any n it factors: q >= 2**(b - 1) for b bits, so
# k = ceil(27/(b - 1)) suffices, and q**k < 2**56.
_TRIAL_COVERS = array("q", (q ** -(-_FACTOR_LIMIT.bit_length() // (q.bit_length() - 1))
                            for q in _TRIAL_PRIMES))

# A round (_rounds) gives each item it serves its next w columns, w doubling
# from 1 but never below _ROUND_FLOOR // (items served): a prime p has about
# p/1020 listed columns, so one prime up to 2 * 10**5 (196 columns) is done in
# one or two listed rounds.
_ROUND_FLOOR = 128

# A listed hit's key is column << 45 | D (_listed_pass); D is its low bits.
_D_MASK = (1 << 45) - 1


def _square_divisors(ns, most=None) -> Iterator[tuple]:
    """(owner, divisor) int64 arrays, chunk by chunk: every divisor of n**2
    for each n of the int64 array `ns` (1 <= n <= _FACTOR_LIMIT), or only
    those up to most[i] for n = ns[i] if `most` is given, owner being n's
    index in `ns`; owners ascend, each owner's divisors unsorted.

    A chunk's numbers are tried against the trial primes up to the square
    root of its largest one, in one (number, prime) matrix of at most
    _CELL_BLOCK entries; what remains of n is 1 or a prime.  q divides n
    iff the float64 quotient n/q is whole: n < 2**53, and a quotient that
    is not whole lies at least 1/q > 10**-4 from the nearest integer, far
    beyond its rounding error.  The exact power q**e of a trial prime q in
    n is gcd(n, _TRIAL_COVERS[q's index]).  Each n starts with the divisor
    1, and its k-th prime factor q**e turns every divisor so far into
    2e + 1, times q**0 .. q**2e; a divisor past `most` is dropped at once,
    since later factors only raise it.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    if not ns.size:
        return
    if (largest := int(ns.max())) > _FACTOR_LIMIT:
        raise ValueError(f"{largest} exceeds the factoring bound {_FACTOR_LIMIT}")
    top = bisect_right(_TRIAL_PRIMES, isqrt(largest))
    trial = np.frombuffer(_TRIAL_PRIMES, dtype=np.int64, count=top)
    cover = np.frombuffer(_TRIAL_COVERS, dtype=np.int64, count=top)
    rows = max(1, _CELL_BLOCK // max(1, top))
    for a in range(0, ns.size, rows):
        n = ns[a : a + rows]
        t = bisect_right(_TRIAL_PRIMES, isqrt(int(n.max())), hi=top)
        quotient = n[:, None] / trial[:t]
        own, j = (quotient == np.floor(quotient)).nonzero()  # own ascends
        qe = np.gcd(n[own], cover[j])
        rest = n.copy()
        np.floor_divide.at(rest, own, qe)  # 1, or the one prime factor past trial[:t]
        found = np.bincount(own, minlength=n.size)
        big = (rest > 1).nonzero()[0]
        # the k-th prime factor q**e of n[i] (the trial primes in order, then
        # the one left): base[k, i] = q and radix[k, i] = 2e + 1, or 1 past
        # n[i]'s last factor; at least one k, so that `most` also meets n = 1
        radix = np.ones((max(1, int((found + (rest > 1)).max())), n.size), dtype=np.int64)
        base = np.ones_like(radix)
        rank = np.arange(own.size) - own.searchsorted(own)
        radix[rank, own] = 2 * np.rint(np.log(qe) / np.log(trial[j])) + 1
        base[rank, own] = trial[j]
        radix[found[big], big] = 3
        base[found[big], big] = rest[big]
        # powers holds base[k, i]**c for c < radix[k, i] at slot[k, i] + c,
        # up to spawn_end[k, i]
        radix_flat = radix.ravel()
        slot = radix.cumsum() - radix_flat
        powers = base.ravel().repeat(radix_flat)
        powers **= np.arange(powers.size) - slot.repeat(radix_flat)
        spawn_end = slot.reshape(radix.shape) + radix
        bound = None if most is None else most[a : a + rows]
        # factor k of n[i] turns each divisor of n[i]**2 so far into radix[k, i]
        owner, divisor = np.arange(n.size), np.ones_like(n)
        for rk, ek in zip(radix, spawn_end):
            r = rk[owner]
            ends = r.cumsum()
            c = (ek[owner] - ends).repeat(r)
            c += np.arange(c.size)
            owner = owner.repeat(r)
            divisor = divisor.repeat(r) * powers[c]
            if bound is not None:
                keep = divisor <= bound[owner]
                owner, divisor = owner[keep], divisor[keep]
        yield owner + a, divisor


# The d0-type walks: each s <= 16 with each divisor d0 of s**2, as rows
# (s, d0, 4s - 1) of one int64 array.
_D0_WALKS = array("q", (v for s in range(1, 17) for d0 in range(1, s * s + 1)
                        if s * s % d0 == 0 for v in (s, d0, 4 * s - 1)))


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


def enumerate_labelled(p: int) -> tuple[SolutionSet, list[str]]:
    """enumerate_fast(p) and each solution's type label, classify(t).labels(),
    read off the certified hit arrays (_type_labels) instead of classifying
    each Triple."""
    require_prime(p)
    rows = list(_solution_rows(p, labels=True))
    triples = tuple(Triple(p, x, y, z) for x, y, z, _label in rows)
    return SolutionSet(p, triples), [row[3] for row in rows]


def _edges(p):
    """(listed_to, band_to) for p, an int or an int64 array of primes: the
    last x with x > 64(4x - p), the last listed column, and the last x with
    x > 8(4x - p), the end of the band."""
    return (64 * p - 1) // 255, (8 * p - 1) // 31


def _int64_primes(primes: Sequence[int]):
    """The primes as an int64 array; ValueError for a prime past
    FAST_LIMIT, where the enumerator's int64 bounds end."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    if primes and max(primes) > FAST_LIMIT:
        raise ValueError(f"p = {max(primes)} exceeds the enumeration ceiling {FAST_LIMIT}")
    return np.array(primes, dtype=np.int64)


def _solution_rows(p: int, labels: bool = False) -> Iterator[tuple]:
    """The solutions for the prime p as (x, y, z) ints in (x, y) order: the
    hits of _block_hits([p]) lexsorted by (x, D), which is (x, y) order, and
    certified together (_require_certified).  y = (px + D)/r comes from
    int64, and z = (px + (px)**2/D)/r, up to about p**4, as a Python int.
    With labels, each row ends with its type label (_type_labels)."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    ps, x, d = map(np.concatenate, zip(*_block_hits([p])))
    order = np.lexsort((d, x))
    x, d = x[order], d[order]  # ps holds p alone
    _require_certified(ps, x, d)
    y = (ps * x + d) // (4 * x - ps)
    columns = [x.tolist(), y.tolist(), d.tolist()]
    if labels:
        columns.append(_type_labels(ps, x, d))
    for x_i, y_i, d_i, *label in zip(*columns):
        n = p * x_i
        yield x_i, y_i, (n + n * n // d_i) // (4 * x_i - p), *label


def _offsets(p, x, d):
    """(offset_x, offset_y) of the certified hits (p, x, D), int64 arrays:
    with r = 4x - p, y = (px + D)/r and s = 4y - p,
    - offset_x = x - floor(py/s) = x - (p + p**2 // s) // 4, since
      py/s = (p + p**2/s)/4 and floor((a/s)/4) = floor(floor(a/s)/4);
    - offset_y = y - floor(px/r) = ceil(D/r), since ry = px + D.
    int64 is exact for every hit of _block_hits: at FAST_LIMIT
    p**2 = 10**14, px + D <= 2px <= 1.5 * 10**14 and s < 4y < 6 * 10**14,
    so every value stays below 10**15; py itself, up to 10**21, is never
    formed.  The same formulas hold for Python ints.
    """
    r = 4 * x - p
    s = 4 * ((p * x + d) // r) - p
    return x - (p + p * p // s) // 4, -(-d // r)


def _type_labels(p, x, d) -> list[str]:
    """classify(t).labels() for each certified hit (p, x, D), int64 arrays,
    from _offsets: I(a) iff offset_y = 1 and I(b) iff offset_x = 1.
    classify's checks hold over the arrays: at the first hit with an offset
    below 1, or I(a) without I(b), the AssertionError classify raises,
    naming that hit's Triple."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    off_x, off_y = _offsets(p, x, d)
    is_ia, is_ib = off_y == 1, off_x == 1
    below = (off_x < 1) | (off_y < 1)
    bad = below | is_ia & ~is_ib
    if bad.any():
        i = int(bad.argmax())
        p_i = int(p[i])
        t = Triple(p_i, *_row(p_i, int(x[i]), int(d[i])))
        raise AssertionError(f"solution on or below the boundary is impossible: {t}" if below[i]
                             else f"type I(a) without I(b) contradicts boundary algebra: {t}")
    return np.array(TYPE_LABELS, dtype=object)[np.where(is_ia, 2, is_ib)].tolist()


def _block_hits(primes: Sequence[int]) -> Iterator[tuple]:
    """(p, x, D) int64 arrays, chunk by chunk, for every solution (x, y, z)
    of every prime p in `primes`: D is the divisor of (px)**2 behind the
    row, y = (px + D)/r and z = (px + (px)**2/D)/r with r = 4x - p.  The
    hits are not checked here; each caller certifies them (_certify).
    x <= y <= z and the window p/4 < x <= 3p/4 hold by construction.

    Per x-column 1/y + 1/z = r/N with r = 4x - p and N = px, so solutions
    correspond to divisor pairs d*e = N**2 with d <= N and r | (N + d),
    via y = (N+d)/r, z = (N+e)/r.  Divisors of N**2 = p**2 * x**2 that are
    <= N are exactly the divisors of x**2 (all below N since x < p) plus
    p*d0 for divisors d0 of x**2 with d0 <= x.  The first columns, x > 64r,
    list the divisors of x**2.

    In the other columns r is coprime to N and p = 4x (mod r), so each
    candidate type is one residue class mod r inside [1, x], holding at most
    x/r <= 64 values: d <= x with d = -p*x, the co-divisor e = x**2/d < x of
    a d > x with 4e = -1, and d0 <= x (for D = p*d0) with d0 = -x (mod r).
    _progression_hits tests the d-type up to p/2 (past it d < 2x(2x - p),
    so y < x) and, in the band 8r < x <= 64r, the other two types as well;
    above the band, where x <= 8r, divisor walks over small numbers find
    those two (_e_walk_hits, _d0_walk_hits).

    The block runs in three stages, each over all its primes at once, and
    each yields its own chunks:
    1. the e-type walks, which factor their numbers in one
       _square_divisors pass, then the d0-type walks, a chunk each;
    2. the listed columns, x-major, a chunk per round of _listed_pass;
    3. the progression columns of all the primes, a chunk per
       _progression_hits call of _COLUMN_BLOCK columns, so that one call
       may span several primes.
    The hits come in no particular order.  Every stage computes in int64,
    exact up to FAST_LIMIT, where _int64_primes refuses a larger prime
    before any stage runs: a listed x <= 64p/255 has x**2 < 6.3 * 10**12
    and px + d < 3.2 * 10**13 (px + p*d0 <= 2px < 5.1 * 10**13), a walked
    u <= (31p + 1)/4 = 7.75 * 10**7 has u**2 < 6.1 * 10**15, and the
    progression values stay below 2**47 (each docstring has its bounds).
    Every hit has D <= px with x <= 3p/4, so a chunk's p, x and D are below
    FAST_LIMIT**2 = 10**14, and px + D <= 2px <= 1.5 * 10**14 as well.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    # The walks run first: after the listed rounds they left perfbench's
    # stats-range 12 % slower (median of 6 pairs, 2-vCPU box) through the
    # allocator's page faults, not through their own work.
    ps = _int64_primes(primes)
    yield _e_walk_hits(ps)
    yield _d0_walk_hits(ps)
    for _owner, cp, cx, key in _listed_pass(ps, np.zeros(ps.size, dtype=bool)):
        column = key >> 45
        yield cp[column], cx[column], key & _D_MASK
    segments = []
    for p in primes:
        listed_to, band_to = _edges(p)
        segments.append((p, listed_to + 1, p // 2 + 1, band_to))
    call, room = [], _COLUMN_BLOCK
    for p, lo, hi, band_to in segments:
        while lo < hi:
            cut = min(hi, lo + room)
            call.append((p, lo, cut, band_to))
            room -= cut - lo
            lo = cut
            if not room:
                yield _progression_hits(call)
                call, room = [], _COLUMN_BLOCK
    if call:
        yield _progression_hits(call)


def _rounds(nxt, last, done) -> Iterator[tuple]:
    """(owner, x) int64 arrays, a pair a round: the next columns of the live
    items, item i's being nxt[i] <= x <= last[i] (int64 arrays).  A round
    serves the first s <= _CELL_BLOCK live items, each its next w columns,
    w doubling from 1 but at least _ROUND_FLOOR // s and at most
    max(1, _CELL_BLOCK // s), so at most _CELL_BLOCK columns; owners ascend,
    and each owner's x ascend.  An item retires after its last column, or
    once the caller sets done[i] (a boolean array, read after each round)."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    nxt = nxt.copy()
    live = np.flatnonzero((nxt <= last) & ~done)
    width = 1
    while live.size:
        served = live[:_CELL_BLOCK]
        width = min(max(width, _ROUND_FLOOR // served.size), max(1, _CELL_BLOCK // served.size))
        lo = nxt[served]
        take = np.minimum(last[served] - lo + 1, width)
        ends = take.cumsum()
        nxt[served] = lo + take
        yield served.repeat(take), np.arange(ends[-1]) + (lo - ends + take).repeat(take)
        live = live[(nxt[live] <= last[live]) & ~done[live]]
        width *= 2


def _listed_pass(ps, done) -> Iterator[tuple]:
    """(owner, p, x, key) int64 arrays, one tuple a round, for the solutions
    in the listed columns p/4 < x <= 64r (r = 4x - p, so x <= p/2 and every
    D gives y >= x) of the primes ps (int64): the round's columns, column i
    being x[i] of the prime p[i] = ps[owner[i]], and key = i << 45 | D for
    each hit in column i, unsorted.  The hits are the divisors D = d of x**2
    with r | px + d, and D = p*d0 for the divisors d0 <= x of x**2 with
    r | px + p*d0.

    The columns go x-major, in _rounds, which reads `done` (a boolean array
    over ps) after each round and lays out no more columns of a prime once
    done[i] is set.  A round factors each distinct x of its columns once
    (_square_divisors) and tests every (p, d) pair of its columns in one
    int64 expression (_pair_keys).  int64 is exact: at FAST_LIMIT,
    x <= 64p/255 < 2.51 * 10**6, so d <= x**2 < 6.3 * 10**12,
    px + d < 3.2 * 10**13 and px + p*d0 <= 2px < 5.1 * 10**13.  A key fits,
    since D <= px < 2**45 and a round has at most _CELL_BLOCK <= 2**18
    columns.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    for owner, cx in _rounds(ps // 4 + 1, _edges(ps)[0], done):
        cp = ps[owner]
        by_x = cx.argsort(kind="stable")
        xs = cx[by_x]
        # the columns of ux[i] are by_x[at[i]:at[i + 1]]
        at = np.concatenate([[True], xs[1:] != xs[:-1], [True]]).nonzero()[0]
        ux, n_cols = xs[at[:-1]], at[1:] - at[:-1]
        keys = []
        for o, div in _square_divisors(ux):
            a, b = o[0], o[-1] + 1  # this chunk's x, ux[a:b]
            keys += _pair_keys(cx, cp, by_x[at[a] : at[b]], n_cols[a:b], o - a, div)
        yield owner, cp, cx, np.concatenate(keys)


def _listed_rounds(primes: Sequence[int], done=None) -> Iterator[tuple[int, int, int]]:
    """(p, x, D) ints, hit by hit, for the solutions in the listed columns
    of the primes: _listed_pass, whose round's hits come here in the order
    of `primes`, and each prime's in (x, D) order, which is (x, y) order.
    `done`, a boolean array over the primes or None, lets the caller retire
    primes[i] as the hits arrive: it is read before each hit, no hit of a
    prime with done[i] set is yielded, and no later round lays out any more
    of its columns.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    ps = _int64_primes(primes)
    if done is None:
        done = np.zeros(ps.size, dtype=bool)
    for owner, cp, cx, key in _listed_pass(ps, done):
        key.sort()  # (column, D) order
        x, d = cx[key >> 45], key & _D_MASK
        last = np.flatnonzero(np.diff(owner, append=-1))  # each owner's last column
        lo = 0  # each owner's hits are x[lo:hi], hi the key of its last column + 1
        for i, p, hi in zip(owner[last].tolist(), cp[last].tolist(),
                            key.searchsorted(last + 1 << 45).tolist()):
            for x_i, d_i in zip(x[lo:hi].tolist(), d[lo:hi].tolist()):
                if done[i]:
                    break
                yield p, x_i, d_i
            lo = hi


def _pair_keys(cx, cp, cols, n_cols, owner, div) -> list:
    """Sort keys column << 45 | D for the hits among the pairs of one
    factoring chunk of a listed round: `cols` are the chunk's columns
    (indices into the round's cx and cp) grouped by x, n_cols[i] of them
    for x number i of the chunk, whose divisors of x**2 are div[owner == i].
    Every column meets every divisor of its x**2, at most _CELL_BLOCK pairs
    at a time, in work arrays (_work), and a pair hits as d with r | px + d,
    and as p*d with d <= x and r | px + p*d (r = 4x - p)."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    n_div = np.bincount(owner)
    per = n_div.repeat(n_cols)
    # column i has pairs edges[i] <= g < edges[i + 1], pair g testing div[g + shift[i]]
    edges = np.concatenate([[0], per.cumsum()])
    shift = (n_div.cumsum() - n_div).repeat(n_cols) - edges[:-1]
    keys = []
    for g0 in range(0, int(edges[-1]), _CELL_BLOCK):
        g1 = min(g0 + _CELL_BLOCK, int(edges[-1]))
        size = g1 - g0
        i = _owners(edges, g0, g1)
        t = np.take(shift, i, out=_work("t", size), mode="clip")
        t += g0
        t += _iota(size)
        d = np.take(div, t, out=_work("v", size), mode="clip")
        np.take(cols, i, out=t, mode="clip")
        i = t  # the pair's column in the round
        x = np.take(cx, i, out=_work("x", size), mode="clip")
        p = np.take(cp, i, out=_work("p", size), mode="clip")
        r = np.multiply(x, 4, out=_work("r", size))
        r -= p
        n = np.multiply(p, x, out=_work("n", size))
        u = np.add(n, d, out=_work("u", size))
        u %= r
        hit = np.flatnonzero(np.equal(u, 0, out=_work("hit", size, "bool")))
        keys.append(i[hit] << 45 | d[hit])
        np.multiply(p, d, out=u)
        u += n
        u %= r
        hit = np.equal(u, 0, out=_work("hit", size, "bool"))
        hit &= np.less_equal(d, x, out=_work("ok", size, "bool"))
        hit = np.flatnonzero(hit)
        keys.append(i[hit] << 45 | p[hit] * d[hit])
    return keys


def _e_walk_hits(ps):
    """(p, x, D = d) int64 arrays for the e-type solutions of the primes ps
    (int64) in their columns x > band_to, where x <= 8r with r = 4x - p.

    There d = x**2/e with e < x and 4e = -1 (mod r).  Then 4e = m*r - 1
    with m = -p (mod 4), so e = m*x - u with u = (m*p + 1)/4; e is coprime
    to m (4u - m*p = 1), hence e | x**2 iff e | u**2, and the divisors e of
    u**2 give x = (u + e)/m, which must be whole and above band_to; y >= x
    needs d >= 2x(2x - p).  e < x means (m - 1)e < u, so only the m with
    (m - 1)*lo4 < m*p + 1, lo4 = 4(band_to + 1), occur: m <= 31 for every
    p.  The largest e allowed is (u - 1)//(m - 1) for m > 1, which also
    keeps x < u/(m - 1) <= 3p/4 (below p/2 from m = 3 on), and
    floor(3p/4) - u = 2u - 1 for m = 1 (x <= 3p/4).  The u of all the
    walks are factored in one _square_divisors pass.  int64 is exact: at
    FAST_LIMIT, u <= (31p + 1)/4 <= 7.75 * 10**7, so u + e <= u + u**2 <
    6.1 * 10**15, and x <= 3p/4 gives x**2 < 5.7 * 10**13.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    band = _edges(ps)[1]
    lo4 = 4 * band + 4
    m = -ps[:, None] % 4 + np.arange(0, 32, 4)
    i, k = np.nonzero(m <= (lo4 // (lo4 - ps))[:, None])
    p, m, band = ps[i], m[i, k], band[i]
    u = (m * p + 1) // 4
    most = (u - 1 + u * (m == 1)) // np.maximum(m - 1, 1)  # 2u - 1 for m = 1
    hits = [(ps[:0],) * 3]
    for w, e in _square_divisors(u, most):
        x, rest = np.divmod(u[w] + e, m[w])
        keep = np.flatnonzero((rest == 0) & (x > band[w]))
        w, x, e = w[keep], x[keep], e[keep]
        d = x * x // e
        keep = d >= 2 * x * (2 * x - p[w])
        hits.append((p[w[keep]], x[keep], d[keep]))
    return tuple(map(np.concatenate, zip(*hits)))


def _d0_walk_hits(ps):
    """(p, x, D = p*d0) int64 arrays for the d0-type solutions of the primes
    ps (int64) in their columns x > band_to, where x <= 8r with r = 4x - p.

    There x <= p/2 and d0 = s*r - x with s <= 2x/r <= 16, so
    d0 = (4s - 1)x - s*p, and since r is coprime to x, d0 | x**2 iff
    d0 | s**2.  The divisors d0 of s**2 (_D0_WALKS) give
    x = (s*p + d0)/(4s - 1), which must be whole, above band_to and at most
    p/2, with d0 <= x.  For s > 8, x > band_to leaves no d0 once p > 3499.
    The (p, s, d0) are tested as a matrix of primes by the walks, at most
    _CELL_BLOCK cells at a time.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    s, d0, q = np.frombuffer(_D0_WALKS, dtype=np.int64).reshape(-1, 3).T
    hits = [(ps[:0],) * 3]
    rows = max(1, _CELL_BLOCK // s.size)
    for a in range(0, ps.size, rows):
        p = ps[a : a + rows, None]
        x, rest = np.divmod(s * p + d0, q)
        i, j = ((rest == 0) & (d0 <= x) & (x > _edges(p)[1]) & (2 * x <= p)).nonzero()
        hits.append((p[i, 0], x[i, j], p[i, 0] * d0[j]))
    return tuple(map(np.concatenate, zip(*hits)))


def _work(name: str, size: int, dtype: str = "int64"):
    """The first `size` entries of the work array `name`, kept in _WORK:
    made on first use, with room for a whole call (3 * _COLUMN_BLOCK + 1
    columns or _CELL_BLOCK cells or pairs), and made again only for a call
    that needs more.  It holds what the last call left there, so each
    caller writes an entry before it reads it."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    a = _WORK.get(name)
    if a is None or a.size < size:
        a = _WORK[name] = np.empty(max(size, 3 * _COLUMN_BLOCK + 1, _CELL_BLOCK), dtype=dtype)
    return a[:size]


def _iota(size: int):
    """0, 1, ..., size - 1 as int64, a view of one kept array."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    a = _WORK.get("iota")
    if a is None or a.size < size:
        a = _WORK["iota"] = np.arange(max(size, _CELL_BLOCK), dtype=np.int64)
    return a[:size]


def _runs(out, jump, firsts, size, inc):
    """Fill `out` (and use `jump`, int64 arrays of size.sum() entries) with
    runs of arithmetic progressions, run i holding size[i] >= 1 values from
    firsts[i] up by inc: the cumulative sum of inc, but at each run's first
    entry the jump from the run before."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    jump.fill(inc)
    jump[0] = firsts[0]
    jump[np.cumsum(size[:-1])] = firsts[1:] - firsts[:-1] - inc * (size[:-1] - 1)
    return np.cumsum(jump, out=out)


def _owners(edges, c0, c1):
    """For the cells c0 <= c < c1 of a run whose item j owns the cells
    edges[j] <= c < edges[j + 1] (edges strictly increasing, edges[0] = 0),
    the owning item of each, as the work array "j" (_work): the item of
    cell c0, up by one at each later item's first cell."""
    import numpy as np  # here, not at module level: import straus stays numpy-free

    j0, j1 = np.searchsorted(edges, [c0, c1 - 1], side="right") - 1  # of the first, last cell
    j = _work("j", c1 - c0)
    j.fill(0)
    j[np.subtract(edges[j0 + 1 : j1 + 1], c0, out=_work("starts", j1 - j0))] = 1
    j[0] = j0
    return np.cumsum(j, out=j)


def _progression_hits(segments: Sequence[tuple[int, int, int, int]]) -> tuple:
    """(p, x, D) int64 arrays for the divisors D of (p*x)**2 that give
    solutions in the column segments (p, lo, hi, band_to), each the columns
    lo <= x < hi of the prime p (x <= 64r, r = 4x - p), from three
    progressions mod r:
    - d <= x with d = -p*x, in every column; D = d;
    - e < x with 4e = -1, in the band x <= band_to; D = x**2/e;
    - d0 <= x with d0 = -x, in the band; D = p*d0.
    A candidate v is a hit when x*x % v == 0.

    The segments, which may belong to different primes, are joined into one
    run of columns, each column known by x and r alone (p = 4x - r, and
    p*x = 4x**2 mod r).  Each progression holds at most 64 values.  Its
    first value, about 3 in 10 of all the values, is tested in place,
    aligned with its column (square % first), with no gathers.  Only the
    live progressions, those with a second value (first + r <= last; 1 in
    4 of them over the primes to 6000), go on: their values past the first
    are laid end to end as one run of cells, live progression j owning
    cells [edges[j], edges[j+1]), and each numpy test covers at most
    _CELL_BLOCK cells.

    Every array of a column, a live progression or a cell is a work array
    (_work) written in place, through out= and in-place operators: a fresh
    temporary of that size gets pages the allocator has handed back to the
    system since the last call, so each call would fault in hundreds of
    pages.  What is still made per call holds one entry per segment, per
    live progression (the index `live`) or per hit.

    int64 is exact: at FAST_LIMIT, x <= p/2, so 4x**2 <= p**2 = 10**14
    < 2**47; a call has at most 3 * _COLUMN_BLOCK progressions of at most
    64 values, so c*r with c < 3 * 64 * _COLUMN_BLOCK < 2**24 cells and
    r <= p < 2**24 stays below 2**48; and a hit's D = p*d0 <= px < 2**46.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    # the segments, then their bands (a prefix of each) twice, as runs of columns
    band = [(p, lo, min(hi, b + 1)) for p, lo, hi, b in segments if lo <= b]
    ps, los, his = np.array([s[:3] for s in segments] + band + band, dtype=np.int64).T
    size = his - los
    total = int(size.sum())
    n = int(size[: len(segments)].sum())
    nb = (total - n) // 2
    tmp = _work("tmp", total)
    col = _runs(_work("col", total), tmp, los, size, 1)
    step = _runs(_work("step", total), tmp, 4 * los - ps, size, 4)  # r = 4x - p
    square = np.multiply(col, col, out=_work("square", total))
    # the least positive member of each class (p*x = 4*x**2 mod r), and the
    # largest value allowed: x, or x - 1 for e < x
    first, last = _work("first", total), _work("last", total)
    r, f = step[:n], first[:n]  # d = -4x**2
    np.multiply(square[:n], 4, out=f)
    f %= r
    np.subtract(r, f, out=f)
    bx, br = col[n : n + nb], step[n : n + nb]
    f = first[n : n + nb]  # e = e0 - r, 4*e0 + 1 = m*r, m = -p % 4 = r % 4
    np.remainder(br, 4, out=f)
    f *= br
    f -= 5
    f //= 4
    f %= br
    f += 1
    f = first[n + nb :]  # d0 = -x
    np.remainder(bx, br, out=f)
    np.subtract(br, f, out=f)
    np.copyto(last, col)
    last[n : n + nb] -= 1
    hit, ok = _work("hit", total, "bool"), _work("ok", total, "bool")
    np.equal(np.remainder(square, first, out=tmp), 0, out=hit)
    hit &= np.less_equal(first, last, out=ok)
    k = np.flatnonzero(hit)
    found_k, found_v = [k], [first[k]]  # the hits: progression, candidate
    # cells 1 and up, of the live progressions: cell c of live progression j
    # holds base[j] + c*live_step[j]
    live = np.flatnonzero(np.less_equal(np.add(first, step, out=tmp), last, out=hit))
    m = live.size
    live_step = np.take(step, live, out=_work("live_step", m), mode="clip")
    live_square = np.take(square, live, out=_work("live_square", m), mode="clip")
    base = np.take(first, live, out=_work("base", m), mode="clip")
    count = np.take(last, live, out=tmp[:m], mode="clip")
    count -= base
    count //= live_step
    edges = _work("edges", m + 1)
    edges[0] = 0
    np.cumsum(count, out=edges[1:])
    np.subtract(1, edges[:-1], out=count)
    count *= live_step
    base += count
    cells = int(edges[-1])
    for c0 in range(0, cells, _CELL_BLOCK):
        c1 = min(c0 + _CELL_BLOCK, cells)
        j = _owners(edges, c0, c1)
        v, t = _work("v", c1 - c0), _work("t", c1 - c0)
        np.add(_iota(c1 - c0), c0, out=v)
        v *= np.take(live_step, j, out=t, mode="clip")
        v += np.take(base, j, out=t, mode="clip")
        np.take(live_square, j, out=t, mode="clip")
        t %= v
        h = np.flatnonzero(np.equal(t, 0, out=_work("hit", c1 - c0, "bool")))
        found_k.append(live[j[h]])
        found_v.append(v[h])
    k, v = np.concatenate(found_k), np.concatenate(found_v)
    ck = col[k]
    pk = 4 * ck - step[k]  # progression k steps by its column's r = 4x - p
    return pk, ck, np.where(k < n, v, np.where(k < n + nb, square[k] // v, pk * v))


def _certify(p, x, d):
    """The boolean mask of the hits (p[i], x[i], d[i]), int64 arrays with
    every p[i] >= 1, that are exact solutions.  With N = px and r = 4x - p,
    a hit passes when r, D >= 1, D <= N, r | N + D, D | N**2 and
    r | N + N**2/D.

    Such a hit is a solution: y = (N + D)/r and z = (N + N**2/D)/r are
    whole, and 1/y + 1/z = r/(N + D) + r*D/(N*(N + D)) = r/N = 4/p - 1/x,
    so 4/p = 1/x + 1/y + 1/z exactly.  All of x, y, z are >= 1 (px >= D >= 1
    with p >= 1 makes x >= 1), and D <= N gives y <= z.  D | N**2 is tested
    as D/g | N with g = gcd(D, N), since D/g is coprime to N/g; then
    N**2/D = (N/g)*(N/(D/g)), whose residue mod r is the product of its two
    factors' residues.  For a prime p and x < p, r is coprime to N, and
    D*(N + N**2/D) = N*(N + D), so once D | N**2 the first and last
    divisibility tests agree; the last is kept so that no test needs a
    prime.

    int64 is exact for every hit with p <= FAST_LIMIT and x <= 3p/4, as
    all of _block_hits' are: N <= 3p**2/4 < 2**47, N + D <= 2N < 2**48 for
    D <= N, and r <= 2p < 2**25, so N plus a product of two residues stays
    below 2**47 + 4p**2 < 2**49.  A hit with D < 1 or r < 1 is refused
    without being divided by: its D and r are read as 1.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    n = p * x
    r = 4 * x - p
    ok = (r >= 1) & (d >= 1) & (d <= n)
    r = np.maximum(r, 1)
    d = np.maximum(d, 1)
    ok &= (n + d) % r == 0
    g = np.gcd(d, n)
    d_g = d // g
    ok &= n % d_g == 0
    ok &= (n + n // g % r * (n // d_g % r)) % r == 0
    return ok


def _require_certified(p, x, d) -> None:
    """Raise ValueError at the first hit (p[i], x[i], d[i]), int64 arrays,
    that _certify refuses."""
    ok = _certify(p, x, d)
    if not ok.all():
        i = int(ok.argmin())
        raise ValueError(f"not a solution: the hit p = {p[i]}, x = {x[i]}, D = {d[i]} "
                         "fails the certificate")


def _row(p: int, x: int, d: int) -> tuple[int, int, int]:
    """The row (x, y, z) of column x for the divisor d of (px)**2, with
    y = (px + d)/r and z = (px + (px)**2/d)/r, r = 4x - p, checked with
    require_solution, for a hit of the listed rounds (_listed_rounds)."""
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
