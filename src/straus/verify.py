"""Range verifiers for the boundary and lcm-pattern claims.

Four claims are sweepable:

  conj1         some solution is boundary-adjacent in y (type I(a))
  conj2         some solution is boundary-adjacent in x (type I(b))
  conj3-pattern some solution has x = floor(py/(4y-p)) + 1, gcd(p, y) = 1
                and z = p*lcm(x, y)
  conj5-pattern the same shape found through the x-side witness scan

A sweep returns an exception ledger: the primes in range for which the claim
fails, plus (optionally) the first witness per passing prime.

Every claim is decided at one lattice cell per x-column.  For q = 4x - p > 0,
m = px mod q and D = q - m, the cell y = floor(px/q) + 1 has
4xy - p(x + y) = D, and one exact check (_cell) decides whether it is a
solution: of type I(a) when D | x^2, of lcm shape when m != 0, D | x and
D | y.  conj1 asks for an I(a) hit in the window p/4 < x <= p/2; that hit is
also I(b), so it certifies conj2.  The conj5 witness is the first lcm-shaped
hit in the same window; its x is always the lcm partner of its y, so it
certifies conj3-pattern too (_lcm_holds).

Sweeps find the first hit of a block of primes at once, in numpy
(_first_cells, in enumeration._rounds), and _hits confirms each one with
_cell before it decides anything; a prime the kernel misses is decided by
the scalar scan.  The single-prime entry points run in plain Python and
never load numpy: the conj5 witness and the I(a) cell scan their window
with _cell (_scan), and the conj3 witness walks x-columns down from the
partner of ceil(p/2) (_conj3_descent), confirming its hit with _cell.

A prime without a hit is an exception of conj1 and conj5-pattern; conj2 and
conj3-pattern enumerate it (enumeration._solution_rows, whose rows arrive
checked).  An unstored lcm hit has its identity checked (require_solution).
Only a stored or printed witness becomes a WitnessReport, whose Triple
checks the identity again.  A stored conj3-pattern witness is the first
lcm-patterned solution in (x, y) order: that path reads a block's listed
columns in shared rounds (_pattern_ys), marks a prime done at its first such
row, and enumerates only a prime without one there.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from pathlib import Path
from typing import IO, Sequence

from .core import Triple, offset_x, require_solution
from .enumeration import _listed_rounds, _rounds, _row, _solution_rows
from .parallel import blocks, pmap
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

# Pattern threshold: the claims are framed for primes above some p* >= 2521,
# so exceptions at or below it are expected and only annotated, never fatal.
DEFAULT_THRESHOLD_PRIME = 2521

CLAIMS = ("conj1", "conj2", "conj3-pattern", "conj5-pattern")

# Desk-scale ceilings: refuse sweeps whose worst case would blow the time
# budget instead of silently grinding.  A whole CLI sweep from 2 to its
# ceiling on one worker (fresh process, shared 2-vCPU box, Python 3.11,
# fastest of eight runs; the box's pace varied up to threefold): conj1
# 1.2 s, conj2 1.2 s, conj5-pattern 2.2 s (5.3 s with witnesses).
# conj3-pattern would take about 3.8 s to 10^7 without witnesses (in one
# process), but --witnesses reads every prime's listed columns (0.03 ms a
# prime in blocks from 10^6 to 10^7, best of three, and 8.5x the primes below
# 10^7, so about 20 s), so its ceiling stays 10^6 (2.4-2.9 s with witnesses
# on one worker, four fresh-process runs).
CLAIM_CEILINGS = {
    "conj1": 10_000_000,
    "conj2": 10_000_000,
    "conj3-pattern": 1_000_000,
    "conj5-pattern": 10_000_000,
}

# The conj3 witness descent has no early bound: on the ten largest primes
# below 10^7 it examines 1.3 * 10^5 to 1.6 * 10^6 columns (1.0-1.3 s for all
# ten), below 10^8 up to 1.1 * 10^7 (9.0 s for ten; 2-vCPU box, Python
# 3.11), so larger p are refused.  conj5's scan stops within 3 candidates
# to 10^15.
CONJ3_WITNESS_CEILING = 10_000_000


def conj3_window(p: int) -> tuple[int, int]:
    """Inclusive y-scan window [ceil(p/2), floor(p(p+3)/6)]."""
    return (p + 1) // 2, p * (p + 3) // 6

def conj5_window(p: int) -> tuple[int, int]:
    """Inclusive x-scan window [ceil(p/4), floor(p/2)]."""
    return (p + 3) // 4, p // 2


@dataclass(frozen=True)
class WitnessReport:
    """A y- or x-side witness with its residue arithmetic and derived triple.

    q = 4*witness - p and m = p*witness mod q; the witness property is that
    q - m divides the witness, which forces the lcm-shaped solution stored in
    `derived` (the witness is its y for "conj3-y", its x for "conj5-x").
    early_exit_scans counts the candidates up to the hit: window values in
    order for find_conj5_witness, and for find_conj3_witness too (the y-scan's
    count, although it walks columns), enumerated solutions in (x, y) order
    for a stored conj3-pattern witness (_pattern_y).
    """

    p: int
    kind: str  # "conj3-y" | "conj5-x"
    witness: int
    m: int
    derived: Triple
    early_exit_scans: int

    def __post_init__(self) -> None:
        if self.kind not in ("conj3-y", "conj5-x"):
            raise ValueError(f"unknown witness kind {self.kind!r}")
        t = self.derived
        if self.witness != (t.y if self.kind == "conj3-y" else t.x):
            raise ValueError(f"{self.kind} witness {self.witness} is not a coordinate of {t}")
        q = 4 * self.witness - self.p
        if q <= 0 or self.m != self.p * self.witness % q:
            raise ValueError(f"m = {self.m} is not p*witness mod (4*witness - p)")
        if t.z != self.p * lcm(t.x, t.y):
            raise ValueError(f"derived triple {t} is not lcm-shaped")
        if self.early_exit_scans < 1:
            raise ValueError("a found witness was scanned at least once")


def _cell(p: int, x: int, lcm_shaped: bool) -> tuple[int, int] | None:
    """(y, D) if column x's cell y = floor(px/q) + 1, q = 4x - p > 0, is a
    hit, else None.  With m = px mod q and D = q - m, qy - px = D, which is
    4xy - p(x + y).  The cell hits
    - if lcm_shaped, when m != 0, D | x and D | y: then (x, y, p*lcm(x, y))
      is a solution.  Proof: with that z the identity reads
      4xy - p(x + y) = g for g = gcd(x, y); D is a multiple of g, and it
      divides both x and y only by being g;
    - otherwise when D | x^2, which for odd p and p/4 < x <= p/2 makes
      (x, y, pxy/D) a solution (see _ia_cell).
    """
    q = 4 * x - p
    if q <= 0:
        return None
    d = q - p * x % q
    if lcm_shaped:
        if d == q or x % d:  # m = 0, or D does not divide x
            return None
    elif x * x % d:
        return None
    y = p * x // q + 1
    return None if lcm_shaped and y % d else (y, d)


def witness_divisibility_y(p: int, y: int) -> bool:
    """y-side witness predicate: gcd(p, y) = 1, m != 0 and q - m divides y.

    Given gcd(p, y) = 1, q - m dividing y makes it divide the partner too.
    """
    return gcd(p, y) == 1 and _cell(p, y, True) is not None


def witness_divisibility_x(p: int, x: int) -> bool:
    """x-side witness predicate: y = ceil(px/q) is an lcm partner of x and gcd(p, y) = 1.

    For prime p and x < p this is m != 0, q - m dividing x and gcd(p, y) = 1.
    """
    return (hit := _cell(p, x, True)) is not None and gcd(p, hit[0]) == 1


def check_conj3_witness(p: int, y: int) -> bool:
    """Witness predicate for y restricted to the conjectured scan window."""
    require_prime(p)
    lo, hi = conj3_window(p)
    if not lo <= y <= hi:
        raise ValueError(f"y = {y} outside the witness window [{lo}, {hi}] for p = {p}")
    return witness_divisibility_y(p, y)


def check_conj5_witness(p: int, x: int) -> bool:
    """Witness predicate for x restricted to the conjectured scan window."""
    require_prime(p)
    lo, hi = conj5_window(p)
    if not lo <= x <= hi:
        raise ValueError(f"x = {x} outside the witness window [{lo}, {hi}] for p = {p}")
    return witness_divisibility_x(p, x)


def _scan(p: int, lo: int, hi: int, lcm_shaped: bool) -> tuple[int, int, int, int] | None:
    """(a, b, D, scans): the first a in [lo, hi] whose cell b hits (_cell),
    found after examining `scans` candidates.  It serves the conj5 witness
    and the I(a) cell, whose windows are x-windows; the conj3 witness walks
    columns instead (_conj3_descent).

    p is prime, and a solution (a, b, p*lcm(a, b)) has p dividing neither a
    nor b, so the gcd clauses of both witness predicates hold by themselves.
    """
    for a in range(lo, hi + 1):
        hit = _cell(p, a, lcm_shaped)
        if hit is not None:
            return a, *hit, a - lo + 1
    return None


def _report(p: int, kind: str, found: tuple[int, int, int, int] | None) -> WitnessReport | None:
    """found = (witness a, lcm partner b, D = gcd(a, b), scans) as a
    WitnessReport; its Triple checks the identity in exact integers."""
    if found is None:
        return None
    a, b, d, scans = found
    return WitnessReport(p, kind, a, 4 * a - p - d, Triple(p, a, b, p * (a // d) * b), scans)


def _conj3_descent(p: int) -> tuple[int, int, int] | None:
    """(y, x, D) for the first y in conj3_window(p) whose cell hits,
    _cell(p, y, True) == (x, D), found by walking x-columns down; p an odd
    prime.

    Such a hit is a solution (x, y, p*lcm(x, y)) whose D = 4xy - p(x + y)
    divides x and y, with x the partner of y, so p/4 < x <= the partner of
    ceil(p/2).  In column x, q = 4x - p, the cells are y = floor(px/q) + 1 + k
    with D = D0 + kq, D0 = q - px mod q.  A cell with D <= x is the cell of
    its own y, as D <= x < 4y - p (so m != 0 on the y side), and since
    gcd(D, q) = gcd(px, q) = 1, D | x gives D | qy = px + D, hence D | y.
    So the hits are the column cells with D | x:
    - For x > p/3, q > x: only a column's first cell can have D <= x.  Its
      y is at most p, inside the window's top, and rises as x falls, so the
      first column whose D0 divides x holds the first witness.
    - For x <= p/3, every cell has y > px/q >= p, a column may hold several
      (rising with k), and the columns' first cells rise as x falls.  The
      least y found is kept until a column's first y passes it.
    """
    lo, hi = conj3_window(p)
    top = p * lo // (4 * lo - p) + 1  # the partner of lo
    for x in range(top, p // 3, -1):
        q = 4 * x - p
        d = q - p * x % q
        if x % d == 0 and (y := p * x // q + 1) >= lo:  # only top's y may lie below lo
            return y, x, d
    best = None
    for x in range(min(top, p // 3), p // 4, -1):
        q = 4 * x - p
        y = p * x // q + 1
        stop = hi if best is None else best[0] - 1
        if y > stop:
            break
        d = q - p * x % q
        while d <= x and y <= stop:
            if x % d == 0:
                best = y, x, d
                break
            d += q
            y += 1
    return best


def find_conj3_witness(p: int) -> WitnessReport | None:
    """First y in the window passing the witness predicate, with its triple
    (_conj3_descent, confirmed by _cell).  p = 2 has none: its window holds
    y = 1 alone, where m = 0."""
    require_prime(p)
    if p > CONJ3_WITNESS_CEILING:
        raise ValueError(f"p = {p} exceeds the conj3 witness ceiling {CONJ3_WITNESS_CEILING}")
    found = None if p == 2 else _conj3_descent(p)
    if found is None:
        return None
    y, x, d = found
    if _cell(p, y, True) != (x, d):
        raise AssertionError(f"descent cell y = {y} for p = {p} fails in exact integers")
    return _report(p, "conj3-y", (y, x, d, y - conj3_window(p)[0] + 1))


def find_conj5_witness(p: int) -> WitnessReport | None:
    """First x in the window passing the witness predicate, with its triple."""
    require_prime(p)
    return _report(p, "conj5-x", _scan(p, *conj5_window(p), True))


def _ia_cell(p: int) -> tuple[int, int, int, int] | None:
    """(x, y, D, scans) of the type I(a) solution with the smallest x, or
    None; p prime.

    For odd p and p/4 < x <= p/2 (conj5_window), q = 4x - p and the cell
    y = floor(px/q) + 1 has 4xy - p(x + y) = D = q - px mod q.  As D < p,
    gcd(D, q) = 1 and qy = px + D, D divides pxy, making the cell a
    solution, iff D divides x^2.  Past p/2, y <= x: the one y = x solution
    there, x = (p + 1)/2 for p = 3 (mod 4), follows the hit at
    x = (p + 1)/4, where q = 1.  p = 2's solution (1, 2, 2) has D = 2 and
    fails D | x^2.
    """
    return (1, 2, 2, 1) if p == 2 else _scan(p, *conj5_window(p), False)


# The largest p whose cells _first_cells tests in int64; every sweep ceiling
# lies within it.
_CELL_LIMIT = 10_000_000


def _first_cells(primes: Sequence[int], lcm_shaped: bool) -> list[int]:
    """For each prime p (0 past _CELL_LIMIT), the first x in p/4 < x <= p/2
    whose cell hits, or 0.  With q = 4x - p, m = px mod q and D = q - m, x hits
    - for the type I(a) cell (odd p) when D | x^2;
    - when lcm_shaped, when m != 0 and D | x.  _cell also asks D | y for
      y = floor(px/q) + 1, but in the window that follows: qy - px = D, and
      gcd(D, q) = gcd(m, q) = gcd(px, q) = 1, because gcd(x, q) =
      gcd(x, p) = 1 for x < p and gcd(p, q) = gcd(p, 4x) = 1 for odd p
      (p = 2 has m = 0).  So D | x gives D | px + D = qy, hence D | y.
    _hits confirms every hit with _cell.

    The windows are tested in _rounds, whose widths double because most
    primes hit within a few cells and a few need thousands.  A prime is done
    at its first hit; one past _CELL_LIMIT, which may not fit int64 and
    stands in as _CELL_LIMIT + 1, starts done, so none of its cells is laid
    out.  int64 is exact: p <= 10^7 keeps p*x and x*x below 10^14.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    ps = np.array([p if p <= _CELL_LIMIT else _CELL_LIMIT + 1 for p in primes], dtype=np.int64)
    done = ps > _CELL_LIMIT
    first = np.zeros_like(ps)
    for owner, x in _rounds(ps // 4 + 1, ps // 2, done):
        p = ps[owner]
        q = 4 * x - p
        d = q - p * x % q
        hit = np.flatnonzero((d < q) & (x % d == 0) if lcm_shaped else x * x % d == 0)
        hit = hit[np.diff(owner[hit], prepend=-1) != 0]  # each owner's first hit
        first[owner[hit]] = x[hit]
        done[owner[hit]] = True
    return first.tolist()


def _hits(primes: Sequence[int], lcm_shaped: bool) -> list[tuple[int, int, int, int] | None]:
    """[_scan(p, *conj5_window(p), True) if lcm_shaped else _ia_cell(p)] for
    the primes: each prime's first hit (x, y, D, scans) in p/4 < x <= p/2,
    or None.  Each _first_cells hit must lie in that window and pass _cell
    in exact integers; any other cell raises.  The scalar scan decides each
    prime the kernel finds no hit for (below 10^7, 2 and 193 for the I(a)
    cell, and 2, 3, 7, 47, 193 and 2521 for the lcm shape), among them any
    prime past _CELL_LIMIT, which only a caller's ledger or _check_claim
    brings."""
    found: list[tuple[int, int, int, int] | None] = []
    for p, x in zip(primes, _first_cells(primes, lcm_shaped)):
        if not x:
            found.append(_scan(p, *conj5_window(p), True) if lcm_shaped else _ia_cell(p))
            continue
        lo = (p + 3) // 4  # conj5_window(p)
        hit = _cell(p, x, lcm_shaped) if lo <= x <= p // 2 else None
        if hit is None:
            raise AssertionError(f"kernel cell x = {x} for p = {p} fails in exact integers")
        found.append((x, hit[0], hit[1], x - lo + 1))
    return found


def verify_type_Ia_exists(p: int) -> bool:
    """Does some solution sit one step above the boundary in y?  One
    divisibility per x-column (_ia_cell) decides it without enumerating."""
    require_prime(p)
    return _ia_cell(p) is not None


def _ib_exists(p: int, hit: tuple[int, int, int, int] | None) -> bool:
    """verify_type_Ib_exists for a prime p whose first type I(a) cell is
    `hit` (_ia_cell, or _hits).

    An I(a) cell (x, y, z) with x < y is also I(b), so the hit decides p.
    Proof: 4xy - p(x + y) = D is symmetric in x and y.  The cell has
    qy - px = D with q = 4x - p and 0 < D <= q, so with q' = 4y - p also
    q'x - py = D, that is py = q'(x - 1) + (q' - D).  x < y gives
    q < q', so 0 <= q' - D < q' and floor(py/q') = x - 1: offset_x = 1.
    Every cell with p/4 < x <= p/2 has y > px/q >= x, and every hit lies in
    that window (_scan scans only it, _hits refuses a kernel cell outside
    it); p = 2's (1, 2, 2) has x < y too.  A prime without a hit is
    enumerated.
    """
    return hit is not None or any(offset_x(p, x, y) == 1 for x, y, _z in _solution_rows(p))


def verify_type_Ib_exists(p: int) -> bool:
    """Does some solution sit one step above the boundary in x?"""
    require_prime(p)
    return _ib_exists(p, _ia_cell(p))


def _pattern_y(p: int) -> tuple[int, int, int, int] | None:
    """(y, x, D, scans) for the first enumerated solution (x, y, z) whose x
    is the lcm partner of y (_cell), `scans` solutions into (x, y) order.

    Unlike find_conj3_witness this is not window-bounded: it quantifies over
    actual solutions, which is the form the whole-range claim takes.
    gcd(p, y) = 1 needs no test (see _scan).
    """
    for scans, (x, y, _z) in enumerate(_solution_rows(p), 1):
        hit = _cell(p, y, True)
        if hit is not None and hit[0] == x:
            return y, x, hit[1], scans
    return None


def _pattern_ys(primes: Sequence[int]) -> list[tuple[int, int, int, int] | None]:
    """[_pattern_y(p) for p in primes], the block's listed columns read
    together: enumeration._listed_rounds gives every prime its next columns
    in shared rounds, each prime's rows in (x, y) order, and a prime is
    marked done at its first lcm-patterned row, which retires it from the
    rounds.  A prime with no such row in its listed columns (106 of the
    primes below 10^6) is enumerated by _pattern_y.
    """
    import numpy as np  # here, not at module level: import straus stays numpy-free

    index = {p: i for i, p in enumerate(primes)}
    done = np.zeros(len(primes), dtype=bool)
    found: dict[int, tuple[int, int, int, int]] = {}
    scans = dict.fromkeys(primes, 0)
    for p, x, d in _listed_rounds(primes, done):
        _x, y, _z = _row(p, x, d)
        scans[p] += 1
        hit = _cell(p, y, True)
        if hit is not None and hit[0] == x:
            found[p] = y, x, hit[1], scans[p]
            done[index[p]] = True
    return [found[p] if p in found else _pattern_y(p) for p in primes]


def _lcm_holds(p: int, hit: tuple[int, int, int, int] | None, conj3: bool) -> bool:
    """Does conj5-pattern (conj3-pattern if conj3) hold at p, given the
    prime's checked conj5 witness `hit` = (x, y, D, scans)?

    The hit's identity is checked here.  Its x is the lcm partner of its y
    (_cell(p, y, True) == (x, D)), so it certifies conj3-pattern as well,
    which enumerates only a prime without a hit.  Proof: the hit has
    p/4 < x <= p/2, so y > px/(4x - p) >= p/2 and 4y - p > 2y >= 2x.  D is
    symmetric in x and y, so py = (4y - p)(x - 1) + (4y - p - D) with
    0 < D <= x < 4y - p: y's cell is x with the same D, m = 4y - p - D != 0,
    and D divides x and y.
    """
    if hit is not None:
        x, y, _d, _scans = hit
        require_solution(p, x, y, p * lcm(x, y))
        return True
    return conj3 and _pattern_y(p) is not None


def _check_block(claim: str, store: bool, primes: Sequence[int]
                 ) -> tuple[list[int], list[WitnessReport]]:
    """(the primes at which the claim fails, the stored witnesses), both in
    the order of `primes`; top level so sweeps can fork.

    The primes are prime: sweeps take them from primes_in, so no check here
    tests them again.  conj1 and conj2 decide from the type I(a) cells, the
    other claims from the conj5 witnesses (_hits).  A stored witness is the
    conj5 hit, or for conj3-pattern the first lcm-patterned solution in
    (x, y) order (_pattern_ys); its Triple and WitnessReport check it.
    """
    if claim == "conj1":
        return [p for p, hit in zip(primes, _hits(primes, False)) if hit is None], []
    if claim == "conj2":
        return [p for p, hit in zip(primes, _hits(primes, False)) if not _ib_exists(p, hit)], []
    conj3 = claim == "conj3-pattern"
    if not store:
        return [p for p, hit in zip(primes, _hits(primes, True))
                if not _lcm_holds(p, hit, conj3)], []
    kind = "conj3-y" if conj3 else "conj5-x"
    found = _pattern_ys(primes) if conj3 else _hits(primes, True)
    exceptions, witnesses = [], []
    for p, hit in zip(primes, found):
        if hit is None:
            exceptions.append(p)
        else:
            witnesses.append(_report(p, kind, hit))
    return exceptions, witnesses


def _check_claim(claim: str, store: bool, p: int) -> tuple[int, bool, WitnessReport | None]:
    """(p, does the claim hold at p, stored witness): _check_block for the
    one prime p."""
    exceptions, witnesses = _check_block(claim, store, (p,))
    return p, not exceptions, witnesses[0] if witnesses else None


def _require_claim(claim: str) -> None:
    """Raise ValueError unless claim is one of CLAIMS."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")


@dataclass(frozen=True)
class ExceptionLedger:
    """Outcome of a sweep: which primes in range fail the claim."""

    claim: str
    prime_range: PrimeRange
    exceptions: tuple[int, ...]
    witnesses: tuple[WitnessReport, ...] = ()

    def __post_init__(self) -> None:
        _require_claim(self.claim)

    def unexpected(self, threshold: int = DEFAULT_THRESHOLD_PRIME) -> tuple[int, ...]:
        """Exceptions above the pattern threshold p*."""
        return tuple(p for p in self.exceptions if p > threshold)

    def recheck(self) -> bool:
        """Re-verify on demand that every listed exception still fails."""
        for p in self.exceptions:
            require_prime(p)  # caller data, not a sweep's sieved primes
        return len(_check_block(self.claim, False, self.exceptions)[0]) == len(self.exceptions)


def sweep(
    claim: str,
    r: PrimeRange,
    workers: int = 1,
    store_witnesses: bool = False,
) -> ExceptionLedger:
    """Run the claim's verifier over every prime in r, in blocks of about
    equal numbers of primes (parallel.blocks).

    Partitioning across workers never changes the result; the ledger merge is
    a plain ordered concatenation.  A sweep too cheap to pay for a pool runs
    in-process at any worker count.

    A sweep that stores witnesses builds a Triple and a WitnessReport per
    passing prime, none of them in a reference cycle, so it pauses the
    cyclic garbage collector meanwhile: its passes over the growing heap of
    witnesses took about a sixth of the conj5-pattern sweep to 10**6 (in
    process, one worker).  The caller's setting comes back when the sweep
    returns or raises.
    """
    _require_claim(claim)
    r.require_within(CLAIM_CEILINGS[claim], claim)
    primes = primes_in(r)
    paused = store_witnesses and gc.isenabled()
    if paused:
        gc.disable()
    try:
        checked = pmap(partial(_check_block, claim, store_witnesses), blocks(primes, workers),
                       workers)
        exceptions = tuple(p for block, _witnesses in checked for p in block)
        witnesses = tuple(w for _exceptions, block in checked for w in block)
    finally:
        if paused:
            gc.enable()
    return ExceptionLedger(claim, r, exceptions, witnesses)


def write_ledger_csv(ledger: ExceptionLedger, dest: str | Path | IO[str]) -> None:
    """CSV rows `claim,p,status,witness,m`, ascending in p, plus a trailing
    summary line.  A prime listed as an exception is one, whatever witness
    is stored for it."""
    claim = ledger.claim
    rows = {w.p: f"{claim},{w.p},ok,{w.witness},{w.m}" for w in ledger.witnesses}
    rows.update((p, f"{claim},{p},exception,,") for p in ledger.exceptions)
    footer = (f"# claim={claim} range=[{ledger.prime_range.lo},{ledger.prime_range.hi}] "
              f"exceptions={len(ledger.exceptions)} witnesses={len(ledger.witnesses)}")
    write_to(dest, "\n".join(["claim,p,status,witness,m", *map(rows.get, sorted(rows)), footer]) + "\n")
