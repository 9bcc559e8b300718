"""Range verifiers for the boundary and lcm-pattern claims.

Four claims are sweepable:

  conj1         some solution is boundary-adjacent in y (type I(a))
  conj2         some solution is boundary-adjacent in x (type I(b))
  conj3-pattern some solution has x = floor(py/(4y-p)) + 1, gcd(p, y) = 1
                and z = p*lcm(x, y)
  conj5-pattern the same shape found through the x-side witness scan

A sweep returns an exception ledger: the primes in range for which the claim
fails, plus (optionally) the first witness per passing prime.  conj2 and
conj3-pattern first try the solution their rule table builds for the prime
(_certified); only the primes the table misses are enumerated.

Every claim check works on plain integers: the enumerated (x, y, z) rows of
enumeration._solution_rows, the (witness, partner, scans) of _scan_window and
_pattern_y.  Each row and each found witness is checked in exact integers.
Only a stored or printed witness becomes a WitnessReport with its Triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from pathlib import Path
from typing import IO

from .construct import RuleViolationError, _rule_solution, load_rules, match_rule
from .core import Triple, check_identity, next_boundary, offset_x, require_solution
from .enumeration import _solution_rows
from .parallel import pmap
from .sieve import PrimeRange, primes_in, require_prime
from .sink import write_to

# Pattern threshold: the claims are framed for primes above some p* >= 2521,
# so exceptions at or below it are expected and only annotated, never fatal.
DEFAULT_THRESHOLD_PRIME = 2521

CLAIMS = ("conj1", "conj2", "conj3-pattern", "conj5-pattern")

# Desk-scale ceilings: refuse sweeps whose worst case would blow the time
# budget instead of silently grinding.  A whole CLI sweep from 2 to its
# ceiling on one worker (2-vCPU box, Python 3.11, median of three): conj1
# 5.3 s, conj2 4.0 s, conj5-pattern 4.4 s (11.7 s with witnesses).
# conj3-pattern would take 5.2 s to 10^7 without witnesses, but --witnesses
# enumerates every prime (0.11-0.15 ms each from 10^6 to 10^7, and 8.5x the
# primes below 10^7), so its ceiling stays 10^6 (6.3 s with witnesses).
CLAIM_CEILINGS = {
    "conj1": 10_000_000,
    "conj2": 10_000_000,
    "conj3-pattern": 1_000_000,
    "conj5-pattern": 10_000_000,
}

# The conj3 witness scan has no early bound: on the ten primes below 10^7 it
# examines up to 4.3 * 10^6 candidates (2.4 s for all ten), below 10^9 up to
# 3.6 * 10^8 (171 s for one; 2-vCPU box, Python 3.11), so larger p are
# refused.  conj5's stops within 3 candidates to 10^15.
CONJ3_WITNESS_CEILING = 10_000_000

# The rule table that builds each claim's solution shape from p's residue class.
_CLAIM_RULES = {"conj2": "theorem5", "conj3-pattern": "conjecture3-table"}


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
    early_exit_scans counts candidates examined before the hit.
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


def _lcm_partner(p: int, a: int) -> int | None:
    """b = ceil(pa/q), q = 4a - p > 0, if (a, b, p*lcm(a, b)) is a solution, else None.

    Proof: with z = p*lcm(a, b) the identity reads qb - pa = 4ab - p(a+b) = g
    for g = gcd(a, b).  For m = pa mod q = 0, qb - pa = 0; otherwise it is
    q - m, a multiple of g, which divides both a and b only by being g.
    """
    q = 4 * a - p
    if q <= 0:
        return None
    m = p * a % q
    if m == 0 or a % (q - m):
        return None
    b = p * a // q + 1
    return None if b % (q - m) else b


def witness_divisibility_y(p: int, y: int) -> bool:
    """y-side witness predicate: gcd(p, y) = 1, m != 0 and q - m divides y.

    Given gcd(p, y) = 1, q - m dividing y makes it divide the partner too.
    """
    return gcd(p, y) == 1 and _lcm_partner(p, y) is not None


def witness_divisibility_x(p: int, x: int) -> bool:
    """x-side witness predicate: y = ceil(px/q) is an lcm partner of x and gcd(p, y) = 1.

    For prime p and x < p this is m != 0, q - m dividing x and gcd(p, y) = 1.
    """
    return (y := _lcm_partner(p, x)) is not None and gcd(p, y) == 1


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


def _scan_window(p: int, lo: int, hi: int) -> tuple[int, int, int] | None:
    """(a, b, scans): the first a in [lo, hi] with an lcm partner b, found
    after examining `scans` candidates.

    p is prime, and a solution (a, b, p*lcm(a, b)) has p dividing neither a
    nor b, so the gcd clauses of both witness predicates hold by themselves.
    """
    for a in range(lo, hi + 1):
        b = _lcm_partner(p, a)
        if b is not None:
            return a, b, a - lo + 1
    return None


def _report(p: int, kind: str, found: tuple[int, int, int] | None) -> WitnessReport | None:
    """found = (witness, lcm partner, scans) as a WitnessReport; its Triple
    checks the identity in exact integers."""
    if found is None:
        return None
    a, b, scans = found
    return WitnessReport(p, kind, a, p * a % (4 * a - p), Triple(p, a, b, p * lcm(a, b)), scans)


def find_conj3_witness(p: int) -> WitnessReport | None:
    """First y in the window passing the witness predicate, with its triple."""
    require_prime(p)
    if p > CONJ3_WITNESS_CEILING:
        raise ValueError(f"p = {p} exceeds the conj3 witness ceiling {CONJ3_WITNESS_CEILING}")
    return _report(p, "conj3-y", _scan_window(p, *conj3_window(p)))


def find_conj5_witness(p: int) -> WitnessReport | None:
    """First x in the window passing the witness predicate, with its triple."""
    require_prime(p)
    return _report(p, "conj5-x", _scan_window(p, *conj5_window(p)))


def _ia_column_scan(p: int) -> bool:
    """verify_type_Ia_exists for a prime p."""
    for x in range(p // 4 + 1, (3 * p) // 4 + 1):
        y = next_boundary(p, x)
        if y < x:
            continue
        d = 4 * x * y - p * (x + y)
        pxy = p * x * y
        if pxy % d == 0 and pxy // d >= y:
            return True
    return False


def verify_type_Ia_exists(p: int) -> bool:
    """Does some solution sit one step above the boundary in y?

    Scans each x-column's single candidate y = floor(px/(4x-p)) + 1; that cell
    is the only place a type I(a) solution can live, so this is equivalent to
    enumerating and classifying but exits early.
    """
    require_prime(p)
    return _ia_column_scan(p)


def verify_type_Ib_exists(p: int) -> bool:
    """Does some solution sit one step above the boundary in x?"""
    require_prime(p)
    return any(offset_x(p, x, y) == 1 for x, y, _z in _solution_rows(p))


def _pattern_y(p: int) -> tuple[int, int, int] | None:
    """(y, x, scans) for the first enumerated solution (x, y, z) whose x is
    the lcm partner of y, `scans` solutions into (x, y) order.

    Unlike find_conj3_witness this is not window-bounded: it quantifies over
    actual solutions, which is the form the whole-range claim takes.
    gcd(p, y) = 1 needs no test (see _scan_window).
    """
    for scans, (x, y, _z) in enumerate(_solution_rows(p), 1):
        if _lcm_partner(p, y) == x:
            return y, x, scans
    return None


def _certified(claim: str, p: int) -> bool:
    """Does the claim's rule table give p a solution of the claimed shape?

    The matched rule's solution (construct._rule_solution) is type I(b) by
    construction, which is conj2's shape.  conj3-pattern also needs its x to
    be the lcm partner of y; then d = gcd(x, y) (see _lcm_partner), so its z
    is p*lcm(x, y).  The table is not trusted: a rule that breaks its promise
    gives False, and the solution is checked with exact integers.  The
    certificate exists only for speed: it builds no Triple and skips the
    enumeration that would otherwise decide p.  gcd(p, y) = 1 needs no test:
    an lcm partner of y never exists when the prime p divides y (see
    _scan_window).
    """
    rule = match_rule(load_rules(_CLAIM_RULES[claim]), p)
    if rule is None:
        return False
    try:
        x, y, z = _rule_solution(rule, p)
    except RuleViolationError:
        return False
    if claim == "conj3-pattern" and _lcm_partner(p, y) != x:
        return False
    return x <= y <= z and check_identity(p, x, y, z)


def _check_claim(claim: str, store: bool, p: int) -> tuple[int, bool, WitnessReport | None]:
    """(p, does the claim hold at p, stored witness); top level so sweeps can fork.

    p is prime: sweeps take it from primes_in, so no check here tests it again.
    conj2 and conj3-pattern try the rule certificate first and enumerate only
    when it fails; a stored conj3 witness is still the first solution in
    (x, y) order, so that path always enumerates.  Only a stored witness is
    built as a WitnessReport, whose Triple checks it; otherwise enumerated
    rows are checked by _solution_rows and a conj5 witness here.
    """
    if claim == "conj1":
        return p, _ia_column_scan(p), None
    if claim == "conj2":
        ib = _certified(claim, p) or any(offset_x(p, x, y) == 1 for x, y, _z in _solution_rows(p))
        return p, ib, None
    if claim == "conj3-pattern" and not store:
        return p, _certified(claim, p) or _pattern_y(p) is not None, None
    conj3 = claim == "conj3-pattern"
    found = _pattern_y(p) if conj3 else _scan_window(p, *conj5_window(p))
    if store:
        report = _report(p, "conj3-y" if conj3 else "conj5-x", found)
        return p, report is not None, report
    if found is not None:
        x, y, _scans = found
        require_solution(p, x, y, p * lcm(x, y))
    return p, found is not None, None


@dataclass(frozen=True)
class ExceptionLedger:
    """Outcome of a sweep: which primes in range fail the claim."""

    claim: str
    prime_range: PrimeRange
    exceptions: tuple[int, ...]
    witnesses: tuple[WitnessReport, ...] = ()

    def unexpected(self, threshold: int = DEFAULT_THRESHOLD_PRIME) -> tuple[int, ...]:
        """Exceptions above the pattern threshold p*."""
        return tuple(p for p in self.exceptions if p > threshold)

    def recheck(self) -> bool:
        """Re-verify on demand that every listed exception still fails."""
        for p in self.exceptions:
            require_prime(p)  # caller data, not a sweep's sieved primes
        return all(not _check_claim(self.claim, False, p)[1] for p in self.exceptions)


def sweep(
    claim: str,
    r: PrimeRange,
    workers: int = 1,
    store_witnesses: bool = False,
) -> ExceptionLedger:
    """Run the claim's per-prime verifier over every prime in r.

    Partitioning across workers never changes the result; the ledger merge is
    a plain ordered concatenation.  A sweep too cheap to pay for a pool runs
    in-process at any worker count; pmap's in-process items load a claim's
    rule table before any pool forks, so the workers inherit it.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    r.require_within(CLAIM_CEILINGS[claim], claim)
    results = pmap(partial(_check_claim, claim, store_witnesses), primes_in(r), workers)
    exceptions = tuple(p for (p, ok, _w) in results if not ok)
    witnesses = tuple(w for (_p, _ok, w) in results if w is not None)
    return ExceptionLedger(claim, r, exceptions, witnesses)


def write_ledger_csv(ledger: ExceptionLedger, dest: str | Path | IO[str]) -> None:
    """CSV rows `claim,p,status,witness,m` plus a trailing summary line."""
    lines = ["claim,p,status,witness,m"]
    by_p = {w.p: w for w in ledger.witnesses}
    rows = sorted(set(ledger.exceptions) | set(by_p))
    for p in rows:
        if p in by_p and p not in ledger.exceptions:
            w = by_p[p]
            lines.append(f"{ledger.claim},{p},ok,{w.witness},{w.m}")
        else:
            lines.append(f"{ledger.claim},{p},exception,,")
    lines.append(
        f"# claim={ledger.claim} range=[{ledger.prime_range.lo},{ledger.prime_range.hi}] "
        f"exceptions={len(ledger.exceptions)} witnesses={len(ledger.witnesses)}"
    )
    text = "\n".join(lines) + "\n"
    write_to(dest, text)
