"""Prime generation (segmented sieve) and deterministic primality testing."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

PRIME_CEILING = 2**40
DEFAULT_SEGMENT_SIZE = 1 << 20

# Strong-pseudoprime bases proven deterministic below the smallest strong
# pseudoprime to all of them: 4 bases below _MR_SMALL_LIMIT (Jaeschke 1993),
# 13 below _MR_LIMIT (Sorenson-Webster, arXiv:1509.00864; the first 12 pass
# 318665857834031151167461 = 399165290221 * 798330580441).
_MR_SMALL_BASES = (2, 3, 5, 7)
_MR_SMALL_LIMIT = 3_215_031_751
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class PrimeRange:
    """Closed range [lo, hi] of candidate primes, bounded by PRIME_CEILING."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError(f"range must start at 2 or above, got lo = {self.lo}")
        if self.hi < self.lo:
            raise ValueError(f"empty-ordered range [{self.lo}, {self.hi}]")
        if self.hi > PRIME_CEILING:
            raise ValueError(
                f"hi = {self.hi} exceeds the configured ceiling {PRIME_CEILING}"
            )

    def require_within(self, ceiling: int, what: str) -> None:
        """Refuse a range ending above a desk-scale ceiling, naming the part
        of it below the ceiling when there is one."""
        if self.hi > ceiling:
            below = f"; try [{self.lo}, {ceiling}] and run the rest separately"
            raise ValueError(
                f"range [{self.lo}, {self.hi}] exceeds the {what} desk-scale ceiling "
                f"{ceiling}{below if self.lo <= ceiling else ''}"
            )


def _sieve_flags(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n is prime, for 0 <= n < limit (limit >= 2)."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = bytes(len(range(start, limit, p)))
    return flags


def primes_in(r: PrimeRange, segment_size: int = DEFAULT_SEGMENT_SIZE) -> list[int]:
    """Exactly the primes in [r.lo, r.hi], ascending.

    Works in fixed-size segments so memory stays bounded by segment_size
    regardless of the range width.
    """
    if segment_size < 2:
        raise ValueError(f"segment_size must be >= 2, got {segment_size}")
    root = isqrt(r.hi)
    base = list(compress(range(root + 1), _sieve_flags(root + 1)))
    out: list[int] = []
    lo = r.lo
    while lo <= r.hi:
        hi = min(lo + segment_size - 1, r.hi)
        flags = bytearray([1]) * (hi - lo + 1)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start > hi:
                continue
            flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        out.extend(compress(range(lo, hi + 1), flags))
        lo = hi + 1
    return out


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < _MR_LIMIT (about 3.3e24).

    Trial division by the 13 bases, then a strong-pseudoprime test with the
    base set proven for n, so the answer is never probabilistic; larger n
    raise ValueError.  A few microseconds per call: sweeps take their primes
    from primes_in instead.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n >= _MR_LIMIT:
        raise ValueError(f"n = {n} is past the proven primality range (n < {_MR_LIMIT})")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return n > 1 and _miller_rabin(n, _MR_SMALL_BASES if n < _MR_SMALL_LIMIT else _MR_BASES)


def require_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
