"""The x-major range kernel: the reference that tests compare enumerate_fast
against.

It reaches every solution of a list of primes from a different order of work
than the per-prime enumerator (columns outermost, each column's divisors of
x**2 tested against all its primes at once, no divisor walks), so a row the
per-prime path loses shows up as a difference.  It shares no code with the
enumerator, not even the factorization, so a factoring fault cannot hide by
hitting both sides.  Import it with tests/ on the path:
`PYTHONPATH=src:tests python -c "from range_kernel import ..."`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Sequence

import numpy as np

from straus.core import require_solution

_BLOCK_CELLS = 1 << 18  # most (prime, divisor) pairs per numpy call


def _square_divisors(x: int) -> list[int]:
    """All divisors of x**2, from x factored by trial division by every
    integer q with q*q <= x (a composite q finds its factors gone)."""
    divs, n, q = [1], x, 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            divs = [d * q**k for d in divs for k in range(2 * e + 1)]
        q += 1
    if n > 1:
        divs = [d * n**k for d in divs for k in range(3)]
    return divs


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
