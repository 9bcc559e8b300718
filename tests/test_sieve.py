import os
import subprocess
import sys
from pathlib import Path

import pytest

import straus
from straus import sieve
from straus.sieve import (
    _MR_BASES,
    _MR_LIMIT,
    _SMALL_PRIMES,
    _TABLE_LIMIT,
    PRIME_CEILING,
    PrimeRange,
    _miller_rabin,
    is_prime,
    primes_in,
)


def _trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


class TestPrimeRange:
    def test_rejects_lo_below_2(self):
        with pytest.raises(ValueError):
            PrimeRange(1, 10)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            PrimeRange(10, 9)

    def test_rejects_above_ceiling(self):
        with pytest.raises(ValueError):
            PrimeRange(2, PRIME_CEILING + 1)

    def test_single_point_allowed(self):
        assert PrimeRange(4000, 4000).lo == 4000


class TestPrimesIn:
    def test_textbook_primes(self):
        assert primes_in(PrimeRange(2, 20)) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_4000_is_composite(self):
        assert primes_in(PrimeRange(4000, 4000)) == []

    def test_count_below_4000(self):
        assert len(primes_in(PrimeRange(2, 4000))) == 550

    def test_agrees_with_trial_division(self):
        assert primes_in(PrimeRange(2, 10_000)) == _trial_division_primes(2, 10_000)

    def test_interior_window(self):
        assert primes_in(PrimeRange(89, 101)) == [89, 97, 101]

    @pytest.mark.parametrize("segment_size", [2, 7, 64, 1 << 20])
    def test_segment_boundaries_invisible(self, segment_size):
        full = primes_in(PrimeRange(2, 3000), segment_size=segment_size)
        assert full == primes_in(PrimeRange(2, 3000))

    def test_segment_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="segment_size must be >= 2, got 1"):
            primes_in(PrimeRange(2, 100), segment_size=1)

    def test_concatenation_of_subranges(self):
        split = primes_in(PrimeRange(2, 1500)) + primes_in(PrimeRange(1501, 3000))
        assert split == primes_in(PrimeRange(2, 3000))


class TestIsPrime:
    def test_known_primes(self):
        assert is_prime(2521)
        assert is_prime(193)

    def test_even_composite(self):
        assert not is_prime(9240)

    def test_small_values(self):
        assert [n for n in range(40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_agrees_with_sieve_to_100k(self):
        expected = set(primes_in(PrimeRange(2, 100_000)))
        assert {n for n in range(2, 100_001) if is_prime(n)} == expected

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 is the smallest strong pseudoprime to bases 2, 3, 5, 7
        assert not is_prime(3215031751)
        # Carmichael number
        assert not is_prime(561)

    def test_large_64bit_neighbors(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-7)

    def test_rejects_past_proven_range(self):
        assert not is_prime(_MR_LIMIT - 2)  # 17 divides it
        with pytest.raises(ValueError, match="proven primality range"):
            is_prime(_MR_LIMIT)


class TestPrimeTable:
    def test_agrees_with_trial_division(self):
        expected = set(_trial_division_primes(2, 19_999))
        assert {n for n in range(20_000) if is_prime(n)} == expected

    def test_agrees_with_miller_rabin_across_switch(self):
        for n in range(_TABLE_LIMIT - 511, _TABLE_LIMIT + 512, 2):
            expected = all(n % p for p in _SMALL_PRIMES) and _miller_rabin(n, _MR_BASES)
            assert is_prime(n) == expected, n

    def test_strong_pseudoprime_below_cap_rejected(self):
        # 1373653 is the smallest strong pseudoprime to bases 2 and 3
        assert 1373653 < _TABLE_LIMIT and _miller_rabin(1373653, (2, 3))
        assert not is_prime(1373653)

    def test_grows_by_powers_of_two(self, monkeypatch):
        monkeypatch.setattr(sieve, "_table", bytearray())
        assert is_prime(100_003)
        assert len(sieve._table) == 1 << 17
        assert not is_prime(_TABLE_LIMIT - 1)  # 3 * 23 * 89 * 683
        assert len(sieve._table) == _TABLE_LIMIT

    def test_bounded_by_cap(self, monkeypatch):
        monkeypatch.setattr(sieve, "_table", bytearray())
        assert is_prime(2**22 + 15)
        assert is_prime(2**61 - 1)
        assert len(sieve._table) <= 2**22

    def test_import_leaves_table_empty(self):
        src = Path(straus.__file__).resolve().parent.parent
        code = "import sys, straus, straus.cli; sys.exit(len(straus.sieve._table) != 0)"
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
