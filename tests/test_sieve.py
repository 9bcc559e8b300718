import pytest

from straus.sieve import (
    _MR_BASES,
    _MR_LIMIT,
    _MR_SMALL_BASES,
    _MR_SMALL_LIMIT,
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

    def test_twelve_bases_are_not_enough(self):
        # psi_12 = 399165290221 * 798330580441, the smallest strong pseudoprime
        # to the first 12 prime bases; the 13th base, 41, exposes it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert _miller_rabin(psi12, _MR_BASES[:12])
        assert not is_prime(psi12)

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
        # four bases decide below _MR_SMALL_LIMIT, which fools them, and all 13 from it on
        assert _MR_SMALL_LIMIT == 3_215_031_751
        assert _miller_rabin(_MR_SMALL_LIMIT, _MR_SMALL_BASES)
        assert not is_prime(_MR_SMALL_LIMIT)
        for n in range(_MR_SMALL_LIMIT - 511, _MR_SMALL_LIMIT + 512, 2):
            expected = all(n % p for p in _MR_BASES) and _miller_rabin(n, _MR_BASES)
            assert is_prime(n) == expected, n

    def test_strong_pseudoprime_below_cap_rejected(self):
        # 1373653 is the smallest strong pseudoprime to bases 2 and 3
        assert _miller_rabin(1373653, (2, 3))
        assert not is_prime(1373653)
