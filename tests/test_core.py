from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straus.core import (
    BoundaryValue,
    Triple,
    boundary,
    check_identity,
    classify,
    next_boundary,
    offset_x,
)
from straus.sieve import PrimeRange, primes_in

PRIMES_2000 = primes_in(PrimeRange(2, 2000))
ODD_PRIMES = [p for p in PRIMES_2000 if p != 2]


class TestCheckIdentity:
    def test_known_solution_for_17(self):
        assert check_identity(17, 5, 34, 170)

    def test_perturbed_solution_fails(self):
        assert not check_identity(17, 5, 34, 171)

    def test_oracle_derived_solution_for_7(self):
        assert check_identity(7, 3, 6, 14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_identity(17, 0, 34, 170)

    def test_exact_past_128_bits(self):
        # exact integers at any width: 4xyz here has 128 bits
        x, y, z = 198080, 52314050454, 4105139812303172358720
        assert check_identity(792317, x, y, z)
        assert not check_identity(792317, x, y, z + 1)
        big = 2**43
        assert not check_identity(3, big, big, big)


class TestBoundary:
    def test_17_6(self):
        b = boundary(17, 6)
        assert (b.num, b.den) == (102, 7)
        assert b.floor() == 14

    def test_17_17(self):
        b = boundary(17, 17)
        assert (b.num, b.den) == (289, 51)
        assert b.floor() == 5

    @pytest.mark.parametrize("p", [5, 13, 97, 641])
    def test_diagonal_floor_is_p_third(self, p):
        assert boundary(p, p).floor() == p // 3

    def test_below_pole_rejected(self):
        with pytest.raises(ValueError):
            boundary(17, 4)  # 16 <= 17

    def test_direct_construction_requires_positive_den(self):
        with pytest.raises(ValueError):
            BoundaryValue(10, 0)


class TestNextBoundary:
    def test_matches_x_of_17_solution(self):
        assert next_boundary(17, 30) == 5

    def test_matches_y_of_17_solution(self):
        assert next_boundary(17, 6) == 15

    def test_71_284(self):
        assert next_boundary(71, 284) == 19

    @given(
        p=st.sampled_from(ODD_PRIMES),
        a=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=300)
    def test_equals_ceiling_when_not_divisible(self, p, a):
        if 4 * a <= p:
            a += p  # push above the pole
        b = boundary(p, a)
        if not b.is_integral():
            assert next_boundary(p, a) == b.ceil()
        else:
            assert next_boundary(p, a) == b.floor() + 1

    @given(
        p=st.sampled_from(ODD_PRIMES),
        a1=st.integers(min_value=1, max_value=10**5),
        delta=st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=300)
    def test_boundary_monotone_decreasing(self, p, a1, delta):
        if 4 * a1 <= p:
            a1 += p
        a2 = a1 + delta
        b1, b2 = boundary(p, a1), boundary(p, a2)
        # p*a1/(4a1-p) > p*a2/(4a2-p) as exact rationals
        assert b1.num * b2.den > b2.num * b1.den


class TestTriple:
    def test_canonicalizes_order(self):
        t = Triple(17, 170, 5, 34)
        assert t.as_tuple() == (5, 34, 170)

    def test_canonicalizes_every_order(self):
        for order in permutations((5, 34, 170)):
            assert Triple(17, *order).as_tuple() == (5, 34, 170), order

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            Triple(17, 5, 34, 171)

    def test_accepts_p2(self):
        assert Triple(2, 1, 2, 2).as_tuple() == (1, 2, 2)

    def test_rejects_overflow(self):
        # scaling a solution of p = 17 by 2**40 breaks the identity for p = 17
        with pytest.raises(ValueError, match="not a solution"):
            Triple(17, 5 * 2**40, 34 * 2**40, 170 * 2**40)

    def test_equal_members_allowed(self):
        assert Triple(7, 4, 4, 14).as_tuple() == (4, 4, 14)


class TestClassify:
    def test_17_6_15_510_is_both(self):
        c = classify(Triple(17, 6, 15, 510))
        assert c.is_ia and c.is_ib
        assert (c.offset_x, c.offset_y) == (1, 1)

    def test_17_5_34_170_is_ib_only(self):
        c = classify(Triple(17, 5, 34, 170))
        assert not c.is_ia and c.is_ib

    def test_71_type_ii_offset_2(self):
        c = classify(Triple(71, 20, 284, 355))
        assert not c.is_ia and not c.is_ib
        assert c.offset_x == 2
        assert c.is_type_ii

    def test_offset_x_is_distance_to_boundary_floor(self):
        for p in ODD_PRIMES[:40]:
            for y in range(p // 4 + 1, 2 * p):
                assert offset_x(p, 1, y) == 1 - boundary(p, y).floor()
        assert offset_x(71, 20, 284) == 2
        assert offset_x(71, 284, 20) == classify(Triple(71, 20, 284, 355)).offset_y

    def test_labels(self):
        assert classify(Triple(17, 6, 15, 510)).labels() == "I(a)+I(b)"
        assert classify(Triple(17, 5, 34, 170)).labels() == "I(b)"
        assert classify(Triple(71, 20, 284, 355)).labels() == "II"
