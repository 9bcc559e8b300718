import hashlib
import io
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from math import isqrt

import numpy as np
import pytest
from range_kernel import iter_range_solutions

from straus import core, enumeration
from straus.core import Triple, check_identity, next_boundary
from straus.enumeration import (
    FAST_LIMIT,
    ORACLE_LIMIT,
    SolutionSet,
    _solution_rows,
    _square_divisors,
    enumerate_fast,
    enumerate_labelled,
    enumerate_oracle,
    write_solutions_csv,
)
from straus.sieve import PrimeRange, is_prime, primes_in
from straus.stats import range_summary

# 10009 and 110017 are 1 (mod 24); 14159 is 3 (mod 4), so its first column
# has r = 4x - p = 1, while the others' first columns have r = 3.
ABOVE_ORACLE = [10009, 14159, 60013, 110017, 150011]


def _flat_hits(primes):
    """The (p, x, D) hits of enumeration._block_hits(primes), sorted, as
    tuples of ints."""
    return sorted(t for chunk in enumeration._block_hits(primes)
                  for t in zip(*(a.tolist() for a in chunk)))


class TestOracle:
    def test_17_gives_the_four_classics(self):
        assert enumerate_oracle(17).as_tuples() == [
            (5, 30, 510),
            (5, 34, 170),
            (6, 15, 510),
            (6, 17, 102),
        ]

    def test_p2_single_solution(self):
        assert enumerate_oracle(2).as_tuples() == [(1, 2, 2)]

    def test_7_contains_stated_solutions(self):
        got = enumerate_oracle(7).as_tuples()
        assert (3, 6, 14) in got
        assert (4, 4, 14) in got

    def test_7_full_set(self):
        # frozen from this oracle itself; guards against regressions
        assert enumerate_oracle(7).as_tuples() == [
            (2, 15, 210), (2, 16, 112), (2, 18, 63), (2, 21, 42),
            (2, 28, 28), (3, 6, 14), (4, 4, 14),
        ]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            enumerate_oracle(15)

    def test_rejects_above_limit(self):
        with pytest.raises(ValueError, match="enumerate_fast"):
            enumerate_oracle(10_007)  # first prime above ORACLE_LIMIT


class TestFast:
    def test_17_matches_oracle(self):
        assert enumerate_fast(17).as_tuples() == enumerate_oracle(17).as_tuples()

    def test_193_contains_its_ib_solution(self):
        assert (50, 1930, 4825) in enumerate_fast(193).as_tuples()

    def test_71_contains_type_ii_example(self):
        assert (20, 284, 355) in enumerate_fast(71).as_tuples()

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            enumerate_fast(9240)

    @pytest.mark.parametrize("p", primes_in(PrimeRange(2, 150)))
    def test_equals_oracle_small(self, p):
        assert enumerate_fast(p).as_tuples() == enumerate_oracle(p).as_tuples()

    def test_every_solution_inside_positive_region(self):
        for p in primes_in(PrimeRange(2, 300)):
            for t in enumerate_fast(p):
                assert p < 4 * t.x <= 3 * p
                assert t.y >= next_boundary(p, t.x)
                assert check_identity(p, t.x, t.y, t.z)

    def test_rows_are_the_triples(self):
        for p in primes_in(PrimeRange(2, 300)):
            assert list(_solution_rows(p)) == enumerate_fast(p).as_tuples()

    def test_per_prime_row_failing_the_identity_raises(self, monkeypatch):
        # each certified row is checked again as a Triple
        monkeypatch.setattr(core, "check_identity", lambda *row: False)
        with pytest.raises(ValueError, match=r"not a solution: 4/17 != 1/5 \+ 1/30 \+ 1/510"):
            enumerate_fast(17)

    def test_per_prime_row_failing_the_certificate_raises(self, monkeypatch):
        # the prime's hits are certified together, in (x, y) order, before
        # its first row: refusing the second, (5, 34, 170) with D = 17, stops
        # the first as well
        certify = enumeration._certify
        monkeypatch.setattr(enumeration, "_certify",
                            lambda p, x, d: certify(p, x, d) & (np.arange(p.size) != 1))
        with pytest.raises(ValueError, match="not a solution: the hit p = 17, x = 5, D = 17 "):
            next(_solution_rows(17))

    def test_labelled_rows_are_the_triples(self):
        for p in [2, 3, 17, 193, 1009]:
            solutions, labels = enumerate_labelled(p)
            assert solutions == enumerate_fast(p)
            assert labels == [core.classify(t).labels() for t in solutions]

    def test_labels_keep_classify_checks(self, monkeypatch):
        # 17's third row, (6, 15, 510), is I(a)+I(b); its offset_x raised to
        # 2 makes it I(a) without I(b), lowered to 0 puts it on the boundary
        offsets = enumeration._offsets
        for shift, message in [(1, "type I(a) without I(b) contradicts boundary algebra"),
                               (-1, "solution on or below the boundary is impossible")]:
            def shifted(p, x, d, shift=shift):
                off_x, off_y = offsets(p, x, d)
                return off_x + shift * (np.arange(p.size) == 2), off_y

            monkeypatch.setattr(enumeration, "_offsets", shifted)
            with pytest.raises(AssertionError, match=re.escape(
                    f"{message}: Triple(p=17, x=6, y=15, z=510)")):
                enumerate_labelled(17)

    def test_column_blocks_yield_the_same_rows(self, monkeypatch):
        # the numpy pass spans several blocks only from p near 66 000; blocks
        # of 7 columns cut each prime's progression columns into many calls
        primes = primes_in(PrimeRange(2, 3000))
        whole = [list(_solution_rows(p)) for p in primes]
        monkeypatch.setattr(enumeration, "_COLUMN_BLOCK", 7)
        assert [list(_solution_rows(p)) for p in primes] == whole

    def test_cell_blocks_yield_the_same_rows(self, monkeypatch):
        # every band progression (8r < x <= 64r) holds 8 to 64 candidates, so
        # blocks of 7 cells cut through each of them
        primes = primes_in(PrimeRange(2, 3000))
        whole = [list(_solution_rows(p)) for p in primes]
        monkeypatch.setattr(enumeration, "_CELL_BLOCK", 7)
        assert [list(_solution_rows(p)) for p in primes] == whole

    def test_rounds_in_parts_yield_the_same_hits(self, monkeypatch):
        # a round serves at most _CELL_BLOCK primes, so with 7 the 429 primes
        # go through the listed rounds 7 at a time
        primes = primes_in(PrimeRange(2, 3000))
        whole = _flat_hits(primes)
        monkeypatch.setattr(enumeration, "_CELL_BLOCK", 7)
        assert _flat_hits(primes) == whole

    def test_rounds_of_a_lone_prime_start_at_the_floor(self, monkeypatch):
        # one prime below 2 * 10**5 (at most 196 listed columns) takes one or
        # two rounds, of at least _ROUND_FLOOR columns
        rounds = []
        factor = enumeration._square_divisors

        def spy(ns, most=None):
            rounds.append(len(ns))
            return factor(ns, most)

        monkeypatch.setattr(enumeration, "_square_divisors", spy)
        for p, n_rounds in [(14009, 1), (120011, 1), (199999, 2)]:
            rounds.clear()
            listed = (64 * p - 1) // 255 - p // 4
            assert len(list(enumeration._listed_rounds([p]))) > 0
            assert rounds[0] == min(listed, enumeration._ROUND_FLOOR), (p, rounds)
            assert len(rounds) == n_rounds and sum(rounds) == listed, (p, rounds)

    def test_a_done_prime_leaves_the_rounds(self, monkeypatch):
        # 199999, marked done at its first hit, has listed columns left, yet
        # no later round factors any of them and no later hit of it comes;
        # 400009 goes on alone
        rounds = []
        factor = enumeration._square_divisors

        def spy(ns, most=None):
            rounds.append(set(ns.tolist()))
            return factor(ns, most)

        monkeypatch.setattr(enumeration, "_square_divisors", spy)
        p, other = 199999, 400009
        columns = set(range(p // 4 + 1, enumeration._edges(p)[0] + 1))
        done, hits, at = np.zeros(2, dtype=bool), [], None
        for q, _x, _d in enumeration._listed_rounds([p, other], done):
            hits.append(q)
            if q == p:
                done[0] = True
                at = len(rounds)
        assert hits.count(p) == 1 and other in hits
        assert columns - set().union(*rounds[:at]) and rounds[at:], rounds
        assert not columns & set().union(*rounds[at:])


def _digest(primes):
    """SHA-256 of _flat_hits(primes)."""
    return hashlib.sha256(repr(_flat_hits(primes)).encode()).hexdigest()


# _block_hits inputs of very different sizes for the kept work arrays: a
# prime whose progression pass takes three calls, a small prime, a block of
# 430 primes whose calls span primes, and a prime near perfbench's p75
_WORK_BLOCKS = [[150011], [1009], primes_in(PrimeRange(2, 3000)), [59263]]


class TestWorkArrays:
    def test_interleaved_calls_equal_fresh_processes(self):
        # each block's hits in a process of its own, against the same blocks
        # run one after another, both ways round, and again with every kept
        # array but iota (0, 1, 2, ..., the one read before it is written)
        # overwritten between calls
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(enumeration.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        fresh = []
        for primes in _WORK_BLOCKS:
            code = f"from test_enumeration import _digest; print(_digest({primes!r}))"
            fresh.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                        capture_output=True, text=True).stdout.strip())

        def poison():
            for name, a in enumeration._WORK.items():
                if name != "iota":
                    a.fill(True if a.dtype == bool else 3)

        assert [_digest(primes) for primes in _WORK_BLOCKS] == fresh
        assert [_digest(primes) for primes in _WORK_BLOCKS[::-1]] == fresh[::-1]
        assert [poison() or _digest(primes) for primes in _WORK_BLOCKS] == fresh

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux's minor page faults")
    @pytest.mark.parametrize("p", [59263, 150011])
    def test_lone_prime_calls_fault_in_no_fresh_pages(self, p):
        # with fresh temporaries per call, a call faulted in 442 pages at
        # 59263 and 1 025 at 150011 (fresh process, 100 calls after warm-up)
        for _ in range(3):
            list(enumeration._block_hits([p]))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            list(enumeration._block_hits([p]))
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        assert faults < 20, faults


class TestRounds:
    """enumeration._rounds, the one round scheduler, on synthetic int64
    windows: item i's columns are nxt[i] <= x <= last[i]."""

    @staticmethod
    def _rounds(nxt, last, done=None):
        """The rounds as lists of (owner, x) columns; `done` may be marked
        between them."""
        nxt, last = np.array(nxt, dtype=np.int64), np.array(last, dtype=np.int64)
        done = np.zeros(nxt.size, dtype=bool) if done is None else done
        for owner, x in enumeration._rounds(nxt, last, done):
            assert owner.dtype == x.dtype == np.int64
            yield list(zip(owner.tolist(), x.tolist()))

    def test_every_window_comes_out_whole_and_ascending(self):
        # one window in seven is empty, and none of those ever appears
        nxt = [i * 37 % 1000 for i in range(300)]
        last = [lo + i * 53 % 301 - 7 * (i % 7 == 0) for i, lo in enumerate(nxt)]
        columns = {}
        for round_ in self._rounds(nxt, last):
            assert round_ == sorted(round_)  # owners ascend, each owner's x too
            for i, x in round_:
                columns.setdefault(i, []).append(x)
        assert set(columns) == {i for i in range(300) if nxt[i] <= last[i]}
        for i, xs in columns.items():
            assert xs == list(range(nxt[i], last[i] + 1)), i

    def test_no_round_holds_more_than_cell_block_columns(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_CELL_BLOCK", 7)
        nxt = [5 * i for i in range(50)]
        last = [lo + i % 9 for i, lo in enumerate(nxt)]
        rounds = list(self._rounds(nxt, last))
        assert max(map(len, rounds)) == 7
        assert sorted(c for round_ in rounds for c in round_) == [
            (i, x) for i in range(50) for x in range(nxt[i], last[i] + 1)]

    def test_a_done_item_leaves_the_rounds(self):
        done = np.zeros(5, dtype=bool)
        seen = []
        for k, round_ in enumerate(self._rounds([0] * 5, [499] * 5, done)):
            seen.append({i for i, _x in round_})
            if k == 0:
                done[2] = True
            if k == 2:
                done[4] = True
        assert seen[0] == seen[1] | {2} == seen[2] | {2} == {0, 1, 2, 3, 4}
        assert all(s == {0, 1, 3} for s in seen[3:]) and len(seen) > 3

    @pytest.mark.parametrize("items", [1, 3, 1000])
    def test_widths_double_from_the_floor(self, items):
        # every item has 5000 columns, so every round serves all of them; the
        # widths stop at _CELL_BLOCK // items, which 1000 items reach
        w = max(1, enumeration._ROUND_FLOOR // items)
        cap = enumeration._CELL_BLOCK // items
        widths = [len(r) // items for r in self._rounds([0] * items, [4999] * items)]
        assert widths[:-1] == [min(w << k, cap) for k in range(len(widths) - 1)]
        assert sum(widths) == 5000 and 0 < widths[-1] <= min(w << (len(widths) - 1), cap)


class TestProgressions:
    # the ids name the engine compared with enumerate_fast: the numpy range
    # kernel of tests/range_kernel.py
    @pytest.mark.parametrize("p", ABOVE_ORACLE, ids=lambda p: f"{p}-numpy")
    def test_equals_range_kernel_above_the_oracle(self, p):
        kernel = [(x, y, z) for _p, x, y, z in iter_range_solutions([p])]
        assert enumerate_fast(p).as_tuples() == kernel

    def test_columns_on_both_sides_of_the_divisor_switch_to_3000(self):
        primes = primes_in(PrimeRange(3, 3000))
        by_p = defaultdict(list)
        for p, x, y, z in iter_range_solutions(primes):
            by_p[p].append((x, y, z))
        near_switch = Counter()
        band_types = Counter()
        for p in primes:
            assert enumerate_fast(p).as_tuples() == by_p[p], p
            # above p/2 only the m = 1 walk yields rows: p = 3 (mod 4), (x - u) | u**2
            u = (p + 1) // 4
            for x, _y, _z in by_p[p]:
                if 2 * x > p:
                    assert p % 4 == 3 and u * u % (x - u) == 0, (p, x)
            # the divisor list serves the columns with x > 64r (r = 4x - p), the
            # three progressions the band 8r < x <= 64r and the walks x <= 8r
            edges = {k: max((x for x in range(p // 4 + 1, p) if x > k * (4 * x - p)),
                            default=p // 4) for k in (64, 8)}
            for x, y, _z in by_p[p]:
                for k, edge in edges.items():
                    if edge - 1 <= x <= edge + 2:
                        near_switch[k, x <= edge] += 1
                if edges[64] < x <= edges[8]:
                    big_d = (4 * x - p) * y - p * x  # the divisor of (px)**2 behind the row
                    band_types["d0" if big_d % p == 0 else "d" if big_d <= x else "e"] += 1
        sides = [(k, below) for k in (64, 8) for below in (True, False)]
        assert all(near_switch[side] > 50 for side in sides), near_switch
        assert all(band_types[t] > 50 for t in ("d", "e", "d0")), band_types

    # p = 3: (2, 2, 3) has d = 4, e = 1 = u = (p + 1)/4 on the m = 1 walk;
    # p = 31: (8, 496, 496) has r = 1 and d0 = x = 8r, so s = (d0 + x)/r = 16;
    # p = 99689: x = 25740 has e = 25350 on the m = 31 walk, the last m allowed
    @pytest.mark.parametrize("p, x, d, row", [
        (3, 2, 4, (2, 2, 3)),
        (31, 8, 31 * 8, (8, 496, 496)),
        (99689, 25740, 25740**2 // 25350, (25740, 784476, 77018724510)),
    ])
    def test_walks_reach_their_boundary_rows(self, p, x, d, row):
        # past band_to only the walks yield hits: the listed columns end at 64r
        assert x > (8 * p - 1) // 31
        ps = np.array([p])
        walks = (enumeration._e_walk_hits(ps), enumeration._d0_walk_hits(ps))
        assert (p, x, d) in {hit for w in walks for hit in zip(*(a.tolist() for a in w))}
        assert row in enumerate_fast(p).as_tuples()

    # SHA-256 of repr(rows), frozen from an enumerator that listed the divisors
    # of every column with x > 8r; both primes lie far past the range kernel's reach
    @pytest.mark.parametrize("p, n_rows, digest", [
        (999983, 521, "7a801e57564d75d33f79e2fdc599d3420d9220f0c9248355eff1175ed798081d"),
        (9999991, 469, "3d4fe57a388796175d7c562f0e757ffe8a29ecaa99c6fa784fbc82049c7851c3"),
    ])
    def test_rows_at_the_top_of_the_range_are_pinned(self, p, n_rows, digest):
        rows = enumerate_fast(p).as_tuples()
        assert len(rows) == n_rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_refuses_primes_past_the_ceiling_before_sieving(self):
        p = next(q for q in range(FAST_LIMIT + 1, 2 * FAST_LIMIT) if is_prime(q))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="enumeration ceiling"):
            enumerate_fast(p)
        assert time.perf_counter() - start < 1.0

    def test_square_divisors_match_an_independent_factorization(self):
        def divisors(n):
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            return set(small) | {n // d for d in small}

        # 1601 * 1607 has two prime factors past 1601, 2509801 is the last
        # listed column of 9999991 and (31 * 9999991 + 1) // 4 its largest
        # walked u; 8803**2 is the largest square of a trial prime.
        xs = [*range(1, 20_001), 1601**2, 1601 * 1607, 2_509_801,
              (31 * 9999991 + 1) // 4, 8803**2, enumeration._FACTOR_LIMIT]
        got = defaultdict(list)
        for owner, divisor in _square_divisors(np.array(xs)):
            for i, d in zip(owner.tolist(), divisor.tolist()):
                got[xs[i]].append(d)
        for x in xs:
            dx = divisors(x)
            assert sorted(got[x]) == sorted({a * b for a in dx for b in dx}), x

    def test_factoring_bound_covers_both_enumerators(self):
        # enumerate_fast walks u = (m*p + 1)/4 with m <= 31 and lists
        # x <= (64p - 1) // 255; stats enumerates the primes up to FAST_LIMIT
        assert (31 * FAST_LIMIT + 1) // 4 <= enumeration._FACTOR_LIMIT
        assert (64 * FAST_LIMIT - 1) // 255 <= enumeration._FACTOR_LIMIT
        # the smallest n with two prime factors past the trial primes
        next_prime = next(q for q in range(enumeration._TRIAL_PRIMES[-1] + 1, 10**5)
                          if is_prime(q))
        assert enumeration._FACTOR_LIMIT < next_prime**2
        with pytest.raises(ValueError, match="factoring bound 77500000"):
            next(_square_divisors(np.array([enumeration._FACTOR_LIMIT + 1])))

    def test_int64_bounds_hold_at_the_ceiling(self):
        # the largest listed column x and walked u at FAST_LIMIT: the listed
        # pass forms x**2 >= d and px + p*d0 <= 2px, the walks u + u**2, and
        # a listed hit's sort key is its column, below the _CELL_BLOCK
        # columns of a round, above D <= px
        x = (64 * FAST_LIMIT - 1) // 255
        u = (31 * FAST_LIMIT + 1) // 4
        assert x**2 < 6.3e12 and 2 * FAST_LIMIT * x < 2**63
        assert FAST_LIMIT * x < 2**45
        assert (enumeration._CELL_BLOCK - 1) << 45 | (2**45 - 1) < 2**63
        assert u + u**2 < 6.1e15 < 2**63
        # stats' bucket formula forms p**2 and px + D <= 2px at x <= 3p/4,
        # then s = 4y - p < 4(px + D)
        top = 2 * FAST_LIMIT * (3 * FAST_LIMIT // 4)
        assert FAST_LIMIT**2 <= 10**14 < 2**63
        assert top <= 1.5e14 and 4 * top < 10**15 < 2**63

    def test_enumeration_leaves_module_state_untouched(self):
        # but for the kept work arrays (_WORK), which hold one call's worth
        def state():
            return {k: repr(v) for k, v in vars(enumeration).items()
                    if not k.startswith("__") and k != "_WORK"}

        before = state()
        assert len(enumerate_fast(199999)) > 0
        assert range_summary(PrimeRange(2, 3000), workers=1)[0].total > 0
        assert state() == before
        room = max(3 * enumeration._COLUMN_BLOCK + 1, enumeration._CELL_BLOCK)
        assert 0 < max(a.size for a in enumeration._WORK.values()) <= room


def _certificate(p, x, d):
    """enumeration._certify's definition, on the Python ints of one hit."""
    n, r = p * x, 4 * x - p
    return (r >= 1 and 1 <= d <= n and (n + d) % r == 0
            and n * n % d == 0 and (n + n * n // d) % r == 0)


def _hit_row(p, x, d):
    """The row (p, x, y, z) of the hit (p, x, D), as Python ints."""
    n, r = p * x, 4 * x - p
    return p, x, (n + d) // r, (n + n * n // d) // r


class TestCertificate:
    @staticmethod
    def _certified(p, x, d):
        """enumeration._certify(p, x, d), which must raise no numpy warning,
        and its verdicts with the hits as Python ints."""
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            ok = enumeration._certify(p, x, d)
        return list(zip(zip(p.tolist(), x.tolist(), d.tolist()), ok.tolist()))

    # each mutant is applied to every hit of [2, 3000]
    MUTANTS = {
        "D + 1": lambda p, x, d: (p, x, d + 1),
        "D - 1": lambda p, x, d: (p, x, d - 1),  # D = 1 becomes 0
        "2D": lambda p, x, d: (p, x, 2 * d),
        "x + 1": lambda p, x, d: (p, x + 1, d),
        "x - 1": lambda p, x, d: (p, x - 1, d),  # a first column gets r <= 0
    }

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_every_mutated_hit_it_accepts_is_a_solution(self, mutant):
        hits = map(np.concatenate, zip(*enumeration._block_hits(primes_in(PrimeRange(2, 3000)))))
        verdicts = self._certified(*self.MUTANTS[mutant](*hits))
        accepted = [hit for hit, ok in verdicts if ok]
        assert 0 < len(accepted) < len(verdicts)
        for hit, ok in verdicts:
            assert ok == _certificate(*hit), hit
        for hit in accepted:
            assert check_identity(*_hit_row(*hit)), hit

    def test_equals_its_definition_on_every_small_hit(self):
        # every (p, x, D) with 1 <= p <= 30, 0 <= x <= p and -1 <= D <= px + 1,
        # p composite too: for a prime p and x < p, r is coprime to px, so
        # once D | (px)**2, r | px + D gives r | px + (px)**2/D; (6, 3, 12)
        # passes the first two divisibility tests and fails the last
        hits = np.array([(p, x, d) for p in range(1, 31) for x in range(p + 1)
                         for d in range(-1, p * x + 2)]).T
        verdicts = self._certified(*hits)
        assert ((6, 3, 12), False) in verdicts
        for hit, ok in verdicts:
            assert ok == _certificate(*hit), hit
            assert not ok or check_identity(*_hit_row(*hit)), hit

    def test_accepts_every_hit_at_the_ceiling(self):
        hits = map(np.concatenate, zip(*enumeration._block_hits([9999991])))
        verdicts = self._certified(*hits)
        assert len(verdicts) == 469
        for hit, ok in verdicts:
            assert ok and check_identity(*_hit_row(*hit)), hit


class TestRangeKernel:
    @pytest.mark.parametrize("primes", [primes_in(PrimeRange(2, 2000))], ids=["numpy"])
    def test_equals_fast_for_every_prime_to_2000(self, primes):
        rows = list(iter_range_solutions(primes))
        assert {type(v) for row in rows for v in row} == {int}
        by_p = defaultdict(list)
        for p, x, y, z in rows:
            by_p[p].append((x, y, z))
        assert sorted(by_p) == primes
        for p in primes:
            assert by_p[p] == enumerate_fast(p).as_tuples(), p

    def test_x_blocks_partition_the_columns(self):
        primes = primes_in(PrimeRange(2, 600))
        whole = list(iter_range_solutions(primes))
        assert whole == [t for lo, hi in ((1, 150), (151, 151), (152, 450))
                         for t in iter_range_solutions(primes, lo, hi)]
        assert [row[1] for row in whole] == sorted(row[1] for row in whole)

    def test_empty_prime_list(self):
        assert list(iter_range_solutions([])) == []

    def test_row_failing_the_identity_raises(self, monkeypatch):
        monkeypatch.setattr(core, "check_identity", lambda *row: False)
        with pytest.raises(ValueError, match="not a solution: 4/17"):
            next(iter_range_solutions([17]))


class TestSolutionSet:
    def test_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            SolutionSet(17, (Triple(7, 3, 6, 14),))

    def test_rejects_out_of_order(self):
        t1 = Triple(17, 5, 30, 510)
        t2 = Triple(17, 5, 34, 170)
        with pytest.raises(ValueError):
            SolutionSet(17, (t2, t1))

    def test_pairs(self):
        assert enumerate_fast(17).pairs() == {(5, 30), (5, 34), (6, 15), (6, 17)}


class TestCsv:
    def test_rows_ascending(self):
        buf = io.StringIO()
        write_solutions_csv([enumerate_fast(17), enumerate_fast(2)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p,x,y,z"
        assert lines[1] == "2,1,2,2"
        assert lines[2] == "17,5,30,510"
        assert len(lines) == 6

    def test_writes_to_path(self, tmp_path):
        dest = tmp_path / "sols.csv"
        write_solutions_csv([enumerate_fast(2)], dest)
        assert dest.read_text() == "p,x,y,z\n2,1,2,2\n"
