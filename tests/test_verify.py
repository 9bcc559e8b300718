import gc
import io
import os
import subprocess
import sys
import time
from collections import Counter
from math import gcd, lcm
from pathlib import Path

import pytest

import straus
from straus import construct, core, enumeration, sieve, verify
from straus.construct import (
    ResidueRule,
    RuleSet,
    RuleViolationError,
    construct_solution,
    load_rules,
    match_rule,
)
from straus.core import BoundaryValue, Triple, check_identity, classify, next_boundary, offset_x
from straus.enumeration import enumerate_fast
from straus.sieve import PrimeRange, primes_in
from straus.verify import (
    ExceptionLedger,
    WitnessReport,
    _check_claim,
    check_conj3_witness,
    check_conj5_witness,
    conj3_window,
    conj5_window,
    find_conj3_witness,
    find_conj5_witness,
    sweep,
    verify_type_Ia_exists,
    verify_type_Ib_exists,
    witness_divisibility_x,
    witness_divisibility_y,
    write_ledger_csv,
)


class TestConj3Witness:
    def test_13_10_is_witness(self):
        # q = 27, m = 130 mod 27 = 22, q - m = 5 divides 10
        assert check_conj3_witness(13, 10)

    def test_gcd_filter(self):
        assert not check_conj3_witness(13, 13)

    def test_m_zero_excluded(self):
        # p = 2, y = 1: q = 2 divides p*y exactly
        assert not check_conj3_witness(2, 1)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            check_conj3_witness(13, 5)  # below ceil(13/2) = 7
        with pytest.raises(ValueError):
            check_conj3_witness(13, 35)  # above floor(13*16/6) = 34

    def test_check_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            check_conj3_witness(9, 5)  # 5 lies in the window [5, 18]

    def test_find_17(self):
        report = find_conj3_witness(17)
        assert report.witness == 15
        assert report.derived.as_tuple() == (6, 15, 510)
        assert report.early_exit_scans == 7  # y scanned from 9 through 15
        assert report.m == (17 * 15) % (4 * 15 - 17)

    def test_find_absent_for_2(self):
        assert find_conj3_witness(2) is None

    def test_find_absent_for_2521(self):
        assert find_conj3_witness(2521) is None

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            find_conj3_witness(15)

    def test_refuses_primes_past_the_ceiling_before_scanning(self):
        assert verify.CONJ3_WITNESS_CEILING == 10**7
        start = time.perf_counter()
        with pytest.raises(ValueError, match="conj3 witness ceiling 10000000$"):
            find_conj3_witness(10_000_019)
        assert time.perf_counter() - start < 1.0

    def test_descent_equals_the_y_scan_to_20000(self):
        below = []  # the primes whose witness lies in a column x <= p/3
        for p in primes_in(PrimeRange(2, 20_000)):
            report = find_conj3_witness(p)
            assert _summary(report) == conj3_y_scan(p), p
            if report is not None and 3 * report.derived.x <= p:
                below.append(p)
        assert below[:5] == [73, 79, 103, 167, 193] and len(below) == 112

    def test_derived_triples_are_ib_for_small_primes(self):
        for p in primes_in(PrimeRange(2, 1000)):
            report = find_conj3_witness(p)
            if report is None:
                continue
            c = classify(report.derived)
            assert c.is_ib
            assert report.derived.z == p * lcm(report.derived.x, report.derived.y)


class TestConj5Witness:
    def test_13_4_is_witness(self):
        # q = 3, m = 1, q - m = 2 divides 4; y = ceil(52/3) = 18
        assert check_conj5_witness(13, 4)

    def test_193_has_none_in_window(self):
        lo, hi = conj5_window(193)
        assert not any(check_conj5_witness(193, x) for x in range(lo, hi + 1))

    def test_m_zero_excluded(self):
        assert not check_conj5_witness(3, 1)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            check_conj5_witness(13, 3)

    def test_check_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            check_conj5_witness(15, 4)  # 4 lies in the window [4, 7]

    def test_predicate_needs_an_actual_solution(self):
        # q - m = 2 divides 4 and gcd(10, 7) = 1, yet (4, 7, 10*lcm(4, 7)) fails
        assert not check_identity(10, 4, 7, 280)
        assert not witness_divisibility_x(10, 4)

    def test_predicates_false_at_or_below_the_pole(self):
        # q = 4a - p is -1 and -5: no partner b = ceil(pa/q) exists
        assert not witness_divisibility_y(17, 4)
        assert not witness_divisibility_x(17, 3)

    def test_find_13(self):
        report = find_conj5_witness(13)
        assert report.witness == 4
        assert report.derived.as_tuple() == (4, 18, 468)

    @pytest.mark.parametrize("p", [2, 3, 47])
    def test_find_absent(self, p):
        assert find_conj5_witness(p) is None

    def test_derived_triples_are_ia_for_small_primes(self):
        for p in primes_in(PrimeRange(2, 1000)):
            report = find_conj5_witness(p)
            if report is None:
                continue
            c = classify(report.derived)
            assert c.is_ia and c.is_ib


class TestWitnessReport:
    def test_rejects_bad_kind(self):
        t = Triple(13, 4, 18, 468)
        with pytest.raises(ValueError):
            WitnessReport(13, "conj7-w", 4, 1, t, 1)

    def test_rejects_non_lcm_triple(self):
        t = Triple(17, 5, 34, 170)  # 170 != 17*lcm(5, 34)
        with pytest.raises(ValueError):
            WitnessReport(17, "conj3-y", 34, (17 * 34) % (4 * 34 - 17), t, 1)

    def test_rejects_m_out_of_range(self):
        t = Triple(13, 4, 18, 468)
        with pytest.raises(ValueError):
            WitnessReport(13, "conj5-x", 4, 99, t, 1)

    def test_rejects_m_inside_range_but_wrong(self):
        t = Triple(13, 4, 18, 468)
        with pytest.raises(ValueError):
            WitnessReport(13, "conj5-x", 4, 2, t, 1)  # m = 13*4 mod 3 = 1

    def test_rejects_witness_that_is_not_the_kinds_coordinate(self):
        t = Triple(13, 4, 18, 468)
        with pytest.raises(ValueError):
            WitnessReport(13, "conj3-y", 4, 1, t, 1)  # conj3-y witnesses y = 18
        assert WitnessReport(13, "conj5-x", 4, 1, t, 1).witness == 4

    @pytest.mark.parametrize("scans", [0, -1])
    def test_rejects_fewer_than_one_scan(self, scans):
        t = Triple(13, 4, 18, 468)
        with pytest.raises(ValueError, match="scanned at least once"):
            WitnessReport(13, "conj5-x", 4, 1, t, scans)


def _pattern_y_report(p):
    """The conj3-pattern witness a storing sweep keeps for p, or None."""
    return verify._report(p, "conj3-y", verify._pattern_y(p))


def _brute_window_scan(p, kind, lo, hi):
    """The witness definition spelled out: the first a in [lo, hi] whose
    partner b = ceil(pa/(4a - p)) gives a solution (x, y, p*lcm(x, y)) with
    gcd(p, y) = 1."""
    for scans, a in enumerate(range(lo, hi + 1), 1):
        q = 4 * a - p
        b = -(-p * a // q)
        x, y = (b, a) if kind == "conj3-y" else (a, b)
        z = p * lcm(x, y)
        if gcd(p, y) == 1 and check_identity(p, x, y, z):
            return a, p * a % q, (x, y, z), scans
    return None


def conj3_y_scan(p):
    """find_conj3_witness as the plain y-order scan of its window:
    (witness y, m, triple, scans) for the first y with gcd(p, y) = 1, m != 0
    and D = q - m dividing y and its partner x = floor(py/q) + 1, or None."""
    lo, hi = conj3_window(p)
    for y in range(lo, hi + 1):
        q = 4 * y - p
        m = p * y % q
        x = p * y // q + 1
        if m and gcd(p, y) == 1 and y % (q - m) == 0 and x % (q - m) == 0:
            return y, m, (x, y, p * lcm(x, y)), y - lo + 1
    return None


def _summary(report):
    if report is None:
        return None
    return report.witness, report.m, report.derived.as_tuple(), report.early_exit_scans


class TestAgainstDefinitions:
    def test_window_scans_match_brute_force_to_3000(self):
        for p in primes_in(PrimeRange(2, 3000)):
            assert _summary(find_conj3_witness(p)) == _brute_window_scan(
                p, "conj3-y", *conj3_window(p)), p
            assert _summary(find_conj5_witness(p)) == _brute_window_scan(
                p, "conj5-x", *conj5_window(p)), p

    def test_pattern_report_matches_three_clause_definition_to_2000(self):
        for p in primes_in(PrimeRange(2, 2000)):
            expected = next(
                (
                    (t.y, p * t.y % (4 * t.y - p), t.as_tuple(), scans)
                    for scans, t in enumerate(enumerate_fast(p).triples, 1)
                    if offset_x(p, t.x, t.y) == 1
                    and gcd(p, t.y) == 1
                    and t.z == p * lcm(t.x, t.y)
                ),
                None,
            )
            assert _summary(_pattern_y_report(p)) == expected, p


class TestTypeExistence:
    def test_193_has_no_ia(self):
        assert not verify_type_Ia_exists(193)

    def test_193_has_ib(self):
        assert verify_type_Ib_exists(193)

    @pytest.mark.parametrize("p", [13, 17, 71])
    def test_small_primes_have_both(self, p):
        assert verify_type_Ia_exists(p)
        assert verify_type_Ib_exists(p)

    def test_agrees_with_enumeration(self):
        for p in primes_in(PrimeRange(2, 3000)):
            triples = enumerate_fast(p).triples
            ia_x = [t.x for t in triples if classify(t).is_ia]
            assert verify_type_Ia_exists(p) == bool(ia_x), p
            assert verify_type_Ib_exists(p) == any(classify(t).is_ib for t in triples), p
            # the first column hit is the I(a) row with the smallest x
            hit = verify._ia_cell(p)
            assert (hit[0] if hit else None) == min(ia_x, default=None), p


class TestCellKernel:
    """The numpy kernel that sweeps run against the scalar scans that the
    single-prime entry points run."""

    @staticmethod
    def _kernel_equals_scalar(primes):
        """Both shapes' _hits for the primes, after asserting that they
        equal the scalar scans: (x, y, D, scans) per prime, or None.  The
        scans decide the primes the kernel misses, so the misses are pinned
        too: the primes without a hit, and 2, whose I(a) solution (1, 2, 2)
        has D = 2, which does not divide x^2."""
        ia = verify._hits(primes, lcm_shaped=False)
        assert ia == [verify._ia_cell(p) for p in primes]
        found = verify._hits(primes, lcm_shaped=True)
        assert found == [verify._scan(p, *conj5_window(p), True) for p in primes]
        for lcm_shaped, hits in ((False, ia), (True, found)):
            missed = [p for p, x in zip(primes, verify._first_cells(primes, lcm_shaped)) if not x]
            assert missed == [p for p, hit in zip(primes, hits) if hit is None or p == 2]
        return ia, found

    @pytest.mark.parametrize("cell_block", [enumeration._CELL_BLOCK, 7])
    def test_kernel_equals_the_scalar_scans_to_200000(self, cell_block, monkeypatch):
        # rounds of at most 7 cells (_rounds) run the kernel through tiny rounds
        monkeypatch.setattr(enumeration, "_CELL_BLOCK", cell_block)
        primes = primes_in(PrimeRange(2, 200_000))
        ia, found = self._kernel_equals_scalar(primes)
        assert [p for p, hit in zip(primes, ia) if hit is None] == [193]
        assert [p for p, hit in zip(primes, found) if hit is None] == [2, 3, 7, 47, 193, 2521]
        # every conj5 hit's x is the lcm partner of its y (_lcm_holds)
        for p, hit in zip(primes, found):
            if hit is not None:
                x, y, d, _scans = hit
                assert verify._cell(p, y, True) == (x, d), p

    @pytest.mark.parametrize("cell_block", [enumeration._CELL_BLOCK, 7])
    def test_kernel_equals_the_scalar_scans_at_the_int64_edge(self, cell_block, monkeypatch):
        # p*x and x*x come near 10^14 here, the top of _first_cells' int64 range
        monkeypatch.setattr(enumeration, "_CELL_BLOCK", cell_block)
        primes = primes_in(PrimeRange(9_900_000, verify._CELL_LIMIT))
        assert len(primes) == 6134
        ia, found = self._kernel_equals_scalar(primes)
        assert None not in ia and None not in found

    def test_a_window_divisor_of_x_divides_the_partner(self):
        # the lcm-shaped kernel tests D | x alone: inside the window gcd(D, q)
        # = 1, and qb - px = D, so D | x gives D | b
        cells = 0
        for p in primes_in(PrimeRange(3, 3000)):
            for x in range(p // 4 + 1, p // 2 + 1):
                q = 4 * x - p
                d = q - p * x % q
                if d < q and x % d == 0:
                    cells += 1
                    assert gcd(d, q) == 1 and (p * x // q + 1) % d == 0, (p, x)
        assert cells == 3093

    @pytest.mark.parametrize("claim", verify.CLAIMS)
    def test_primes_past_the_int64_bound_take_the_scalar_scans(self, claim, monkeypatch):
        assert max(verify.CLAIM_CEILINGS.values()) <= verify._CELL_LIMIT
        rounds, laid = verify._rounds, []

        def spy(nxt, last, done):
            # no column of a prime past the bound is ever laid out: the odd
            # prime behind a window ending at last = p // 2 is 2 * last + 1
            for owner, x in rounds(nxt, last, done):
                assert (2 * last[owner] + 1 <= verify._CELL_LIMIT).all(), x
                laid.append(x.size)
                yield owner, x

        monkeypatch.setattr(verify, "_rounds", spy)
        primes = (17, 10_000_019, 10_000_079)
        lcm_shaped = claim not in ("conj1", "conj2")
        scalar = [verify._scan(p, *conj5_window(p), True) if lcm_shaped else verify._ia_cell(p)
                  for p in primes]
        assert verify._hits(primes, lcm_shaped) == scalar
        assert laid  # 17's cells
        for p in primes[1:]:
            assert _check_claim(claim, False, p) == (p, True, None)
        # a ledger listing a prime past 10^7 can still be rechecked
        assert not ExceptionLedger(claim, PrimeRange(2, 20_000_000), primes[1:]).recheck()

    def test_stored_reports_equal_the_single_prime_scan_to_200000(self):
        # the stored path builds its reports from the kernel's arrays, the
        # single-prime one from the scalar scan
        r = PrimeRange(2, 200_000)
        ledger = sweep("conj5-pattern", r, store_witnesses=True)
        expected = [find_conj5_witness(p) for p in primes_in(r)]
        assert ledger.witnesses == tuple(w for w in expected if w is not None)
        assert ledger.exceptions == (2, 3, 7, 47, 193, 2521)

    def test_single_prime_entry_points_leave_numpy_unloaded(self):
        src = Path(straus.__file__).resolve().parent.parent
        code = ("import sys\n"
                "from straus import cli, verify_type_Ia_exists, verify_type_Ib_exists\n"
                "for kind in ('conj3', 'conj5'):\n"
                "    cli.main(['witness', kind, '17'])\n"
                "cli.main(['witness', 'conj5', '9999991'])\n"
                "assert verify_type_Ia_exists(9999991) and verify_type_Ib_exists(9999991)\n"
                "sys.exit('numpy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.DEVNULL).returncode == 0


class TestSweep:
    def test_conj1_to_1000(self):
        ledger = sweep("conj1", PrimeRange(2, 1000))
        assert ledger.exceptions == (193,)

    def test_conj2_to_1000(self):
        assert sweep("conj2", PrimeRange(2, 1000)).exceptions == ()

    def test_conj3_pattern_to_3000(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 3000))
        assert ledger.exceptions == (2, 2521)

    def test_conj5_pattern_to_3000(self):
        ledger = sweep("conj5-pattern", PrimeRange(2, 3000))
        assert ledger.exceptions == (2, 3, 7, 47, 193, 2521)

    def test_conj5_pattern_at_its_ceiling(self):
        ledger = sweep("conj5-pattern", PrimeRange(9_999_000, 10**7), store_witnesses=True)
        assert ledger.exceptions == ()
        assert len(ledger.witnesses) == 53
        for w in ledger.witnesses:
            assert check_conj5_witness(w.p, w.witness)
            assert check_identity(w.p, *w.derived.as_tuple())

    @pytest.mark.parametrize("store", [False, True])
    def test_conj3_pattern_at_its_ceiling(self, store):
        ledger = sweep("conj3-pattern", PrimeRange(990_000, 10**6), store_witnesses=store)
        assert ledger.exceptions == ()

    @pytest.mark.parametrize("claim", ["conj1", "conj2"])
    def test_conj1_conj2_at_their_ceiling(self, claim):
        assert sweep(claim, PrimeRange(9_999_000, 10**7)).exceptions == ()

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            sweep("conj9", PrimeRange(2, 100))

    def test_a_ledger_refuses_an_unknown_claim(self):
        # an unknown claim would fall through to the conj5 checks in recheck
        # and be written as a ledger's claim column
        with pytest.raises(ValueError, match=r"unknown claim 'conj4'; expected one of \("):
            ExceptionLedger("conj4", PrimeRange(2, 3000), (47, 2521))

    def test_oversized_range_refused_with_suggestion(self):
        with pytest.raises(ValueError, match=r"try \[2, 10000000\]"):
            sweep("conj1", PrimeRange(2, 20_000_000))

    def test_worker_count_invisible(self):
        r = PrimeRange(2, 600)
        assert sweep("conj1", r, workers=1) == sweep("conj1", r, workers=2)
        assert sweep("conj3-pattern", r, workers=2).exceptions == (2,)

    def test_recheck_reverifies_exceptions(self):
        ledger = sweep("conj1", PrimeRange(2, 1000))
        assert ledger.recheck()
        fake = ExceptionLedger("conj1", PrimeRange(2, 1000), (17,))
        assert not fake.recheck()

    @pytest.mark.parametrize("claim", verify.CLAIMS)
    def test_recheck_refuses_a_composite_exception(self, claim):
        fake = ExceptionLedger(claim, PrimeRange(2, 10_000), exceptions=(6001,))  # 17 * 353
        with pytest.raises(ValueError, match="not prime"):
            fake.recheck()

    @pytest.mark.parametrize("store", [False, True])
    @pytest.mark.parametrize("claim", verify.CLAIMS)
    def test_sweeps_trust_the_sieve(self, claim, store, monkeypatch):
        # primes_in decides primality once; no per-prime check tests it again.
        calls = []
        is_prime = sieve.is_prime
        monkeypatch.setattr(sieve, "is_prime", lambda n: calls.append(n) or is_prime(n))
        sweep(claim, PrimeRange(2, 10_000), workers=1, store_witnesses=store)
        assert calls == []

    def test_unexpected_above_threshold(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 3000))
        assert ledger.unexpected() == ()  # 2 and 2521 are both <= p* = 2521
        assert ledger.unexpected(threshold=100) == (2521,)

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_witness_sweep_pauses_the_collector_and_restores_it(self, enabled, fails,
                                                                  monkeypatch):
        # the blocks of a stored sweep run with the collector off; an unstored
        # sweep leaves it as it is; either way the caller's setting is back
        # after the sweep returns or raises
        seen = []
        check_block = verify._check_block

        def spy(claim, store, primes):
            seen.append((store, gc.isenabled()))
            if fails:
                raise RuntimeError("block failed")
            return check_block(claim, store, primes)

        monkeypatch.setattr(verify, "_check_block", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for store in (True, False):
                if fails:
                    with pytest.raises(RuntimeError, match="block failed"):
                        sweep("conj5-pattern", PrimeRange(2, 3000), store_witnesses=store)
                else:
                    sweep("conj5-pattern", PrimeRange(2, 3000), store_witnesses=store)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert {s for s, _on in seen} == {True, False}
        assert all(on == (enabled and not s) for s, on in seen), seen

    def test_witness_storage(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 100), store_witnesses=True)
        stored = {w.p for w in ledger.witnesses}
        assert stored == set(primes_in(PrimeRange(3, 100)))  # all but the exception 2
        for w in ledger.witnesses:
            assert w.derived.z == w.p * lcm(w.derived.x, w.derived.y)


def _count_built(monkeypatch, *classes):
    """Count the instances of each class built while the test runs."""
    built = Counter()
    for cls in classes:
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


class TestIntegerPaths:
    def test_sweeps_without_witnesses_build_no_triple_or_report(self, monkeypatch):
        built = _count_built(monkeypatch, Triple, WitnessReport)
        r = PrimeRange(2, 3000)
        exceptions = {claim: sweep(claim, r).exceptions for claim in verify.CLAIMS}
        assert exceptions == {"conj1": (193,), "conj2": (), "conj3-pattern": (2, 2521),
                              "conj5-pattern": (2, 3, 7, 47, 193, 2521)}
        assert built == Counter()

    def test_conj1_builds_no_boundary_value(self, monkeypatch):
        built = _count_built(monkeypatch, BoundaryValue)
        assert sweep("conj1", PrimeRange(2, 3000)).exceptions == (193,)
        assert built == Counter()

    @pytest.mark.parametrize("claim", ["conj3-pattern", "conj5-pattern"])
    def test_stored_sweep_builds_one_report_and_triple_per_passing_prime(self, monkeypatch, claim):
        built = _count_built(monkeypatch, Triple, WitnessReport)
        r = PrimeRange(2, 3000)
        ledger = sweep(claim, r, store_witnesses=True)
        passing = len(primes_in(r)) - len(ledger.exceptions)
        assert len(ledger.witnesses) == passing
        assert built == Counter(Triple=passing, WitnessReport=passing)

    def test_unstored_conj5_witness_failing_the_identity_raises(self, monkeypatch):
        assert _check_claim("conj5-pattern", False, 13) == (13, True, None)
        monkeypatch.setattr(core, "check_identity", lambda *row: False)
        with pytest.raises(ValueError, match="not a solution: 4/13"):
            _check_claim("conj5-pattern", False, 13)


class TestLedgerCsv:
    def test_rows_and_summary(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 20), store_witnesses=True)
        buf = io.StringIO()
        write_ledger_csv(ledger, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "claim,p,status,witness,m"
        assert lines[1] == "conj3-pattern,2,exception,,"
        # first lcm-patterned solution of 17 in (x, y) order is (5, 30, 510)
        assert any(line.startswith("conj3-pattern,17,ok,30,") for line in lines)
        assert lines[-1].startswith("# claim=conj3-pattern range=[2,20]")

    def test_rows_ascend_and_an_exception_outranks_its_witness(self):
        w = {p: find_conj5_witness(p) for p in (13, 17, 19, 23)}
        ledger = ExceptionLedger("conj5-pattern", PrimeRange(2, 30), exceptions=(3, 19, 2),
                                 witnesses=(w[23], w[13], w[19], w[17]))
        buf = io.StringIO()
        write_ledger_csv(ledger, buf)
        assert buf.getvalue() == (
            "claim,p,status,witness,m\n"
            "conj5-pattern,2,exception,,\n"
            "conj5-pattern,3,exception,,\n"
            "conj5-pattern,13,ok,4,1\n"
            "conj5-pattern,17,ok,6,4\n"
            "conj5-pattern,19,exception,,\n"
            "conj5-pattern,23,ok,9,12\n"
            "# claim=conj5-pattern range=[2,30] exceptions=3 witnesses=4\n"
        )

    def test_writes_to_path(self, tmp_path):
        dest = tmp_path / "ledger.csv"
        write_ledger_csv(sweep("conj1", PrimeRange(2, 200)), dest)
        text = dest.read_text()
        assert "conj1,193,exception,," in text


TABLES = {"conj2": "theorem5", "conj3-pattern": "conjecture3-table"}


class TestRuleCertificate:
    """The scan hits that certify conj2 and conj3-pattern, and the rule tables,
    which serve only construct."""

    @pytest.mark.parametrize("claim", ["conj2", "conj3-pattern"])
    def test_claim_answer_equals_enumeration_to_20000(self, claim):
        for p in primes_in(PrimeRange(2, 20_000)):
            expected = (
                any(classify(t).is_ib for t in enumerate_fast(p).triples) if claim == "conj2"
                else _pattern_y_report(p) is not None
            )
            assert _check_claim(claim, False, p)[1] == expected, p

    @pytest.mark.parametrize("claim", ["conj2", "conj3-pattern"])
    def test_ledgers_equal_at_one_and_two_workers_to_10000(self, claim, monkeypatch):
        r = PrimeRange(2, 10_000)  # 1229 primes: one block at one worker, 32 at two
        assert sweep(claim, r, workers=1) == sweep(claim, r, workers=2)

    def test_stored_witnesses_are_the_enumerated_first_to_3000(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 3000), store_witnesses=True)
        expected = [_pattern_y_report(p) for p in primes_in(PrimeRange(2, 3000))]
        assert ledger.witnesses == tuple(w for w in expected if w is not None)

    @pytest.mark.parametrize("lo, hi", [(2, 3000), (999_000, 10**6)])
    def test_block_stored_witnesses_equal_the_enumerated_first(self, lo, hi):
        # the stored conj3-pattern path reads a block's listed columns in
        # shared rounds; every report, early_exit_scans included, is the one
        # _pattern_y finds enumerating the prime alone
        primes = primes_in(PrimeRange(lo, hi))
        expected = {p: _pattern_y_report(p) for p in primes}
        exceptions, witnesses = verify._check_block("conj3-pattern", True, primes)
        assert exceptions == [p for p in primes if expected[p] is None]
        assert witnesses == [w for w in expected.values() if w is not None]

    def test_certificate_reaches_past_the_enumeration_envelope(self):
        # the certificate and the enumeration agree where p*x*y*z needs 152 bits
        report = _pattern_y_report(999983)
        assert report.witness == 249991750069
        assert report.derived.as_tuple() == (249996, 249991750069, 62495875102311369754692)
        # a p*x*y*z <= 2**127 bound on Triple first broke the sweep with
        # witnesses at 120199 and without them at 214849
        for p in (120199, 214849, 999983):
            for store in (False, True):
                assert _check_claim("conj3-pattern", store, p)[:2] == (p, True)
        assert _check_claim("conj3-pattern", False, 999983) == (999983, True, None)
        assert _check_claim("conj2", False, 999983) == (999983, True, None)

    def test_sweeps_read_no_rule_table(self):
        load_rules.cache_clear()
        for claim in verify.CLAIMS:
            for store in (False, True):
                sweep(claim, PrimeRange(2, 3000), store_witnesses=store)
        assert load_rules.cache_info().currsize == 0

    def test_conj2_trusts_its_kernel_hits(self, monkeypatch):
        # every I(a) hit lies in p/4 < x <= p/2, so it is I(b) as it stands;
        # only 193, which has none, is enumerated
        enumerated = []
        rows = verify._solution_rows
        monkeypatch.setattr(verify, "_solution_rows", lambda p: enumerated.append(p) or rows(p))
        assert sweep("conj2", PrimeRange(2, 10**5)).exceptions == ()
        assert enumerated == [193]

    @pytest.mark.parametrize("claim", verify.CLAIMS)
    def test_kernel_cell_that_is_no_hit_raises(self, claim, monkeypatch):
        # x = 5 is the first cell of 17's window: D = 2 divides neither 25 nor
        # 5.  The cells x = 510 (D | x^2) and x = 30 (lcm-shaped) are both
        # 4/17 = 1/5 + 1/30 + 1/510, with y = 5 < x: outside the window
        # p/4 < x <= p/2, which proves a hit's x < y.
        for x in (5, 510, 30):
            monkeypatch.setattr(verify, "_first_cells", lambda primes, lcm_shaped: [x])
            with pytest.raises(AssertionError, match=f"x = {x} for p = 17 fails in exact integers"):
                sweep(claim, PrimeRange(17, 17))

    @pytest.mark.parametrize("claim, store", [("conj3-pattern", False), ("conj5-pattern", False),
                                              ("conj5-pattern", True)])
    @pytest.mark.parametrize("p, x", [(19, 5), (17, 17)], ids=["m-zero", "D-divides-x-not-b"])
    def test_kernel_cell_without_an_lcm_partner_raises(self, claim, store, p, x, monkeypatch):
        # 19, 5: q = 1 divides px = 95, so m = 0, although D = 1 divides x and
        # its b = 96.  17, 17: q = 51, m = 34 and D = 17 divides x but not
        # b = 6 (only past the window: inside it gcd(D, q) = 1, so D | x
        # forces D | b).  A stored conj3 witness is enumerated, never read
        # from the kernel.
        assert verify._cell(p, x, True) is None
        monkeypatch.setattr(verify, "_first_cells", lambda primes, lcm_shaped: [x])
        with pytest.raises(AssertionError, match=f"x = {x} for p = {p} fails in exact integers"):
            sweep(claim, PrimeRange(p, p), store_witnesses=store)

    @pytest.mark.parametrize("claim", ["conj2", "conj3-pattern"])
    @pytest.mark.parametrize(
        "p, wrong",
        [
            (13, lambda r: ResidueRule(r.modulus, r.residue, r.c2, r.c1, r.c0 + r.den, r.den)),
            (13, lambda r: ResidueRule(r.modulus, r.residue, 0, 0, 4, 1)),
            (13, lambda r: ResidueRule(r.modulus, r.residue, 0, 0, 52, 1)),
            (13, lambda r: ResidueRule(r.modulus, r.residue, 0, 1, 0, 2)),
            (13, lambda r: ResidueRule(r.modulus, r.residue, 0, 0, 2, 1)),
            (11, lambda r: ResidueRule(r.modulus, r.residue, 0, 1, 1, 4)),
        ],
        ids=["y+1", "y-below-x", "y-above-z", "non-integral", "below-pole", "pole-divides"],
    )
    def test_broken_rule_is_not_trusted(self, monkeypatch, claim, p, wrong):
        # construct refuses a broken rule or builds a real solution (Triple
        # checks it), and no sweep reads the table
        r = PrimeRange(2, 300)
        before = sweep(claim, r)
        rule = wrong(match_rule(load_rules(TABLES[claim]), p))
        try:
            built = construct_solution(rule, p).as_tuple()
        except RuleViolationError:
            built = None
        assert built is None or built in enumerate_fast(p).as_tuples()
        monkeypatch.setattr(construct, "load_rules", lambda provenance: RuleSet(provenance, (rule,)))
        assert _check_claim(claim, False, p)[1]
        assert sweep(claim, r) == before

    def test_order_and_pole_cases_are_real_solutions(self):
        # the y-below-x and y-above-z rules give solutions of 4/13 in the wrong order
        assert next_boundary(13, 4) == 18 and check_identity(13, 18, 4, 468)
        assert next_boundary(13, 52) == 4 and check_identity(13, 4, 52, 26)
        # below-pole: x = floor(26/(8 - 13)) + 1 = -5 and 4/13 = -1/5 + 1/2 + 1/130
        assert 4 * -5 * 2 * 130 == 13 * (-5 * 2 + 2 * 130 + 130 * -5)
        # pole-divides: y = (p + 1)/4 makes 4y - p = 1 divide py, so x = py + 1 > y
        assert next_boundary(11, 3) == 34

    def test_certificate_refuses_composite(self):
        # 6001 = 17 * 353 is in a theorem5 class; the claim checks trust their
        # primes, so the public entry points are the ones that refuse it
        rule = match_rule(load_rules("theorem5"), 6001)
        with pytest.raises(ValueError, match="not prime"):
            construct_solution(rule, 6001)
        with pytest.raises(ValueError, match="not prime"):
            verify_type_Ib_exists(6001)
