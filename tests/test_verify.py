import io
import multiprocessing
import time
from collections import Counter
from math import gcd, lcm

import pytest

from straus import core, parallel, sieve, verify
from straus.construct import ResidueRule, RuleSet, construct_solution, load_rules, match_rule
from straus.core import BoundaryValue, Triple, check_identity, classify, next_boundary, offset_x
from straus.enumeration import enumerate_fast
from straus.sieve import PrimeRange, primes_in
from straus.verify import (
    ExceptionLedger,
    WitnessReport,
    _certified,
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
        for p in primes_in(PrimeRange(2, 300)):
            classes = [classify(t) for t in enumerate_fast(p)]
            assert verify_type_Ia_exists(p) == any(c.is_ia for c in classes)
            assert verify_type_Ib_exists(p) == any(c.is_ib for c in classes)


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
        # Rule validation samples primes with is_prime, so it runs before the count.
        for table in ("theorem5", "conjecture3-table"):
            load_rules(table)
        calls = []
        is_prime = sieve.is_prime
        monkeypatch.setattr(sieve, "is_prime", lambda n: calls.append(n) or is_prime(n))
        sweep(claim, PrimeRange(2, 10_000), workers=1, store_witnesses=store)
        assert calls == []

    def test_unexpected_above_threshold(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 3000))
        assert ledger.unexpected() == ()  # 2 and 2521 are both <= p* = 2521
        assert ledger.unexpected(threshold=100) == (2521,)

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

    def test_writes_to_path(self, tmp_path):
        dest = tmp_path / "ledger.csv"
        write_ledger_csv(sweep("conj1", PrimeRange(2, 200)), dest)
        text = dest.read_text()
        assert "conj1,193,exception,," in text


TABLES = {"conj2": "theorem5", "conj3-pattern": "conjecture3-table"}


def _rule_triple(claim, p):
    """The (x, y, z) the claim's table promises p, built here from the
    matched rule: x = floor(py/(4y - p)) + 1 and z from the identity (conj2)
    or z = p*lcm(x, y) (conj3-pattern).  None if no rule matches."""
    rule = match_rule(load_rules(TABLES[claim]), p)
    if rule is None:
        return None
    y = rule.evaluate(p)
    x = next_boundary(p, y)
    z = p * x * y // (4 * x * y - p * (x + y)) if claim == "conj2" else p * lcm(x, y)
    return x, y, z


class TestRuleCertificate:
    @pytest.mark.parametrize("claim", ["conj2", "conj3-pattern"])
    def test_claim_answer_equals_enumeration_to_20000(self, claim):
        for p in primes_in(PrimeRange(2, 20_000)):
            expected = (
                verify_type_Ib_exists(p) if claim == "conj2" else _pattern_y_report(p) is not None
            )
            assert _check_claim(claim, False, p)[1] == expected, p

    def test_certified_exactly_when_rule_triple_is_enumerated_to_3000(self):
        primes = primes_in(PrimeRange(2, 3000))
        certified = {claim: 0 for claim in TABLES}
        for p in primes:
            solutions = enumerate_fast(p).as_tuples()
            for claim in TABLES:
                ok = _certified(claim, p)
                assert ok == (_rule_triple(claim, p) in solutions), (claim, p)
                certified[claim] += ok
        assert all(n > 0.9 * len(primes) for n in certified.values()), certified

    @pytest.mark.parametrize("claim", ["conj2", "conj3-pattern"])
    def test_ledgers_equal_at_one_and_two_workers_to_10000(self, claim):
        r = PrimeRange(2, 10_000)
        assert sweep(claim, r, workers=1) == sweep(claim, r, workers=2)

    def test_stored_witnesses_are_the_enumerated_first_to_3000(self):
        ledger = sweep("conj3-pattern", PrimeRange(2, 3000), store_witnesses=True)
        expected = [_pattern_y_report(p) for p in primes_in(PrimeRange(2, 3000))]
        assert ledger.witnesses == tuple(w for w in expected if w is not None)

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
        assert _certified("conj2", 999983)

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
        r = PrimeRange(2, 300)
        before = sweep(claim, r)
        rule = wrong(match_rule(load_rules(TABLES[claim]), p))
        monkeypatch.setattr(verify, "load_rules", lambda provenance: RuleSet(provenance, (rule,)))
        assert not _certified(claim, p)
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

    def test_sweep_loads_the_table_before_forking(self, monkeypatch):
        # pmap's in-process sample runs _certified, which loads the table
        cached_at_fork = []

        def get_context(method):
            cached_at_fork.append(verify.load_rules.cache_info().currsize)
            return multiprocessing.get_context(method)

        monkeypatch.setattr(parallel, "get_context", get_context)
        monkeypatch.setattr(parallel, "_POOL_START_S", -1.0)  # a pool always pays
        verify.load_rules.cache_clear()
        sweep("conj2", PrimeRange(2, 200), workers=2)
        assert cached_at_fork == [1]

    def test_certificate_refuses_composite(self):
        # 6001 = 17 * 353 is in a theorem5 class; _certified trusts its prime,
        # so the public entry points are the ones that refuse it
        rule = match_rule(load_rules("theorem5"), 6001)
        with pytest.raises(ValueError, match="not prime"):
            construct_solution(rule, 6001)
        with pytest.raises(ValueError, match="not prime"):
            verify_type_Ib_exists(6001)
