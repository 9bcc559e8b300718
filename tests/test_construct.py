import hashlib
from importlib import resources
from math import gcd, lcm

import pytest

from straus.construct import (
    RULE_CHECKSUMS,
    ResidueRule,
    RuleSet,
    RuleViolationError,
    construct_solution,
    load_rules,
    load_rules_from_path,
    match_rule,
)
from straus.core import classify
from straus.sieve import PrimeRange, is_prime, primes_in
from straus.verify import witness_divisibility_y

THEOREM5 = load_rules("theorem5")
WITNESS_TABLE = load_rules("conjecture3-table")
NESTED = RuleSet("custom", (ResidueRule(4, 1, 0, 3, 0, 1), ResidueRule(8, 5, 1, 3, 0, 8)))


class TestRuleFiles:
    def test_checksums_match_shipped_files(self):
        for name, digest in RULE_CHECKSUMS.items():
            data = resources.files("straus.data").joinpath(name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_rule_counts(self):
        assert len(THEOREM5.rules) == 38
        assert len(WITNESS_TABLE.rules) == 10

    def test_unknown_provenance(self):
        with pytest.raises(ValueError):
            load_rules("no-such-table")

    def test_duplicate_class_rejected(self):
        r = ResidueRule(8, 5, 1, 3, 0, 8)
        with pytest.raises(ValueError):
            RuleSet("custom", (r, r))

    def test_broken_rule_rejected_at_load(self, tmp_path):
        # 3 never divides p*p for primes p = 1 (mod 3)
        bad = tmp_path / "bad.rules"
        bad.write_text("3 1 1 0 0 3\n")
        with pytest.raises(RuleViolationError):
            load_rules_from_path(bad)

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("8 5 1 3\n")
        with pytest.raises(ValueError, match="expected"):
            load_rules_from_path(bad)

    @pytest.mark.parametrize("modulus, residue", [(8, 8), (8, -3), (0, 0)])
    def test_bad_residue_class_rejected(self, modulus, residue):
        with pytest.raises(ValueError, match="bad residue class"):
            ResidueRule(modulus, residue, 1, 3, 0, 8)

    @pytest.mark.parametrize("den", [0, -8])
    def test_denominator_below_one_rejected(self, den):
        with pytest.raises(ValueError, match="denominator must be positive"):
            ResidueRule(8, 5, 1, 3, 0, den)

    def test_class_without_primes_rejected_at_load(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("4 0 0 1 0 1\n")  # every member is a multiple of 4
        with pytest.raises(RuleViolationError, match="no primes found in class 0 mod 4"):
            load_rules_from_path(bad)

    def test_y_at_or_below_the_pole_rejected_at_load(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("4 1 0 0 1 1\n")  # y = 1, so 4y - p < 0 for p = 5
        with pytest.raises(RuleViolationError, match="at or below the pole for p = 5"):
            load_rules_from_path(bad)

    def test_non_integral_z_rejected_at_load(self, tmp_path):
        # y = p is integral and above the pole, but for p = 7 it gives x = 3
        # and z = 147/14
        bad = tmp_path / "bad.rules"
        bad.write_text("3 1 0 1 0 1\n")
        with pytest.raises(RuleViolationError, match="non-integral z for p = 7"):
            load_rules_from_path(bad)

    def test_checksum_mismatch_rejected(self, monkeypatch):
        monkeypatch.setitem(RULE_CHECKSUMS, "theorem5.rules", "0" * 64)
        load_rules.cache_clear()  # the shipped table is cached from import
        try:
            with pytest.raises(RuleViolationError, match="theorem5.rules checksum mismatch"):
                load_rules("theorem5")
        finally:
            load_rules.cache_clear()


class TestMatchRule:
    def test_13_gets_5_mod_8(self):
        rule = match_rule(THEOREM5, 13)
        assert (rule.modulus, rule.residue) == (8, 5)
        assert rule.formula() == "(p^2 + 3p)/8"

    def test_2_gets_even_prime_rule(self):
        rule = match_rule(THEOREM5, 2)
        assert rule.evaluate(2) == 2  # y = p(p+2)/4

    def test_1009_class_gets_3p(self):
        rule = match_rule(THEOREM5, 1009)
        assert (rule.modulus, rule.residue) == (9240, 1009)
        assert rule.evaluate(1009) == 3 * 1009

    def test_exception_class_unmatched(self):
        # 2521 is one of the residues with no guaranteed construction
        assert match_rule(THEOREM5, 2521) is None

    def test_most_specific_modulus_wins(self):
        assert match_rule(NESTED, 13).modulus == 8
        assert match_rule(NESTED, 17).modulus == 4

    @pytest.mark.parametrize(
        "rs", [THEOREM5, WITNESS_TABLE, NESTED], ids=["theorem5", "conjecture3", "nested"]
    )
    def test_index_equals_linear_max_modulus_scan(self, rs):
        for n in range(100_001):
            matching = [r for r in rs.rules if n % r.modulus == r.residue]
            expected = max(matching, key=lambda r: r.modulus, default=None)
            assert match_rule(rs, n) is expected, n


class TestConstructSolution:
    def test_5_mod_8_at_13(self):
        rule = match_rule(THEOREM5, 13)
        assert construct_solution(rule, 13).as_tuple() == (4, 26, 52)

    def test_3_mod_4_at_3(self):
        rule = match_rule(THEOREM5, 3)
        assert (rule.modulus, rule.residue) == (4, 3)
        assert rule.evaluate(3) == 4
        assert construct_solution(rule, 3).as_tuple() == (1, 4, 12)

    def test_even_prime(self):
        rule = match_rule(THEOREM5, 2)
        assert construct_solution(rule, 2).as_tuple() == (1, 2, 2)

    def test_wrong_class_rejected(self):
        rule = match_rule(THEOREM5, 13)
        with pytest.raises(ValueError):
            construct_solution(rule, 17)

    def test_composite_rejected(self):
        rule = match_rule(THEOREM5, 6001)  # 6001 = 17 * 353
        with pytest.raises(ValueError, match="not prime"):
            construct_solution(rule, 6001)

    def test_all_matched_primes_to_100k_construct_ib(self):
        for p in primes_in(PrimeRange(2, 100_000)):
            rule = match_rule(THEOREM5, p)
            if rule is None:
                continue
            t = construct_solution(rule, p)
            assert classify(t).is_ib, (rule.label(), p)

    def test_witness_table_primes_to_10k_satisfy_witness_shape(self):
        for p in primes_in(PrimeRange(2, 10_000)):
            rule = match_rule(WITNESS_TABLE, p)
            if rule is None:
                continue
            y = rule.evaluate(p)
            assert gcd(p, y) == 1
            assert witness_divisibility_y(p, y), (rule.label(), p)
            t = construct_solution(rule, p)
            assert t.z == p * lcm(t.x, t.y), (rule.label(), p)


class TestCoverage:
    # Residue classes mod 9240 with no guaranteed construction; every prime
    # outside them must be matched by some rule.
    EXCEPTED = {
        1, 169, 289, 361, 529, 841, 961, 1369, 1681, 1849, 2041, 2209,
        2521, 2641, 2689, 2809, 3361, 3481, 3529, 3721, 4321, 4489, 5041,
        5161, 5329, 5569, 6169, 6241, 6889, 7561, 7681, 7921, 8089, 8761,
    }

    def test_rules_cover_exactly_the_non_excepted_classes(self):
        for p in primes_in(PrimeRange(2, 100_000)):
            matched = match_rule(THEOREM5, p) is not None
            assert matched == ((p % 9240) not in self.EXCEPTED), p

    def test_first_20_primes_per_rule_construct_ib(self):
        for rule in THEOREM5.rules:
            found = 0
            n = rule.residue if rule.residue >= 2 else rule.residue + rule.modulus
            # the p = 2 class holds a single prime; scan is bounded
            for _ in range(20_000):
                if is_prime(n):
                    t = construct_solution(rule, n)
                    assert classify(t).is_ib, (rule.label(), n)
                    found += 1
                    if found == 20:
                        break
                n += rule.modulus
            assert found >= 1, rule.label()
