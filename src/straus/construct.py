"""Search-free solution construction from residue-class rule tables.

The tables live as plain-text data files (one rule per line, checksummed) so
every row can be audited against its formula instead of being buried in code.
Loading a table builds every rule's solution on sampled primes before the
set is accepted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .core import Triple
from .sieve import is_prime, require_prime

RULE_FILES = {
    "theorem5": "theorem5.rules",
    "conjecture3-table": "conjecture3_table.rules",
}

RULE_CHECKSUMS = {
    "theorem5.rules": "ad2c107244fcf0ee54d5b66ea2de55fbf7d18277f3065ac44dce7152e8c86abe",
    "conjecture3_table.rules": "8b5778370c9067b20f1b937c82c5441ab2eecc2dd1f6f0a798bb50f5173b6ef9",
}

_VALIDATION_SAMPLES = 50
_VALIDATION_SCAN = 5_000  # progression steps to scan for sample primes


class RuleViolationError(Exception):
    """A rule table row broke its promise (bad divisibility, non-integral z)."""


@dataclass(frozen=True)
class ResidueRule:
    """y(p) = (c2*p**2 + c1*p + c0)/den for primes p = residue (mod modulus)."""

    modulus: int
    residue: int
    c2: int
    c1: int
    c0: int
    den: int

    def __post_init__(self) -> None:
        if self.modulus < 1 or not (0 <= self.residue < self.modulus):
            raise ValueError(f"bad residue class {self.residue} mod {self.modulus}")
        if self.den < 1:
            raise ValueError(f"rule denominator must be positive, got {self.den}")

    def matches(self, p: int) -> bool:
        return p % self.modulus == self.residue

    def evaluate(self, p: int) -> int:
        """The y this rule assigns to p; must divide exactly."""
        num = self.c2 * p * p + self.c1 * p + self.c0
        if num % self.den != 0:
            raise RuleViolationError(
                f"{self.den} does not divide {num} for p = {p} (rule {self.label()})"
            )
        return num // self.den

    def label(self) -> str:
        return f"{self.residue} mod {self.modulus}"

    def formula(self) -> str:
        terms = []
        if self.c2:
            terms.append(f"{self.c2}p^2" if self.c2 != 1 else "p^2")
        if self.c1:
            terms.append(f"{self.c1}p" if self.c1 != 1 else "p")
        if self.c0:
            terms.append(str(self.c0))
        poly = " + ".join(terms) or "0"
        return f"({poly})/{self.den}" if self.den != 1 else poly


@dataclass(frozen=True)
class RuleSet:
    """An ordered, duplicate-free collection of rules with a provenance tag.

    _by_modulus indexes the rules as (modulus, {residue: rule}) pairs, largest
    modulus first, so match_rule does one lookup per distinct modulus.
    """

    provenance: str
    rules: tuple[ResidueRule, ...]
    _by_modulus: tuple[tuple[int, dict[int, ResidueRule]], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        index: dict[int, dict[int, ResidueRule]] = {}
        for rule in self.rules:
            classes = index.setdefault(rule.modulus, {})
            if rule.residue in classes:
                raise ValueError(f"duplicate rule class {rule.label()}")
            classes[rule.residue] = rule
        object.__setattr__(self, "_by_modulus", tuple(sorted(index.items(), reverse=True)))


def _sample_primes(modulus: int, residue: int, count: int) -> list[int]:
    """Up to `count` primes in the class, scanning a bounded progression."""
    out = []
    n = residue if residue >= 2 else residue + modulus
    for _ in range(_VALIDATION_SCAN):
        if is_prime(n):
            out.append(n)
            if len(out) >= count:
                break
        n += modulus
    return out


def _validate_rule(rule: ResidueRule) -> None:
    """Build the rule's solution for sampled primes; _rule_solution raises on
    broken divisibility, a y at or below the pole or a non-integral z."""
    samples = _sample_primes(rule.modulus, rule.residue, _VALIDATION_SAMPLES)
    if not samples:
        raise RuleViolationError(f"no primes found in class {rule.label()}")
    for p in samples:
        _rule_solution(rule, p)


def _parse_rules(text: str, provenance: str) -> RuleSet:
    """Parse a table and validate every rule on sampled primes."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"line {lineno}: expected 'M r c2 c1 c0 d', got {raw!r}")
        m, r, c2, c1, c0, d = (int(f) for f in fields)
        rules.append(ResidueRule(m, r, c2, c1, c0, d))
    ruleset = RuleSet(provenance, tuple(rules))
    for rule in ruleset.rules:
        _validate_rule(rule)
    return ruleset


@lru_cache(maxsize=None)
def load_rules(provenance: str) -> RuleSet:
    """Load, checksum and validate one of the bundled rule tables."""
    if provenance not in RULE_FILES:
        raise ValueError(
            f"unknown rule set {provenance!r}; expected one of {sorted(RULE_FILES)}"
        )
    filename = RULE_FILES[provenance]
    data = resources.files("straus.data").joinpath(filename).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != RULE_CHECKSUMS[filename]:
        raise RuleViolationError(
            f"{filename} checksum mismatch: table was edited without re-pinning"
        )
    return _parse_rules(data.decode(), provenance)


def load_rules_from_path(path: str | Path, provenance: str = "custom") -> RuleSet:
    """Parse and validate a rule table from an arbitrary file (no checksum)."""
    return _parse_rules(Path(path).read_text(), provenance)


def match_rule(rs: RuleSet, p: int) -> ResidueRule | None:
    """The matching rule with the largest modulus, or None.

    Larger moduli win so that finer residue classes refine coarser ones when
    classes nest.
    """
    for modulus, classes in rs._by_modulus:
        rule = classes.get(p % modulus)
        if rule is not None:
            return rule
    return None


def _rule_solution(rule: ResidueRule, p: int) -> tuple[int, int, int]:
    """(x, y, z) the rule promises for p, in plain integers: y from the rule,
    x = floor(py/q) + 1 for q = 4y - p, z = pxy/d for d = 4xy - p(x + y),
    which is qx - py > 0.  A rule that breaks its promise raises
    RuleViolationError."""
    y = rule.evaluate(p)
    q = 4 * y - p
    if q <= 0:
        raise RuleViolationError(
            f"rule {rule.label()} puts y = {y} at or below the pole for p = {p}"
        )
    x = p * y // q + 1
    z, rem = divmod(p * x * y, 4 * x * y - p * (x + y))
    if rem:
        raise RuleViolationError(
            f"rule {rule.label()} gives non-integral z for p = {p} (y = {y})"
        )
    return x, y, z


def construct_solution(rule: ResidueRule, p: int) -> Triple:
    """Build the solution a rule promises for p, verifying every step.

    Any failure along the way is a transcription error in the table, never
    an expected outcome.  The triple is boundary-adjacent by construction
    (x = floor(py/q) + 1), so it is I(b), or I(a), which implies I(b).
    """
    require_prime(p)
    if not rule.matches(p):
        raise ValueError(f"p = {p} is not in class {rule.label()}")
    return Triple(p, *_rule_solution(rule, p))
