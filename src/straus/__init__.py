"""Exact-integer engine for the unit-fraction equation 4/p = 1/x + 1/y + 1/z.

Enumerates complete per-prime solution sets, classifies them by boundary
adjacency, constructs solutions from residue-class rule tables, verifies the
boundary-pattern claims over prime ranges, and renders the solution lattice.
"""

from .core import (
    BoundaryValue,
    Classification,
    Triple,
    boundary,
    check_identity,
    classify,
    next_boundary,
    offset_x,
)
from .construct import (
    ResidueRule,
    RuleSet,
    RuleViolationError,
    construct_solution,
    load_rules,
    match_rule,
)
from .enumeration import (
    SolutionSet,
    enumerate_fast,
    enumerate_oracle,
    iter_solutions_fast,
    write_solutions_csv,
)
from .grid import CellColor, GridImage, build_grid, classify_cell, negative_region, render
from .sieve import PrimeRange, is_prime, primes_in
from .stats import DistTable, PerPrimeProportion, distribution, emit_csv, range_summary, typeII_series
from .verify import (
    ExceptionLedger,
    WitnessReport,
    check_conj3_witness,
    check_conj5_witness,
    find_conj3_witness,
    find_conj5_witness,
    sweep,
    verify_type_Ia_exists,
    verify_type_Ib_exists,
    write_ledger_csv,
)

__version__ = "0.1.0"
