"""Terminal entry point: one subcommand per claim family.

Every subcommand is a thin adapter over the library; there is no randomness
anywhere, so repeated runs are byte-identical.  Exit status: 0 on success,
1 when --strict and a sweep found exceptions, 2 on usage errors (a --workers
outside [1, available parallelism] among them) and on an --out path that
cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Sequence

from . import construct as construct_mod
from . import grid as grid_mod
from . import stats as stats_mod
from . import verify as verify_mod
from .core import Triple, classify
from .enumeration import enumerate_labelled, write_solutions_csv
from .parallel import default_workers
from .sieve import PrimeRange
from .sink import write_to


@cache  # static, so one parser serves every main() call in a process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="straus",
        description="Enumerate, classify, construct and verify solutions of "
        "4/p = 1/x + 1/y + 1/z for prime p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="enumerate all solutions for a prime")
    p_solve.add_argument("p", type=int)
    p_solve.add_argument("--out", help="also dump the solutions as CSV")

    p_classify = sub.add_parser("classify", help="classify one solution")
    for name in ("p", "x", "y", "z"):
        p_classify.add_argument(name, type=int)

    p_grid = sub.add_parser("grid", help="render the cell classification lattice")
    p_grid.add_argument("p", type=int)
    p_grid.add_argument("--xmax", type=int, default=40)
    p_grid.add_argument("--ymax", type=int, default=40)
    p_grid.add_argument("--format", choices=sorted(grid_mod.FORMATS), default="ascii")
    p_grid.add_argument("--out", help="write to a file instead of stdout")

    p_stats = sub.add_parser("stats", help="offset distribution over a prime range")
    p_stats.add_argument("--from", dest="lo", type=int, default=2)
    p_stats.add_argument("--to", dest="hi", type=int, default=4000)
    p_stats.add_argument("--out", help="distribution CSV destination")
    p_stats.add_argument("--series-out", help="per-prime type-II series CSV")
    p_stats.add_argument("--gnuplot", help="two-column `i proportion` output")
    p_stats.add_argument("--workers", type=int, default=None)

    p_verify = sub.add_parser("verify", help="sweep a claim over a prime range")
    p_verify.add_argument("claim", choices=verify_mod.CLAIMS)
    p_verify.add_argument("--from", dest="lo", type=int, default=2)
    p_verify.add_argument("--to", dest="hi", type=int, default=1000)
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 1 if any exception is found")
    p_verify.add_argument("--witnesses", action="store_true",
                          help="store the first witness per prime in the CSV "
                               "(conj3-pattern and conj5-pattern only)")
    p_verify.add_argument("--pstar", type=int, default=verify_mod.DEFAULT_THRESHOLD_PRIME,
                          help="pattern threshold used to annotate exceptions")
    p_verify.add_argument("--out", help="ledger CSV destination")
    p_verify.add_argument("--workers", type=int, default=None)

    p_construct = sub.add_parser("construct", help="build a solution from a rule table")
    p_construct.add_argument("p", type=int)
    p_construct.add_argument("--ruleset", choices=sorted(construct_mod.RULE_FILES),
                             default="theorem5")

    p_witness = sub.add_parser("witness", help="scan for a conj3/conj5 witness")
    p_witness.add_argument("kind", choices=("conj3", "conj5"))
    p_witness.add_argument("p", type=int)

    return parser


def _workers(args: argparse.Namespace) -> int:
    """--workers, default the available parallelism; more would only fork
    processes that share the same cores."""
    limit = default_workers()
    if args.workers is None:
        return limit
    if not 1 <= args.workers <= limit:
        raise ValueError(f"--workers must be in [1, {limit}], got {args.workers}")
    return args.workers


def _cmd_solve(args: argparse.Namespace) -> int:
    solutions, labels = enumerate_labelled(args.p)
    rows = [f"# p={args.p}: {len(solutions)} solutions"]
    rows += [f"{t.x} {t.y} {t.z} {label}" for t, label in zip(solutions, labels)]
    sys.stdout.write("\n".join(rows) + "\n")  # one write, not one per row
    if args.out:
        write_solutions_csv([solutions], args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    t = Triple(args.p, args.x, args.y, args.z)
    c = classify(t)
    print(
        f"p={t.p} x={t.x} y={t.y} z={t.z} type={c.labels()} "
        f"offset_x={c.offset_x} offset_y={c.offset_y}"
    )
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    data = grid_mod.render(args.p, args.xmax, args.ymax, args.format)
    write_to(args.out or sys.stdout.buffer, data)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    workers = _workers(args)
    r = PrimeRange(args.lo, args.hi)
    table, series = stats_mod.range_summary(r, workers=workers)
    if args.out:
        stats_mod.emit_csv(table, args.out)
    else:
        stats_mod.emit_csv(table, sys.stdout)
    if args.series_out:
        stats_mod.emit_csv(series, args.series_out)
    if args.gnuplot:
        stats_mod.emit_gnuplot(table, args.gnuplot)
    print(f"# range=[{r.lo},{r.hi}] total={table.total}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    workers = _workers(args)
    r = PrimeRange(args.lo, args.hi)
    ledger = verify_mod.sweep(args.claim, r, workers=workers,
                              store_witnesses=args.witnesses)
    if args.out:
        verify_mod.write_ledger_csv(ledger, args.out)
    listed = ", ".join(map(str, ledger.exceptions)) or "none"
    print(f"claim={ledger.claim} range=[{r.lo},{r.hi}] exceptions={listed}")
    unexpected = ledger.unexpected(args.pstar)
    if unexpected:
        print(f"exceptions above p*={args.pstar}: {', '.join(map(str, unexpected))}")
    if args.strict and ledger.exceptions:
        return 1
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    rules = construct_mod.load_rules(args.ruleset)
    rule = construct_mod.match_rule(rules, args.p)
    if rule is None:
        print(f"no {args.ruleset} rule matches p={args.p}")
        return 0
    t = construct_mod.construct_solution(rule, args.p)
    print(f"rule: {rule.label()}, y = {rule.formula()}")
    print(f"{t.x} {t.y} {t.z} {classify(t).labels()}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    finder = (
        verify_mod.find_conj3_witness if args.kind == "conj3"
        else verify_mod.find_conj5_witness
    )
    report = finder(args.p)
    if report is None:
        print(f"no {args.kind} witness for p={args.p}")
        return 0
    t = report.derived
    print(
        f"kind={report.kind} witness={report.witness} m={report.m} "
        f"scans={report.early_exit_scans} triple=({t.x},{t.y},{t.z})"
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "grid": _cmd_grid,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "witness": _cmd_witness,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, construct_mod.RuleViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
