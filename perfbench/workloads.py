"""The three benchmark workloads and the checks on their outputs.

Each workload runs in passes.  A pass is one unit of user-visible work (one
`straus stats` run, one round of claim sweeps, one batch of CLI queries); it
starts from cold enumeration caches, as a fresh `straus` process would, and
returns its timing plus the operations it attempted and the ones that failed.
Output checks run after the timed region and never contribute a timing: a
failed check fails the operations it covers and marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf

from calibrate import work_clock


def primes_upto(n: int) -> list[int]:
    """Plain sieve, independent of the library, for inputs and prime counts."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def reset_caches(straus) -> None:
    """Empty the enumeration module's divisor and spf tables, so each pass
    pays for them as a fresh `straus` process does."""
    enumeration = straus.enumeration
    cache = getattr(enumeration, "_div_sq_cache", None)
    if cache is not None:
        cache.clear()
    if hasattr(enumeration, "_spf"):
        enumeration._spf = []


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int = 0
    # operation -> latency in ms (inf = failed).  A query repeated in later
    # passes reuses its key; a whole-pass operation gets a fresh key per pass.
    latencies_ms: dict = field(default_factory=dict)
    bad: list[str] = field(default_factory=list)  # failed output checks
    extra: dict = field(default_factory=dict)


def _fail_check(result: PassResult, ops: int, message: str) -> None:
    result.failed += ops
    result.bad.append(message)


# --------------------------------------------------------------------------
# stats-range: the work of `straus stats --to 6000 --out ... --series-out ...`

STATS_HI = 6000
PREFIX_HI = 4000
EXPECTED_TABLE = (61651, 845, 295, 122, 176)  # offset buckets 1..5, p <= 6000
EXPECTED_PREFIX = (38434, 822)  # solutions, type-II solutions for p <= 4000


class StatsRange:
    name = "stats-range"
    uses_pmap = True

    def __init__(self, straus, seed: int) -> None:
        self.straus = straus
        self.primes = primes_upto(STATS_HI)
        self.ops_per_pass = self.primes_per_op = len(self.primes)

    def run_pass(self, workers: int, tracer=None) -> PassResult:
        s = self.straus
        table_csv, series_csv = io.StringIO(), io.StringIO()
        start = work_clock()
        try:
            table, series = s.range_summary(s.PrimeRange(2, STATS_HI), workers=workers)
            s.emit_csv(table, table_csv)
            s.emit_csv(series, series_csv)
        except Exception as exc:  # one failed pass must not end the run
            result = PassResult(work_clock() - start, self.ops_per_pass)
            _fail_check(result, self.ops_per_pass, f"range_summary raised {exc!r}")
            result.latencies_ms[object()] = inf
            return result
        seconds = work_clock() - start
        result = PassResult(seconds, self.ops_per_pass)
        result.extra["csv_bytes"] = len(table_csv.getvalue()) + len(series_csv.getvalue())
        problem = self._check(table, series, table_csv.getvalue(), series_csv.getvalue())
        if problem:
            _fail_check(result, self.ops_per_pass, problem)
        result.latencies_ms[object()] = inf if problem else seconds * 1e3
        return result

    def _check(self, table, series, table_text: str, series_text: str) -> str | None:
        counts = tuple(table.counts[i] for i in range(1, 6))
        if counts != EXPECTED_TABLE or table.overflow or table.total != sum(EXPECTED_TABLE):
            return f"distribution table {counts} != {EXPECTED_TABLE}"
        if [row.p for row in series] != self.primes:
            return "series does not list every prime <= 6000 once, ascending"
        prefix = [row for row in series if row.p <= PREFIX_HI]
        sums = (sum(r.n_solutions for r in prefix), sum(r.n_type_ii for r in prefix))
        if sums != EXPECTED_PREFIX:
            return f"p <= 4000 series sums {sums} != {EXPECTED_PREFIX}"
        csv_counts = tuple(int(line.split(",")[1]) for line in table_text.splitlines()[1:6])
        if csv_counts != EXPECTED_TABLE:
            return f"table CSV counts {csv_counts} != {EXPECTED_TABLE}"
        rows = [line.split(",") for line in series_text.splitlines()[1:]]
        if [(int(p), int(n), int(t)) for p, n, t, _ in rows] != [
            (r.p, r.n_solutions, r.n_type_ii) for r in series
        ]:
            return "series CSV disagrees with the series"
        return None


# --------------------------------------------------------------------------
# claim-sweeps: `straus verify <claim>` for the four claims.  End-to-end passes
# run at workers=1: on a 2-vCPU box shared with other tenants, two forked
# workers make the pass time depend on the neighbours' load.  The traced run
# times pmap at workers=2 on its own.

SWEEP_HI = 100_000
CONJ5_HI = 1_000_000
CONJ5_BLOCK = 100_000
EXPECTED_EXCEPTIONS = {
    "conj1": (193,),
    "conj2": (),
    "conj3-pattern": (2, 2521),
}
EXPECTED_CONJ5_LOW = (2, 3, 7, 47, 193, 2521)  # conj5 exceptions <= 10**5


class ClaimSweeps:
    name = "claim-sweeps"
    uses_pmap = True

    def __init__(self, straus, seed: int) -> None:
        self.straus = straus
        primes = primes_upto(CONJ5_HI)
        self.sweep_primes = primes[: bisect_left(primes, SWEEP_HI + 1)]
        self.conj5_primes = primes
        self.blocks = [
            (max(2, lo + 1), lo + CONJ5_BLOCK) for lo in range(0, CONJ5_HI, CONJ5_BLOCK)
        ]
        self.ops_per_pass = self.primes_per_op = 3 * len(self.sweep_primes) + len(primes)

    def run_pass(self, workers: int, tracer=None) -> PassResult:
        s = self.straus
        outcomes, claim_s = {}, {}  # claim -> (ledger, CSV text) or the exception
        start = work_clock()
        for claim in EXPECTED_EXCEPTIONS:
            t0 = work_clock()
            try:
                ledger = s.sweep(claim, s.PrimeRange(2, SWEEP_HI), workers=workers)
                outcomes[claim] = (ledger, self._ledger_csv(ledger))
            except Exception as exc:  # a crashed sweep fails its primes; the run goes on
                outcomes[claim] = exc
            claim_s[claim] = work_clock() - t0
        t0 = work_clock()
        ledger5, failed5, crashes = self._sweep_conj5(workers, tracer)
        text5 = self._ledger_csv(ledger5)
        claim_s["conj5-pattern"] = work_clock() - t0
        seconds = work_clock() - start

        result = PassResult(seconds, self.ops_per_pass)
        result.extra["claim_s"] = claim_s
        n_sweep = len(self.sweep_primes)
        for claim, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                _fail_check(result, n_sweep, f"{claim} sweep raised {outcome!r}")
                continue
            problem = self._check_ledger(*outcome, EXPECTED_EXCEPTIONS[claim])
            if problem:
                _fail_check(result, n_sweep, problem)
        result.bad.extend(crashes)
        problem = self._check_conj5(ledger5, text5, failed5)
        if problem:
            _fail_check(result, len(self.conj5_primes), problem)
        else:
            result.failed += len(failed5)
        result.latencies_ms[object()] = inf if result.bad else seconds * 1e3
        return result

    def _ledger_csv(self, ledger) -> str:
        buf = io.StringIO()
        self.straus.write_ledger_csv(ledger, buf)
        return buf.getvalue()

    def _sweep_conj5(self, workers, tracer=None):
        """Sweep conj5 in fixed blocks.  A block that leaves the 128-bit
        envelope is re-run one prime at a time; each prime that raises is one
        failed operation, and the sweep goes on.

        The aborted block attempt's wall time stays in the pass (it is part
        of what a user of `sweep` pays), but its per-layer counts are rolled
        back, so the primes before the overflow are not counted twice."""
        s = self.straus
        exceptions, witnesses, failed, crashes = [], [], [], []
        for lo, hi in self.blocks:
            r = s.PrimeRange(lo, hi)
            before = tracer.snapshot() if tracer is not None else None
            try:
                block = s.sweep("conj5-pattern", r, workers=workers, store_witnesses=True)
            except OverflowError:
                if tracer is not None:
                    tracer.restore(before)
            except Exception as exc:
                failed.extend(self.conj5_primes[
                    bisect_left(self.conj5_primes, lo):bisect_left(self.conj5_primes, hi + 1)
                ])
                crashes.append(f"conj5 block [{lo}, {hi}] raised {exc!r}")
                continue
            else:
                exceptions.extend(block.exceptions)
                witnesses.extend(block.witnesses)
                continue
            for p in s.primes_in(r):
                try:
                    report = s.find_conj5_witness(p)
                except OverflowError:
                    failed.append(p)
                    continue
                if report is None:
                    exceptions.append(p)
                else:
                    witnesses.append(report)
        ledger = s.ExceptionLedger(
            "conj5-pattern", s.PrimeRange(2, CONJ5_HI), tuple(exceptions), tuple(witnesses)
        )
        return ledger, failed, crashes

    @staticmethod
    def _ledger_footer_ok(ledger, text: str) -> bool:
        footer = text.rstrip("\n").rsplit("\n", 1)[-1]
        return (
            f"exceptions={len(ledger.exceptions)}" in footer
            and f"witnesses={len(ledger.witnesses)}" in footer
        )

    def _check_ledger(self, ledger, text: str, expected: tuple) -> str | None:
        if ledger.exceptions != expected:
            return f"{ledger.claim} exceptions {ledger.exceptions} != {expected}"
        if not self._ledger_footer_ok(ledger, text):
            return f"{ledger.claim} ledger CSV footer disagrees with the ledger"
        return None

    def _check_conj5(self, ledger, text: str, failed: list[int]) -> str | None:
        s = self.straus
        low = tuple(p for p in ledger.exceptions if p <= SWEEP_HI)
        if low != EXPECTED_CONJ5_LOW:
            return f"conj5 exceptions <= 10^5 {low} != {EXPECTED_CONJ5_LOW}"
        seen = sorted([*ledger.exceptions, *(w.p for w in ledger.witnesses), *failed])
        if seen != self.conj5_primes:
            return "conj5 outcomes do not cover every prime <= 10^6 exactly once"
        for w in ledger.witnesses:
            t = w.derived
            if not (s.check_conj5_witness(w.p, w.witness) and s.check_identity(w.p, t.x, t.y, t.z)):
                return f"conj5 witness {w.witness} for p = {w.p} does not check"
        if not self._ledger_footer_ok(ledger, text):
            return "conj5 ledger CSV footer disagrees with the ledger"
        return None


# --------------------------------------------------------------------------
# prime-queries: single-prime CLI commands on primes spread over [1e3, 2e5]

QUERY_LO, QUERY_HI = 1_000, 200_000
QUERIES = 48  # 12 samples above p75
# A query is one run of its commands.  One whose runs so far take under
# REPEAT_UNDER_S is re-timed in the next round, up to QUERY_REPEATS runs in
# all, and its latency is the median: a 0.1 s query timed once reads up to
# 20 % off on a shared box, and the quantiles rest on two such queries.
QUERY_REPEATS = 5
REPEAT_UNDER_S = 0.4
ORACLE_MAX = 2_000  # enumerate_oracle is O(p^2.2): 0.4 s at 2000, 25 s at 10^4
GRID_SIZE = 40
# For every query prime (p >= 1000) the 40 x 40 window lies inside the
# Yellow region and below the diagonal, so the timed grids use only the 'Y'
# and '.' rules.  One untimed grid of this small prime, in the same window,
# checks the Pink and Blue rules as well.
GRID_CHECK_P = 13
LABELS = {"I(a)+I(b)", "I(b)", "II"}


def query_primes(seed: int) -> list[int]:
    """One prime per equal-width stratum of log p, jittered by the seed.

    Stratifying keeps the draw log-uniform over the whole range while the
    sample quantiles stay put from seed to seed.  Strata 1-2, 3-4, ... are
    jittered in opposite directions (u and 1 - u), so each pair's mean log p
    is fixed.  The 48 latencies' p50 interpolates between strata 23 and 24,
    and their p75 between 35 and 36, so the seed barely moves the primes
    these quantiles rest on.  Each prime alone is still log-uniform in its
    stratum; two neighbours can round to the same prime.
    """
    primes = primes_upto(QUERY_HI)
    rng = random.Random(seed)
    width = math.log(QUERY_HI / QUERY_LO) / QUERIES
    jitter = [rng.random() for _ in range(QUERIES)]
    for i in range(1, QUERIES - 1, 2):
        jitter[i + 1] = 1 - jitter[i]
    out = []
    for i in range(QUERIES):
        target = QUERY_LO * math.exp(width * (i + jitter[i]))
        out.append(primes[min(bisect_left(primes, target), len(primes) - 1)])
    rng.shuffle(out)
    return out


def query_commands(p: int) -> list[list[str]]:
    s = str(p)
    return [
        ["solve", s],
        ["construct", s],
        ["construct", s, "--ruleset", "conjecture3-table"],
        ["witness", "conj3", s],
        ["witness", "conj5", s],
        ["grid", s, "--xmax", str(GRID_SIZE), "--ymax", str(GRID_SIZE)],
    ]


def _cell_char(p: int, x: int, y: int) -> str:
    """The grid colour rule, restated here so the check does not reuse the
    code under test."""
    if x > y:
        return "."
    d = 4 * x * y - p * (x + y)
    if d <= 0:
        return "Y"
    if p * x < d:
        return "."
    return "P" if (p * x * y) % d == 0 else "B"


class PrimeQueries:
    name = "prime-queries"
    uses_pmap = False

    def __init__(self, straus, seed: int) -> None:
        self.straus = straus
        self.primes = query_primes(seed)
        self.primes_per_op = 1
        self.ops_per_pass = sum(len(query_commands(p)) for p in self.primes)
        self.info = {"query_seed": seed, "query_primes": sorted(self.primes)}
        self._oracle: dict[int, set] = {}

    def _run_command(self, argv):
        """Run one CLI command; stdout is captured, stderr discarded."""
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = work_clock()
            try:
                rc = self.straus.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is one failed operation
                rc = f"crash: {exc!r}"
            seconds = work_clock() - start
        out.flush()
        return rc, out.buffer.getvalue().decode(), seconds

    def run_pass(self, workers: int, tracer=None) -> PassResult:
        result = PassResult(0.0, self.ops_per_pass)
        outputs = []
        runs = [[] for _ in self.primes]  # seconds of each run of each query
        failed = set()
        # Repeats go in rounds, so that a query's runs sample the machine at
        # moments seconds apart.  Traced passes run each query once, so that
        # per-layer counts do not depend on how fast the machine was.
        for round_ in range(QUERY_REPEATS if tracer is None else 1):
            for i, p in enumerate(self.primes):
                if round_ and (i in failed or sum(runs[i]) >= REPEAT_UNDER_S):
                    continue
                reset_caches(self.straus)
                query_s = 0.0
                for argv in query_commands(p):
                    rc, out, seconds = self._run_command(argv)
                    query_s += seconds
                    if rc != 0:
                        failed.add(i)
                    if round_ == 0:  # the first run is the operation; repeats re-time it
                        outputs.append((i, p, argv, rc, out))
                        result.failed += rc != 0
                    elif rc != 0:
                        _fail_check(result, 1, f"{' '.join(argv)}: exit code {rc} on a repeat")
                runs[i].append(query_s)
        for i, p in enumerate(self.primes):
            result.seconds += sum(runs[i])
            result.latencies_ms[i, p] = inf if i in failed else statistics.median(runs[i]) * 1e3
        for i, p, argv, rc, out in outputs:
            problem = self._check(p, argv, out) if rc == 0 else None
            if problem:
                _fail_check(result, 1, f"{' '.join(argv)}: {problem}")
                result.latencies_ms[i, p] = inf
        argv = query_commands(GRID_CHECK_P)[-1]
        before = tracer.snapshot() if tracer is not None else None
        rc, out, _ = self._run_command(argv)
        if tracer is not None:  # a check, not part of the workload
            tracer.restore(before)
        problem = f"exit code {rc}" if rc != 0 else self._check(GRID_CHECK_P, argv, out)
        if problem:  # the timed grids share these rules: fail them all
            _fail_check(result, len(self.primes), f"{' '.join(argv)}: {problem}")
        return result

    def _identity(self, p: int, x: int, y: int, z: int) -> bool:
        return x <= y <= z and self.straus.check_identity(p, x, y, z)

    def _check(self, p: int, argv: list[str], out: str) -> str | None:
        try:
            return getattr(self, "_check_" + argv[0])(p, argv, out.splitlines())
        except (ValueError, IndexError, OverflowError) as exc:
            return f"unparsable or out-of-envelope output ({exc!r})"

    def _check_solve(self, p, argv, lines):
        if lines[0] != f"# p={p}: {len(lines) - 1} solutions":
            return f"bad header {lines[0]!r}"
        rows = []
        for line in lines[1:]:
            x, y, z, label = line.split()
            if label not in LABELS or not self._identity(p, int(x), int(y), int(z)):
                return f"row {line!r} is not a solution"
            rows.append((int(x), int(y), int(z)))
        if p <= ORACLE_MAX:
            if p not in self._oracle:
                self._oracle[p] = set(self.straus.enumerate_oracle(p).as_tuples())
            if set(rows) != self._oracle[p] or len(rows) != len(self._oracle[p]):
                return "solutions differ from enumerate_oracle"
        return None

    def _check_construct(self, p, argv, lines):
        if len(lines) == 1 and lines[0].startswith("no ") and lines[0].endswith(f"matches p={p}"):
            return None
        x, y, z, label = lines[1].split()
        if not lines[0].startswith("rule: ") or label not in LABELS - {"II"}:
            return f"bad construct output {lines!r}"
        return None if self._identity(p, int(x), int(y), int(z)) else "triple is not a solution"

    def _check_witness(self, p, argv, lines):
        if lines == [f"no {argv[1]} witness for p={p}"]:
            return None
        triple = lines[0].rsplit("triple=(", 1)[1].rstrip(")")
        x, y, z = (int(v) for v in triple.split(","))
        if z != p * math.lcm(x, y) or not self._identity(p, x, y, z):
            return f"witness triple {(x, y, z)} is not an lcm-shaped solution"
        return None

    def _check_grid(self, p, argv, lines):
        expected = [
            "".join(_cell_char(p, x, y) for x in range(1, GRID_SIZE + 1))
            for y in range(GRID_SIZE, 0, -1)
        ]
        return None if lines == expected else "grid cells disagree with the cell rules"
