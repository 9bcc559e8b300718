import io
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import straus
from straus import parallel, stats
from straus.core import offset_x
from straus.enumeration import enumerate_fast
from straus.sieve import PrimeRange, primes_in
from straus.stats import (
    STATS_CEILING,
    DistTable,
    PerPrimeProportion,
    distribution,
    emit_csv,
    emit_gnuplot,
    range_summary,
    typeII_series,
)


class TestDistribution:
    def test_single_prime_17(self):
        table = distribution(PrimeRange(17, 17))
        assert table.total == 4
        assert table.counts == {1: 4, 2: 0, 3: 0, 4: 0, 5: 0}
        assert table.overflow == 0

    def test_71_has_an_offset_2_solution(self):
        table = distribution(PrimeRange(71, 71))
        assert table.counts[2] >= 1

    def test_range_to_500_frozen(self):
        # frozen from the oracle-verified enumerator
        table = distribution(PrimeRange(2, 500))
        assert table.total == 3084
        assert table.counts == {1: 3049, 2: 32, 3: 3, 4: 0, 5: 0}

    def test_range_to_10000_frozen(self):
        table, series = range_summary(PrimeRange(2, 10_000))
        assert table.counts == {1: 111_342, 2: 1_593, 3: 577, 4: 261, 5: 437}
        assert table.total == 114_210
        assert sum(row.n_type_ii for row in series) == 2_868

    def test_totals_cross_check_series(self):
        table, series = range_summary(PrimeRange(2, 300))
        assert table.total == sum(row.n_solutions for row in series)

    def test_worker_count_invisible(self, monkeypatch):
        opened = []

        def get_context(method):
            opened.append(method)
            return multiprocessing.get_context(method)

        monkeypatch.setattr(parallel, "get_context", get_context)
        monkeypatch.setattr(parallel, "_POOL_START_S", -1.0)  # a pool always pays
        for hi in (400, 3000):
            r = PrimeRange(2, hi)
            assert range_summary(r, workers=1) == range_summary(r, workers=2)
        assert opened == ["fork", "fork"]

    def test_small_range_stays_in_process(self, monkeypatch):
        r = PrimeRange(2, 1000)
        expected = range_summary(r, workers=1)

        def no_pool(method):
            raise AssertionError("a range cheaper than a pool opened one")

        monkeypatch.setattr(parallel, "get_context", no_pool)
        monkeypatch.setattr(parallel, "_POOL_START_S", float("inf"))  # a pool never pays
        assert range_summary(r, workers=2) == expected

    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            DistTable(PrimeRange(2, 10), {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}, 0, 5)

    @pytest.mark.parametrize("counts", [
        {1: 5, 2: 0, 3: 0, 4: 0},
        {1: 5, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0},
        {0: 5, 2: 0, 3: 0, 4: 0, 5: 0},
    ])
    def test_rejects_wrong_bucket_keys(self, counts):
        with pytest.raises(ValueError, match="expected buckets"):
            DistTable(PrimeRange(2, 10), counts, 0, 5)


class TestRangeKernel:
    WINDOWS = [(2, 2), (3, 3), (1000, 1200), (4001, 4099)]

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_rows_equal_per_prime_path(self, lo, hi):
        r = PrimeRange(lo, hi)
        table, series = range_summary(r)
        rows = []
        for p in primes_in(r):
            buckets = [0] * 5
            for t in enumerate_fast(p):
                buckets[min(offset_x(p, t.x, t.y), 5) - 1] += 1
            rows.append((p, buckets, sum(buckets[1:])))
        assert [(s.p, s.n_solutions, s.n_type_ii) for s in series] == [
            (p, sum(b), n_ii) for p, b, n_ii in rows
        ]
        for i in range(5):
            assert table.counts[i + 1] == sum(b[i] for _, b, _ in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refuses_ranges_past_the_ceiling_before_sieving(self, workers, monkeypatch):
        def no_sieve(r):
            raise AssertionError(f"sieved {r} past the ceiling")

        monkeypatch.setattr(stats, "primes_in", no_sieve)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="stats desk-scale ceiling 1000000; "
                                             r"try \[999900, 1000000\]"):
            range_summary(PrimeRange(999_900, 1_500_000_000), workers=workers)
        assert time.perf_counter() - start < 1.0

    def test_refusal_starts_right_past_the_bound(self):
        assert STATS_CEILING == 10**6
        assert distribution(PrimeRange(STATS_CEILING, STATS_CEILING)).total == 0
        with pytest.raises(ValueError, match="ceiling 1000000$"):  # no subrange to suggest
            range_summary(PrimeRange(STATS_CEILING + 1, STATS_CEILING + 1))

    def test_work_bound_is_the_cost_of_2_to_200000(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(stats, "primes_in", lambda r: sieved.append(r) or [])
        accepted = [PrimeRange(2, 200_000), PrimeRange(999_900, STATS_CEILING)]
        for r in accepted:
            assert range_summary(r)[0].total == 0
        assert sieved == accepted
        for lo, hi in [(2, 200_001), (2, STATS_CEILING), (500_000, 560_000)]:
            with pytest.raises(ValueError, match=r"x the stats work bound.*\[2, 200000\]"):
                range_summary(PrimeRange(lo, hi))
        assert sieved == accepted

    def test_import_leaves_numpy_unloaded(self):
        src = Path(straus.__file__).resolve().parent.parent
        code = "import sys, straus, straus.cli; sys.exit('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestSeries:
    def test_17_record(self):
        (row,) = typeII_series(PrimeRange(17, 17))
        assert (row.p, row.n_solutions, row.n_type_ii) == (17, 4, 0)

    def test_71_has_type_ii(self):
        (row,) = typeII_series(PrimeRange(71, 71))
        assert row.n_type_ii >= 1

    def test_records_ascending(self):
        series = typeII_series(PrimeRange(2, 200))
        assert [r.p for r in series] == sorted(r.p for r in series)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerPrimeProportion(17, 0, 0)
        with pytest.raises(ValueError):
            PerPrimeProportion(17, 2, 5)


class TestCsv:
    def test_distribution_rows(self):
        buf = io.StringIO()
        emit_csv(distribution(PrimeRange(17, 17)), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,count,proportion"
        assert lines[1] == "1,4,1.0000"
        assert lines[5] == "5,0,0.0000"
        assert lines[6] == "overflow,0,0.0000"

    def test_empty_range_header_only(self):
        buf = io.StringIO()
        emit_csv(distribution(PrimeRange(4000, 4000)), buf)
        assert buf.getvalue() == "i,count,proportion\n"

    def test_series_rows(self):
        buf = io.StringIO()
        emit_csv(typeII_series(PrimeRange(17, 17)), buf)
        assert buf.getvalue().splitlines()[1] == "17,4,0,0.0000"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(distribution(PrimeRange(2, 200), workers=1), a)
        emit_csv(distribution(PrimeRange(2, 200), workers=2), b)
        assert a.read_bytes() == b.read_bytes()

    def test_gnuplot_two_columns(self):
        buf = io.StringIO()
        emit_gnuplot(distribution(PrimeRange(17, 17)), buf)
        assert buf.getvalue().splitlines()[0] == "1 1.0000"
