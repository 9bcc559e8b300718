import time

import pytest

from straus import cli, parallel
from straus.cli import main
from straus.core import check_identity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_17(self, capsys):
        code, out, _ = run(capsys, "solve", "17")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# p=17: 4 solutions"
        assert lines[1:] == [
            "5 30 510 I(b)",
            "5 34 170 I(b)",
            "6 15 510 I(a)+I(b)",
            "6 17 102 I(b)",
        ]

    def test_csv_dump(self, capsys, tmp_path):
        dest = tmp_path / "sols.csv"
        code, _, _ = run(capsys, "solve", "2", "--out", str(dest))
        assert code == 0
        assert dest.read_text() == "p,x,y,z\n2,1,2,2\n"

    def test_composite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "16")
        assert code == 2
        assert "not prime" in err

    @pytest.mark.parametrize("command", [["solve"], ["witness", "conj5"]])
    def test_negative_is_not_prime(self, capsys, command):
        code, out, err = run(capsys, *command, "-7")
        assert code == 2
        assert out == ""
        assert "p = -7 is not prime" in err

    def test_past_proven_primality_range_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "solve", str(2**89 - 1))  # Mersenne prime
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "proven primality range" in err

    def test_past_the_enumeration_ceiling_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "10000019")  # first prime above FAST_LIMIT
        assert code == 2
        assert "enumeration ceiling" in err

    def test_solutions_past_128_bits_exit_zero(self, capsys):
        # p = 150011 has solutions with p*x*y*z above 2**127; exact integers take them
        code, out, _ = run(capsys, "solve", "150011")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# p=150011: 248 solutions"
        assert len(lines) == 249
        for line in lines[1:]:
            x, y, z, _label = line.split()
            assert check_identity(150011, int(x), int(y), int(z))


class TestClassify:
    def test_known_solution(self, capsys):
        code, out, _ = run(capsys, "classify", "71", "20", "284", "355")
        assert code == 0
        assert "type=II" in out
        assert "offset_x=2" in out

    def test_non_solution(self, capsys):
        code, _, err = run(capsys, "classify", "17", "5", "34", "171")
        assert code == 2
        assert "not a solution" in err

    @pytest.mark.parametrize("digits", [4300, 4400])
    def test_huge_integers_are_usage_errors(self, capsys, digits):
        # 4300 digits parse and fail the identity; past Python's 4300-digit
        # int parse limit argparse itself refuses the argument
        start = time.perf_counter()
        try:
            code = main(["classify", "17", "9" * digits, "9" * digits, "9" * digits])
        except SystemExit as exc:
            code = exc.code
        assert time.perf_counter() - start < 1.0
        assert code == 2


class TestVerify:
    def test_conj1_reports_193(self, capsys):
        code, out, _ = run(capsys, "verify", "conj1", "--to", "1000")
        assert code == 0
        assert "exceptions=193" in out

    def test_strict_exit_code(self, capsys):
        code, _, _ = run(capsys, "verify", "conj1", "--to", "1000", "--strict")
        assert code == 1

    def test_strict_passes_when_clean(self, capsys):
        code, _, _ = run(capsys, "verify", "conj2", "--to", "200", "--strict")
        assert code == 0

    def test_ledger_csv(self, capsys, tmp_path):
        dest = tmp_path / "ledger.csv"
        code, _, _ = run(capsys, "verify", "conj1", "--to", "500", "--out", str(dest))
        assert code == 0
        assert "conj1,193,exception,," in dest.read_text()

    def test_pstar_lists_exceptions_above_it(self, capsys):
        code, out, _ = run(capsys, "verify", "conj1", "--to", "1000", "--pstar", "100")
        assert code == 0
        assert out.splitlines() == [
            "claim=conj1 range=[2,1000] exceptions=193",
            "exceptions above p*=100: 193",
        ]
        _, out, _ = run(capsys, "verify", "conj1", "--to", "1000")  # p* = 2521
        assert "exceptions above" not in out

    def test_unwritable_ledger_is_usage_error(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "ledger.csv"
        code, _, err = run(capsys, "verify", "conj1", "--to", "1000", "--strict",
                           "--out", str(dest))
        assert code == 2  # not 1, which means the sweep found exceptions
        assert err.startswith("error: ") and "missing" in err

    def test_unknown_claim_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conj9"])
        assert exc.value.code == 2


class TestStats:
    def test_writes_distribution(self, capsys, tmp_path):
        dest = tmp_path / "dist.csv"
        code, _, _ = run(capsys, "stats", "--to", "100", "--out", str(dest),
                         "--workers", "1")
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "i,count,proportion"
        assert len(lines) == 7

    def test_stdout_and_series(self, capsys, tmp_path):
        series = tmp_path / "series.csv"
        code, out, _ = run(capsys, "stats", "--from", "17", "--to", "17",
                           "--series-out", str(series), "--workers", "1")
        assert code == 0
        assert "1,4,1.0000" in out
        assert series.read_text().splitlines()[1] == "17,4,0,0.0000"

    def test_range_past_the_old_128_bit_bound(self, capsys):
        code, out, _ = run(capsys, "stats", "--from", "150000", "--to", "150030",
                           "--workers", "1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:6]]
        assert [int(count) for _i, count, _prop in rows] == [331, 8, 3, 1, 10]

    def test_gnuplot_file(self, capsys, tmp_path):
        dest = tmp_path / "dist.dat"
        code, _, _ = run(capsys, "stats", "--to", "500", "--gnuplot", str(dest),
                         "--workers", "1")
        assert code == 0
        # 3049, 32, 3, 0, 0 of 3084 (the frozen distribution to 500)
        assert dest.read_text() == "1 0.9887\n2 0.0104\n3 0.0010\n4 0.0000\n5 0.0000\n"

    def test_past_the_ceiling_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "stats", "--to", "1000001")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "stats desk-scale ceiling 1000000" in err

    def test_hours_of_work_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "stats", "--to", "1000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error: range [2, 1000000] costs about 22.1x the stats work bound")


class TestWorkers:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        """Two available workers, and a failure instead of any process pool."""
        def get_context(method):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel, "get_context", get_context)
        monkeypatch.setattr(cli, "default_workers", lambda: 2)

    @pytest.mark.parametrize("command", [("stats",), ("verify", "conj1")])
    @pytest.mark.parametrize("workers", ["100000", "3", "0", "-1"])
    def test_out_of_range_is_refused_before_any_work(self, capsys, monkeypatch, command, workers):
        def work(*args, **kwargs):
            raise AssertionError("the range was swept")

        monkeypatch.setattr(cli.stats_mod, "range_summary", work)
        monkeypatch.setattr(cli.verify_mod, "sweep", work)
        code, out, err = run(capsys, *command, "--to", "20000", "--workers", workers)
        assert code == 2 and out == ""
        assert err == f"error: --workers must be in [1, 2], got {workers}\n"

    @pytest.mark.parametrize("command", [("stats",), ("verify", "conj1")])
    def test_the_available_parallelism_is_accepted(self, capsys, command):
        # both ranges are too small to fork at any worker count
        assert run(capsys, *command, "--to", "100", "--workers", "2")[0] == 0


class TestConstructAndWitness:
    def test_construct_13(self, capsys):
        code, out, _ = run(capsys, "construct", "13")
        assert code == 0
        assert "rule: 5 mod 8" in out
        assert "4 26 52 I(b)" in out

    def test_construct_unmatched(self, capsys):
        code, out, _ = run(capsys, "construct", "2521")
        assert code == 0
        assert "no theorem5 rule matches" in out

    def test_construct_witness_table(self, capsys):
        code, out, _ = run(capsys, "construct", "13", "--ruleset", "conjecture3-table")
        assert code == 0
        assert "rule: 5 mod 8" in out

    def test_witness_conj3(self, capsys):
        code, out, _ = run(capsys, "witness", "conj3", "17")
        assert code == 0
        assert "witness=15" in out
        assert "triple=(6,15,510)" in out

    def test_witness_conj3_past_its_ceiling_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "witness", "conj3", "1000000000039")
        assert code == 2
        assert "conj3 witness ceiling" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", [["construct"], ["witness", "conj5"]])
    def test_twelve_base_pseudoprime_is_usage_error(self, capsys, command):
        # 399165290221 * 798330580441 passes Miller-Rabin to the first 12 prime bases
        code, out, err = run(capsys, *command, "318665857834031151167461")
        assert code == 2
        assert out == ""
        assert "not prime" in err

    def test_witness_absent(self, capsys):
        code, out, _ = run(capsys, "witness", "conj5", "47")
        assert code == 0
        assert "no conj5 witness" in out


class TestGrid:
    def test_ascii_stdout(self, capsys):
        code = main(["grid", "17", "--xmax", "10", "--ymax", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("P") == 4

    def test_ppm_file(self, capsys, tmp_path):
        dest = tmp_path / "grid.ppm"
        code, _, _ = run(capsys, "grid", "17", "--xmax", "8", "--ymax", "8",
                         "--format", "ppm", "--out", str(dest))
        assert code == 0
        assert dest.read_bytes().startswith(b"P6\n8 8\n255\n")

    @pytest.mark.parametrize("fmt", ["ascii", "csv", "ppm"])
    def test_out_file_matches_stdout(self, capsysbinary, tmp_path, fmt):
        argv = ["grid", "17", "--xmax", "12", "--ymax", "30", "--format", fmt]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        dest = tmp_path / f"grid.{fmt}"
        assert main(argv + ["--out", str(dest)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert dest.read_bytes() == stdout

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "grid", "17", "--out", str(tmp_path / "missing" / "g.txt"))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_out_file_renders_once(self, capsys, tmp_path, monkeypatch):
        from straus import grid

        calls = []
        build = grid.build_grid
        monkeypatch.setattr(grid, "build_grid", lambda *a: calls.append(a) or build(*a))
        run(capsys, "grid", "17", "--out", str(tmp_path / "g.txt"))
        assert len(calls) == 1


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "solve", "193")
        _, out2, _ = run(capsys, "solve", "193")
        assert out1 == out2
