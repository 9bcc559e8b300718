import hashlib

import pytest

from straus.core import classify
from straus.enumeration import enumerate_fast
from straus.grid import (
    MAX_CELLS,
    CellColor,
    build_grid,
    classify_cell,
    negative_region,
    render,
)
from straus.sieve import PrimeRange, primes_in


def _ascii_pink_cells(art: str, y_max: int) -> set[tuple[int, int]]:
    cells = set()
    for row_idx, line in enumerate(art.splitlines()):
        y = y_max - row_idx
        for col_idx, ch in enumerate(line):
            if ch == "P":
                cells.add((col_idx + 1, y))
    return cells


class TestClassifyCell:
    def test_solution_cell_is_pink(self):
        assert classify_cell(17, 6, 15) is CellColor.PINK

    def test_negative_z_is_yellow(self):
        assert classify_cell(17, 5, 20) is CellColor.YELLOW  # D = -25
        assert classify_cell(17, 3, 10) is CellColor.YELLOW  # D = -101

    def test_below_diagonal_is_white(self):
        assert classify_cell(17, 15, 6) is CellColor.WHITE

    def test_z_smaller_than_y_is_white(self):
        # (x, y) = (34, 170) gives exact z = 5 < y
        assert classify_cell(17, 34, 170) is CellColor.WHITE

    def test_non_integral_z_is_blue(self):
        assert classify_cell(17, 6, 16) is CellColor.BLUE

    def test_exact_boundary_cell_is_yellow(self):
        # D = 0 happens at lattice points, e.g. (2, 14) for p = 7
        assert 4 * 2 * 14 - 7 * (2 + 14) == 0
        assert classify_cell(7, 2, 14) is CellColor.YELLOW

    def test_origin_cell_never_pink(self):
        for p in (2, 3, 17):
            assert classify_cell(p, 1, 1) in (CellColor.WHITE, CellColor.YELLOW)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            classify_cell(17, 0, 5)


class TestNegativeRegion:
    def test_lattice_edge_counts_as_negative(self):
        assert negative_region(17, 0, 10)
        assert negative_region(17, 10, 0)

    def test_positive_region(self):
        assert not negative_region(17, 6, 15)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            negative_region(17, -1, 5)


class TestBuildGrid:
    def test_matches_classify_cell(self):
        # each window straddles the row 4y = p: below it a row is Yellow up
        # to the diagonal, above it up to x = floor(py/(4y - p)), and past
        # that prefix each cell is tested on its own
        for p, x_max, y_max in [(2, 3, 3), (3, 4, 5), (5, 6, 8), (13, 10, 12), (17, 25, 40),
                                (71, 60, 300), (1009, 300, 600), (59263, 40, 14830)]:
            g = build_grid(p, x_max, y_max)
            for y in range(1, y_max + 1):
                for x in range(1, x_max + 1):
                    assert g.color_at(x, y) is classify_cell(p, x, y), (p, x, y)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            build_grid(16, 5, 5)

    def test_pixel_budget(self):
        with pytest.raises(ValueError):
            build_grid(17, MAX_CELLS, 2)

    @pytest.mark.parametrize("x_max, y_max", [(0, 5), (5, 0), (-1, -1)])
    def test_rejects_bounds_below_one(self, x_max, y_max):
        with pytest.raises(ValueError, match="bounds must be >= 1"):
            build_grid(17, x_max, y_max)


class TestRender:
    def test_ascii_17_has_exactly_the_four_pinks(self):
        art = render(17, 10, 40, "ascii").decode()
        assert _ascii_pink_cells(art, 40) == {(5, 30), (5, 34), (6, 15), (6, 17)}

    def test_ascii_dimensions(self):
        lines = render(17, 10, 40, "ascii").decode().splitlines()
        assert len(lines) == 40
        assert all(len(line) == 10 for line in lines)

    def test_csv_cells(self):
        text = render(5, 3, 3, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "x,y,color"
        assert len(lines) == 10
        assert "2,1,white" in lines  # x > y
        assert "1,1,yellow" in lines  # D = 4 - 10 < 0

    def test_ppm_structure(self):
        data = render(17, 10, 40, "ppm")
        assert data.startswith(b"P6\n10 40\n255\n")
        assert len(data) == len(b"P6\n10 40\n255\n") + 3 * 10 * 40

    def test_ppm_pixel_colors(self):
        data = render(17, 10, 40, "ppm")
        body = data[len(b"P6\n10 40\n255\n"):]
        # top row is y = 40; pixel (x=5, y=30) sits in row index 10
        offset = 3 * (10 * 10 + 4)
        assert tuple(body[offset : offset + 3]) == (255, 130, 180)

    # SHA-256 of the output, frozen from a renderer that read each cell's
    # `.char` and extended a bytearray by its RGB tuple; 71's 60 x 300 window
    # holds all four colors
    @pytest.mark.parametrize("fmt, digest", [
        ("ascii", "c6aed2b170e3be10e9cd48173298cf7f91b5c4ff2df7dc865f31fc7c590294b9"),
        ("ppm", "00400cc92d64e3e3eb193aae0db5212c8c312ac8d6141e3aa323819096a43d24"),
    ])
    def test_output_bytes_are_pinned(self, fmt, digest):
        data = render(71, 60, 300, fmt)
        assert {c for row in build_grid(71, 60, 300).cells for c in row} == set(CellColor)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(17, 5, 5, "svg")


class TestSolutionConsistency:
    @pytest.mark.parametrize("p", primes_in(PrimeRange(2, 100)))
    def test_pink_cells_equal_solutions_within_bounds(self, p):
        x_max = (3 * p) // 4 + 2
        y_max = 3 * p
        g = build_grid(p, x_max, y_max)
        expected = {
            (t.x, t.y) for t in enumerate_fast(p) if t.x <= x_max and t.y <= y_max
        }
        assert g.pink_cells() == expected

    @pytest.mark.parametrize("p", primes_in(PrimeRange(2, 100)))
    def test_boundary_adjacency_matches_classification(self, p):
        for t in enumerate_fast(p):
            c = classify(t)
            assert c.is_ia == negative_region(p, t.x, t.y - 1)
            assert c.is_ib == negative_region(p, t.x - 1, t.y)
