"""Cell classification and rendering of the (x, y) solution lattice.

Cell colors follow a fixed precedence: White when x > y (below the diagonal),
Yellow when z would be negative or undefined (4xy - p(x+y) <= 0), White again
when the exact z falls below y, Pink when z is a positive integer (a
solution), Blue otherwise.  Yellow is tested before the y > z White test so
the negative-z region is never masked.

Orientation: x is the column index and y the row index, both starting at 1;
ASCII and PPM output put the highest y on top, like a standard plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .sieve import require_prime

MAX_CELLS = 4_000_000


class CellColor(Enum):
    WHITE = "."
    YELLOW = "Y"
    BLUE = "B"
    PINK = "P"

    # Members are singletons compared by identity, so hash them by identity
    # too: the renderers look a colour up per cell, and Enum's own __hash__
    # runs in Python.
    __hash__ = object.__hash__

    @property
    def char(self) -> str:
        return self.value


_RGB = {
    CellColor.WHITE: (255, 255, 255),
    CellColor.YELLOW: (255, 221, 51),
    CellColor.BLUE: (70, 110, 230),
    CellColor.PINK: (255, 130, 180),
}

# What the renderers write per cell: one dict lookup, no Enum property call.
_CHAR = {c: c.char for c in CellColor}
_PIXEL = {c: bytes(rgb) for c, rgb in _RGB.items()}


def classify_cell(p: int, x: int, y: int) -> CellColor:
    """Color of lattice cell (x, y) for prime p."""
    if x < 1 or y < 1:
        raise ValueError(f"lattice cells start at (1, 1), got ({x}, {y})")
    if x > y:
        return CellColor.WHITE
    d = 4 * x * y - p * (x + y)
    if d <= 0:
        return CellColor.YELLOW
    if p * x < d:  # exact z = pxy/d < y
        return CellColor.WHITE
    if (p * x * y) % d == 0:
        return CellColor.PINK
    return CellColor.BLUE


def negative_region(p: int, x: int, y: int) -> bool:
    """Would z be negative or undefined at (x, y)?  Accepts index 0.

    This is the adjacency predicate for boundary checks: a cell bordering the
    lattice edge (x = 0 or y = 0) counts as negative region, and so does a
    below-diagonal cell, since only the sign of 4xy - p(x+y) matters here.
    """
    if x < 0 or y < 0:
        raise ValueError(f"indices must be >= 0, got ({x}, {y})")
    return 4 * x * y - p * (x + y) <= 0


@dataclass(frozen=True)
class GridImage:
    """Dense color matrix over [1, x_max] x [1, y_max]."""

    p: int
    x_max: int
    y_max: int
    cells: tuple[tuple[CellColor, ...], ...]  # rows indexed by y - 1

    def color_at(self, x: int, y: int) -> CellColor:
        return self.cells[y - 1][x - 1]

    def pink_cells(self) -> set[tuple[int, int]]:
        return {
            (x, y)
            for y, row in enumerate(self.cells, start=1)
            for x, c in enumerate(row, start=1)
            if c is CellColor.PINK
        }


def build_grid(p: int, x_max: int, y_max: int) -> GridImage:
    """Classify every cell in bounds (row-wise, incremental arithmetic; each
    row's Yellow prefix in one step)."""
    require_prime(p)
    if x_max < 1 or y_max < 1:
        raise ValueError(f"bounds must be >= 1, got ({x_max}, {y_max})")
    if x_max * y_max > MAX_CELLS:
        raise ValueError(
            f"{x_max} x {y_max} exceeds the {MAX_CELLS}-cell budget; shrink the bounds"
        )
    white, yellow, blue, pink = (
        CellColor.WHITE, CellColor.YELLOW, CellColor.BLUE, CellColor.PINK,
    )
    rows = []
    for y in range(1, y_max + 1):
        limit = min(x_max, y)  # x > y is White, fill after the loop
        # D = x*step - p*y <= 0, Yellow, for every x when step <= 0 and
        # otherwise up to floor(p*y/step): one prefix, no per-cell test
        step = 4 * y - p
        first = limit + 1 if step <= 0 else min(limit, p * y // step) + 1
        row = [yellow] * (first - 1)
        d = first * step - p * y  # D at x = first, > 0 from here on
        px = p * first
        for _x in range(first, limit + 1):
            if px < d:
                row.append(white)
            elif (px * y) % d == 0:
                row.append(pink)
            else:
                row.append(blue)
            d += step
            px += p
        row.extend([white] * (x_max - limit))
        rows.append(tuple(row))
    return GridImage(p, x_max, y_max, tuple(rows))


def _to_ascii(g: GridImage) -> bytes:
    lines = ["".join([_CHAR[c] for c in g.cells[y - 1]]) for y in range(g.y_max, 0, -1)]
    return ("\n".join(lines) + "\n").encode()


def _to_csv(g: GridImage) -> bytes:
    lines = ["x,y,color"]
    for y in range(1, g.y_max + 1):
        for x in range(1, g.x_max + 1):
            lines.append(f"{x},{y},{g.color_at(x, y).name.lower()}")
    return ("\n".join(lines) + "\n").encode()


def _to_ppm(g: GridImage) -> bytes:
    header = f"P6\n{g.x_max} {g.y_max}\n255\n".encode()
    return header + b"".join([_PIXEL[c] for y in range(g.y_max, 0, -1) for c in g.cells[y - 1]])


FORMATS = {"ascii": _to_ascii, "csv": _to_csv, "ppm": _to_ppm}


def render(p: int, x_max: int, y_max: int, fmt: str = "ascii") -> bytes:
    """Serialize the classified lattice as ascii art, CSV, or binary PPM."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMATS)}")
    return FORMATS[fmt](build_grid(p, x_max, y_max))
