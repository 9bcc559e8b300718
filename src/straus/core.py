"""Exact integer primitives for the unit-fraction equation 4/p = 1/x + 1/y + 1/z.

Everything here is pure integer arithmetic: floors and ceilings come from
integer division, never from floats, so the boundary classifications below
cannot be perturbed by rounding.  Python integers are unbounded, so no value
has a width limit: z reaches order p**4 in the lcm-shaped constructions.
"""

from __future__ import annotations

from dataclasses import dataclass


def check_identity(p: int, x: int, y: int, z: int) -> bool:
    """True iff 4*x*y*z == p*(x*y + y*z + z*x) exactly.

    This is the cross-multiplied form of 4/p = 1/x + 1/y + 1/z.
    """
    if p < 1 or x < 1 or y < 1 or z < 1:
        raise ValueError(f"all arguments must be >= 1, got {(p, x, y, z)}")
    return 4 * x * y * z == p * (x * y + y * z + z * x)


def require_solution(p: int, x: int, y: int, z: int) -> None:
    """Raise ValueError unless check_identity(p, x, y, z) holds."""
    if not check_identity(p, x, y, z):
        raise ValueError(f"not a solution: 4/{p} != 1/{x} + 1/{y} + 1/{z}")


@dataclass(frozen=True)
class BoundaryValue:
    """The exact rational p*a/(4a - p) as a (num, den) pair with den > 0.

    For a fixed coordinate a (either x or y of a candidate cell), this is the
    other coordinate's exact boundary between negative and positive z.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"boundary denominator must be positive, got {self.den}")

    def floor(self) -> int:
        return self.num // self.den

    def ceil(self) -> int:
        return -(-self.num // self.den)

    def is_integral(self) -> bool:
        return self.num % self.den == 0


def boundary(p: int, a: int) -> BoundaryValue:
    """Exact boundary value p*a/(4a - p); requires 4a > p (above the pole)."""
    return BoundaryValue(p * a, 4 * a - p)


def next_boundary(p: int, a: int) -> int:
    """Smallest integer strictly above the boundary: floor(p*a/(4a-p)) + 1.

    Equals ceil(p*a/(4a-p)) whenever (4a-p) does not divide p*a, which holds
    for every coordinate of an actual solution with odd prime p (p = 2 is the
    lone exception: its solution (1, 2, 2) sits on an integral boundary).
    Requires 4a > p, like boundary.
    """
    den = 4 * a - p
    if den <= 0:
        raise ValueError(f"boundary undefined: 4*{a} - {p} = {den} <= 0")
    return p * a // den + 1


@dataclass(frozen=True)
class Triple:
    """A verified solution (p, x, y, z) of 4/p = 1/x + 1/y + 1/z, x <= y <= z.

    Construction sorts the three denominators (when they are out of order),
    checks the identity exactly and checks the forced window p/4 < x <= 3p/4.
    """

    p: int
    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if not x <= y <= z:
            x, y, z = sorted((x, y, z))
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)
        require_solution(self.p, x, y, z)
        if not (self.p < 4 * x and 4 * x <= 3 * self.p):
            raise ValueError(f"x = {x} outside the forced window (p/4, 3p/4] for p = {self.p}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def offset_x(p: int, x: int, y: int) -> int:
    """x minus the floor of the y-side boundary p*y/(4y - p); needs 4y > p.

    Every solution has offset_x >= 1, and offset_x == 1 makes it type I(b).
    With x and y swapped this is offset_y.
    """
    return x - (p * y) // (4 * y - p)


# Classification.labels() by the number of boundaries a solution is adjacent
# to: none (II), x's (I(b)), or both, since I(a) implies I(b).
TYPE_LABELS = ("II", "I(b)", "I(a)+I(b)")


@dataclass(frozen=True)
class Classification:
    """Boundary placement of a solution.

    offset_x = x - floor(p*y/(4y-p)) and offset_y = y - floor(p*x/(4x-p));
    both are >= 1 because a solution lies strictly inside the positive-z
    region.  Boundary-adjacent in x (offset_x == 1) is type I(b),
    boundary-adjacent in y (offset_y == 1) is type I(a), and anything that is
    not I(b) is type II.
    """

    is_ia: bool
    is_ib: bool
    offset_x: int
    offset_y: int

    @property
    def is_type_ii(self) -> bool:
        return not self.is_ib

    def labels(self) -> str:
        """Human-readable type tag, e.g. 'I(a)+I(b)', 'I(b)', 'II'."""
        return TYPE_LABELS[2 if self.is_ia else self.is_ib]


def classify(t: Triple) -> Classification:
    """Compute both boundary offsets of a solution and set the type flags."""
    off_x = offset_x(t.p, t.x, t.y)
    off_y = offset_x(t.p, t.y, t.x)
    if off_x < 1 or off_y < 1:
        raise AssertionError(f"solution on or below the boundary is impossible: {t}")
    is_ib = off_x == 1
    is_ia = off_y == 1
    if is_ia and not is_ib:
        raise AssertionError(f"type I(a) without I(b) contradicts boundary algebra: {t}")
    return Classification(is_ia=is_ia, is_ib=is_ib, offset_x=off_x, offset_y=off_y)
