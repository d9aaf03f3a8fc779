"""p-rank via the Hasse-Witt (Cartier-Manin) matrix, and Newton polygons of
zeta numerators.

The p-rank is the dimension of the stable image of the p-linear Hasse-Witt
map x -> x^(p) A on row vectors over F_q: a row basis of the image is
pushed through the map until its dimension stops dropping.  One path, on
the field descriptor's scalar ops, serves every F_{p^n}.

The two computations are independent routes to the same invariant: the
p-rank equals the length of the slope-0 part of the Newton polygon.  The
census layer enforces that agreement on every record.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Literal

from .curves import HyperellipticCurve, LPolynomial
from .ffield import FieldDescriptor, FqPoly, poly_mul

Classification = Literal["ordinary", "supersingular", "other"]


@dataclass(frozen=True)
class HasseWittMatrix:
    """g-by-g matrix over F_q with entries A[i][j] = c_{i*p-j}, where
    f^((p-1)/2) = sum c_m x^m and indices run from 1 to g."""

    field: FieldDescriptor
    genus: int
    entries: tuple[tuple[int, ...], ...]


def half_power_coeffs(field: FieldDescriptor, f_coeffs: list[int]) -> list[int]:
    e = (field.p - 1) // 2
    result = [1]
    base = list(f_coeffs)
    while e:
        if e & 1:
            result = poly_mul(field, result, base)
        e >>= 1
        if e:
            base = poly_mul(field, base, base)
    return result


def hasse_witt_from_poly(field: FieldDescriptor, f_coeffs: list[int], genus: int) -> HasseWittMatrix:
    """Matrix builder on raw coefficients; no smoothness check."""
    h = half_power_coeffs(field, f_coeffs)
    p, g = field.p, genus
    rows = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            m = i * p - j
            row.append(h[m] if 0 <= m < len(h) else 0)
        rows.append(tuple(row))
    return HasseWittMatrix(field, g, tuple(rows))


def hasse_witt(curve: HyperellipticCurve) -> HasseWittMatrix:
    return hasse_witt_from_poly(curve.field, list(curve.f.coeffs), curve.genus)


def _mat_mul(field: FieldDescriptor, a, b) -> list[list[int]]:
    """The product a * b of an r x m and an m x c matrix over the field."""
    cols = list(zip(*b))
    return [[reduce(field.add, map(field.mul, row, col), 0) for col in cols] for row in a]


def _row_basis(field: FieldDescriptor, a) -> list[list[int]]:
    """The nonzero rows of a row echelon form of a, a basis of its row space."""
    rows = [list(r) for r in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                rows[r] = [field.sub(v, field.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


def stable_rank(hw: HasseWittMatrix) -> int:
    """Dimension of the stable image of the Hasse-Witt map V: x -> x^(p) A.

    With A[i][j] = c_{i*p-j}, V is p-linear on row vectors, so it maps the
    span of rows b_i onto the span of the rows b_i^(p) A.  Starting from
    image(V), the row space of A, each step applies V to a basis of the
    current image and reduces; the images shrink until two consecutive ones
    have the same dimension, and from then on they are equal.  A full-rank
    A (an ordinary curve) stops after the first reduction.
    """
    field, a = hw.field, hw.entries
    dim, basis = hw.genus, _row_basis(field, a)
    while len(basis) < dim:
        dim = len(basis)
        raised = [[field.frobenius(x) for x in row] for row in basis]
        basis = _row_basis(field, _mat_mul(field, raised, a))
    return dim


def p_rank(curve: HyperellipticCurve) -> int:
    """The p-rank of the Jacobian, an integer in [0, genus]."""
    return stable_rank(hasse_witt(curve))


# ---------------------------------------------------------------------------
# Newton polygons


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope segments of a lower-convex polygon, as (slope, horizontal length).

    Slopes are exact fractions in [0, 1], strictly increasing, with integer
    breakpoints; total length 2g and total rise g.
    """

    segments: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        # on integers: slope = num/den in lowest terms, den > 0; a breakpoint
        # is integral iff each segment's rise num * length / den is
        prev = None
        rise = 0
        for slope, length in self.segments:
            num, den = slope.numerator, slope.denominator
            if not 0 <= num <= den:
                raise ValueError(f"slope {slope} outside [0, 1]")
            if length < 1:
                raise ValueError("segment lengths must be positive")
            if prev is not None and num * prev[1] <= prev[0] * den:
                raise ValueError("slopes must strictly increase")
            seg_rise, rest = divmod(num * length, den)
            if rest:
                raise ValueError("breakpoints must have integer coordinates")
            rise += seg_rise
            prev = num, den
        if 2 * rise != self.total_length:
            raise ValueError("total rise must be half the total length")

    @property
    def total_length(self) -> int:
        return sum(length for _, length in self.segments)

    def as_triples(self) -> list[list[int]]:
        """Serialization format: [slope_num, slope_den, length] per segment."""
        return [[s.numerator, s.denominator, ln] for s, ln in self.segments]

    @classmethod
    def from_triples(cls, triples) -> "NewtonPolygon":
        return cls(tuple((Fraction(a, b), ln) for a, b, ln in triples))


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in points:  # points already sorted by x, unique x
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep strict left turns only: pops both right turns and collinear
            # middles, so consecutive hull slopes strictly increase
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(L: LPolynomial, p: int, n: int) -> NewtonPolygon:
    """Lower convex hull of (i, v_p(a_i)/n); a_i = 0 contributes no point."""
    if p**n != L.q:
        raise ValueError(f"q = {L.q} is not {p}^{n}")
    points = []
    for i, a in enumerate(L.coeffs):
        if a == 0:
            continue
        v, a = 0, abs(a)
        while a % p == 0:
            v += 1
            a //= p
        points.append((i, v))
    hull = _lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y1 % n or y2 % n:
            raise ValueError("polygon breakpoint is not integral")
        segments.append((Fraction(y2 - y1, n * (x2 - x1)), x2 - x1))
    return NewtonPolygon(tuple(segments))


def slope_zero_length(polygon: NewtonPolygon) -> int:
    """Horizontal length of the slope-0 segment (0 when absent)."""
    for slope, length in polygon.segments:
        if slope == 0:
            return length
    return 0


def classify(polygon: NewtonPolygon) -> Classification:
    """ordinary: only slopes 0 and 1; supersingular: only slope 1/2.

    Read off the denominators: the slopes lie in [0, 1], so denominator 1
    means 0 or 1, and denominator 2 means 1/2.
    """
    dens = {s.denominator for s, _ in polygon.segments}
    if dens <= {1}:
        return "ordinary"
    if dens == {2}:
        return "supersingular"
    return "other"
