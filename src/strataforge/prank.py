"""p-rank via the Hasse-Witt (Cartier-Manin) matrix, and Newton polygons of
zeta numerators.

The p-rank is the dimension of the stable image of the p-linear Hasse-Witt
map x -> x^(p) A on row vectors over F_q: a row basis of the image is
pushed through the map until its dimension stops dropping.  One path, on
the field descriptor's whole-matrix kernels (``echelon`` and ``mat_mul``,
one call per elimination or product), serves every F_{p^n}.  The a-number
g - rank A (``nullity``) is read off the same echelon form of A, so one
matrix from ``hasse_witt`` gives both invariants.  A itself is read off
f^((p-1)/2) at its g^2 exponents ip - j only, by one ``ffield.poly_mul``
call with ``at``: one packed power, of which no other coefficient is
unpacked, and at p = 3 f's own codes.

The two computations are independent routes to the same invariant: the
p-rank equals the length of the slope-0 part of the Newton polygon.  The
tests and the benchmark's output check enforce that agreement.

``p_rank`` is memoized on the curve's translation class, as
``curves.l_polynomial`` is (``ffield.class_memo``): where p does not divide
deg f, the q models f(x + b) share the key (field, index of the cut model
with c_(d-1) = 0), and only the first one asked forms its Hasse-Witt
matrix.  ``stable_rank(hasse_witt(curve))`` is the bare route, and at p | d
it runs on every call.

The Newton polygon of L depends only on n (q = p^n) and the valuations
v_p(a_1), ..., v_p(a_g): a_(2g-i) = q^(g-i) a_i gives the points past g.
``newton_polygon`` is memoized on those, so a stratum sample, whose L are
mostly distinct, builds one hull per valuation class (17 classes, 5
polygons, among the 796 distinct L of 1,000 seeded genus-3 curves over
F_7).  This memo reads nothing of the Hasse-Witt route, so the two p-rank
routes stay independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal, Sequence

from .curves import HyperellipticCurve, LPolynomial
from .ffield import L_CACHE_SIZE, FieldDescriptor, class_memo, poly_mul

Classification = Literal["ordinary", "supersingular", "other"]


@dataclass(frozen=True)
class HasseWittMatrix:
    """g-by-g matrix over F_q with entries A[i][j] = c_{i*p-j}, where
    f^((p-1)/2) = sum c_m x^m and indices run from 1 to g."""

    field: FieldDescriptor
    genus: int
    entries: tuple[tuple[int, ...], ...]


def hasse_witt_from_poly(field: FieldDescriptor, f_coeffs: Sequence[int], genus: int) -> HasseWittMatrix:
    """Matrix builder on raw coefficients; no smoothness check.  A code
    outside [0, q) raises ValueError (``poly_codes``).  The g^2 entries
    c_(ip-j) of f^((p-1)/2) come from one call to this module's
    ``poly_mul``, the name the perfbench tracer wraps, with (p - 1)/2
    copies of f and ``at`` the exponents ip - j, row by row: one product of
    packed integers read back at those g^2 slots only (0 where ip - j lies
    below 0 or past the degree), cut into the g rows of A.  At p = 3 the
    power is f itself, read straight off its codes, and no product is
    formed."""
    p, g = field.p, genus
    c = poly_mul(field, *[f_coeffs] * ((p - 1) // 2),
                 at=[i * p - j for i in range(1, g + 1) for j in range(1, g + 1)])
    return HasseWittMatrix(field, g, tuple([tuple(c[i:i + g]) for i in range(0, g * g, g)]))


def hasse_witt(curve: HyperellipticCurve) -> HasseWittMatrix:
    return hasse_witt_from_poly(curve.field, curve.f.coeffs, curve.genus)


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
    dim, basis = hw.genus, field.echelon(a)
    while len(basis) < dim:
        dim = len(basis)
        raised = [[field.frobenius(x) for x in row] for row in basis]
        basis = field.echelon(field.mat_mul(raised, a))
    return dim


def nullity(hw: HasseWittMatrix) -> int:
    """g - rank A, the dimension of the kernel of A: the a-number of the
    curve (``a_number``), from the echelon form of A that ``stable_rank``
    starts from.  A record that wants the p-rank and the a-number builds A
    once and passes it to both."""
    return hw.genus - len(hw.field.echelon(hw.entries))


@class_memo
def p_rank(curve: HyperellipticCurve) -> int:
    """The p-rank of the Jacobian, an integer in [0, genus]; memoized on
    the translation class (``cache_info()``; ``__wrapped__`` is the bare
    route on the curve itself)."""
    return stable_rank(hasse_witt(curve))


def a_number(curve: HyperellipticCurve) -> int:
    """The a-number of the Jacobian, g - rank A for the Hasse-Witt matrix A
    (the dimension of the kernel of the Cartier operator): 0 exactly on
    ordinary curves, and a + f <= g with f the p-rank."""
    return nullity(hasse_witt(curve))


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


def _valuation(a: int, p: int) -> int | None:
    """v_p(a), or None at a = 0 (no point of the polygon)."""
    if a == 0:
        return None
    v = 0
    while a % p == 0:
        v, a = v + 1, a // p
    return v


def _hull_polygon(points: list[tuple[int, int]], n: int) -> NewtonPolygon:
    """The polygon of the lower convex hull of the points (i, v_p(a_i)),
    slopes divided by n; a breakpoint whose ordinate n does not divide
    raises ValueError."""
    hull = _lower_hull(points)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y1 % n or y2 % n:
            raise ValueError("polygon breakpoint is not integral")
        segments.append((Fraction(y2 - y1, n * (x2 - x1)), x2 - x1))
    return NewtonPolygon(tuple(segments))


def _check_q(L: LPolynomial, p: int, n: int) -> None:
    if p**n != L.q:
        raise ValueError(f"q = {L.q} is not {p}^{n}")


def _polygon_of_L(L: LPolynomial, p: int, n: int) -> NewtonPolygon:
    """``newton_polygon`` without the memo: the hull of (i, v_p(a_i)) over
    all 2g + 1 coefficients of L."""
    _check_q(L, p, n)
    return _hull_polygon([(i, v) for i, v in enumerate(_valuation(a, p) for a in L.coeffs)
                          if v is not None], n)


@lru_cache(maxsize=L_CACHE_SIZE)
def _polygon_of_valuations(valuations: tuple[int | None, ...], n: int) -> NewtonPolygon:
    """The polygon of an L with v_p(a_i) = valuations[i - 1], i = 1..g, and
    q = p^n: a_0 = 1 gives (0, 0), and a_(2g-i) = q^(g-i) a_i gives the
    points past g, (2g - i, n(g - i) + v_p(a_i))."""
    g = len(valuations)
    lower = [(i, v) for i, v in enumerate((0, *valuations)) if v is not None]
    upper = [(2 * g - i, n * (g - i) + v) for i, v in reversed(lower) if i < g]
    return _hull_polygon(lower + upper, n)


def newton_polygon(L: LPolynomial, p: int, n: int) -> NewtonPolygon:
    """Lower convex hull of (i, v_p(a_i)/n); a_i = 0 contributes no point.

    The polygon depends on L only through n and v_p(a_1), ..., v_p(a_g)
    (``LPolynomial`` enforces a_(2g-i) = q^(g-i) a_i), so it is memoized on
    (those valuations, n) in a bounded LRU memo (see ``L_CACHE_SIZE``): the
    hull runs once per valuation class, not once per L.  A polygon with a
    non-integral breakpoint raises ValueError and is never stored.
    ``cache_info()`` and ``cache_clear()`` are the memo's, and
    ``__wrapped__`` is the hull over all 2g + 1 coefficients of L."""
    _check_q(L, p, n)
    return _polygon_of_valuations(tuple([_valuation(a, p) for a in L.coeffs[1:L.genus + 1]]), n)


newton_polygon.__wrapped__ = _polygon_of_L
newton_polygon.cache_info = _polygon_of_valuations.cache_info
newton_polygon.cache_clear = _polygon_of_valuations.cache_clear


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
