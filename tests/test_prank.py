import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strataforge.curves import curve_new, l_polynomial
from strataforge.ffield import FqPoly, enumerate_monic, field_new, squarefree
from strataforge.prank import (
    NewtonPolygon,
    classify,
    hasse_witt,
    hasse_witt_from_poly,
    newton_polygon,
    p_rank,
    slope_zero_length,
)


def make_curve(p, ints, n=1):
    field = field_new(p, n)
    return curve_new(field, FqPoly(field, tuple(c % field.p for c in ints)))


# ---------------------------------------------------------------------------
# Hasse-Witt matrices


def test_hasse_witt_frozen_examples():
    assert hasse_witt(make_curve(3, [0, 1, 0, 1])).entries == ((0,),)
    assert hasse_witt(make_curve(3, [1, 0, 1, 1])).entries == ((1,),)


@pytest.mark.parametrize("p,g", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_hasse_witt_of_pure_monomial_is_strictly_lower_triangular(p, g):
    field = field_new(p)
    f = [0] * (2 * g + 1) + [1]  # x^(2g+1); matrix builder needs no smoothness
    hw = hasse_witt_from_poly(field, f, g)
    for i in range(g):
        for j in range(g):
            if hw.entries[i][j]:
                assert i > j


# ---------------------------------------------------------------------------
# p-rank


def test_p_rank_frozen_examples():
    assert p_rank(make_curve(3, [0, 1, 0, 1])) == 0
    assert p_rank(make_curve(3, [1, 0, 1, 1])) == 1


@pytest.mark.parametrize("ints,L_coeffs,rank", [
    ([13, 12, 5, 10, 14, 1], (1, 9, 54, 243, 729), 0),    # supersingular
    ([7, 3, 16, 14, 22, 1], (1, -4, 36, -108, 729), 1),
])
def test_p_rank_frozen_examples_over_f27(ints, L_coeffs, rank):
    """Over F_{p^n} with n >= 3 the Hasse-Witt map must be applied as the
    p-linear map x -> x^(p) A; both curves get the wrong p-rank from the
    rank of A A^(p), the twisted product in the other order."""
    field = field_new(3, 3)
    c = curve_new(field, FqPoly(field, tuple(ints)))   # element encodings
    L = l_polynomial(c)
    assert L.coeffs == L_coeffs
    assert slope_zero_length(newton_polygon(L, 3, 3)) == rank
    assert p_rank(c) == rank


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_rank_genus1_matches_trace_oracle(p):
    """Oracle: an elliptic curve has p-rank 0 iff its Frobenius trace is
    divisible by p (classical supersingularity criterion)."""
    from strataforge.curves import point_count

    field = field_new(p)
    for f in enumerate_monic(field, 3, squarefree_only=True):
        c = curve_new(field, f)
        trace = p + 1 - point_count(c, 1)
        expected = 0 if trace % p == 0 else 1
        assert p_rank(c) == expected, f.coeffs


def test_p_rank_in_range_genus2():
    field = field_new(3)
    import itertools
    for f in itertools.islice(enumerate_monic(field, 5, squarefree_only=True), 40):
        assert 0 <= p_rank(curve_new(field, f)) <= 2


# ---------------------------------------------------------------------------
# Newton polygons


def test_newton_polygon_supersingular_genus1():
    L = l_polynomial(make_curve(3, [0, 1, 0, 1]))
    np_ = newton_polygon(L, 3, 1)
    assert np_.segments == ((Fraction(1, 2), 2),)


def test_newton_polygon_ordinary_genus1():
    L = l_polynomial(make_curve(3, [1, 0, 1, 1]))
    np_ = newton_polygon(L, 3, 1)
    assert np_.segments == ((Fraction(0), 1), (Fraction(1), 1))


def test_newton_polygon_endpoints():
    import itertools
    field = field_new(5)
    for f in itertools.islice(enumerate_monic(field, 5, squarefree_only=True), 25):
        L = l_polynomial(curve_new(field, f))
        np_ = newton_polygon(L, 5, 1)
        assert np_.total_length == 2 * L.genus
        rise = sum(s * ln for s, ln in np_.segments)
        assert rise == L.genus


def test_newton_polygon_rejects_inconsistent_parameters():
    L = l_polynomial(make_curve(3, [1, 0, 1, 1]))
    with pytest.raises(ValueError):
        newton_polygon(L, 5, 1)


def test_newton_polygon_symmetry():
    """Slope multiset is invariant under s -> 1 - s."""
    import itertools
    field = field_new(3)
    for f in itertools.islice(enumerate_monic(field, 7, squarefree_only=True), 60):
        L = l_polynomial(curve_new(field, f))
        np_ = newton_polygon(L, 3, 1)
        multiset = sorted((s, ln) for s, ln in np_.segments)
        mirrored = sorted((1 - s, ln) for s, ln in np_.segments)
        assert multiset == mirrored


# ---------------------------------------------------------------------------
# slope_zero_length / classify


def seg(*triples):
    return NewtonPolygon(tuple((Fraction(a, b), ln) for a, b, ln in triples))


def test_slope_zero_length_cases():
    assert slope_zero_length(seg((0, 1, 1), (1, 1, 1))) == 1
    assert slope_zero_length(seg((1, 2, 2))) == 0
    assert slope_zero_length(seg((1, 3, 3), (2, 3, 3))) == 0


def test_classify_cases():
    assert classify(seg((0, 1, 2), (1, 1, 2))) == "ordinary"
    assert classify(seg((1, 2, 4))) == "supersingular"
    assert classify(seg((1, 3, 3), (2, 3, 3))) == "other"


def test_polygon_validation():
    with pytest.raises(ValueError):
        seg((1, 1, 1), (0, 1, 1))          # decreasing slopes
    with pytest.raises(ValueError):
        seg((1, 3, 1), (2, 3, 1))          # non-integral breakpoint
    with pytest.raises(ValueError):
        seg((0, 1, 1), (1, 2, 2))          # rise != length/2
    with pytest.raises(ValueError):
        NewtonPolygon(((Fraction(3, 2), 2),))  # slope above 1


def fraction_validation_error(segments):
    """The validation NewtonPolygon ran on Fraction sums before it went to
    integers, kept as the oracle: its ValueError message, or None."""
    prev = None
    rise = Fraction(0)
    for slope, length in segments:
        if not 0 <= slope <= 1:
            return f"slope {slope} outside [0, 1]"
        if length < 1:
            return "segment lengths must be positive"
        if prev is not None and slope <= prev:
            return "slopes must strictly increase"
        rise += slope * length
        if rise.denominator != 1:
            return "breakpoints must have integer coordinates"
        prev = slope
    if 2 * rise != sum(length for _, length in segments):
        return "total rise must be half the total length"
    return None


any_segments = st.lists(st.tuples(
    st.fractions(min_value=-1, max_value=2, max_denominator=6),
    st.integers(min_value=-1, max_value=7)), max_size=5)


@st.composite
def symmetric_segments(draw):
    """Slopes s < 1/2 with lengths that are multiples of their denominators,
    mirrored to 1 - s, with 1/2 in the middle or not: valid polygons, which
    the arbitrary lists above seldom give."""
    low = draw(st.lists(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=6)
                        .filter(lambda s: s < Fraction(1, 2)), unique=True, max_size=3))
    lows = [(s, s.denominator * draw(st.integers(1, 3))) for s in sorted(low)]
    middle = [(Fraction(1, 2), 2 * draw(st.integers(1, 3)))] if draw(st.booleans()) else []
    return tuple(lows + middle + [(1 - s, ln) for s, ln in reversed(lows)])


@given(st.one_of(any_segments, symmetric_segments()))
@settings(max_examples=200, deadline=None)
def test_polygon_validation_matches_the_fraction_validator(segments):
    segments = tuple(segments)
    expected = fraction_validation_error(segments)
    if expected is None:
        assert NewtonPolygon(segments).segments == segments
    else:
        with pytest.raises(ValueError) as err:
            NewtonPolygon(segments)
        assert str(err.value) == expected


def test_polygon_triple_serialization_roundtrip():
    np_ = seg((1, 3, 3), (2, 3, 3))
    assert NewtonPolygon.from_triples(np_.as_triples()) == np_


# ---------------------------------------------------------------------------
# two-route agreement (the central oracle; censuses re-check it en masse)


@pytest.mark.parametrize("p,n,d", [(3, 1, 3), (5, 1, 3), (3, 2, 3), (3, 1, 5)])
def test_two_route_agreement(p, n, d):
    field = field_new(p, n)
    import itertools
    polys = enumerate_monic(field, d, squarefree_only=True)
    for f in itertools.islice(polys, 700):
        c = curve_new(field, f)
        L = l_polynomial(c)
        assert p_rank(c) == slope_zero_length(newton_polygon(L, p, n)), f.coeffs


def _det(field, m):
    """Leibniz determinant over the field (g <= 4 here)."""
    acc = 0
    for perm in itertools.permutations(range(len(m))):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, m[i][j])
        sign = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m)))
        acc = field.sub(acc, term) if sign % 2 else field.add(acc, term)
    return acc


def _twisted_products(field, a, k):
    """A, A^(p) A, ..., A^(p^(k-1)) ... A^(p) A: the k-th iterate of the
    Hasse-Witt map x -> x^(p) A is x -> x^(p^k) times the k-th of these."""
    g = len(a)
    prod = a
    yield prod
    for i in range(1, k):
        twisted = [[field.frobenius(x, i) for x in row] for row in a]
        prod = [[_sum(field, (field.mul(twisted[r][m], prod[m][j]) for m in range(g)))
                 for j in range(g)] for r in range(g)]
        yield prod


def _rank(field, m):
    """Rank of a square matrix by row reduction over the field."""
    rows, rank = [list(r) for r in m], 0
    for col in range(len(rows)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            rows[r] = [field.sub(v, field.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def twisted_product_ranks(c):
    """Reference route: the ranks of the twisted products of 1, ..., g
    factors, that is dim image(V^k) for k = 1..g.  The last is the p-rank
    as the rank of the g-fold product A^(p^(g-1)) ... A^(p) A."""
    field = c.field
    return [_rank(field, m) for m in _twisted_products(field, hasse_witt(c).entries, c.genus)]


def _assert_routes_agree(c):
    """p_rank, the twisted-product rank and the slope-0 length agree; the
    twisted-product ranks are returned."""
    ranks = twisted_product_ranks(c)
    # N_{g+1} over F_{q^(g+1)} only re-checks L; N_1..N_g determine it
    L = l_polynomial(c, field_cap=c.q**c.genus)
    slope0 = slope_zero_length(newton_polygon(L, c.field.p, c.field.n))
    assert p_rank(c) == ranks[-1] == slope0, c.f.coeffs
    return ranks


def _drops(ranks):
    """How often the images of V, V^2, ..., V^g strictly shrink: the stable
    image needs that many reductions after the row space of A."""
    return sum(a > b for a, b in zip(ranks, ranks[1:]))


@pytest.mark.parametrize("degree,two_drops,three_drops", [(7, 54, 0), (9, 312, 102)])
def test_p_rank_matches_twisted_product_and_slope_zero_exhaustive_f3(degree, two_drops, three_drops):
    """Every genus-3 and genus-4 model over F_3, with the number of curves
    whose images shrink twice (2 -> 1 -> 0 at genus 3) and three times
    (3 -> 2 -> 1 -> 0 at genus 4): a loop cut short fails on them."""
    field = field_new(3)
    drops = Counter(_drops(_assert_routes_agree(curve_new(field, f)))
                    for f in enumerate_monic(field, degree, squarefree_only=True))
    assert (drops[2], drops[3]) == (two_drops, three_drops)


def _nonordinary_sample(field, g, count, seed):
    """Seeded curves with det(A) = 0, a selection that computes no p-rank."""
    rng = random.Random(seed)
    while count:
        coeffs = [rng.randrange(field.size) for _ in range(2 * g + 1)] + [1]
        f = FqPoly(field, tuple(coeffs))
        if not squarefree(f):
            continue
        c = curve_new(field, f)
        if _det(field, hasse_witt(c).entries):
            continue
        count -= 1
        yield c


@pytest.mark.parametrize("p,n,g,count,seed", [
    (3, 2, 2, 80, 322), (3, 2, 3, 60, 323), (3, 2, 4, 30, 324), (3, 3, 2, 80, 1), (3, 3, 3, 80, 1),
    (3, 4, 2, 60, 342), (3, 4, 3, 30, 343), (5, 3, 2, 60, 532)])
def test_two_route_agreement_nonordinary_extension_fields(p, n, g, count, seed):
    """Seeded non-ordinary curves over F_9, F_27, F_81 and F_125, where the
    Hasse-Witt map is only p-linear and its stable image is not the image
    of A^g."""
    for c in _nonordinary_sample(field_new(p, n), g, count, seed):
        assert _assert_routes_agree(c)[-1] < g


def test_supersingular_implies_p_rank_zero():
    import itertools
    field = field_new(3)
    for f in itertools.islice(enumerate_monic(field, 5, squarefree_only=True), 120):
        c = curve_new(field, f)
        np_ = newton_polygon(l_polynomial(c), 3, 1)
        if classify(np_) == "supersingular":
            assert slope_zero_length(np_) == 0
            assert p_rank(c) == 0


# ---------------------------------------------------------------------------
# Manin's congruence: L(T) = det(I - T A_pi) mod p, a_1..a_g against the
# Hasse-Witt route, coefficient by coefficient


def _manin_coeffs(c):
    """(-1)^k e_k(A_pi), k = 1..g, with A_pi = A^(p^(n-1)) ... A^(p) A, so
    that the n-th iterate of the Hasse-Witt map is x -> x^(q) A_pi, and e_k
    the sum of the principal k-by-k minors; each must lie in F_p."""
    field, g = c.field, c.genus
    *_, prod = _twisted_products(field, hasse_witt(c).entries, field.n)
    out = []
    for k in range(1, g + 1):
        e_k = _sum(field, (_det(field, [[prod[i][j] for j in rows] for i in rows])
                           for rows in itertools.combinations(range(g), k)))
        assert e_k < field.p, "det(I - T A_pi) has a coefficient outside F_p"
        out.append(e_k if k % 2 == 0 else field.neg(e_k))
    return out


def _sum(field, xs):
    acc = 0
    for x in xs:
        acc = field.add(acc, x)
    return acc


def _assert_manin(c):
    L = l_polynomial(c, field_cap=c.q**c.genus)   # a_1..a_g need only N_1..N_g
    p = c.field.p
    assert [a % p for a in L.coeffs[1:c.genus + 1]] == _manin_coeffs(c), c.f.coeffs


@pytest.mark.parametrize("p,degree", [(3, 5), (3, 6), (5, 5), (5, 6), (3, 7), (3, 8)])
def test_manin_congruence_exhaustive(p, degree):
    field = field_new(p)
    for f in enumerate_monic(field, degree, squarefree_only=True):
        _assert_manin(curve_new(field, f))


@pytest.mark.parametrize("n,g,samples", [(2, 2, 150), (2, 3, 80), (3, 2, 100), (3, 3, 60)])
def test_manin_congruence_seeded_extension_fields(n, g, samples):
    """F_9 and F_27, where A_pi is a twisted product and its order matters
    (n = 3)."""
    field = field_new(3, n)
    rng = random.Random(n * 10 + g)
    checked = 0
    while checked < samples:
        coeffs = [rng.randrange(field.size) for _ in range(2 * g + 1)] + [1]
        f = FqPoly(field, tuple(coeffs))
        if squarefree(f):
            _assert_manin(curve_new(field, f))
            checked += 1
