import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strataforge import families, prank
from strataforge.curves import LPolynomial, curve_new, l_polynomial
from strataforge.ffield import FqPoly, enumerate_monic, field_new, poly_codes, poly_mul, poly_squarefree
from strataforge.prank import (
    NewtonPolygon,
    a_number,
    classify,
    hasse_witt,
    hasse_witt_from_poly,
    newton_polygon,
    nullity,
    p_rank,
    slope_zero_length,
    stable_rank,
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


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_hasse_witt_refuses_codes_outside_the_field(p, n):
    """Over F_3 the power is f itself, so an unchecked code outside [0, q)
    would come back as a matrix entry; every field refuses it by name."""
    field = field_new(p, n)
    for bad in (-1, field.size, field.size + 2):
        with pytest.raises(ValueError, match=rf"encoding {bad} out of range"):
            hasse_witt_from_poly(field, [1, 0, bad, 0, 0, 1], 2)


def bench_genus3_families():
    """The models of the benchmark's genus-3 workloads: every squarefree
    monic degree-7 f over F_3, and the seeded samples of 1,000 over F_7 at
    seeds 1 and 2, drawn as the benchmark draws them."""
    f3, f7 = field_new(3), field_new(7)
    yield "census", f3, [list(f.coeffs) for f in enumerate_monic(f3, 7, squarefree_only=True)]
    for seed in (1, 2):
        rng, models = random.Random(seed), []
        while len(models) < 1000:
            coeffs = [rng.randrange(7) for _ in range(7)] + [1]
            if poly_squarefree(f7, coeffs):
                models.append(coeffs)
        yield f"strata{seed}", f7, models


# sha256 of repr([A.entries for each model]), A = hasse_witt_from_poly(field,
# f, 3), recorded with f^((p-1)/2) formed by list convolutions, before the
# packed product
BENCH_HASSE_WITT_DIGESTS = {
    "census": "0b1d11bcfe3bbbd5367274b9e77f71bebf3727d384414d2133a5c74f24883706",
    "strata1": "8eb2e3305d8529ce448d21c81c5de4b010aae5b50e6762af285a081ae5a96ca3",
    "strata2": "164ded7ca13afbe0f80a9a03c5b1b50aaed6baafe707718ce7dd371a6162ee08",
}


def test_hasse_witt_matrices_of_the_bench_families_are_unchanged():
    """Every matrix of census_g3_full and strata_g3_sampled (both seeds)
    equals the one read off f^((p-1)/2) formed by plain convolutions mod p,
    and the digest of each family's matrices is the pinned one."""
    for name, field, models in bench_genus3_families():
        p, matrices = field.p, []
        for f in models:
            A = hasse_witt_from_poly(field, f, 3).entries
            power = [1]
            for _ in range((p - 1) // 2):
                power = [sum(power[j] * f[m - j] for j in range(len(power)) if 0 <= m - j < len(f))
                         % p for m in range(len(power) + len(f) - 1)]
            power += [0] * (3 * p)
            assert A == tuple(tuple(power[i * p - j] for j in range(1, 4)) for i in range(1, 4)), f
            matrices.append(A)
        assert len(matrices) == {"census": 1458}.get(name, 1000)
        digest = hashlib.sha256(repr(matrices).encode()).hexdigest()
        assert digest == BENCH_HASSE_WITT_DIGESTS[name], name


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


def test_newton_polygon_runs_the_hull_once_per_valuation_class():
    """The memoized polygon equals the hull over all 2g + 1 coefficients
    (``__wrapped__``) on seeded genus-3 curves over F_7 and F_9 and on L
    with zero coefficients, and its memo misses once per distinct
    (v_p(a_1), ..., v_p(a_g), n), a zero a_i read as None.  An L whose hull
    has a breakpoint of odd ordinate over F_9 raises on every call and adds
    no entry."""
    def valuation(a, p):
        if a == 0:
            return None
        return next(v for v in itertools.count() if a % p ** (v + 1))

    Ls = [(LPolynomial(7, 3, (1, 0, 0, 0, 0, 0, 343)), 7, 1),      # a_1 = a_2 = a_3 = 0
          (LPolynomial(9, 2, (1, 0, 18, 0, 81)), 3, 2)]             # a_1 = 0, v(a_2) = 2
    for p, n, samples in ((7, 1, 150), (3, 2, 60)):
        field, rng = field_new(p, n), random.Random(p * n)
        while samples:
            coeffs = [rng.randrange(field.size) for _ in range(7)] + [1]
            if poly_squarefree(field, coeffs):
                Ls.append((l_polynomial(curve_new(field, FqPoly(field, tuple(coeffs)))), p, n))
                samples -= 1
    newton_polygon.cache_clear()
    classes = set()
    for L, p, n in Ls:
        assert newton_polygon(L, p, n) == newton_polygon.__wrapped__(L, p, n), L
        classes.add((tuple(valuation(a, p) for a in L.coeffs[1:L.genus + 1]), n))
    assert any(None in key for key, _ in classes) and {n for _, n in classes} == {1, 2}
    info = newton_polygon.cache_info()
    assert info.misses == info.currsize == len(classes) < len(Ls) - 100
    odd = LPolynomial(9, 2, (1, 3, 3, 27, 81))    # hull (0, 0), (2, 1), (4, 4)
    for _ in range(2):
        for route in (newton_polygon, newton_polygon.__wrapped__):
            with pytest.raises(ValueError, match="breakpoint is not integral"):
                route(odd, 3, 2)
    info = newton_polygon.cache_info()
    assert (info.misses, info.currsize) == (len(classes) + 2, len(classes))


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
    assert np_.as_triples() == [[1, 3, 3], [2, 3, 3]]
    assert seg(*np_.as_triples()) == np_


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
        twisted = [[field.pow(x, field.p ** i) for x in row] for row in a]
        prod = [[_sum(field, (field.mul(twisted[r][m], prod[m][j]) for m in range(g)))
                 for j in range(g)] for r in range(g)]
        yield prod


def _rank(field, m):
    """Rank of a matrix by row reduction over the field."""
    rows, rank = [list(r) for r in m], 0
    for col in range(len(rows[0]) if rows else 0):
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


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (97, 1), (3, 2), (5, 2), (3, 3)])
def test_echelon_keeps_as_many_rows_as_the_scalar_rank(p, n):
    """``field.echelon`` against ``_rank`` on seeded matrices of 0 to 5 rows
    and 0 to 5 columns: zero, and products through k = 1 .. min(rows, cols)
    inner columns with about half their entries zero, so of rank at most k
    (rank-deficient square matrices among them)."""
    field, rng = field_new(p, n), random.Random(p * n)
    q = field.size
    for r, c in itertools.product(range(6), repeat=2):
        assert field.echelon([[0] * c for _ in range(r)]) == []
        for k in [k for k in range(1, min(r, c) + 1) for _ in range(6)]:
            left, right = ([[rng.choice([0, rng.randrange(q)]) for _ in range(w)] for _ in range(h)]
                           for h, w in ((r, k), (k, c)))
            m = field.mat_mul(left, right)
            assert len(field.echelon(m)) == _rank(field, m) <= k, m


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
        if not poly_squarefree(field, coeffs):
            continue
        c = curve_new(field, FqPoly(field, tuple(coeffs)))
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


# (p, g): the number of models of each a-number, a = 0 .. g, among every
# squarefree model of degree 2g + 1 over F_p; a = 0 counts the ordinary
# ones (942 at g = 3, the f3 stratum of census_g3_full)
A_NUMBER_COUNTS = {(3, 2): [120, 42, 0], (5, 2): [1980, 500, 20], (3, 3): [942, 516, 0, 0]}


@pytest.mark.parametrize("p,g", list(A_NUMBER_COUNTS))
def test_a_number_bounds_the_p_rank(p, g):
    """On every model of genus 2 over F_3 and F_5 and genus 3 over F_3,
    a + f <= g for the p-rank f, and a >= 1 exactly when f < g.  No
    genus-3 model over F_3 has a >= 2."""
    field, counts = field_new(p), [0] * (g + 1)
    for f in enumerate_monic(field, 2 * g + 1, squarefree_only=True):
        c = curve_new(field, f)
        a, rank = a_number(c), p_rank(c)
        assert a + rank <= g and (a >= 1) == (rank < g), f.coeffs
        counts[a] += 1
    assert counts == A_NUMBER_COUNTS[p, g]


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2)])
def test_a_number_is_g_minus_the_batched_rank_of_A(p, n):
    """Every model of ``families.exhaustive`` at genus 2 over F_5 and F_9:
    ``a_number`` is g - rank A, with the rank taken by the batched
    elimination on the field's tables (``families._rank``)."""
    field, g, weight = field_new(p, n), 2, 0
    for codes, w in families.exhaustive(field, g):
        rows = codes.tolist()
        a = np.array([hasse_witt_from_poly(field, f, g).entries for f in rows], dtype=np.int16)
        assert [a_number(curve_new(field, FqPoly(field, tuple(f)))) for f in rows] \
            == (g - families._rank(field.tables, a)).tolist()
        weight += w * len(rows)
    assert weight == field.size**5 - field.size**4


def test_one_hasse_witt_matrix_gives_the_p_rank_and_the_a_number(monkeypatch):
    """On every model of genus 2 over F_3 and F_5, one ``hasse_witt`` call
    makes one ``poly_mul`` call: (p - 1)/2 copies of f (f alone at p = 3)
    and ``at`` exactly the g^2 exponents ip - j of A's entries, row by
    row, so no other coefficient of the power is read back.  Its matrix
    gives f by ``stable_rank`` and a by ``nullity``: the values ``p_rank``
    and ``a_number`` give, each building A again."""
    g, calls, mul = 2, [], prank.poly_mul

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return mul(*args, **kwargs)

    monkeypatch.setattr(prank, "poly_mul", counted)
    for p in (3, 5):
        field, counts = field_new(p), [0] * (g + 1)
        exponents = [i * p - j for i in range(1, g + 1) for j in range(1, g + 1)]
        for f in enumerate_monic(field, 2 * g + 1, squarefree_only=True):
            c = curve_new(field, f)
            calls.clear()
            hw = hasse_witt(c)
            [(args, kwargs)] = calls
            assert args[0] is field and len(args) == 1 + (p - 1) // 2
            assert all(a is args[1] for a in args[2:]) and tuple(args[1]) == f.coeffs
            assert kwargs == {"at": exponents}
            rank, a = stable_rank(hw), nullity(hw)
            assert len(calls) == 1                 # neither forms the power again
            assert (rank, a) == (p_rank(c), a_number(c)), f.coeffs
            counts[a] += 1
        assert counts == A_NUMBER_COUNTS[p, 2]


def whole_power_hasse_witt(field, f, g):
    """A by the route before ``at``: the whole power f^((p-1)/2) (f's own
    codes at p = 3), read through a list padded with g zeros below and gp
    above, so that padded[m + g] = c_m."""
    p, half = field.p, (field.p - 1) // 2
    h = poly_mul(field, *[f] * half) if half > 1 else poly_codes(field, f)
    padded = [0] * g + h + [0] * (g * p)
    return tuple(tuple(padded[i * p + g - 1:i * p - 1:-1]) for i in range(1, g + 1))


@pytest.mark.parametrize("p,n", [(11, 1), (13, 1), (5, 2), (7, 2), (3, 3)])
def test_hasse_witt_matrix_is_read_off_the_whole_power(p, n):
    """Seeded models of degree 2g + 1 and 2g + 2 at g = 1..4 over F_11,
    F_13, F_25, F_49 and F_27, some with a zero constant term or zero low
    coefficients: A read at its g^2 exponents is A read off the whole
    power.  At p = 3 and g = 4 the exponent p - g is negative, and ip - j
    passes deg f^((p-1)/2) = (2g + 1)(p - 1)/2 where 2g > p + 1: at g >= 3
    over F_27 and at g = 4 over F_25."""
    field, rng = field_new(p, n), random.Random(p * 10 + n)
    for g in range(1, 5):
        for trial in range(30):
            f = [rng.randrange(field.size) for _ in range(2 * g + 1 + trial % 2)] + [1]
            f[:trial % 3] = [0] * (trial % 3)
            assert hasse_witt_from_poly(field, f, g).entries == whole_power_hasse_witt(field, f, g), f


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
    _assert_manin_seeded(field_new(3, n), g, samples, n * 10 + g)


@pytest.mark.parametrize("p,n,g,samples", [(7, 1, 2, 300), (7, 1, 3, 200), (11, 1, 2, 300),
                                           (5, 2, 2, 200)])
def test_manin_congruence_seeded_past_one_product(p, n, g, samples):
    """Exponents e = (p-1)/2 at which the Hasse-Witt power forms e - 1
    products by f: e = 3 over F_7 (the strata benchmark's field), e = 5
    over F_11 and e = 2 over the extension F_25."""
    _assert_manin_seeded(field_new(p, n), g, samples, p * n * 10 + g)


def _assert_manin_seeded(field, g, samples, seed):
    """Manin's congruence on seeded squarefree models of degree 2g + 1."""
    rng = random.Random(seed)
    checked = 0
    while checked < samples:
        coeffs = [rng.randrange(field.size) for _ in range(2 * g + 1)] + [1]
        if poly_squarefree(field, coeffs):
            _assert_manin(curve_new(field, FqPoly(field, tuple(coeffs))))
            checked += 1
