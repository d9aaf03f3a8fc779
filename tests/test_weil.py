import itertools
import math

import pytest
import sympy
from sympy.polys.numberfields.galoisgroups import galois_group

from strataforge import weil
from strataforge.curves import LPolynomial, curve_new, l_polynomial
from strataforge.ffield import FqPoly, enumerate_monic, field_new

T, y = sympy.symbols("T y")

# (p, model degree): exhaustive genus 2 over F_3 and F_5, genus 3 over F_3
CENSUS = ((3, 5), (5, 5), (3, 7))


@pytest.fixture(scope="module")
def census_Ls():
    """Distinct L of every odd-degree model y^2 = f(x) in each CENSUS family."""
    out = {}
    for p, degree in CENSUS:
        field = field_new(p)
        out[p, degree] = sorted(
            {l_polynomial(curve_new(field, f))
             for f in enumerate_monic(field, degree, squarefree_only=True)},
            key=lambda L: L.coeffs)
    return out


def sample_Ls():
    """A few L of each genus 1..3 over F_3 and F_5."""
    Ls = []
    for p, degree in ((3, 3), (5, 3), (3, 5), (5, 5), (3, 7)):
        field = field_new(p)
        monics = enumerate_monic(field, degree, squarefree_only=True)
        Ls += [l_polynomial(curve_new(field, f)) for f in itertools.islice(monics, 0, 60, 12)]
    return Ls


def curve_L(p, coeffs):
    field = field_new(p)
    return l_polynomial(curve_new(field, FqPoly(field, tuple(coeffs))))


def frobenius_expr(L):
    return sympy.Poly(list(L.coeffs), T).as_expr()  # P(T) = T^2g L(1/T)


def full_power_degrees(g):
    """Every d with phi(d) <= 2g, the range the divisor-maximal set stands for."""
    return [d for d in range(1, 2 * (2 * g) ** 2 + 2) if sympy.totient(d) <= 2 * g]


def test_power_degrees_are_the_divisor_maximal_elements():
    assert weil._power_degrees(1) == (4, 6)
    assert weil._power_degrees(2) == (8, 10, 12)
    assert weil._power_degrees(3) == (8, 10, 12, 14, 18)
    for g in (1, 2, 3, 4):
        full = full_power_degrees(g)
        assert all(any(e % d == 0 for e in weil._power_degrees(g)) for d in full)


def test_real_weil_coeffs_round_trip():
    for L in sample_Ls():
        g, q = L.genus, L.q
        h = weil.real_weil_coeffs(L)
        assert len(h) == g + 1 and h[g] == 1
        rebuilt = sympy.expand(T**g * sum(c * (T + q / T) ** m for m, c in enumerate(h)))
        assert sympy.expand(rebuilt - frobenius_expr(L)) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_charpoly_matches_resultant(d):
    for L in sample_Ls():
        res = sympy.resultant(frobenius_expr(L).subs(T, y), T - y**d, y)
        expected = sympy.Poly(res, T).all_coeffs()           # leading term first
        assert weil.power_charpoly(L, d) == [int(c) for c in reversed(expected)]


def test_absolutely_simple_examples():
    E = curve_L(3, [1, 2, 0, 1])  # y^2 = x^3 + 2x + 1
    square = sympy.Poly(list(reversed(E.coeffs)), T) ** 2
    split = LPolynomial(3, 2, tuple(int(c) for c in reversed(square.all_coeffs())))
    assert not weil.absolutely_simple(split)
    # y^2 = x^5 + 1 over F_3: L = 1 + 9T^4 is irreducible, but pi^4 = -9
    twisted = curve_L(3, [1, 0, 0, 0, 0, 1])
    assert twisted.coeffs == (1, 0, 0, 0, 9) and not weil.l_reducible(twisted)
    assert not weil.absolutely_simple(twisted)
    # y^2 = x^5 + 2x + 1 over F_3: ordinary, Galois group of order 8 and none
    # of the Howe-Zhu splitting relations holds
    generic = curve_L(3, [1, 2, 0, 0, 0, 1])
    assert generic.coeffs == (1, 3, 7, 9, 9) and weil.splitting_degree(generic) == 8
    assert weil.absolutely_simple(generic)


def test_absolutely_simple_matches_howe_zhu_on_ordinary_surfaces(census_Ls):
    """Howe-Zhu: a simple ordinary abelian surface with Weil polynomial
    x^4 + a x^3 + b x^2 + qa x + q^2 is absolutely simple unless a = 0,
    a^2 = q + b, a^2 = 2b or a^2 = 3b - 3q."""
    checked = 0
    for key in ((3, 5), (5, 5)):
        for L in census_Ls[key]:
            q, a, b = L.q, L.coeffs[1], L.coeffs[2]
            if b % q == 0 or weil.l_reducible(L):
                continue  # not ordinary, or not simple over F_q
            splits = a == 0 or a * a in (q + b, 2 * b, 3 * b - 3 * q)
            assert weil.absolutely_simple(L) == (not splits), L
            checked += 1
    assert checked > 20


def test_cached_weil_layer_matches_uncached_and_full_degree_range(census_Ls):
    """The L-keyed caches return what the functions compute, across fields
    sharing one cache, and the divisor-maximal d decide absolute simplicity
    exactly as every d with phi(d) <= 2g does."""
    for key in CENSUS:
        for L in census_Ls[key]:
            full = all(weil._poly_is_irreducible(weil.power_charpoly(L, d))
                       for d in full_power_degrees(L.genus))
            assert weil.absolutely_simple(L) == weil.absolutely_simple.__wrapped__(L) == full, L
            assert weil.l_reducible(L) == weil.l_reducible.__wrapped__(L), L
            if L.genus == 3:
                assert weil.splitting_class_g3(L) == weil.splitting_class_g3.__wrapped__(L), L
    for cached in (weil.absolutely_simple, weil.splitting_class_g3, weil.l_reducible):
        assert cached.cache_info().maxsize == weil.WEIL_CACHE_SIZE  # bounded


def test_splitting_degree_matches_sympy_galois_group(census_Ls):
    checked = 0
    for key in ((3, 5), (5, 5)):
        for L in census_Ls[key]:
            if weil.l_reducible(L):
                continue  # galois_group takes irreducible polynomials only
            group, _ = galois_group(sympy.Poly(frobenius_expr(L), T))
            assert weil.splitting_degree(L) == group.order(), L
            checked += 1
    assert checked > 50


def factors_over_q(L):
    """True iff sympy's factorization of L has more than one irreducible
    factor, counted with multiplicity."""
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(L.coeffs)), T).as_expr())
    return sum(e for _, e in factors) > 1


def genus1_Ls():
    """Every Weil polynomial 1 + aT + qT^2 over F_3 ... F_13 and over
    F_9, F_25, F_49, where a = +-2 sqrt(q) gives the reducible (1 +- sqrt(q) T)^2."""
    return [LPolynomial(q, 1, (1, a, q)) for q in (3, 5, 7, 9, 11, 13, 25, 49)
            for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1)]


def test_l_reducible_matches_factorization(census_Ls):
    """The integer-root shortcut of genus >= 2 and the factorization both
    agree with sympy's factor_list; at genus 1 the real Weil polynomial is
    linear with an integer root, and L is reducible only when a^2 = 4q."""
    for key in CENSUS:
        for L in census_Ls[key]:
            assert weil.l_reducible(L) == factors_over_q(L), L
    reducible = []
    for L in genus1_Ls():
        assert weil.l_reducible(L) == factors_over_q(L), L
        if weil.l_reducible(L):
            reducible.append((L.q, L.coeffs[1]))
    assert reducible == [(9, -6), (9, 6), (25, -10), (25, 10), (49, -14), (49, 14)]


def sympy_cubic_invariants(L):
    """(disc h, e1, e2, e3) from sympy: the discriminant of h and the monic
    resultant D(T) = Res_y(h(y), T - y^2 + 4q) = T^3 - e1 T^2 + e2 T - e3."""
    h = sympy.Poly(list(reversed(weil.real_weil_coeffs(L))), y).as_expr()
    disc = int(sympy.discriminant(h, y))
    dpoly = sympy.Poly(sympy.resultant(h, T - y**2 + 4 * L.q, y), T).monic()
    return disc, -int(dpoly.nth(2)), int(dpoly.nth(1)), -int(dpoly.nth(0))


def test_cubic_invariants_match_sympy(census_Ls):
    for L in census_Ls[3, 7]:
        closed = weil._cubic_invariants(weil.real_weil_coeffs(L), L.q)
        assert closed == sympy_cubic_invariants(L), L


def test_maximal_genus3_class_has_galois_group_of_order_48(census_Ls):
    """``splitting_class_g3`` never guesses: every L it certifies as maximal
    has a Frobenius polynomial whose Galois group has order 2^3 * 3! = 48."""
    maximal = [L for L in census_Ls[3, 7] if weil.splitting_class_g3(L) == ("maximal", 48)]
    for L in maximal:
        group, _ = galois_group(sympy.Poly(frobenius_expr(L), T))
        assert group.order() == 48, L
    assert len(maximal) > 50
