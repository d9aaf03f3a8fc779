import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p
from sympy.polys.numberfields.galoisgroups import galois_group

from strataforge import weil
from strataforge.curves import LPolynomial, curve_new, l_polynomial
from strataforge.ffield import FqPoly, enumerate_monic, field_new, poly_squarefree

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


# (p, n, model degree, curves): seeded samples of genus 3 over F_5 and
# genus 2 and 3 over F_9
SAMPLED = ((5, 1, 7, 300), (3, 2, 5, 300), (3, 2, 7, 200))


@pytest.fixture(scope="module")
def sampled_Ls():
    """Distinct L of a seeded sample of each SAMPLED family."""
    out = {}
    for p, n, degree, size in SAMPLED:
        field, rng, Ls = field_new(p, n), random.Random(p * n * degree), set()
        for _ in range(size):
            coeffs = [rng.randrange(field.size) for _ in range(degree)] + [1]
            if poly_squarefree(field, coeffs):
                Ls.add(l_polynomial(curve_new(field, FqPoly(field, tuple(coeffs)))))
        out[field.size, degree] = sorted(Ls, key=lambda L: L.coeffs)
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
            assert weil.splitting_class(L) == weil.splitting_class.__wrapped__(L), L
    for cached in (weil.absolutely_simple, weil.splitting_class, weil.l_reducible):
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


def quadratic_factors_degree(L):
    """Oracle for the splitting degree of an L whose P has no irreducible
    factor of degree above 2: the degree of Q(sqrt(disc)) over P's quadratic
    factors, read as the degree of the minimal polynomial of the sum of
    those square roots, or 1 when P splits into linear factors."""
    _, factors = sympy.factor_list(frobenius_expr(L))
    assert all(sympy.degree(f, T) <= 2 for f, _ in factors), L
    quadratics = [sympy.Poly(f, T) for f, _ in factors if sympy.degree(f, T) == 2]
    if not quadratics:
        return 1
    root_sum = sum(sympy.sqrt(f.discriminant()) for f in quadratics)
    return sympy.degree(sympy.minimal_polynomial(root_sum, y), y)


def test_splitting_degree_of_genus1_and_reducible_genus2_matches_factorization(census_Ls):
    """Genus 1, genus 2 with h reducible over Z, and P = (T^2 - q)^2: the
    branches the Galois-group test skips, since it takes irreducible L only."""
    reducible = [L for key in ((3, 5), (5, 5)) for L in census_Ls[key] if weil.l_reducible(L)]
    for L in genus1_Ls() + reducible:
        assert weil.splitting_degree(L) == quadratic_factors_degree(L), L
    assert {1, 2} <= {weil.splitting_degree(L) for L in genus1_Ls()}
    assert LPolynomial(5, 2, (1, 0, -10, 0, 25)) in reducible   # P = (T^2 - 5)^2


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


def test_l_reducible_matches_factorization_on_sampled_fields(sampled_Ls):
    """The closed-form test (integer root of h, or the genus-2 corner)
    against sympy's factor_list on genus 3 over F_5 and genus 2, 3 over F_9."""
    reducible = 0
    for Ls in sampled_Ls.values():
        for L in Ls:
            assert weil.l_reducible(L) == factors_over_q(L), L
            reducible += weil.l_reducible(L)
    assert 0 < reducible < sum(len(Ls) for Ls in sampled_Ls.values())


@pytest.mark.parametrize("q", [3, 5, 7])
def test_l_reducible_genus2_corner(q):
    """L = (1 - qT^2)^2: h = T^2 - 4q is irreducible for q not a square, yet
    P = (T^2 - q)^2 is not."""
    L = LPolynomial(q, 2, (1, 0, -2 * q, 0, q * q))
    assert weil.real_weil_coeffs(L) == [-4 * q, 0, 1]
    assert weil.l_reducible(L) and factors_over_q(L)
    assert weil.splitting_class(L) == ("undetermined", None)
    assert not weil.absolutely_simple(L)


def sympy_signed_cycle_type(L, r):
    """Oracle for ``weil.signed_cycle_type``: factor h mod r with sympy and
    read the flip of each factor f from the norm f(s) f(-s), s^2 = 4q (a
    nonsquare norm means an odd number of flips).  None when r is bad."""
    P = weil.frobenius_poly(L)
    if L.q % r == 0 or not gf_sqf_p(gf_from_int_poly(P[::-1], r), r, ZZ):
        return None
    u, signed = 4 * L.q % r, []
    for f in gf_factor_sqf(gf_from_int_poly(weil.real_weil_coeffs(L)[::-1], r), r, ZZ)[1]:
        low = f[::-1]
        even = sum(c * pow(u, i, r) for i, c in enumerate(low[0::2]))
        odd = sum(c * pow(u, i, r) for i, c in enumerate(low[1::2]))
        norm = (even * even - u * odd * odd) % r
        assert norm, "P squarefree mod r leaves no root b with b^2 = 4q"
        signed.append((len(f) - 1, pow(norm, (r - 1) // 2, r) != 1))
    return sorted(signed)


def test_signed_cycle_type_matches_sympy_factorization(census_Ls, sampled_Ls):
    """The cycle types read from distinct-degree counts equal the ones read
    from full factorizations mod r, at every good prime r < 30."""
    compared = 0
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        P = weil.frobenius_poly(L)
        for r in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            expected = sympy_signed_cycle_type(L, r)
            if expected is not None:
                Pr = [c % r for c in P]
                assert sorted(weil.signed_cycle_type(weil.real_weil_coeffs(L), Pr, r)) \
                    == expected, (L, r)
                compared += 1
    assert compared > 5000


def test_squarefree_tests_match_sympy_on_every_power_polynomial(census_Ls, sampled_Ls):
    """Both the mod-r-first test and the exact discriminant test
    agree with sympy's is_sqf on every P_d that ``absolutely_simple`` reads,
    the non-squarefree ones included."""
    verdicts = []
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        for d in weil._power_degrees(L.genus):
            Pd = weil.power_charpoly(L, d)
            expected = sympy.Poly(Pd[::-1], T).is_sqf
            assert (weil.discriminant(Pd) != 0) == expected, (L, d)
            assert weil.squarefree_over_q(Pd, L.q) == expected, (L, d)
            verdicts.append(expected)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 1000


def test_maximal_genus3_class_has_galois_group_of_order_48(census_Ls):
    """``splitting_class_g3`` never guesses, and it certifies every genus-3 L
    over F_3 whose Frobenius polynomial has Galois group of order
    2^3 * 3! = 48 within ``WITNESS_PRIMES``."""
    maximal = 0
    for L in census_Ls[3, 7]:
        certified = weil.splitting_class_g3(L) == ("maximal", 48)
        if not weil.l_reducible(L):
            group, _ = galois_group(sympy.Poly(frobenius_expr(L), T))
            assert certified == (group.order() == 48), L
        else:
            assert not certified, L
        maximal += certified
    assert maximal == 120


def test_discriminant_matches_sympy_on_every_census_h(census_Ls, sampled_Ls):
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        h = weil.real_weil_coeffs(L)
        assert weil.discriminant(h) == sympy.discriminant(sympy.Poly(h[::-1], T)), L
    for coeffs, _ in GENUS4_SMALL_GROUP.values():
        h = weil.real_weil_coeffs(LPolynomial(5, 4, coeffs))
        assert weil.discriminant(h) == sympy.discriminant(sympy.Poly(h[::-1], T))


def test_square_discriminant_leaves_no_transposition_witness(census_Ls, sampled_Ls):
    """Where disc(h) is a square ``splitting_class`` stops at once; on each
    such irreducible L, WITNESS_PRIMES good primes show no transposition,
    so reading them would have given "undetermined" as well."""
    square = 0
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        h, P = weil.real_weil_coeffs(L), weil.frobenius_poly(L)
        if L.genus < 3 or weil.l_reducible(L) or not weil.is_perfect_square(weil.discriminant(h)):
            continue
        square += 1
        assert weil.splitting_class(L) == ("undetermined", None), L
        good, r = 0, 2
        while good < weil.WITNESS_PRIMES:
            r = weil._next_prime(r)
            Pr = [c % r for c in P]
            if L.q % r == 0 or sympy_signed_cycle_type(L, r) is None:
                continue
            good += 1
            lengths = sorted(k for k, _ in weil.signed_cycle_type(h, Pr, r))
            assert sum(k - 1 for k in lengths) % 2 == 0, (L, r, lengths)   # even
            assert not (lengths.count(2) == 1 and all(k % 2 for k in lengths if k != 2))
    assert square >= 14


def test_splitting_class_genus1_certifies_exactly_the_irreducible_L():
    for L in genus1_Ls():
        expected = ("undetermined", None) if weil.l_reducible(L) else ("maximal", 2)
        assert weil.splitting_class(L) == expected, L


@pytest.fixture(scope="module")
def genus2_f7_Ls():
    """Distinct L of genus 2 over F_7.  x -> x + b keeps the curve, and every
    monic quintic is a translate of exactly one without an x^4 term (7 does
    not divide 5), so those give every L of the exhaustive family."""
    field = field_new(7)
    return {l_polynomial(curve_new(field, f))
            for f in enumerate_monic(field, 5, squarefree_only=True) if f.coeffs[4] == 0}


def test_splitting_class_genus2_certifies_exactly_splitting_degree_8(census_Ls, genus2_f7_Ls):
    irreducible = 0
    for L in [*census_Ls[3, 5], *census_Ls[5, 5], *genus2_f7_Ls]:
        certified = weil.splitting_class(L) == ("maximal", 8)
        if weil.l_reducible(L):
            assert not certified, L
            continue
        assert certified == (weil.splitting_degree(L) == 8), L
        irreducible += 1
    assert irreducible == 185


# Irreducible Weil L of genus 4 over F_5 whose Galois group is provably
# smaller than W_4 (order 384), with the order of Gal(h) for the real Weil
# quartic h each comes from.
GENUS4_SMALL_GROUP = {
    # h = x^4 - 12 x^2 + 1 is even: its roots come in pairs +-b with one
    # b^2 - 4q, so the flips of a pair move together
    "even h": ((1, 0, 8, 0, 31, 0, 200, 0, 625), 4),
    # h = x^4 + 3x^3 - 9x^2 - 12x - 2 has Gal(h) = S_4, but
    # prod (b_i^2 - 4q) = Res(h, T^2 - 4q) is a square, so every flip
    # vector has even weight
    "square norm": ((1, 3, 11, 33, 58, 165, 275, 375, 625), 24),
    # h = x^4 + 4x^3 - x^2 - 7x - 2 has Gal(h) = A_4: no transposition
    "A_4": ((1, 4, 19, 53, 138, 265, 475, 500, 625), 12),
    # h = x^4 - 18x^2 - 15x + 31 has Gal(h) = D_4: no 3-cycle
    "D_4": ((1, 0, 2, -15, 1, -75, 50, 0, 625), 8),
}


@pytest.mark.parametrize("name", sorted(GENUS4_SMALL_GROUP))
def test_splitting_class_genus4_never_certifies_a_smaller_group(name):
    coeffs, h_order = GENUS4_SMALL_GROUP[name]
    L = LPolynomial(5, 4, coeffs)
    assert not weil.l_reducible(L)  # the gate is not what refuses it
    h = sympy.Poly(list(reversed(weil.real_weil_coeffs(L))), y)
    assert galois_group(h)[0].order() == h_order
    if h_order == 24:
        assert weil.is_perfect_square(int(sympy.resultant(h.as_expr(), y**2 - 4 * L.q, y)))
    assert weil.splitting_class(L) == ("undetermined", None)


def coprime_to_its_reflection(L):
    """P(T) and P(-T) coprime: then no root of P is minus another, and
    Gal(P_2) = Gal(P) for the base change P_2 of L to F_(q^2)."""
    P = frobenius_expr(L)
    return sympy.degree(sympy.gcd(P, P.subs(T, -T)), T) == 0


def base_change(L):
    """L of the same variety over F_(q^2): its Frobenius polynomial is P_2."""
    return LPolynomial(L.q**2, L.genus, tuple(reversed(weil.power_charpoly(L, 2))))


# "even h" is left out: its P is even, P(T) = Q(T^2), so P_2 = Q^2 is reducible
@pytest.mark.parametrize("name", sorted(set(GENUS4_SMALL_GROUP) - {"even h"}))
def test_splitting_class_genus4_never_certifies_a_base_change_of_a_smaller_group(name):
    L = LPolynomial(5, 4, GENUS4_SMALL_GROUP[name][0])
    assert coprime_to_its_reflection(L)       # so Gal(P_2) = Gal(P), not W_4
    L2 = base_change(L)
    assert not weil.l_reducible(L2) and not factors_over_q(L2)
    assert weil.splitting_class(L2) == ("undetermined", None)


def test_splitting_class_genus4_never_certifies_power_polynomials():
    """P(T) = Q(T^k) has the roots zeta pi with pi, for zeta^k = 1, a structure
    W_4 does not keep: the restriction of scalars from F_9 of a genus-2 L
    (k = 2) and twists of genus-1 L over F_81 (k = 4)."""
    F9, irreducible = field_new(3, 2), 0
    restricted = []
    for f in itertools.islice(enumerate_monic(F9, 5, squarefree_only=True), 0, 2000, 50):
        m = l_polynomial(curve_new(F9, f)).coeffs
        restricted.append((1, 0, m[1], 0, m[2], 0, 9 * m[1], 0, 81))
    twisted = [(1, 0, 0, 0, -a, 0, 0, 0, 81) for a in range(-17, 18, 3)]
    for coeffs in restricted + twisted:
        L = LPolynomial(3, 4, coeffs)
        assert weil.l_reducible(L) == factors_over_q(L), coeffs
        if not weil.l_reducible(L):
            irreducible += 1
            assert weil.splitting_class(L) == ("undetermined", None), coeffs
    assert irreducible >= 20


def test_census_pass_loads_no_sympy():
    """The whole per-curve record at genus 3 (curve, L, p-rank, Newton
    polygon, Galois certificate, absolute simplicity) runs without sympy:
    every curve over F_3 and a seeded sample over F_9."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = """if True:
        import random, sys
        from strataforge import curves, ffield, prank, weil
        def record(field, coeffs):
            curve = curves.curve_new(field, ffield.FqPoly(field, coeffs))
            L = curves.l_polynomial(curve)
            prank.p_rank(curve)
            prank.newton_polygon(L, field.p, field.n)
            weil.splitting_class_g3(L)
            weil.absolutely_simple(L)
        F3, F9 = ffield.field_new(3), ffield.field_new(3, 2)
        for f in ffield.enumerate_monic(F3, 7, squarefree_only=True):
            record(F3, f.coeffs)
        rng = random.Random(9)
        for degree in (7, 8) * 20:
            coeffs = [rng.randrange(9) for _ in range(degree)] + [1]
            if ffield.poly_squarefree(F9, coeffs):
                record(F9, tuple(coeffs))
        print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_splitting_class_g3_is_genus3_only():
    with pytest.raises(ValueError):
        weil.splitting_class_g3(LPolynomial(3, 1, (1, 1, 3)))


def test_import_loads_no_sympy():
    """sympy is imported by the functions that factor, not at import, so
    code that never factors (the symplectic baselines) does not pay for it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, strataforge.weil, strataforge.symplectic; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
