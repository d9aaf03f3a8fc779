import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from sympy.ntheory.factor_ import core
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p
from sympy.polys.numberfields.galoisgroups import galois_group

from strataforge import prank, weil
from strataforge.curves import (
    LPolynomial,
    curve_new,
    l_polynomial,
    l_polynomial_from_counts,
    point_counts_from,
    power_sums,
)
from strataforge.ffield import (
    FqPoly,
    enumerate_monic,
    field_new,
    is_prime,
    norm_at_root,
    poly_squarefree,
    reciprocal_trace,
    zp_reciprocal_blocks,
    zp_squarefree,
)

T, y = sympy.symbols("T y")


@pytest.fixture(scope="module")
def genus1_and_4_Ls():
    """Distinct L of every genus-1 model over F_3, F_5 and F_7 and of a
    seeded sample of genus-4 models over F_3 and F_5."""
    Ls = set()
    for p in (3, 5, 7):
        field = field_new(p)
        Ls |= {l_polynomial(curve_new(field, f))
               for f in enumerate_monic(field, 3, squarefree_only=True)}
    for p, size in ((3, 120), (5, 60)):
        field, rng = field_new(p), random.Random(p)
        for _ in range(size):
            coeffs = [rng.randrange(p) for _ in range(9)] + [1]
            if poly_squarefree(field, coeffs):
                Ls.add(l_polynomial(curve_new(field, FqPoly(field, tuple(coeffs)))))
    return sorted(Ls, key=lambda L: (L.genus, L.q, L.coeffs))


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


def galois_order(L):
    """Order of the Galois group of an irreducible L, by sympy."""
    return galois_group(sympy.Poly(frobenius_expr(L), T))[0].order()


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
    assert generic.coeffs == (1, 3, 7, 9, 9) and galois_order(generic) == 8
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


def test_cached_weil_layer_matches_uncached_and_full_degree_range(census_Ls, sampled_Ls):
    """The L-keyed caches return what the functions compute, across fields
    sharing one cache, and the divisor-maximal d decide absolute simplicity
    exactly as every d with phi(d) <= 2g does.  On the sampled families as
    well, the counts N_1..N_(g+1) that L predicts give L back, and the
    Newton polygon memo matches its function.  That every memo is bounded
    is ``test_packaging``'s."""
    for key in census_Ls:
        for L in census_Ls[key]:
            full = all(not splits_over_q(weil.power_charpoly(L, d))
                       for d in full_power_degrees(L.genus))
            assert weil.absolutely_simple(L) == weil.absolutely_simple.__wrapped__(L) == full, L
            assert weil.l_reducible(L) == weil.l_reducible.__wrapped__(L), L
            assert weil.splitting_class(L) == weil.splitting_class.__wrapped__(L), L
    for Ls in (*census_Ls.values(), *sampled_Ls.values()):
        for L in Ls:
            q, g = L.q, L.genus
            p = next(d for d in range(2, q + 1) if q % d == 0)
            n = round(math.log(q, p))
            assert l_polynomial_from_counts(q, g, point_counts_from(L, g + 1)) == L, L
            assert prank.newton_polygon(L, p, n) == prank.newton_polygon.__wrapped__(L, p, n), L


def test_splitting_degree_matches_sympy_galois_group(census_Ls):
    """The splitting degree of an irreducible L is the order of G = Gal(P),
    and Frobenius at every good prime r is an element of G.  So the cycle
    type ``signed_cycle_type`` reads on the 2g roots of P (two k-cycles for
    an unflipped k-cycle on the b_i, one 2k-cycle for a flipped one) is the
    cycle type of an element of sympy's Galois group, of every order seen."""
    checked, orders = 0, set()
    for key in ((3, 5), (5, 5)):
        for L in census_Ls[key]:
            if weil.l_reducible(L):
                continue  # galois_group takes irreducible polynomials only
            group, _ = galois_group(sympy.Poly(frobenius_expr(L), T))
            types = {tuple(sorted(g.cycle_structure.items())) for g in group.elements}
            h = weil.real_weil_coeffs(L)
            for r in (3, 5, 7, 11, 13, 17, 19, 23, 29):
                if sympy_signed_cycle_type(L, r) is None:
                    continue  # r divides q disc(h) N(h)
                lengths = {}
                for k, flipped in weil.signed_cycle_type(h, L.q, r):
                    cycle = 2 * k if flipped else k
                    lengths[cycle] = lengths.get(cycle, 0) + (1 if flipped else 2)
                assert tuple(sorted(lengths.items())) in types, (L, r)
            orders.add(group.order())
            checked += 1
    assert checked > 50
    assert {4, 8} <= orders  # below W_2 the check rules out whole cycle types


def splits_over_q(coeffs):
    """True iff sympy's factorization of the integer polynomial with these
    coefficients (constant term first) has more than one irreducible
    factor, counted with multiplicity."""
    _, factors = sympy.Poly(list(reversed(coeffs)), T).factor_list()
    return sum(e for _, e in factors) > 1


def factors_over_q(L):
    return splits_over_q(L.coeffs)


def genus1_Ls():
    """Every Weil polynomial 1 + aT + qT^2 over F_3 ... F_13 and over
    F_9, F_25, F_49, where a = +-2 sqrt(q) gives the reducible (1 +- sqrt(q) T)^2."""
    return [LPolynomial(q, 1, (1, a, q)) for q in (3, 5, 7, 9, 11, 13, 25, 49)
            for a in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1)]


def test_l_reducible_matches_factorization(census_Ls):
    """The integer-root shortcut of genus >= 2 and the factorization both
    agree with sympy's factor_list; at genus 1 the real Weil polynomial is
    linear with an integer root, and L is reducible only when a^2 = 4q."""
    for key in census_Ls:
        for L in census_Ls[key]:
            assert weil.l_reducible(L) == factors_over_q(L), L
    assert LPolynomial(5, 2, (1, 0, -10, 0, 25)) in census_Ls[5, 5]   # h = T^2 - 4q: P = (T^2 - 5)^2
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


def seeded_Ls(p, g, size):
    """Distinct L of a seeded sample of genus-g models y^2 = f(x) over F_p,
    f monic of degree 2g + 1."""
    field, rng, Ls = field_new(p), random.Random(p * g), set()
    for _ in range(size):
        coeffs = [rng.randrange(p) for _ in range(2 * g + 1)] + [1]
        if poly_squarefree(field, coeffs):
            Ls.add(l_polynomial(curve_new(field, FqPoly(field, tuple(coeffs)))))
    return sorted(Ls, key=lambda L: L.coeffs)


def test_l_reducible_matches_factorization_on_every_genus4_L_over_f3(genus4_f3_Ls):
    """At genus 4 the integer-root scan, disc(h) = 0, the factor-degree
    sieve and the linear resolvents together agree with sympy's
    factor_list on every distinct L over F_3, each computed on its own
    (``__wrapped__``: no twist shares an answer)."""
    reducible = 0
    for L in genus4_f3_Ls:
        expected = factors_over_q(L)
        assert weil.l_reducible.__wrapped__(L) == expected, L
        reducible += expected
    assert reducible == 613


def test_l_reducible_matches_factorization_on_genus1_and_4_samples(genus1_and_4_Ls):
    for L in genus1_and_4_Ls:
        assert weil.l_reducible.__wrapped__(L) == factors_over_q(L), L


@pytest.mark.parametrize("g,size", [(5, 200), (6, 100)])
def test_l_reducible_matches_factorization_at_genus_5_and_6(g, size):
    """Seeded samples over F_3, where the resolvents have degree
    C(5, 2) = 10, C(6, 2) = 15 and C(6, 3) = 20."""
    Ls = seeded_Ls(3, g, size)
    assert len(Ls) > size // 2
    for L in Ls:
        assert weil.l_reducible.__wrapped__(L) == factors_over_q(L), L
    assert any(factors_over_q(L) for L in Ls)


def weil_L(q, h):
    """The L of genus deg h whose real Weil polynomial is h, a sympy
    polynomial in y, once sympy shows that every root of h is real and lies
    in [-2 sqrt q, 2 sqrt q], as the roots of a real Weil polynomial do."""
    h = sympy.Poly(h, y)
    g, roots = h.degree(), sympy.real_roots(h)
    assert len(roots) == g and all(sympy.Abs(b) <= 2 * sympy.sqrt(q) for b in roots), h
    P = sympy.Poly(sympy.expand(y**g * h.as_expr().subs(y, y + sympy.Rational(q) / y)), y)
    L = LPolynomial(q, g, tuple(int(c) for c in P.all_coeffs()))   # P(T) = T^2g L(1/T)
    assert weil.real_weil_coeffs(L) == [int(c) for c in reversed(h.all_coeffs())]
    return L


# Real Weil polynomials h, each with its q, whether it is reducible and the
# degrees of the linear resolvents l_reducible forms on it, in order.
HAND_BUILT_H = {
    # GENUS4_SMALL_GROUP's "even h": its roots are +-b_1, +-b_2, so both
    # {b_i, -b_i} sum to 0, a double root of R_2 at lam = 0; at lam = 1,
    # R_2 has no integer root
    "V4 even h": (5, y**4 - 12 * y**2 + 1, False, [6, 6]),
    # the same double root 0 at lam = 0; at lam = 1 the pairs sum to 2 b^2,
    # the simple roots 4 and 6
    "(x^2 - 2)(x^2 - 3)": (3, (y**2 - 2) * (y**2 - 3), True, [6, 6]),
    # disc(h) = 0: no resolvent
    "(x^2 - 3)^2": (3, (y**2 - 3) ** 2, True, []),
    # no integer root; the factor is found at k = 2
    "quadratic times quartic": (3, (y**2 - y - 1) * (y**4 - 4 * y**2 + 2), True, [15]),
    # two real cubics (cyclic, of conductor 9 and 7): found at k = 3
    "two real cubics": (3, (y**3 - 3 * y + 1) * (y**3 - y**2 - 2 * y + 1), True, [20]),
    # two real quartics at genus 8: found at k = 4, a resolvent of degree 70
    "two real quartics": (3, (y**4 - 4 * y**2 + 2) * (y**4 - y**3 - 4 * y**2 + 4 * y + 1),
                          True, [70]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_H))
def test_l_reducible_reaches_each_resolvent_branch(name, monkeypatch):
    """Hand-built Weil L with no integer root of h, each reaching one
    branch past the scan: disc(h) = 0, a simple integer root of R_k at
    k = 2, 3 or 4, and a multiple root at lam = 0 that the next lam
    decides either way.  Each answer agrees with sympy's factor_list."""
    q, h, reducible, degrees = HAND_BUILT_H[name]
    L = weil_L(q, h)
    assert not any(b.is_integer for b in sympy.real_roots(sympy.Poly(h, y)))
    formed, resolvent = [], weil.coeffs_from_power_sums

    def spy(sums):
        formed.append(len(sums))
        return resolvent(sums)

    monkeypatch.setattr(weil, "coeffs_from_power_sums", spy)
    assert weil.l_reducible.__wrapped__(L) == reducible == factors_over_q(L)
    assert formed == degrees
    if name == "V4 even h":
        assert L.coeffs == GENUS4_SMALL_GROUP["even h"][0]


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
    """The cycle types read from the reciprocal blocks of h equal the ones
    read from full factorizations mod r, at every good prime r < 30."""
    compared = 0
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        h = weil.real_weil_coeffs(L)
        for r in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            expected = sympy_signed_cycle_type(L, r)
            if expected is not None:
                assert sorted(weil.signed_cycle_type(h, L.q, r)) == expected, (L, r)
                compared += 1
    assert compared > 5000


def test_reciprocal_blocks_precondition_holds_at_every_good_prime(census_Ls, sampled_Ls):
    """At every good prime r < 30 (r prime to q, P squarefree mod r by
    sympy), h meets the precondition of ``zp_reciprocal_blocks``: h is
    squarefree mod r and r does not divide N(h), so no root b of h has
    b^2 = 4q (a root e of P with e^2 = q would come doubled).  Its blocks
    then cover all g roots of h: d per "gl" pair and per "u" factor."""
    read = 0
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        P, h = weil.frobenius_poly(L), weil.real_weil_coeffs(L)
        for r in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            if L.q % r == 0 or not gf_sqf_p(gf_from_int_poly(P[::-1], r), r, ZZ):
                continue
            assert zp_squarefree(h, r) and norm_at_root(h, 4 * L.q) % r, (L, r)
            assert sum(d for _, d in zp_reciprocal_blocks(h, r, L.q % r)) == L.genus, (L, r)
            read += 1
    assert read > 5000


def test_squarefree_tests_match_sympy_on_every_power_polynomial(census_Ls, sampled_Ls):
    """The exact test on the trace polynomial h_d, and the discriminant of
    P_d itself, agree with sympy's is_sqf on every P_d that
    ``absolutely_simple`` reads, the non-squarefree ones included; h_d from
    the power sums up to g d is the trace polynomial of P_d."""
    verdicts = []
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        degrees = weil._power_degrees(L.genus)
        ps = [2 * L.genus] + power_sums(L.coeffs, L.genus * max(degrees))
        for d in degrees:
            Pd, hd = weil.power_charpoly(L, d), weil._power_trace(ps, L.q, d)
            assert reciprocal_trace(Pd, L.q**d) == (hd, [0] * len(Pd)), (L, d)
            expected = sympy.Poly(Pd[::-1], T).is_sqf
            assert (weil.discriminant(Pd) != 0) == expected, (L, d)
            assert weil._reciprocal_squarefree(hd, L.q**d) == expected, (L, d)
            verdicts.append(expected)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 1000


def test_frobenius_discriminant_factors_through_h(census_Ls, sampled_Ls, genus1_and_4_Ls):
    """disc P = q^(g(g-1)) disc(h)^2 N(h), N(h) = h(2 sqrt q) h(-2 sqrt q),
    at g = 1..4 (so |disc P| as well); hence, for a prime r, r divides
    q disc(h) N(h) exactly when r | q or P is not squarefree mod r, the
    good-prime rule of ``splitting_class``, checked at every r < 200."""
    Ls = [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls] + genus1_and_4_Ls
    assert {L.genus for L in Ls} == {1, 2, 3, 4}
    primes = [r for r in range(3, 200) if is_prime(r)]
    for L in Ls:
        g, q, P, h = L.genus, L.q, weil.frobenius_poly(L), weil.real_weil_coeffs(L)
        disc_h, norm = weil.discriminant(h), norm_at_root(h, 4 * q)
        disc_P = sympy.discriminant(sympy.Poly(P[::-1], T))
        assert disc_P == q ** (g * (g - 1)) * disc_h**2 * norm, L
        bad = q * disc_h * norm
        for r in primes:
            assert (bad % r != 0) == (q % r != 0 and zp_squarefree(P, r)), (L, r)


def test_maximal_genus3_class_has_galois_group_of_order_48(census_Ls):
    """``splitting_class_g3`` never guesses, and it certifies every genus-3 L
    over F_3 whose Frobenius polynomial has Galois group of order
    2^3 * 3! = 48 within ``WITNESS_PRIMES``."""
    maximal = 0
    for L in census_Ls[3, 7]:
        certified = weil.splitting_class_g3(L) == ("maximal", 48)
        if not weil.l_reducible(L):
            assert certified == (galois_order(L) == 48), L
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
        h = weil.real_weil_coeffs(L)
        if L.genus < 3 or weil.l_reducible(L) or not weil.is_perfect_square(weil.discriminant(h)):
            continue
        square += 1
        assert weil.splitting_class(L) == ("undetermined", None), L
        good, r = 0, 2
        while good < weil.WITNESS_PRIMES:
            r = weil._next_prime(r)
            if L.q % r == 0 or sympy_signed_cycle_type(L, r) is None:
                continue
            good += 1
            lengths = sorted(k for k, _ in weil.signed_cycle_type(h, L.q, r))
            assert sum(k - 1 for k in lengths) % 2 == 0, (L, r, lengths)   # even
            assert not (lengths.count(2) == 1 and all(k % 2 for k in lengths if k != 2))
    assert square >= 14


def test_next_prime_matches_sympy_and_tests_no_even_number(monkeypatch):
    """``_next_prime(r)`` is the least prime above r, from 0 to 10,000; past
    2 it asks ``is_prime`` about odd numbers only."""
    asked = []

    def counting(n):
        asked.append(n)
        return is_prime(n)

    monkeypatch.setattr(weil, "is_prime", counting)
    assert [weil._next_prime(r) for r in range(10_001)] == [
        sympy.nextprime(r) for r in range(10_001)]
    assert asked and all(n % 2 for n in asked)


def every_fixture_L(census_Ls, sampled_Ls, genus1_and_4_Ls):
    return [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls] + genus1_and_4_Ls


def test_square_norm_leaves_no_odd_flip_witness(census_Ls, sampled_Ls, genus1_and_4_Ls):
    """Where N(h) = h(2 sqrt q) h(-2 sqrt q) is a square ``splitting_class``
    stops at once; on each such irreducible L, WITNESS_PRIMES good primes
    show only Frobenius elements that flip an even number of pairs, so no
    pure flip of odd weight, and reading them would have given
    "undetermined" as well.  At odd g, N(h) < 0 on every irreducible L."""
    square = []
    for L in every_fixture_L(census_Ls, sampled_Ls, genus1_and_4_Ls):
        g, h = L.genus, weil.real_weil_coeffs(L)
        if weil.l_reducible(L):
            continue
        norm = norm_at_root(h, 4 * L.q)
        if g % 2:
            assert norm < 0, L
        if not weil.is_perfect_square(norm):
            continue
        square.append(g)
        assert weil.splitting_class(L) == ("undetermined", None), L
        good, r = 0, 2
        while good < weil.WITNESS_PRIMES:
            r = weil._next_prime(r)
            if L.q % r == 0 or sympy_signed_cycle_type(L, r) is None:
                continue
            good += 1
            signed = weil.signed_cycle_type(h, L.q, r)
            assert sum(flipped for _, flipped in signed) % 2 == 0, (L, r, signed)
            K = math.lcm(*(k for k, _ in signed))
            w = sum(k for k, flipped in signed if flipped and (K // k) % 2)
            assert w % 2 == 0, (L, r, signed)
    assert square.count(2) >= 30 and square.count(4) >= 10, square


def test_maximal_L_has_every_power_polynomial_squarefree(census_Ls, sampled_Ls,
                                                         genus1_and_4_Ls):
    """G = W_g at g >= 2 leaves no two roots with equal d-th powers, so
    ``absolutely_simple`` returns True on a "maximal" L without the P_d
    route; here that route, on every d with phi(d) <= 2g, agrees."""
    maximal = set()
    for L in every_fixture_L(census_Ls, sampled_Ls, genus1_and_4_Ls):
        if L.genus < 2 or weil.splitting_class(L)[0] != "maximal":
            continue
        maximal.add(L.genus)
        degrees = full_power_degrees(L.genus)
        ps = [2 * L.genus] + power_sums(L.coeffs, L.genus * max(degrees))
        for d in degrees:
            assert weil._reciprocal_squarefree(weil._power_trace(ps, L.q, d), L.q**d), (L, d)
        assert weil.absolutely_simple(L), L
    assert maximal == {2, 3, 4}


def test_power_step_L_is_undetermined_and_not_absolutely_simple(census_Ls, sampled_Ls,
                                                                genus1_and_4_Ls):
    """An L in Z[T^k], k >= 2, has the distinct roots pi and zeta_k pi with
    equal k-th powers: on every such fixture L the P_d route finds P_k not
    squarefree, ``absolutely_simple`` is False (at every g), and at g >= 2
    ``splitting_class`` is "undetermined".  ``_power_step`` is the largest
    such k on every fixture L."""
    steps = []
    for L in every_fixture_L(census_Ls, sampled_Ls, genus1_and_4_Ls):
        k, g = weil._power_step(L), L.genus
        assert k == max(e for e in range(1, 2 * g + 1)
                        if all(a == 0 for i, a in enumerate(L.coeffs) if i % e)), L
        if k < 2:
            continue
        steps.append((g, k))
        ps = [2 * g] + power_sums(L.coeffs, g * k)
        assert not weil._reciprocal_squarefree(weil._power_trace(ps, L.q, k), L.q**k), L
        assert not weil.absolutely_simple(L), L
        if g >= 2:
            assert weil.splitting_class(L) == ("undetermined", None), L
    assert {(2, 2), (2, 4), (3, 2), (3, 3), (3, 6), (4, 2), (4, 4), (4, 8)} <= set(steps)
    assert sum(g >= 2 for g, _ in steps) >= 50 and (1, 2) in steps


def test_genus3_census_over_f3_weil_counts_are_pinned():
    """The Weil outputs over the 1,458 squarefree genus-3 models y^2 = f(x),
    deg f = 7, over F_3 (218 distinct L), as read before the early exits
    for L in Z[T^k]: 120 distinct L are "maximal" and 98 "undetermined",
    and 140 absolutely simple; weighted by models, 798 and 906."""
    field = field_new(3)
    Ls = [l_polynomial(curve_new(field, f))
          for f in enumerate_monic(field, 7, squarefree_only=True)]
    distinct = set(Ls)
    split = {L: weil.splitting_class_g3(L)[0] for L in distinct}
    simple = {L: weil.absolutely_simple(L) for L in distinct}
    assert (len(Ls), len(distinct)) == (1458, 218)
    assert list(split.values()).count("maximal") == 120
    assert list(split.values()).count("undetermined") == 98
    assert sum(simple.values()) == 140
    assert sum(split[L] == "maximal" for L in Ls) == 798
    assert sum(simple[L] for L in Ls) == 906


def test_maximal_genus1_L_need_not_be_absolutely_simple():
    """At g = 1, W_1 = Z/2 is abelian and the implication fails:
    y^2 = x^3 + x over F_3 has P = T^2 + 3, maximal, but P_4 = (T - 9)^2."""
    L = curve_L(3, [0, 1, 0, 1])
    assert L.coeffs == (1, 0, 3)
    assert weil.splitting_class(L) == ("maximal", 2)
    assert weil.power_charpoly(L, 4) == [81, -18, 1]
    assert not weil.absolutely_simple(L)


def test_absolutely_simple_first_with_cold_caches(census_Ls, sampled_Ls, genus1_and_4_Ls):
    """``absolutely_simple`` reads the memoized ``splitting_class``; asked
    first, with every weil memo cold, it fills that memo itself and both
    give what they give in the other order."""
    Ls = every_fixture_L(census_Ls, sampled_Ls, genus1_and_4_Ls)
    memos = (weil.l_reducible, weil.splitting_class, weil.absolutely_simple)
    for memo in memos:
        memo.cache_clear()
    simple_first = [(weil.absolutely_simple(L), weil.splitting_class(L)) for L in Ls]
    for memo in memos:
        memo.cache_clear()
    split_first = [(weil.splitting_class(L), weil.absolutely_simple(L)) for L in Ls]
    assert [(a, s) for s, a in split_first] == simple_first
    assert sum(a for a, _ in simple_first) > 100


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
        assert certified == (galois_order(L) == 8), L
        irreducible += 1
    assert irreducible == 185


def twisted(L):
    """L(-T) by sympy, the oracle for ``weil.quadratic_twist``."""
    reflected = sympy.Poly(list(reversed(L.coeffs)), T).as_expr().subs(T, -T)
    coeffs = sympy.Poly(reflected, T).all_coeffs()[::-1]
    return LPolynomial(L.q, L.genus, tuple(int(c) for c in coeffs))


WEIL_MEMOS = (weil.l_reducible, weil.splitting_class, weil.absolutely_simple)


@pytest.fixture(scope="module")
def genus4_f3_Ls():
    """Distinct L of every genus-4 model over F_3 (1,683 of 13,122)."""
    field = field_new(3)
    Ls = {l_polynomial(curve_new(field, f))
          for f in enumerate_monic(field, 9, squarefree_only=True)}
    return sorted(Ls, key=lambda L: L.coeffs)


def test_quadratic_twist_gives_the_same_uncached_weil_answers(census_Ls, genus2_f7_Ls,
                                                              genus4_f3_Ls):
    """Negating every Frobenius eigenvalue keeps G, the factorization of P
    and absolute simplicity (``weil`` module docstring).  On every distinct
    L of genus 2 over F_3, F_5 and F_7 and genus 3 over F_3, and on a seeded
    200-L subset of genus 4 over F_3, the bare computation (``__wrapped__``:
    no memo, no redirect) of each Weil function on L(-T) equals the one on
    L.  The twist of a genuine L passes ``LPolynomial``'s checks, its twist
    is L again, and L is its own twist exactly in Z[T^2]."""
    assert len(genus4_f3_Ls) == 1683
    Ls = [*census_Ls[3, 5], *census_Ls[5, 5], *genus2_f7_Ls, *census_Ls[3, 7],
          *random.Random(4).sample(genus4_f3_Ls, 200)]
    self_twists = 0
    for L in Ls:
        twin = weil.quadratic_twist(L)
        assert twin == twisted(L) and weil.quadratic_twist(twin) == L, L
        assert (twin == L) == (weil._power_step(L) % 2 == 0), L
        self_twists += twin == L
        for memo in WEIL_MEMOS:
            assert memo.__wrapped__(twin) == memo.__wrapped__(L), (memo.__name__, L)
    assert self_twists >= 20 and len(Ls) - self_twists > 500


def test_quadratic_twist_of_no_weil_polynomial_is_refused():
    """L(-1) <= 0 fails ``LPolynomial``'s checks for the twist, so no twist
    is formed; such an L is computed directly and raises nothing new."""
    L = LPolynomial(3, 2, (1, 6, 0, 18, 9))   # L(-1) = -14: no Weil polynomial
    assert weil.quadratic_twist(L) is None
    for memo in WEIL_MEMOS:
        memo.cache_clear()
        assert memo(L) == memo.__wrapped__(L)


def test_census_weil_pass_computes_each_twist_class_once(monkeypatch):
    """With the memos cleared, the 1,458 L of genus 3 over F_3 (218 distinct,
    112 twist classes) read ``signed_cycle_type`` 217 times and run the
    body of ``l_reducible`` 102 times, half of what certifying each L on its
    own took, whichever member of each twist pair is asked first; the
    answers do not depend on that order."""
    field = field_new(3)
    Ls = [l_polynomial(curve_new(field, f))
          for f in enumerate_monic(field, 7, squarefree_only=True)]
    assert len(Ls) == 1458 and len(set(Ls)) == 218
    assert len({min(L.coeffs, weil.quadratic_twist(L).coeffs) for L in Ls}) == 112
    primes, bodies = [], []
    cycle_type, body = weil.signed_cycle_type, weil.l_reducible.__wrapped__

    def read(h, q, r):
        primes.append(r)
        return cycle_type(h, q, r)

    def ran(L):
        bodies.append(L)
        return body(L)

    monkeypatch.setattr(weil, "signed_cycle_type", read)
    monkeypatch.setattr(weil.l_reducible, "__wrapped__", ran)
    answers, ascending = [], sorted(Ls, key=lambda L: L.coeffs)
    for order in (ascending, ascending[::-1]):
        for memo in WEIL_MEMOS:
            memo.cache_clear()
        primes.clear()
        bodies.clear()
        # the census record's two Weil calls, in the bench's order
        answers.append({L: (weil.splitting_class_g3(L), weil.absolutely_simple(L))
                        for L in order})
        assert (len(primes), len(bodies)) == (217, 102)
        assert weil.absolutely_simple.cache_info().currsize == 218
    assert answers[0] == answers[1]


def test_genus3_L_that_read_every_witness_prime_have_a_quadratic_subfield(census_Ls, monkeypatch):
    """Six genus-3 L over F_3 pass every exit and read all ``WITNESS_PRIMES``
    good primes, and "undetermined" is right for each: P factors over
    Q(sqrt D), D the squarefree part of N(h) = -48, -8, -44, into two cubics.
    Then Gal(P/Q(sqrt D)) keeps both cubics, which hold one root of each
    pair {pi, q/pi}, so it moves no root to its partner and acts on the
    pairs inside S_3; |G| <= 12, and a pure flip in G has weight 0 or 3, so
    no flip witness 0 < w < 3 exists.  The six are three twist pairs, so
    with the memos cleared they read 60 primes, not 120."""
    primes, cycle_type = [], weil.signed_cycle_type

    def read(h, q, r):
        primes.append(r)
        return cycle_type(h, q, r)

    monkeypatch.setattr(weil, "signed_cycle_type", read)
    exhausted = []
    for L in census_Ls[3, 7]:
        primes.clear()
        weil.splitting_class.__wrapped__(L)
        if len(primes) == weil.WITNESS_PRIMES:
            exhausted.append(L)
    norms = {L: norm_at_root(weil.real_weil_coeffs(L), 4 * L.q) for L in exhausted}
    assert sorted(norms.values()) == [-48, -48, -44, -44, -8, -8]
    assert {weil.quadratic_twist(L) for L in exhausted} == set(exhausted)
    for L, norm in norms.items():
        D = -core(-norm)                          # -3, -2, -11
        _, factors = sympy.factor_list(frobenius_expr(L), extension=sympy.sqrt(D))
        assert sorted(sympy.degree(f, T) for f, _ in factors) == [3, 3], L
        assert galois_order(L) == 12, L
        assert weil.splitting_class(L) == ("undetermined", None), L
        assert weil.absolutely_simple(L), L
    for memo in WEIL_MEMOS:
        memo.cache_clear()
    primes.clear()
    for L in exhausted:
        weil.splitting_class(L)
    assert len(primes) == 3 * weil.WITNESS_PRIMES


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


def genus4_power_Ls():
    """Genus-4 L over F_3 in Z[T^k]: the restriction of scalars from F_9 of a
    genus-2 L (k = 2) and twists of genus-1 L over F_81 (k = 4)."""
    F9, restricted = field_new(3, 2), []
    for f in itertools.islice(enumerate_monic(F9, 5, squarefree_only=True), 0, 2000, 50):
        m = l_polynomial(curve_new(F9, f)).coeffs
        restricted.append((1, 0, m[1], 0, m[2], 0, 9 * m[1], 0, 81))
    twisted = [(1, 0, 0, 0, -a, 0, 0, 0, 81) for a in range(-17, 18, 3)]
    return [LPolynomial(3, 4, coeffs) for coeffs in restricted + twisted]


def test_splitting_class_genus4_never_certifies_power_polynomials():
    """P(T) = Q(T^k) has the roots zeta pi with pi, for zeta^k = 1, a structure
    W_4 does not keep (``genus4_power_Ls``)."""
    irreducible = 0
    for L in genus4_power_Ls():
        assert weil.l_reducible(L) == factors_over_q(L), L.coeffs
        if not weil.l_reducible(L):
            irreducible += 1
            assert weil.splitting_class(L) == ("undetermined", None), L.coeffs
    assert irreducible >= 20


def test_witness_loop_never_certifies_power_polynomials(monkeypatch):
    """The same L with the exits before the witness primes switched off, the
    memo bypassed: the primes themselves never certify them.  Every one has
    N(h) a square (one has disc(h) a square as well), so with only the
    Z[T^k] exit off (``_power_step`` patched to 1) the square exit would
    still stop all 34 before any prime; ``is_perfect_square`` is patched to
    False too, and the loop reads all ``WITNESS_PRIMES`` good primes of
    each.  Over those primes 32 of them show a transposition, but none a
    3-cycle or a flip of odd weight (11 show one of even weight)."""
    irreducible = [L for L in genus4_power_Ls() if not weil.l_reducible(L)]
    read, cycle_type = [], weil.signed_cycle_type

    def counted(h, q, r):
        read.append(r)
        return cycle_type(h, q, r)

    monkeypatch.setattr(weil, "_power_step", lambda L: 1)
    monkeypatch.setattr(weil, "is_perfect_square", lambda n: False)
    monkeypatch.setattr(weil, "signed_cycle_type", counted)
    primes_read = []
    for L in irreducible:
        read.clear()
        assert weil.splitting_class.__wrapped__(L) == ("undetermined", None), L.coeffs
        primes_read.append(len(read))
    assert primes_read == [weil.WITNESS_PRIMES] * 34


# A genus-4 L over F_3 (y^2 = x^9 + x^7 + x^6 + x^5 + x^2 + 1) that passes
# every exit before the witness primes: not in Z[T^k], irreducible, and
# neither N(h) nor disc(h) a square.
GENUS4_OPEN_L = LPolynomial(3, 4, (1, 1, 0, -1, -2, -3, 0, 27, 81))


@pytest.mark.parametrize("flip", [[(1, True), (1, True), (1, False), (1, False)],
                                  [(2, True), (1, False), (1, False)]],
                         ids=["two fixed flips", "flipped 2-cycle"])
def test_witness_loop_needs_an_odd_weight_flip_at_even_genus(monkeypatch, flip):
    """At even g a pure flip of even weight w (0 < w < g) does not certify
    W_g: the index-2 subgroup {(v, s) : wt(v) = sgn(s) mod 2} has a
    transposition, a (g-1)-cycle and such flips.  Frobenius is patched to
    show exactly those at every good prime; the L stays "undetermined".
    With an odd-weight flip in place of the even one, the same loop
    certifies it, so the patch reaches the witnesses."""
    L, g = GENUS4_OPEN_L, 4
    assert curve_L(3, [1, 0, 1, 0, 0, 1, 1, 1, 0, 1]) == L
    h = weil.real_weil_coeffs(L)
    assert weil._power_step(L) == 1 and not weil.l_reducible(L)
    assert not weil.is_perfect_square(norm_at_root(h, 4 * L.q))
    assert not weil.is_perfect_square(weil.discriminant(h))
    transposition = [(1, False), (1, False), (2, False)]
    cycle = [(1, False), (3, False)]
    odd_flip = [(1, True), (1, False), (1, False), (1, False)]
    for witnesses, expected in (([transposition, cycle, flip], ("undetermined", None)),
                                ([transposition, cycle, odd_flip], ("maximal", 2**g * math.factorial(g)))):
        shown = itertools.cycle(witnesses)
        read = []

        def fed(h, q, r):
            read.append(r)
            return next(shown)

        monkeypatch.setattr(weil, "signed_cycle_type", fed)
        assert weil.splitting_class.__wrapped__(L) == expected
        assert len(read) == (weil.WITNESS_PRIMES if expected[1] is None else 3)


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
    """No library module imports sympy, so neither the import nor any
    reader of L loads it: not the symplectic baselines, the genus-3 Galois
    certificate, the exact charpoly distribution, nor the exact
    reducibility test at genus 4, whose resolvent path the even h reaches."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, strataforge.weil, strataforge.symplectic; "
            "from strataforge.curves import LPolynomial; "
            "L = LPolynomial(3, 3, (1, 3, 6, 12, 18, 27, 27)); "
            "assert strataforge.weil.splitting_class(L) == ('maximal', 48); "
            "assert not strataforge.weil.l_reducible("
            "LPolynomial(5, 4, (1, 0, 8, 0, 31, 0, 200, 0, 625))); "
            "dist = strataforge.symplectic.coset_charpoly_distribution(3, 3, 2, mode='exact'); "
            "assert len(dist) == 27 and sum(dist.values()) == 1; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
