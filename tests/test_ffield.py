import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_factor,
    gf_factor_sqf,
    gf_from_int_poly,
    gf_gcd,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sqf_p,
    gf_strip,
)

from strataforge import ffield
from strataforge.errors import BudgetExceededError
from strataforge.ffield import (
    ENUMERATE_CAP,
    FieldDescriptor,
    FqPoly,
    enumerate_monic,
    field_new,
    norm_at_root,
    poly_mul,
    poly_squarefree,
    poly_trim,
    pow_coeffs,
    reciprocal_trace,
    zp_ddf,
    zp_gcd,
    zp_mulmod,
    zp_powmod,
    zp_reciprocal_blocks,
    zp_rem,
    zp_squarefree,
    zp_squarefree_parts,
)
from strataforge.symplectic import _charpoly_blocks


# ---------------------------------------------------------------------------
# field_new


def brute_least_rootless(p, n):
    """Oracle: enumerate all monic degree-n polynomials in canonical order
    (constant term first, compared lexicographically) and keep the first
    with no root in F_p; for n <= 3 that is the least irreducible one."""
    assert n in (2, 3)
    for c in itertools.product(range(p), repeat=n):
        if all((sum(ci * x**i for i, ci in enumerate(c)) + x**n) % p for x in range(p)):
            return c + (1,)
    raise AssertionError


def test_field_new_prime_field_modulus_is_x():
    assert field_new(3, 1).modulus == (0, 1)


def test_field_new_canonical_quadratic_over_f3():
    oracle = brute_least_rootless(3, 2)
    assert field_new(3, 2).modulus == oracle == (1, 0, 1)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_field_new_canonical_quadratic_matches_oracle(p):
    assert field_new(p, 2).modulus == brute_least_rootless(p, 2)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_field_new_canonical_cubic_matches_oracle(p):
    assert field_new(p, 3).modulus == brute_least_rootless(p, 3)


# canonical moduli as first recorded; serialized elements depend on them
PINNED_MODULI = {
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (3, 13): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (97, 2): (1, 3, 1),
    (97, 3): (1, 0, 1, 1),
}


@pytest.mark.parametrize("p,n", sorted(PINNED_MODULI))
def test_field_new_modulus_is_pinned(p, n):
    assert field_new(p, n).modulus == PINNED_MODULI[(p, n)]


def test_import_does_not_load_sympy():
    """Neither the import, nor the modulus search of field_new, nor the exact
    charpoly distribution (which factors charpolys mod l) loads sympy."""
    code = ("import strataforge, sys; strataforge.field_new(3, 2); strataforge.field_new(7, 3); "
            "from strataforge.symplectic import coset_charpoly_distribution; "
            "assert len(coset_charpoly_distribution(3, 3, 2, mode='exact')) == 27; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'sympy']")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


ODD_PRIMES_TO_97 = [p for p in range(3, 98, 2) if sympy.isprime(p)]


def sympy_least_irreducible(p, n):
    """Oracle: the canonical search of field_new run on sympy's test."""
    for vec in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        coeffs = list(vec) + [1]
        if gf_irreducible_p(coeffs[::-1], p, ZZ):
            return tuple(coeffs)
    raise AssertionError


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_new_moduli_match_sympy_search_for_every_p(n):
    for p in ODD_PRIMES_TO_97:
        assert field_new(p, n).modulus == sympy_least_irreducible(p, n), (p, n)


def test_field_new_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_new(2, 1)
    with pytest.raises(ValueError):
        field_new(9, 1)
    with pytest.raises(ValueError):
        field_new(5, 0)
    with pytest.raises(ValueError):
        field_new(101, 1)


def test_descriptors_are_cached_and_equal():
    assert field_new(3, 2) is field_new(3, 2)
    assert field_new(3, 2) == field_new(3, 2)


# ---------------------------------------------------------------------------
# scalar arithmetic


FIELDS = [field_new(3, 1), field_new(7, 1), field_new(3, 2), field_new(5, 2), field_new(3, 3)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_field_axioms_exhaustive_on_small_samples(field):
    q = field.size
    sample = range(q) if q <= 27 else range(0, q, 3)
    for a, b in itertools.product(sample, repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.sub(field.add(a, b), b) == a
    for a, b, c in itertools.product(list(sample)[:9], repeat=3):
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inverses(field):
    for a in range(1, field.size):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_frobenius_is_additive_and_fixes_elements(field):
    p, q = field.p, field.size
    for a, b in itertools.product(range(q), repeat=2):
        assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))
    for a in range(q):
        assert field.pow(a, q) == a  # x^q = x


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (7, 3), (3, 7)])
def test_exp_walks_the_powers_of_the_least_primitive_element(p, n):
    """exp[1] is the least primitive encoding and exp[i+1] = exp[i] * exp[1],
    with products taken by sympy mod the field's modulus; log inverts exp."""
    field = field_new(p, n)
    q, modulus = field.size, list(field.modulus)[::-1]
    exp, log = (t.tolist() for t in field.exp_log)

    def poly(a):
        return gf_strip(list(field.digits(a))[::-1])

    def times(a, b):
        product = gf_rem(gf_mul(poly(a), poly(b), p, ZZ), modulus, p, ZZ)
        return sum(int(d) * p**i for i, d in enumerate(reversed(product)))

    for i in range(q - 2):
        assert exp[i + 1] == times(exp[i], exp[1]), i
    assert exp[0] == 1 and sorted(exp[:q - 1]) == list(range(1, q))   # exp[1] is primitive
    for c in range(2, exp[1]):
        assert any(gf_pow_mod(poly(c), (q - 1) // r, modulus, p, ZZ) == [1]
                   for r in sympy.primefactors(q - 1)), c
    assert len(exp) == 2 * (q - 1) and exp[q - 1:] == exp[:q - 1]
    assert log[0] == len(exp) and all(log[exp[i]] == i for i in range(q - 1))


@pytest.mark.parametrize("bad", [2.0, 1.5, "1", None])
def test_encodings_must_be_integers(bad):
    """Floats and other non-integers are refused where they enter, naming
    the value; numpy integers are accepted and stored as int."""
    field = field_new(3)
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        FqPoly(field, (bad, 1, 0, 1))
    f = FqPoly(field, (np.int64(2), 1, 0, np.int8(1)))
    assert f.coeffs == (2, 1, 0, 1) and all(type(c) is int for c in f.coeffs)


# ---------------------------------------------------------------------------
# squares: the quadratic character


def test_is_square_f3_exhaustive():
    """chi is 0 at 0, +1 on the squares and -1 on the rest."""
    field = field_new(3)
    squares = {field.mul(b, b) for b in range(3)}
    assert squares == {0, 1}
    assert [field.chi(a) for a in range(3)] == [0, 1, -1]


@pytest.mark.parametrize("field", [field_new(3, 2), field_new(5, 2), field_new(7, 1)], ids=repr)
def test_is_square_agrees_with_euler_criterion(field):
    """chi(a) = a^((q-1)/2) read as +1 or -1, and half the units are squares."""
    q = field.size
    assert field.chi(0) == 0
    for a in range(1, q):
        by_euler = 1 if field.pow(a, (q - 1) // 2) == 1 else -1
        assert field.chi(a) == by_euler, a
    assert sum(1 for a in range(1, q) if field.chi(a) == 1) == (q - 1) // 2


# ---------------------------------------------------------------------------
# squarefree


def sylvester_resultant_nonzero(field, f, g):
    """Oracle: Res(f, g) != 0, via Gaussian elimination on the Sylvester
    matrix built from effective degrees."""
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        return False
    size = df + dg
    if size == 0:
        return True
    rows = []
    for i in range(dg):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    rank = 0
    for col in range(size):
        piv = next((r for r in range(rank, size) if rows[r][col] != 0), None)
        if piv is None:
            return False
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][col]:
                coef = rows[r][col]
                rows[r] = [field.sub(v, field.mul(coef, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return True


def test_squarefree_examples():
    f5, f3 = field_new(5), field_new(3)
    assert poly_squarefree(f5, [0, 4, 0, 1])        # x^3 - x
    assert not poly_squarefree(f3, [0, 0, 1])       # x^2
    assert poly_squarefree(f3, [1, 0, 1, 1])        # x^3 + x^2 + 1, f' = 2x
    for field in (f3, field_new(3, 2)):             # the Z/r path and the Euclid
        # trailing zeros are trimmed: the constants 1 and 2 and x are squarefree
        assert all(poly_squarefree(field, a) for a in ([1, 0], [2], [0, 1, 0]))
        assert not poly_squarefree(field, [0, 0, 1, 0])


@pytest.mark.parametrize("field", [field_new(3), field_new(3, 2)], ids=repr)
def test_squarefree_matches_resultant_on_all_monic_cubics(field):
    """Res(f, f') != 0 by Gaussian elimination on the Sylvester matrix, an
    oracle apart from both the Z/r path (F_3) and the Euclid over F_9."""
    p = field.p
    for f in enumerate_monic(field, 3):
        coeffs = list(f.coeffs)
        deriv = poly_trim([field.mul(c, k % p) for k, c in enumerate(coeffs)][1:])
        expected = sylvester_resultant_nonzero(field, coeffs, deriv) if deriv else False
        assert poly_squarefree(field, coeffs) == expected, coeffs


def test_squarefree_rejects_zero():
    """Every spelling of the zero polynomial, on both paths."""
    for field in (field_new(3), field_new(3, 2)):
        for zero in ([], [0], [0, 0]):
            with pytest.raises(ValueError, match="zero polynomial"):
                poly_squarefree(field, zero)


# ---------------------------------------------------------------------------
# the Z/r layer and the prime-field fast paths


def random_poly(rng, r, degree):
    return [rng.randrange(r) for _ in range(degree)] + [rng.randrange(1, r)]


@pytest.mark.parametrize("r", [3, 5, 7, 31, 101, 65537])
def test_zp_ddf_counts_match_sympy_factor_degrees(r):
    """Seeded random squarefree polynomials mod r, r past MAX_P included:
    the product at each degree, degrees increasing, is the product of
    sympy's irreducible factors of that degree."""
    rng, checked = random.Random(r), 0
    while checked < 60:
        f = random_poly(rng, r, rng.randrange(1, 10))
        if not gf_sqf_p(f[::-1], r, ZZ):
            continue
        expected = {}
        for phi in gf_factor_sqf(f[::-1], r, ZZ)[1]:
            expected[len(phi) - 1] = gf_mul(expected.get(len(phi) - 1, [1]), phi, r, ZZ)
        assert list(zp_ddf(f, r).items()) == [(d, g[::-1]) for d, g in sorted(expected.items())]
        checked += 1


@pytest.mark.parametrize("r", [3, 5, 7, 11])
def test_zp_squarefree_parts_match_sympy_factorization(r):
    """Seeded products of powers of random monic polynomials, exponents up
    to 2r + 1, so that multiplicities reach r and its multiples: the part of
    multiplicity k is the product of sympy's irreducible factors of
    multiplicity k, and zp_quo divides the product back."""
    rng = random.Random(r)
    for _ in range(40):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            base = [rng.randrange(r) for _ in range(rng.randrange(1, 4))] + [1]
            for _ in range(rng.choice([1, 2, r - 1, r, r + 1, 2 * r, 2 * r + 1])):
                f = gf_mul(f, base[::-1], r, ZZ)
        expected = {}
        for phi, k in gf_factor(f, r, ZZ)[1]:
            expected[k] = gf_mul(expected.get(k, [1]), phi, r, ZZ)
        f = f[::-1]
        parts = ffield.zp_squarefree_parts(f, r)
        assert parts == {k: p[::-1] for k, p in expected.items()}, (f, r)
        for part in parts.values():
            assert gf_mul(ffield.zp_quo(f, part, r)[::-1], part[::-1], r, ZZ) == f[::-1]


@pytest.mark.parametrize("r", [3, 13, 101])
def test_zp_arithmetic_matches_sympy(r):
    rng = random.Random(r)
    for _ in range(50):
        a, b = random_poly(rng, r, rng.randrange(0, 9)), random_poly(rng, r, rng.randrange(0, 6))
        f, e = random_poly(rng, r, rng.randrange(1, 7)), rng.randrange(0, 3 * r)
        assert zp_rem(a, b, r)[::-1] == gf_rem(a[::-1], b[::-1], r, ZZ)
        assert zp_gcd(a, b, r)[::-1] == gf_gcd(a[::-1], b[::-1], r, ZZ)
        assert zp_mulmod(a, b, f, r)[::-1] == gf_rem(gf_mul(a[::-1], b[::-1], r, ZZ),
                                                     f[::-1], r, ZZ)
        assert zp_powmod(a, e, f, r)[::-1] == gf_pow_mod(a[::-1], e, f[::-1], r, ZZ)
        # a and a * b^2, shifted by multiples of r, some of them negative
        for c in (a, gf_mul(gf_mul(a[::-1], b[::-1], r, ZZ), b[::-1], r, ZZ)[::-1]):
            raw = [x + r * rng.randrange(-3, 3) for x in c]
            assert zp_squarefree(raw, r) == gf_sqf_p(gf_from_int_poly(raw[::-1], r), r, ZZ)


def test_zp_ddf_decides_irreducibility_of_any_polynomial():
    """field_new reads the single key n as irreducible, squarefree or not;
    the products multiply back to f, so a repeated factor such as (x - a)^2
    is not lost to a later key."""
    for n in (2, 3, 4, 5):
        for f in enumerate_monic(field_new(3), n):
            coeffs, parts = list(f.coeffs), zp_ddf(list(f.coeffs), 3)
            assert (list(parts) == [n]) == gf_irreducible_p(coeffs[::-1], 3, ZZ), coeffs
            product = [1]
            for part in parts.values():
                product = gf_mul(product, part[::-1], 3, ZZ)
            assert product == coeffs[::-1], coeffs


def reference_reciprocal_blocks(s, r, m):
    """Oracle for ``zp_reciprocal_blocks`` and ``_charpoly_blocks``: a
    squarefree m-reciprocal s read at its full degree.  In the product g_D of the factors of degree D of s, the factors of T^2 - m
    are "sp"; x -> m/x fixes a self-dual phi of degree D = 2k and commutes
    with Frobenius, so it is x -> x^(r^k) on the roots of phi, and the "u"
    factors are gcd(g_D, x x^(r^k) - m); the rest pair up as "gl"."""
    blocks = []
    for D, g in zp_ddf(s, r).items():
        n = (len(g) - 1) // D
        sp = (len(zp_gcd(g, [-m % r, 0, 1], r)) - 1) // D
        u = 0
        if D % 2 == 0:
            x_times_frob = [-m % r, *zp_powmod([0, 1], r ** (D // 2), g, r)]
            u = (len(zp_gcd(g, poly_trim(x_times_frob), r)) - 1) // D
        blocks += [("sp", D)] * sp + [("u", D // 2)] * u + [("gl", D)] * ((n - sp - u) // 2)
    return sorted(blocks)


def from_trace(h, m, r):
    """s(T) = T^n h(T + m/T) over Z/r, constant term first."""
    n, s = len(h) - 1, [0] * (2 * len(h) - 1)
    for j, c in enumerate(h):
        for i in range(j + 1):
            s[n - j + 2 * i] += c * math.comb(j, i) * m ** (j - i)
    return [c % r for c in s]


def test_reciprocal_blocks_match_the_full_degree_reading_on_frobenius(census_Ls, sampled_Ls):
    """The trace polynomial h of P = T^2g L(1/T), read at m = q mod r at
    every good prime r < 100 for every census and sampled L, against P
    itself read at its full degree."""
    compared = 0
    for L in [L for Ls in (*census_Ls.values(), *sampled_Ls.values()) for L in Ls]:
        P = list(reversed(L.coeffs))
        h, _ = reciprocal_trace(P, L.q)
        for r in range(3, 100):
            if ffield.is_prime(r) and L.q % r and zp_squarefree(P, r):
                m = L.q % r
                blocks = sorted(zp_reciprocal_blocks(h, r, m))
                assert blocks == reference_reciprocal_blocks(P, r, m), (L, r)
                compared += 1
    assert compared > 15_000


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_reciprocal_blocks_match_the_full_degree_reading_on_charpolys(g):
    """``symplectic._charpoly_blocks`` on every m-reciprocal monic chi of
    degree 2g over Z/l, l <= 7, every unit m, against each squarefree part
    of chi read at its full degree: the "sp" factors of T^2 - m included."""
    kinds = set()
    for l in (3, 5, 7):
        for m in range(1, l):
            for top in itertools.product(range(l), repeat=g):
                chi = [0] * g + [*top, 1]
                for j in range(g):
                    chi[j] = chi[2 * g - j] * pow(m, g - j, l) % l
                blocks = _charpoly_blocks(chi, l, m)
                expected = [(kind, d, k) for k, s in zp_squarefree_parts(chi, l).items()
                            for kind, d in reference_reciprocal_blocks(s, l, m)]
                assert sorted(blocks) == sorted(expected), (chi, l, m)
                kinds.update(kind for kind, _, _ in blocks)
    assert kinds == {"sp", "u", "gl"}


def test_reciprocal_blocks_match_the_full_degree_reading_on_every_small_h():
    """Every monic squarefree h of degree 1 to 4 over F_3, F_5 and F_7, and
    every unit m with r not dividing N(h) = h(2 sqrt m) h(-2 sqrt m): the
    reader's precondition, under which s = T^n h(T + m/T) is squarefree."""
    compared = 0
    for r in (3, 5, 7):
        for n in (1, 2, 3, 4):
            for f in enumerate_monic(field_new(r), n, squarefree_only=True):
                h = list(f.coeffs)
                for m in range(1, r):
                    if norm_at_root(h, 4 * m) % r:
                        s = from_trace(h, m, r)
                        assert zp_squarefree(s, r), (h, m)
                        blocks = sorted(zp_reciprocal_blocks(h, r, m))
                        assert blocks == reference_reciprocal_blocks(s, r, m), (h, r, m)
                        compared += 1
    assert compared > 10_000


def test_reciprocal_blocks_split_a_shared_degree_by_square_class():
    """Several factors of h share a degree, so the square classes of
    b^2 - 4m over F_(r^k) come from one gcd: at k = 1 the roots b = 0, 1, 2, 3
    of h over F_7 (m = 3, b^2 - 12 a square at b = 0, 3), at k = 2 two
    irreducible quadratic factors of h of either class."""
    r, m = 7, 3
    linear = [0, -6, 11, -6, 1]                         # h = T (T - 1) (T - 2) (T - 3)
    assert sorted(zp_reciprocal_blocks(linear, r, m)) == [("gl", 1)] * 2 + [("u", 1)] * 2
    quadratics = {}
    for c0, c1 in itertools.product(range(r), repeat=2):
        if list(zp_ddf([c0, c1, 1], r)) == [2] and zp_squarefree(from_trace([c0, c1, 1], m, r), r):
            kind = reference_reciprocal_blocks(from_trace([c0, c1, 1], m, r), r, m)[0][0]
            quadratics.setdefault(kind, [c0, c1, 1])
    assert set(quadratics) == {"u", "gl"}
    h = gf_mul(gf_mul([c % r for c in linear[::-1]], quadratics["u"][::-1], r, ZZ),
               quadratics["gl"][::-1], r, ZZ)[::-1]
    s = from_trace(h, m, r)
    assert len(s) == 17 and zp_squarefree(s, r)
    blocks = zp_reciprocal_blocks(h, r, m)
    assert sorted(blocks) == reference_reciprocal_blocks(s, r, m)
    assert sorted(blocks) == [("gl", 1)] * 2 + [("gl", 2)] + [("u", 1)] * 2 + [("u", 2)]


# ---------------------------------------------------------------------------
# polynomial powers: pow_coeffs


def test_poly_pow_edge_cases():
    """pow_coeffs forms no product at e = 1 and refuses e < 1."""
    field = field_new(3)
    f = [1, 1]  # x + 1
    assert pow_coeffs(field, f, 1, poly_mul) == f
    assert pow_coeffs(field, f, 2, poly_mul) == [1, 2, 1]
    for e in (0, -1):
        with pytest.raises(ValueError, match="exponent"):
            pow_coeffs(field, f, e, poly_mul)


@pytest.mark.parametrize("e", [1, 2, 3, 5])
def test_poly_pow_degree_law(e):
    """pow_coeffs(f, e) is e - 1 repeated products by f, of degree e deg f,
    over F_5 and over F_9."""
    f = [2, 0, 1, 3]
    for field in (field_new(5), field_new(3, 2)):
        acc = [1]
        for _ in range(e):
            acc = poly_mul(field, acc, f)
        power = pow_coeffs(field, f, e, poly_mul)
        assert power == acc and len(power) - 1 == e * (len(f) - 1), field


def test_zero_poly_degree_sentinel():
    z = FqPoly(field_new(3), ())
    assert z.degree == float("-inf")
    assert z.degree < 0


# ---------------------------------------------------------------------------
# enumerate_monic


def test_enumerate_monic_degree1_over_f3():
    field = field_new(3)
    polys = list(enumerate_monic(field, 1))
    assert [p.coeffs for p in polys] == [(0, 1), (1, 1), (2, 1)]


def test_enumerate_monic_counts():
    field = field_new(3)
    assert sum(1 for _ in enumerate_monic(field, 5)) == 243
    assert sum(1 for _ in enumerate_monic(field, 5, squarefree_only=True)) == 162


@pytest.mark.parametrize("field,d", [(field_new(3), 2), (field_new(5), 2), (field_new(3, 2), 2)],
                         ids=["f3d2", "f5d2", "f9d2"])
def test_enumerate_monic_squarefree_cardinality(field, d):
    q = field.size
    count = sum(1 for _ in enumerate_monic(field, d, squarefree_only=True))
    assert count == q**d - q ** (d - 1)


def test_enumerate_monic_refuses_families_over_the_budget(monkeypatch):
    with pytest.raises(BudgetExceededError, match=r"97\^9 .* degree 9 over GF\(97\)"):
        enumerate_monic(field_new(97), 9)   # raised by the call, before any item
    assert 9**7 <= ENUMERATE_CAP < 11**7    # F_9 at degree 7 fits, F_11 does not
    monkeypatch.setattr(ffield, "ENUMERATE_CAP", 9)
    with pytest.raises(BudgetExceededError, match=r"over GF\(3\^2\)"):
        enumerate_monic(field_new(3, 2), 2)
    assert sum(1 for _ in enumerate_monic(field_new(3), 2)) == 9


def test_enumerate_monic_is_deterministic_and_duplicate_free():
    field = field_new(5)
    first = [p.coeffs for p in enumerate_monic(field, 2)]
    second = [p.coeffs for p in enumerate_monic(field, 2)]
    assert first == second
    assert len(set(first)) == len(first) == 25
    # constant term varies fastest
    assert first[0] == (0, 0, 1) and first[1] == (1, 0, 1)


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_preserves_arithmetic():
    base, ext = field_new(3, 1), field_new(3, 2)
    emb = base.embedding_into(ext)
    for a, b in itertools.product(range(3), repeat=2):
        assert emb[base.add(a, b)] == ext.add(emb[a], emb[b])
        assert emb[base.mul(a, b)] == ext.mul(emb[a], emb[b])


def test_embedding_of_extension_field():
    base, ext = field_new(3, 2), field_new(3, 4)
    emb = base.embedding_into(ext)
    assert len(set(int(v) for v in emb)) == 9  # injective
    for a, b in itertools.product(range(9), repeat=2):
        assert emb[base.add(a, b)] == ext.add(int(emb[a]), int(emb[b]))
        assert emb[base.mul(a, b)] == ext.mul(int(emb[a]), int(emb[b]))


def _full_scan_embedding(base, ext):
    """The embedding by its definition: the least root of base's modulus
    over all of ext, and each element's digits evaluated at that root."""
    def evaluate(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    root = next(x for x in range(ext.size) if evaluate(base.modulus, x) == 0)
    return [evaluate(base.digits(a), root) for a in range(base.size)]


@pytest.mark.parametrize("p,n,m", [(3, 2, 4), (3, 2, 6), (5, 2, 4), (3, 3, 6),
                                   (3, 2, 2), (5, 2, 2), (3, 3, 3)])
def test_embedding_equals_the_full_root_scan(p, n, m):
    base, ext = field_new(p, n), field_new(p, m)
    assert base.embedding_into(ext).tolist() == _full_scan_embedding(base, ext)


def test_embedding_is_cached_per_model_of_the_extension():
    base, canonical = field_new(3, 2), field_new(3, 4)
    other = FieldDescriptor(3, 4, (1, 0, 1, 2, 1))  # x^4 + 2x^3 + x^2 + 1
    assert other != canonical
    first = base.embedding_into(canonical)
    emb = base.embedding_into(other)
    assert emb is not first
    assert emb.tolist() == _full_scan_embedding(base, other)
    for a, b in itertools.product(range(9), repeat=2):
        assert emb[base.mul(a, b)] == other.mul(int(emb[a]), int(emb[b]))
    assert base.embedding_into(FieldDescriptor(3, 4, (1, 0, 1, 2, 1))) is emb
