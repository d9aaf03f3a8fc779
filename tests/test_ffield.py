import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
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
    FqElement,
    FqPoly,
    enumerate_monic,
    field_new,
    is_square,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow,
    squarefree,
    zp_ddf,
    zp_gcd,
    zp_mulmod,
    zp_powmod,
    zp_rem,
    zp_squarefree,
)


def poly_from_ints(field, ints):
    return FqPoly(field, tuple(c % field.p for c in ints))


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
    """Neither the import nor the modulus search of field_new loads sympy."""
    code = ("import strataforge, sys; strataforge.field_new(3, 2); strataforge.field_new(7, 3); "
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


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=24))
@settings(max_examples=100, deadline=None)
def test_fqelement_operators_match_descriptor(a, b):
    field = field_new(5, 2)
    x, y = FqElement(field, a), FqElement(field, b)
    assert (x + y).value == field.add(a, b)
    assert (x * y).value == field.mul(a, b)
    assert (x - y).value == field.sub(a, b)
    if b:
        assert ((x / y) * y).value == a


@pytest.mark.parametrize("n", [1, 2])
def test_int_on_the_left_is_a_prime_field_constant(n):
    """k + x, k - x, k * x and k / x read the int k as a constant of F_p,
    as x + k does; any other type on the left still raises TypeError."""
    field = field_new(3, n)
    for a in range(field.size):
        x = FqElement(field, a)
        for k in range(-4, 5):
            c = FqElement(field, k % 3)
            assert k + x == c + x and k - x == c - x and k * x == c * x
            if a:
                assert k / x == c / x
        with pytest.raises(TypeError, match="unsupported operand"):
            1.5 * x
        with pytest.raises(TypeError, match="unsupported operand"):
            1.5 - x
    with pytest.raises(ZeroDivisionError):
        2 / FqElement(field, 0)


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
    assert exp[q - 1:2 * (q - 1)] == exp[:q - 1] and not any(exp[2 * (q - 1):])
    assert log[0] == 2 * (q - 1) and all(log[exp[i]] == i for i in range(q - 1))


@pytest.mark.parametrize("bad", [2.0, 1.5, "1", None])
def test_encodings_must_be_integers(bad):
    """Floats and other non-integers are refused where they enter, naming
    the value; numpy integers are accepted and stored as int."""
    field = field_new(3)
    for make in (lambda: FqPoly(field, (bad, 1, 0, 1)), lambda: FqElement(field, bad)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            make()
    with pytest.raises(TypeError, match="unsupported operand"):
        FqElement(field, 1) + bad
    f = FqPoly(field, (np.int64(2), 1, 0, np.int8(1)))
    assert f.coeffs == (2, 1, 0, 1) and all(type(c) is int for c in f.coeffs)
    assert FqElement(field, np.int64(2)) + np.int64(2) == FqElement(field, 1)


# ---------------------------------------------------------------------------
# is_square


def test_is_square_f3_exhaustive():
    field = field_new(3)
    squares = {field.mul(b, b) for b in range(3)}
    assert squares == {0, 1}
    assert is_square(FqElement(field, 0))
    assert is_square(FqElement(field, 1))
    assert not is_square(FqElement(field, 2))


@pytest.mark.parametrize("field", [field_new(3, 2), field_new(5, 2), field_new(7, 1)], ids=repr)
def test_is_square_agrees_with_euler_criterion(field):
    q = field.size
    for a in range(q):
        by_table = is_square(FqElement(field, a))
        by_euler = a == 0 or field.pow(a, (q - 1) // 2) == 1
        assert by_table == by_euler
    assert sum(1 for a in range(1, q) if is_square(FqElement(field, a))) == (q - 1) // 2


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
    assert squarefree(poly_from_ints(f5, [0, -1, 0, 1]))       # x^3 - x
    assert not squarefree(poly_from_ints(f3, [0, 0, 1]))       # x^2
    assert squarefree(poly_from_ints(f3, [1, 0, 1, 1]))        # x^3 + x^2 + 1, f' = 2x


def test_squarefree_matches_resultant_on_all_monic_cubics_over_f3():
    field = field_new(3)
    for f in enumerate_monic(field, 3):
        coeffs = list(f.coeffs)
        deriv = list(f.derivative().coeffs)
        expected = sylvester_resultant_nonzero(field, coeffs, deriv) if deriv else False
        assert squarefree(f) == expected, coeffs


def test_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        squarefree(FqPoly(field_new(3), ()))


# ---------------------------------------------------------------------------
# the Z/r layer and the prime-field fast paths


def random_poly(rng, r, degree):
    return [rng.randrange(r) for _ in range(degree)] + [rng.randrange(1, r)]


@pytest.mark.parametrize("r", [3, 5, 7, 31, 101, 65537])
def test_zp_ddf_counts_match_sympy_factor_degrees(r):
    """Seeded random squarefree polynomials mod r, r past MAX_P included:
    the distinct-degree counts are the degrees of sympy's factorization."""
    rng, checked = random.Random(r), 0
    while checked < 60:
        f = random_poly(rng, r, rng.randrange(1, 10))
        if not gf_sqf_p(f[::-1], r, ZZ):
            continue
        degrees = Counter(len(g) - 1 for g in gf_factor_sqf(f[::-1], r, ZZ)[1])
        assert zp_ddf(f, r) == dict(degrees), (f, r)
        checked += 1


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
    """field_new reads {n: 1} as irreducible, squarefree or not."""
    for f in enumerate_monic(field_new(3), 4):
        coeffs = list(f.coeffs)
        assert (zp_ddf(coeffs, 3) == {4: 1}) == gf_irreducible_p(coeffs[::-1], 3, ZZ), coeffs


@pytest.mark.parametrize("field", [field_new(5), field_new(3, 2)], ids=repr)
def test_poly_divmod_and_gcd_reconstruct(field):
    """The prime-field fast path and the descriptor path both satisfy
    a = quot * b + rem with deg rem < deg b, and the gcd divides both."""
    rng = random.Random(field.size)
    for _ in range(40):
        a = random_poly(rng, field.size, rng.randrange(0, 8))
        b = random_poly(rng, field.size, rng.randrange(0, 5))
        quot, rem = poly_divmod(field, a, b)
        assert len(rem) < len(b)
        prod = poly_mul(field, quot, b) + [0] * len(a)
        rebuilt = [field.add(x, y) for x, y in itertools.zip_longest(prod, rem, fillvalue=0)]
        assert rebuilt[:len(a)] == a and not any(rebuilt[len(a):])
        common = poly_gcd(field, a, b)
        assert common[-1] == 1
        assert not poly_divmod(field, a, common)[1] and not poly_divmod(field, b, common)[1]


# ---------------------------------------------------------------------------
# poly_pow


def test_poly_pow_edge_cases():
    field = field_new(3)
    f = poly_from_ints(field, [1, 1])  # x + 1
    assert poly_pow(f, 0).coeffs == (1,)
    assert poly_pow(f, 1) == f
    assert poly_pow(f, 2).coeffs == (1, 2, 1)


@pytest.mark.parametrize("e", [2, 3, 5])
def test_poly_pow_degree_law(e):
    field = field_new(5)
    f = poly_from_ints(field, [2, 0, 1, 3])
    assert poly_pow(f, e).degree == e * f.degree
    # repeated multiplication oracle
    acc = [1]
    for _ in range(e):
        acc = poly_mul(field, acc, list(f.coeffs))
    assert poly_pow(f, e).coeffs == tuple(acc)


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
