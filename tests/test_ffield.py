import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
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
    monic_codes,
    norm_at_root,
    poly_mul,
    poly_mul_rows,
    poly_squarefree,
    poly_trim,
    reciprocal_trace,
    squarefree_mask,
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


def test_field_new_rejects_bad_parameters(monkeypatch):
    with pytest.raises(ValueError):
        field_new(2, 1)
    with pytest.raises(ValueError):
        field_new(9, 1)
    with pytest.raises(ValueError):
        field_new(5, 0)
    with pytest.raises(ValueError):
        field_new(101, 1)
    field_new(5), field_new(3, 2)       # a built field does not admit a float spelling
    for p, n in ((5, 1.0), (3, 2.0), (5.0, 1), (5, "1"), (np.int64(5), 1)):
        with pytest.raises(ValueError, match=re.escape(f"p = {p!r}, n = {n!r}")):
            field_new(p, n)

    def no_primality_test(n):
        raise AssertionError("is_prime ran before the MAX_P check")
    monkeypatch.setattr(ffield, "is_prime", no_primality_test)
    with pytest.raises(ValueError, match=f"p={10**14 + 31} exceeds the supported cap"):
        field_new(10**14 + 31)


def test_field_new_makes_one_descriptor_per_field(monkeypatch):
    """However the call is spelt, a field has one descriptor, so a mask held
    under one spelling answers ``poly_squarefree`` under another."""
    assert field_new(5) is field_new(5, 1) is field_new(p=5, n=1) is field_new(5, n=1)
    assert field_new(7, 2) is field_new(p=7, n=2)
    mask = squarefree_mask(field_new(3), 7)

    def no_gcd(*args):
        raise AssertionError("the gcd route ran on a model the held mask covers")
    monkeypatch.setattr(ffield, "_gcd_squarefree", no_gcd)
    for index in (0, 1, 100, 2186):
        model = [index // 3**i % 3 for i in range(7)] + [1]
        assert poly_squarefree(field_new(3, 1), model) == bool(mask[index])
        assert poly_squarefree(field_new(p=3, n=1), model) == bool(mask[index])


@pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051,
                               318_665_857_834_031_151_167_461, 2**61 - 1, 2**64 - 59])
def test_is_prime_on_strong_pseudoprimes_and_large_primes(n):
    """The three strong pseudoprimes fool the Miller-Rabin bases up to 7, 23
    and 37; the 13 bases up to 41 are not fooled."""
    assert ffield.is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_and_refuses_what_it_cannot_decide():
    assert [n for n in range(200_001) if ffield.is_prime(n)] == \
        [n for n in range(200_001) if sympy.isprime(n)]
    assert ffield.is_prime(np.int64(97)) and not ffield.is_prime(-7)
    for x in (2.5, 3.0, "7", None, Fraction(7)):
        assert ffield.is_prime(x) is False, x
    # the least strong pseudoprime to all 13 bases is the bound itself
    bound = 3_317_044_064_679_887_385_961_981
    assert not sympy.isprime(bound) and min(sympy.factorint(bound)) > 41
    for n in (bound, 2**89 - 1):
        with pytest.raises(ValueError, match=f"got {n}$"):
            ffield.is_prime(n)
    assert ffield.is_prime(bound - 2) == sympy.isprime(bound - 2)


def test_field_new_refuses_fields_past_its_int32_tables():
    """The exp and log tables index up to 2(q-1) in int32, so fields of more
    than 2^30 elements are refused before the modulus search; the largest
    power of 3 under the limit is admitted, and no table is built."""
    for p, n in ((3, 19), (5, 13), (97, 5)):
        with pytest.raises(ValueError, match=re.escape(f"F_{p}^{n} has more than 2^30 elements")):
            field_new(p, n)
    assert field_new(3, 18)._exp is None


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
        assert field.pow(a, -1) == field.inv(a)
        assert field.pow(a, -3) == field.inv(field.pow(a, 3))
    for zero_power in (lambda: field.inv(0), lambda: field.pow(0, -1)):
        with pytest.raises(ZeroDivisionError, match="inverse of 0"):
            zero_power()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_frobenius_is_additive_and_fixes_elements(field):
    p, q = field.p, field.size
    for a, b in itertools.product(range(q), repeat=2):
        assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))
    for a in range(q):
        assert field.pow(a, q) == a  # x^q = x


# the fields of the whole-matrix kernels' tests, here and in test_prank.py
KERNEL_FIELDS = FIELDS + [field_new(97)]


def scalar_mat_mul(field, a, b, cols):
    """Schoolbook product of an r x m and an m x ``cols`` matrix on the
    descriptor's scalar add and mul."""
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            acc = 0
            for v, brow in zip(row, b):
                acc = field.add(acc, field.mul(v, brow[j]))
            out[-1].append(acc)
    return out


def seeded_matrices(field, rng):
    """(matrix, number of columns) for every shape of 0 to 5 rows and 0 to
    5 columns: zero, and four products through each k = 1 .. min(rows,
    cols) inner columns (rank at most k), about half their factors'
    entries zero."""
    q = field.size
    for r, c in itertools.product(range(6), repeat=2):
        yield [[0] * c for _ in range(r)], c
        for k in [k for k in range(1, min(r, c) + 1) for _ in range(4)]:
            left, right = ([[rng.choice([0, rng.randrange(q)]) for _ in range(w)] for _ in range(h)]
                           for h, w in ((r, k), (k, c)))
            yield scalar_mat_mul(field, left, right, c), c


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_row_ops_match_the_scalar_loops(field):
    """The whole-matrix kernels against loops of scalar ops, on the seeded
    matrices above and their products.  ``mat_mul`` equals the schoolbook
    product, non-square and empty ones included.  ``echelon`` returns
    nonzero rows of codes whose leading entries move strictly right, row by
    row, and every input row reduces to zero against them, so they span
    its row space (``tests/test_prank.py`` checks their number against a
    scalar elimination).  Neither kernel changes its input.  frobenius is
    a^p, the identity on F_p."""
    q, rng = field.size, random.Random(field.size)
    for m, cols in seeded_matrices(field, rng):
        frozen = [list(r) for r in m]
        for k in range(1, 4):      # m on either side; rows of codes carry no width at 0 rows
            right = [[rng.randrange(q) for _ in range(k)] for _ in range(cols)]
            left = [[rng.randrange(q) for _ in m] for _ in range(k)]
            if cols:
                assert field.mat_mul(m, right) == scalar_mat_mul(field, m, right, k)
            if m:
                assert field.mat_mul(left, m) == scalar_mat_mul(field, left, m, cols)
        basis = field.echelon(m)
        leads = [next(j for j, v in enumerate(r) if v) for r in basis]
        assert leads == sorted(set(leads)) and all(0 <= v < q for r in basis for v in r)
        for row in m:
            for lead, b in zip(leads, basis):
                c = field.mul(row[lead], field.inv(b[lead]))
                row = [field.sub(v, field.mul(c, w)) for v, w in zip(row, b)]
            assert not any(row), (m, basis)
        assert m == frozen and field.echelon(tuple(map(tuple, m))) == basis
    assert field.mat_mul([], [[1, 2]]) == [] and field.echelon([]) == []
    assert [field.frobenius(a) for a in range(q)] == [field.pow(a, field.p) for a in range(q)]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (7, 3), (3, 7),
                                 (5, 1), (17, 1), (37, 1), (7, 4)])
def test_exp_walks_the_powers_of_the_least_primitive_element(p, n):
    """exp[1] is the least primitive encoding and exp[i+1] = exp[i] * exp[1],
    with products taken by sympy mod the field's modulus; log inverts exp.
    On F_5, F_17 and F_37, q - 1 = s^2, so b = s + 1 and the last block
    holds one power; F_7^4 is the largest field the bench builds."""
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
    for field in (f3, field_new(3, 2)):             # inline on F_p, scalar ops on F_9
        # trailing zeros are trimmed: the constants 1 and 2 and x are squarefree
        assert all(poly_squarefree(field, a) for a in ([1, 0], [2], [0, 1, 0]))
        assert not poly_squarefree(field, [0, 0, 1, 0])


@pytest.mark.parametrize("field", [field_new(3), field_new(3, 2)], ids=repr)
def test_squarefree_matches_resultant_on_all_monic_cubics(field):
    """Res(f, f') != 0 by Gaussian elimination on the Sylvester matrix, an
    oracle apart from the Euclid of the gcd route, on F_3 and on F_9."""
    p = field.p
    for f in enumerate_monic(field, 3):
        coeffs = list(f.coeffs)
        deriv = poly_trim([field.mul(c, k % p) for k, c in enumerate(coeffs)][1:])
        expected = sylvester_resultant_nonzero(field, coeffs, deriv) if deriv else False
        assert poly_squarefree(field, coeffs) == expected, coeffs


@pytest.mark.parametrize("p,length", [(3, 7), (5, 7), (7, 5)])
def test_gcd_route_matches_zp_squarefree_on_every_small_polynomial(p, length):
    """``_gcd_squarefree`` against sympy's ``gf_sqf_p`` on every coefficient
    list of the given length over F_p but the zero one: every polynomial of
    degree <= 6 over F_3 and F_5 and <= 4 over F_7, monic or not, trailing
    zeros included.  5,000 seeded lists of length 7 over F_7 rather than all
    823,543, the same lists with entries moved by multiples of p, which the
    F_p route takes mod p, and the seeded lists with shifted entries over
    F_3 and F_5 too."""
    field, rng = field_new(p), random.Random(p)

    def oracle(coeffs):
        return gf_sqf_p(gf_from_int_poly(list(coeffs)[::-1], p), p, ZZ)
    for coeffs in itertools.islice(itertools.product(range(p), repeat=length), 1, None):
        assert ffield._gcd_squarefree(field, coeffs) == oracle(coeffs), coeffs
    for _ in range(5_000 if p == 7 else 1_000):
        coeffs = [rng.randrange(p) for _ in range(7)]
        shifted = [c + p * rng.randrange(-2, 3) for c in coeffs]
        if any(coeffs):
            assert ffield._gcd_squarefree(field, coeffs) == oracle(coeffs) \
                == ffield._gcd_squarefree(field, shifted), coeffs


@pytest.mark.parametrize("n", [2, 3])
def test_gcd_route_matches_the_sieve_over_f25_and_f27(n):
    """``_gcd_squarefree`` against ``squarefree_mask`` over F_25 and F_27:
    every monic model of degree 2 and 3, and at degree 4 (about 20 s in
    full) 2,000 seeded models the sieve leaves out and 2,000 it keeps.
    Every other model goes in times a seeded unit, which keeps its answer,
    and with a trailing zero."""
    field = field_new(5 if n == 2 else 3, n)
    q = field.size
    rng = random.Random(q)
    for d in (2, 3, 4):
        mask = squarefree_mask(field, d)
        index = np.arange(q**d)
        if d == 4:
            index = np.concatenate([rng.sample(np.flatnonzero(m).tolist(), 2_000)
                                    for m in (~mask, mask)])
        for i, (model, expected) in enumerate(zip(monic_codes(q, d, index).tolist(),
                                                  mask[index].tolist())):
            if i % 2:
                unit = rng.randrange(1, q)
                model = [field.mul(unit, c) for c in model] + [0]
            assert ffield._gcd_squarefree(field, model) is expected, model


def test_squarefree_refuses_codes_outside_the_field_over_f9(empty_verdict_memo):
    """On F_{p^n} a code outside [0, q) raises ``poly_codes``'s ValueError,
    naming the first such code, before the held mask or the verdict memo is
    read: -1 is no code of F_9, where -1 is the code 2.  On F_p the entries
    are read mod p, so [-1, 0, 1] is x^2 - 1 over F_3."""
    f9 = field_new(3, 2)
    squarefree_mask(f9, 2)                         # held: covers the monic quadratics
    for a, bad in (([9, 1], 9), ([-1, 0, 1], -1), ([10, 0, 1], 10), ([1, 9, 10, 1], 9)):
        with pytest.raises(ValueError, match=rf"encoding {bad} out of range for GF\(3\^2\)"):
            poly_squarefree(f9, a)
    assert empty_verdict_memo.cache_info() == (0, 0, ffield.L_CACHE_SIZE, 0)
    assert poly_squarefree(field_new(3), [-1, 0, 1])


def test_squarefree_rejects_zero():
    """Every spelling of the zero polynomial, on F_3 and F_9; on F_3 the
    entries are taken mod 3, so [3] and [0, -3] spell it too."""
    for field in (field_new(3), field_new(3, 2)):
        for zero in ([], [0], [0, 0]) + (([3], [0, -3]) if field.n == 1 else ()):
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


@pytest.mark.parametrize("r", [3, 7, 97, 101, 211])
def test_zp_mulmod_and_powmod_match_sympy_on_non_monic_moduli(r):
    """Moduli of degree 1 to 8 whose leading coefficient is not 1, operands
    up to twice their degree with entries shifted by multiples of r (some
    negative), exponents up to r^3; r past MAX_P included."""
    rng = random.Random(r)
    for degree in range(1, 9):
        for _ in range(12):
            f = [rng.randrange(r) for _ in range(degree)] + [rng.randrange(2, r)]
            a, b = (random_poly(rng, r, rng.randrange(0, 2 * degree + 1)) for _ in "ab")
            raw_a, raw_b = ([x + r * rng.randrange(-2, 3) for x in c] for c in (a, b))
            expected = gf_rem(gf_mul(a[::-1], b[::-1], r, ZZ), f[::-1], r, ZZ)
            assert zp_mulmod(raw_a, raw_b, f, r)[::-1] == expected, (a, b, f)
            for e in (0, 1, rng.randrange(2, 3 * r), rng.randrange(r**3)):
                assert zp_powmod(raw_a, e, f, r)[::-1] == gf_pow_mod(a[::-1], e, f[::-1], r, ZZ)


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


def test_zero_poly_degree_sentinel():
    z = FqPoly(field_new(3), ())
    assert z.degree == float("-inf")
    assert z.degree < 0


# ---------------------------------------------------------------------------
# poly_mul: one packed-integer product (Kronecker substitution)

PACKED_FIELDS = [field_new(p, n) for p, n in
                 ((3, 1), (5, 1), (7, 1), (97, 1), (3, 2), (5, 2), (3, 3), (7, 2))]


def scalar_poly_mul(field, a, b):
    """Schoolbook product on the descriptor's scalar add and mul: the
    oracle for ``poly_mul`` on every field."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return poly_trim(out)


def scalar_product(field, factors):
    return poly_trim(list(functools.reduce(lambda a, b: scalar_poly_mul(field, a, b), factors)))


def exponents_around(product, rng=None):
    """An ``at`` for ``poly_mul``: every exponent of the product, exponents
    below 0 and past the degree, and repeats (shuffled by rng if given)."""
    top = len(product)
    at = [-3, -1, *range(top + 3), 0, top - 1, top + 7, -1]
    if rng:
        rng.shuffle(at)
    return at


def read_at(product, at):
    """The oracle's answer to ``at``: its coefficients there, 0 off it."""
    return [product[m] if 0 <= m < len(product) else 0 for m in at]


def assert_poly_mul(field, factors, rng=None):
    """``poly_mul`` on the factors, whole and at the exponents of
    ``exponents_around``, against the scalar double loop."""
    expected = scalar_product(field, factors)
    assert poly_mul(field, *factors) == expected, factors
    at = exponents_around(expected, rng)
    got = poly_mul(field, *factors, at=at)
    assert got == read_at(expected, at) and all(type(c) is int for c in got), (factors, at)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
def test_poly_mul_matches_the_scalar_double_loop(field, monkeypatch):
    """1 to 6 factors of length 0 to 12, some with trailing zeros, some
    passed more than once; every product also read at ``at``."""
    rng, q = random.Random(field.size), field.size
    for trial in range(150):
        factors = []
        for _ in range(rng.randint(1, 6)):
            f = [rng.randrange(q) for _ in range(rng.randint(0, 12))]
            if f and trial % 3 == 0:
                zeros = rng.randint(1, len(f))
                f[len(f) - zeros:] = [0] * zeros
            factors.append(f if trial % 4 or not factors else rng.choice(factors))
        assert_poly_mul(field, factors, rng)
    # k copies of one list object are checked and packed once and raised
    # by one power
    f, checked, packed = [rng.randrange(q) for _ in range(8)], [], []
    codes, pack = ffield.poly_codes, ffield._packed
    monkeypatch.setattr(ffield, "poly_codes", lambda *a: checked.append(a) or codes(*a))
    monkeypatch.setattr(ffield, "_packed", lambda *a: packed.append(a) or pack(*a))
    for k in (2, 4):
        checked.clear(), packed.clear()
        assert poly_mul(field, *[f] * k, at=[3, 40, -1]) == read_at(scalar_product(field, [f] * k),
                                                                   [3, 40, -1])
        assert (len(checked), len(packed)) == (1, 1)
    checked.clear(), packed.clear()
    assert poly_mul(field, f, at=[7, 8]) == [f[7], 0]        # one factor: read off its codes
    assert (len(checked), len(packed)) == (1, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PACKED_FIELDS).flatmap(lambda field: st.tuples(
    st.just(field),
    st.lists(st.lists(st.integers(0, field.size - 1), max_size=12), min_size=1, max_size=6),
    st.lists(st.integers(-5, 80), max_size=20))))
def test_poly_mul_property_matches_the_scalar_double_loop(case):
    field, factors, at = case
    expected = scalar_product(field, factors)
    assert poly_mul(field, *factors) == expected
    assert poly_mul(field, *factors, at=at) == read_at(expected, at)
    assert poly_mul(field, *[factors[0]] * len(factors), at=at) == \
        read_at(scalar_product(field, [factors[0]] * len(factors)), at)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
def test_poly_mul_slot_width_worst_case(field):
    """Every digit p - 1 (the code q - 1): at two factors the middle
    coefficient over Z reaches the slot bound (p - 1)^2 n min len exactly,
    so a slot one bit narrower carries into the next.  The longest factor
    first or last, and k copies of one object, whole and at ``at``."""
    top = field.size - 1
    for lens in ((12, 12), (5, 12), (12, 5), (1, 7), (8, 8, 8), (3, 6, 9, 12), (12,) * 6):
        assert_poly_mul(field, [[top] * m for m in lens])
        f = [top] * lens[-1]
        assert_poly_mul(field, [f] * len(lens))


def test_poly_mul_slot_width_at_48_factors_over_f97():
    """48 factors of length 8 at p = 97 (slots of 458 bits): the width
    holds at a large k, with every digit 96 and with sparse digits, one
    object 48 times or 48 objects, whole and at ``at``."""
    field = field_new(97)
    rng = random.Random(97)
    for factors in ([[96] * 8] * 48, [[96] * 8 for _ in range(48)],
                    [[rng.choice((0, 95, 96)) for _ in range(8)] for _ in range(48)]):
        assert_poly_mul(field, factors, rng)


def test_poly_mul_edge_cases():
    field = field_new(3, 2)
    assert poly_mul(field, [0, 4, 0, 0]) == [0, 4]
    assert poly_mul(field, [0, 4, 0, 0], at=[-1, 0, 1, 2, 3, 9, 1]) == [0, 0, 4, 0, 0, 0, 4]
    assert poly_mul(field, [], [1, 2]) == poly_mul(field, [0, 0], [1, 2]) == []
    zero = []
    for factors in ([zero], [zero, zero], [[], [1, 2]], [[1, 2], []], [[0, 0], [1, 2]],
                    [[1, 2], [1, 2], []]):
        assert poly_mul(field, *factors) == []
        assert poly_mul(field, *factors, at=[-1, 0, 1, 5]) == [0, 0, 0, 0], factors
    assert poly_mul(field, [1, 2], [3], at=[]) == []
    a = np.array([3, 1], dtype=np.int16)
    assert poly_mul(field, (1, 2), a) == scalar_poly_mul(field, [1, 2], [3, 1])
    for factors in ([(1, 2), a], [a, a, a], [a]):
        expected = scalar_product(field, [list(map(int, f)) for f in factors])
        got = poly_mul(field, *factors, at=[2, 0, -1, 1, 9])
        assert got == read_at(expected, [2, 0, -1, 1, 9]) and all(type(c) is int for c in got)
    with pytest.raises(ValueError, match="at least one factor"):
        poly_mul(field)
    with pytest.raises(ValueError, match="at least one factor"):
        poly_mul(field, at=[0])


@pytest.mark.parametrize("field", [field_new(3), field_new(5), field_new(3, 2), field_new(5, 2)],
                         ids=repr)
def test_poly_mul_refuses_codes_outside_the_field(field):
    """Codes index the field's tables, where -1 would read the last entry
    and q would read past the end: both are refused by name, also when the
    product is 0, when one object is passed k times, when there is one
    factor, and when ``at`` asks for no coefficient the bad code touches."""
    q = field.size
    for bad in (-1, q, q + 1):
        with pytest.raises(ValueError, match=rf"encoding {bad} out of range for {re.escape(repr(field))}"):
            poly_mul(field, [1, 1], [bad])
        with pytest.raises(ValueError, match=rf"encoding {bad} "):
            poly_mul(field, [], [1, bad, 1])         # refused even when the product is 0
        f = [1, 0, 0, 0, bad]
        for factors in ([[1, 1], [bad]], [[], [1, bad, 1]], [f], [f, f, f], [[1], f, [1]]):
            with pytest.raises(ValueError, match=rf"encoding {bad} "):
                poly_mul(field, *factors, at=[0])


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
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            enumerate_monic(field_new(3), degree)
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
# tables, batched products and the squarefree sieve


# F_243 has more than 2^15 code pairs, so its tables read int32 indices
@pytest.mark.parametrize("field", FIELDS + [field_new(3, 5)], ids=repr)
def test_tables_match_the_scalar_ops(field):
    t, q = field.tables, field.size
    a, b = (x.tolist() for x in np.divmod(np.arange(q * q), q))
    assert t.add(np.array(a), np.array(b)).tolist() == list(map(field.add, a, b))
    assert t.mul(np.array(a), np.array(b)).tolist() == list(map(field.mul, a, b))
    assert t.neg.tolist() == [field.neg(x) for x in range(q)]
    assert t.inv.tolist() == [0] + [field.inv(x) for x in range(1, q)]
    assert t.frob.tolist() == [field.frobenius(x) for x in range(q)]
    assert {x.dtype for x in t[1:]} == {np.dtype(np.int16)} and field.tables is t


@pytest.mark.parametrize("field", [field_new(3), field_new(7), field_new(3, 2), field_new(3, 5)],
                         ids=repr)
def test_poly_mul_rows_matches_poly_mul(field):
    rng = np.random.default_rng(field.size)
    a = rng.integers(0, field.size, (60, 4)).astype(np.int16)
    b = rng.integers(0, field.size, (60, 6)).astype(np.int16)
    out = poly_mul_rows(field, a, b)
    assert out.shape == (60, 9) and out.dtype == np.int16
    for x, y, z in zip(a.tolist(), b.tolist(), out.tolist()):
        assert poly_trim(z) == poly_mul(field, x, y)
    # the leading axes broadcast
    grid = poly_mul_rows(field, a[:5, None], b[None, :7])
    assert grid.tolist() == [[poly_mul_rows(field, x[None], y[None])[0].tolist() for y in b[:7]]
                             for x in a[:5]]


SIEVE_CASES = ([(3, 1, d) for d in range(2, 9)] + [(5, 1, d) for d in range(2, 7)]
               + [(7, 1, d) for d in range(2, 6)] + [(3, 2, d) for d in range(2, 6)]
               + [(5, 2, d) for d in range(2, 5)] + [(3, 3, d) for d in range(2, 5)])


@pytest.mark.parametrize("p,n,d", SIEVE_CASES)
def test_squarefree_mask_keeps_exactly_the_squarefree_models(p, n, d):
    """Every model the sieve leaves out fails the gcd route
    (``_gcd_squarefree``, which never reads the held mask), and it keeps
    q^d - q^(d-1) models, the number of monic squarefree polynomials of
    degree d >= 2 over F_q: so it keeps exactly the squarefree ones.  Where
    q^d is small, ``enumerate_monic`` is also compared with the gcd route
    over every monic polynomial.  At odd d the cut mask is the part of the
    mask with c_(d-1) = 0, the first q^(d-1) models."""
    field = field_new(p, n)
    q = field.size
    mask = squarefree_mask(field, d)
    left_out = monic_codes(q, d, np.flatnonzero(~mask)).tolist()
    assert not any(ffield._gcd_squarefree(field, c) for c in left_out)
    assert np.count_nonzero(mask) == q**d - q ** (d - 1)
    if d % 2:
        assert squarefree_mask(field, d, cut=True).tolist() == mask[:q ** (d - 1)].tolist()
    else:
        with pytest.raises(ValueError, match="odd degree"):
            squarefree_mask(field, d, cut=True)
    if q**d <= 20_000:
        every = (c[::-1] + (1,) for c in itertools.product(range(q), repeat=d))
        assert [f.coeffs for f in enumerate_monic(field, d, squarefree_only=True)] \
            == [c for c in every if ffield._gcd_squarefree(field, c)]


def test_enumerate_monic_reads_the_mask_without_the_per_model_test(monkeypatch):
    def per_model(*args):
        raise AssertionError("poly_squarefree called")

    monkeypatch.setattr(ffield, "poly_squarefree", per_model)
    assert sum(1 for _ in enumerate_monic(field_new(3), 7, squarefree_only=True)) == 1458


def test_enumerate_monic_spans_blocks_and_sieve_steps(monkeypatch):
    """A descriptor built directly holds no mask, so the patched sizes
    really sieve, in many steps, whatever masks F_5 itself holds."""
    field, steps = FieldDescriptor(5, 1, (0, 1)), []
    every = (c[::-1] + (1,) for c in itertools.product(range(5), repeat=4))
    expected = [c for c in every if ffield._gcd_squarefree(field, c)]

    def counted(*args):
        steps.append(args)
        return poly_mul_rows(*args)

    monkeypatch.setattr(ffield, "poly_mul_rows", counted)
    monkeypatch.setattr(ffield, "BLOCK_ROWS", 7)
    monkeypatch.setattr(ffield, "BLOCK_BYTES", 24 * 5 * 3)    # three products a step
    assert field._mask is None
    assert [f.coeffs for f in enumerate_monic(field, 4, squarefree_only=True)] == expected
    assert len(steps) == 2 + 5 * 9 + 9      # u^2 at e = 1, 2; then k in threes, u^2 in threes


def test_tables_and_masks_over_a_budget_are_refused_before_any_allocation(monkeypatch):
    big, f27, f7 = field_new(3, 10), field_new(3, 3), field_new(7)
    monkeypatch.setattr(ffield, "FIELD_TABLE_CAP", 4 * 27**2 + 6 * 27 - 1)
    monkeypatch.setattr(ffield, "ENUMERATE_CAP", 7**5 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"degree 4 over GF\(3\^10\): .* int16"):
            squarefree_mask(big, 4)             # 59,049 codes, past int16
        with pytest.raises(BudgetExceededError, match=r"GF\(3\^10\)"):
            big.tables
        with pytest.raises(BudgetExceededError, match=r"3 over GF\(3\^3\): .*FIELD_TABLE_CAP"):
            squarefree_mask(f27, 3)
        with pytest.raises(BudgetExceededError, match=r"degree 5 over GF\(7\): .*ENUMERATE_CAP"):
            squarefree_mask(f7, 5)
        with pytest.raises(BudgetExceededError, match=r"degree 5 over GF\(7\)"):
            enumerate_monic(f7, 5, squarefree_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert len(squarefree_mask(f7, 5, cut=True)) == 7**4     # the cut mask fits


# every monic model of F_3 up to degree 7, F_5 up to 5 and F_9 up to 4
MEMO_CASES = ([(3, 1, d) for d in range(1, 8)] + [(5, 1, d) for d in range(1, 6)]
              + [(3, 2, d) for d in range(1, 5)])


@pytest.mark.parametrize("p,n,d", MEMO_CASES)
def test_poly_squarefree_reads_the_held_mask(p, n, d, monkeypatch, empty_verdict_memo):
    """With the uncut (and at odd d the cut) mask held, ``poly_squarefree``
    equals the gcd route on every monic model of degree d, and only the
    models the mask does not cover (c_(d-1) != 0 under a cut mask) reach
    the gcd route."""
    field = field_new(p, n)
    q, gcd, misses = field.size, ffield._gcd_squarefree, []
    models = monic_codes(q, d, np.arange(q**d)).tolist()
    expected = [gcd(field, c) for c in models]
    monkeypatch.setattr(ffield, "_gcd_squarefree", lambda f, a: misses.append(a) or gcd(f, a))
    for cut in (False, True) if d % 2 else (False,):
        mask = squarefree_mask(field, d, cut)
        held_degree, held_cut, held = field._mask
        assert (held_degree, held_cut) == (d, cut) and held is mask
        misses.clear()
        assert [poly_squarefree(field, c) for c in models] == expected
        assert len(misses) == q**d - len(mask)


@pytest.mark.parametrize("cut", [False, True])
def test_poly_squarefree_off_the_held_mask_takes_the_gcd_route(cut, monkeypatch,
                                                             empty_verdict_memo):
    """Non-monic input, another degree, c_(d-1) != 0 under a cut mask,
    trailing zeros, and entries below 0 or at least q each miss the held
    mask of F_3 at degree 5 and give the gcd route's answer, which runs once
    on the model the verdict memo decodes from its key: the entries mod 3,
    trailing zeros trimmed.  The entries out of range give the answer of
    the reduced model, read off the mask."""
    field, rng = field_new(3), random.Random(5)
    squarefree_mask(field, 5, cut)
    gcd, misses = ffield._gcd_squarefree, []
    monkeypatch.setattr(ffield, "_gcd_squarefree", lambda f, a: misses.append(a) or gcd(f, a))
    for _ in range(100):
        c = [rng.randrange(3) for _ in range(4)] + [0, 1]     # covered by either mask
        misses.clear()
        assert poly_squarefree(field, c) == gcd(field, c) and not misses
        shifted = list(c)
        shifted[rng.randrange(4)] += rng.choice((-3, 3))
        off = [[2 * x for x in c], c[1:], c + [0], shifted, [x - 3 for x in c[:5]] + [1]]
        if cut:
            off.append(c[:4] + [rng.randrange(1, 3), 1])
        for a in off:
            misses.clear()
            empty_verdict_memo.cache_clear()           # a repeated a is not a memo hit
            decoded = poly_trim([x % 3 for x in a])
            assert poly_squarefree(field, a) == gcd(field, a) and misses == [decoded], a
        assert poly_squarefree(field, shifted) == poly_squarefree(field, c)


def test_the_verdict_memo_runs_the_gcd_route_once_per_model(monkeypatch, empty_verdict_memo):
    """Off the held mask, a model tested again (as a list, a tuple or a
    numpy row) is answered by the memo: the gcd route runs once per
    distinct model, and the memo keeps the last ``L_CACHE_SIZE`` of them."""
    field, gcd, calls = field_new(7), ffield._gcd_squarefree, []
    squarefree_mask(field, 2)                            # no degree-7 mask held
    monkeypatch.setattr(ffield, "_gcd_squarefree", lambda f, a: calls.append(a) or gcd(f, a))
    models = monic_codes(7, 7, np.arange(0, 7**7, 7**4 + 1))
    expected = [gcd(field, c) for c in models.tolist()]
    assert True in expected and False in expected
    for rows in (models.tolist(), [tuple(c) for c in models.tolist()], models):
        assert [poly_squarefree(field, c) for c in rows] == expected
    assert calls == models.tolist()
    info = empty_verdict_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * len(models), len(models), len(models))
    assert info.maxsize == ffield.L_CACHE_SIZE                 # the L memos' one bound
    more = monic_codes(7, 7, np.arange(1, 7**7, 23)[:ffield.L_CACHE_SIZE]).tolist()
    for c in more:                                         # evicts every model above
        poly_squarefree(field, c)
    assert empty_verdict_memo.cache_info().currsize == ffield.L_CACHE_SIZE
    calls.clear()
    assert poly_squarefree(field, models[0]) == expected[0] and calls == [models[0].tolist()]


def test_the_verdict_memo_keys_each_model_on_one_int(monkeypatch, empty_verdict_memo):
    """The memo's key is (field, sum (c_i mod q) q^i): on F_7 the spellings
    of one model with trailing zeros, with entries moved by multiples of 7
    or as a numpy row read its one entry, and the gcd route runs once, on
    the model decoded from that int."""
    field, gcd, calls = field_new(7), ffield._gcd_squarefree, []
    squarefree_mask(field, 2)                            # no degree-7 mask held
    monkeypatch.setattr(ffield, "_gcd_squarefree", lambda f, a: calls.append(a) or gcd(f, a))
    rng = random.Random(7)
    for c in monic_codes(7, 7, np.arange(5, 7**7, 7**5 + 3)).tolist():
        spellings = [c, c + [0, 0], [x + 7 * rng.randrange(-2, 3) for x in c], np.array(c + [0])]
        assert len({poly_squarefree(field, a) for a in spellings}) == 1
        assert calls == [c], c
        calls.clear()
    assert empty_verdict_memo.cache_info().currsize == len(range(5, 7**7, 7**5 + 3))


@pytest.mark.parametrize("field", [field_new(7), field_new(3, 2)], ids=repr)
def test_the_verdict_memo_stores_no_failure(field, empty_verdict_memo):
    """The zero polynomial raises on every call, in any spelling, and
    leaves the memo as it was."""
    poly_squarefree(field, [1, 0, 2])                     # not monic: no mask covers it
    for zero in ([], [0], [0, 0, 0], np.zeros(4, dtype=np.int16)):
        for _ in range(2):
            with pytest.raises(ValueError, match="zero polynomial"):
                poly_squarefree(field, zero)
    assert empty_verdict_memo.cache_info().currsize == 1
    if field.n == 1:                                      # entries are read mod p
        with pytest.raises(ValueError, match="zero polynomial"):
            poly_squarefree(field, [7, -14])
        assert empty_verdict_memo.cache_info().currsize == 1


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (97, 1), (3, 2), (5, 2), (3, 3)])
def test_cut_model_is_the_translate_with_no_term_below_the_lead(p, n):
    """On seeded f of degrees 1..9, any lead, as ints or as a numpy row:
    where p does not divide d, ``cut_model`` is sum_k g_k x^k,
    g_k = sum_j C(j, k) b^(j-k) c_j (the binomial expansion of f(x + b)),
    for the one b that makes g_(d-1) = 0; where p divides d it is None."""
    field, rng = field_new(p, n), random.Random(p * n)
    for _ in range(60):
        d = rng.randrange(1, 10)
        f = [rng.randrange(field.size) for _ in range(d)] + [rng.randrange(1, field.size)]
        cut = ffield.cut_model(field, tuple(f))
        assert ffield.cut_model(field, np.array(f, dtype=np.int16 if p < 97 else np.int64)) == cut
        if d % p == 0:
            assert cut is None
            continue

        def shifted(b, k):
            g = 0
            for j in range(k, d + 1):
                term = field.mul(field.pow(b, j - k), f[j])
                g = field.add(g, field.mul(math.comb(j, k) % p, term))
            return g

        b = next(b for b in range(field.size) if shifted(b, d - 1) == 0)
        assert cut == [shifted(b, k) for k in range(d + 1)], f


def test_the_held_mask_is_read_only_and_returned_again():
    field = field_new(5)
    mask = squarefree_mask(field, 3)
    assert not mask.flags.writeable and squarefree_mask(field, 3) is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = not mask[0]
    cut = squarefree_mask(field, 3, cut=True)                 # the one slot moves on
    assert not cut.flags.writeable and squarefree_mask(field, 3, cut=True) is cut
    again = squarefree_mask(field, 3)
    assert again is not mask and again.tolist() == mask.tolist()


def test_threads_that_swap_the_held_mask_read_consistent_answers():
    """Four threads on one descriptor, each alternating between two masks
    while it checks models of both degrees: the slot is replaced whole, so
    every answer equals the gcd route's, whichever mask is held."""
    field, rng = FieldDescriptor(3, 1, (0, 1)), random.Random(11)
    models = [[rng.randrange(3) for _ in range(d)] + [1] for d in (5, 7) for _ in range(100)]
    expected = [ffield._gcd_squarefree(field, c) for c in models]
    wrong = []

    def worker(i):
        for round_ in range(6):
            squarefree_mask(field, (5, 7)[(i + round_) % 2], cut=bool(i % 2))
            wrong.extend(c for c, e in zip(models, expected) if poly_squarefree(field, c) != e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


def test_a_held_mask_is_still_refused_over_a_lowered_budget(monkeypatch):
    """The budgets are checked before the slot is read, so whether a call is
    refused never depends on what an earlier call built."""
    f7 = field_new(7)
    assert len(squarefree_mask(f7, 5)) == 7**5
    assert f7._mask[:2] == (5, False)
    monkeypatch.setattr(ffield, "ENUMERATE_CAP", 7**5 - 1)
    with pytest.raises(BudgetExceededError, match=r"degree 5 over GF\(7\): .*ENUMERATE_CAP"):
        squarefree_mask(f7, 5)
    with pytest.raises(BudgetExceededError, match=r"degree 5 over GF\(7\)"):
        enumerate_monic(f7, 5, squarefree_only=True)
    monkeypatch.setattr(ffield, "ENUMERATE_CAP", 7**5)
    monkeypatch.setattr(ffield, "FIELD_TABLE_CAP", 4 * 7**2 + 6 * 7 - 1)
    with pytest.raises(BudgetExceededError, match=r"degree 5 over GF\(7\): .*FIELD_TABLE_CAP"):
        squarefree_mask(f7, 5)


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
    for other in (field_new(3, 3), field_new(5, 2), field_new(3)):   # n does not divide, p differs
        with pytest.raises(ValueError, match=re.escape(f"{other!r} is not an extension of {base!r}")):
            base.embedding_into(other)
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


def test_descriptors_compare_and_hash_by_their_parameters():
    """The hash is computed once per descriptor; equal parameters still give
    equal, equally hashed descriptors, and another modulus another field."""
    canonical = field_new(3, 4)
    same = FieldDescriptor(3, 4, canonical.modulus)
    other, other_again = (FieldDescriptor(3, 4, (1, 0, 1, 2, 1)) for _ in range(2))
    assert same is not canonical and same == canonical and hash(same) == hash(canonical)
    assert other is not other_again and other == other_again and hash(other) == hash(other_again)
    assert other != canonical and len({canonical, same, other, other_again}) == 2
    assert FieldDescriptor(3, 1, (0, 1)) == field_new(3) != field_new(3, 2)
    assert canonical != (3, 4, canonical.modulus) and canonical != repr(canonical)


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
