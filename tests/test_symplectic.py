import functools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from strataforge.curves import LPolynomial
from strataforge.errors import BudgetExceededError
from strataforge.ffield import zp_squarefree_parts
from strataforge.symplectic import (
    CHARPOLY_BUDGET,
    DEFAULT_WALK_LENGTH,
    SP_WALK_BLOCK,
    SP_WALK_BYTES_PER_WALK,
    MonteCarloEstimate,
    _charpoly_blocks,
    _charpolys,
    _coset_sample_blocks,
    _entry_dtype,
    _randbelow_many,
    _random_sp_blocks,
    _reduction_interval,
    _subspace_types,
    charpoly_mod,
    coset_charpoly_distribution,
    det_mod,
    fixed_vector_proportion,
    mat_mul,
    sp_order,
)


# ---------------------------------------------------------------------------
# the scalar references: form, multiplier, transvections, coset reps


def symplectic_form(g, l):
    """The antidiagonal form J: J[i, 2g+1-i] = +1 for i <= g, -1 after."""
    d = 2 * g
    return tuple(tuple((1 if i < g else l - 1) if j == d - 1 - i else 0 for j in range(d))
                 for i in range(d))


def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def multiplier(m, l):
    """The scalar mu with m^T J m = mu J; raises if none exists."""
    g = len(m) // 2
    j = symplectic_form(g, l)
    lhs = mat_mul(mat_mul(tuple(zip(*m)), j, l), m, l)
    mu = lhs[0][2 * g - 1]  # J[0][d-1] = 1
    if mu == 0 or lhs != tuple(tuple(mu * x % l for x in row) for row in j):
        raise ValueError("matrix is not in GSp")
    return mu


def transvection(v, g, l):
    """T_v = 1 + v (Jv)^T: x -> x + <x, v> v, with Jv[j] = +-v[d-1-j]."""
    d = 2 * g
    jv = [v[d - 1 - j] if j < g else -v[d - 1 - j] for j in range(d)]
    return tuple(tuple((int(i == j) + v[i] * jv[j]) % l for j in range(d)) for i in range(d))


def coset_rep(g, m):
    """D_m = diag(m, ..., m, 1, ..., 1), of multiplier m."""
    return tuple(tuple((m if i < g else 1) * (i == j) for j in range(2 * g))
                 for i in range(2 * g))


def fixes_a_vector(m, l):
    """The fixed-vector enumeration's test: det(M - 1) = 0 mod l."""
    return det_mod([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)], l) == 0


def test_symplectic_form_is_skew_and_invertible():
    for g, l in [(1, 3), (2, 3), (2, 5)]:
        j = symplectic_form(g, l)
        assert tuple(zip(*j)) == tuple(tuple((-x) % l for x in row) for row in j)
        assert det_mod(j, l) != 0


def test_multiplier_identity_and_scalars():
    assert multiplier(identity(2), 3) == 1
    assert multiplier(identity(4), 5) == 1
    for l in (5, 7):
        for c in range(1, l):
            scalar = tuple(tuple(c if i == j else 0 for j in range(4)) for i in range(4))
            assert multiplier(scalar, l) == c * c % l


def test_multiplier_rejects_non_gsp():
    # upper triangular with unequal diagonal scaling of the two hyperbolic
    # pairs (2x2 matrices are all conformal, so the check needs dim >= 4)
    bad = tuple(tuple((2 if i == 3 else 1) if i == j else 0 for j in range(4))
                for i in range(4))
    with pytest.raises(ValueError):
        multiplier(bad, 5)
    with pytest.raises(ValueError):
        multiplier(((0, 0), (0, 0)), 3)
    # every invertible 2x2 matrix is conformal with multiplier det
    assert multiplier(((1, 1), (0, 2)), 5) == 2


def test_multiplier_is_multiplicative():
    for l in (3, 5):
        a, b = _kernel_walks(1, l, random.Random(1), 2)
        d2 = coset_rep(1, 2)
        for x in (a, mat_mul(a, d2, l)):
            for y in (b, mat_mul(b, d2, l)):
                assert multiplier(mat_mul(x, y, l), l) == \
                    multiplier(x, l) * multiplier(y, l) % l


def test_coset_rep_has_multiplier_m():
    """The reference D_m, and every walk sample M D_m of the Monte Carlo
    cosets, which scale M's first g columns by m in place."""
    for g, l in [(1, 3), (2, 3), (2, 5)]:
        for m in range(1, l):
            assert multiplier(coset_rep(g, m), l) == m
            for block in _coset_sample_blocks(g, l, m, 20, seed=m):
                assert {multiplier(tuple(map(tuple, a)), l) for a in block.tolist()} == {m}


# ---------------------------------------------------------------------------
# orders, and the group by breadth-first closure: the enumeration oracle


def standard_generators(g, l):
    """Transvections along all weight-1 and weight-2 0/1 vectors."""
    d = 2 * g
    supports = [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]
    return [transvection(tuple(int(k in s) for k in range(d)), g, l) for s in supports]


def closure(generators, l, cap):
    """The subgroup generated by symplectic ``generators``, by breadth-first
    closure from the identity, or None once it grows past ``cap``."""
    for m in generators:
        if multiplier(m, l) != 1:
            raise ValueError("generator is not symplectic")
    seen = {identity(len(generators[0]))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for gmat in generators:
                prod = mat_mul(m, gmat, l)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return seen


def group_bfs(generators, l, cap=250_000):
    """Order of the generated subgroup, or None past ``cap`` elements."""
    elements = closure(generators, l, cap)
    return None if elements is None else len(elements)


@functools.lru_cache(maxsize=4)
def sp_elements(g, l):
    """All of Sp_2g(Z/l), as the closure of the standard generators."""
    elements = closure(standard_generators(g, l), l, sp_order(g, l))
    assert elements is not None and len(elements) == sp_order(g, l)
    return tuple(elements)


def test_sp_order_formula():
    assert sp_order(1, 3) == 24
    assert sp_order(1, 5) == 120
    assert sp_order(2, 3) == 51840


def test_group_bfs_trivial_and_cyclic():
    assert group_bfs([identity(2)], 3) == 1
    t = transvection((1, 0), 1, 7)
    assert group_bfs([t], 7) == 7


@pytest.mark.parametrize("g,l", [(1, 3), (1, 5)])
def test_group_bfs_generates_sp(g, l):
    assert group_bfs(standard_generators(g, l), l) == sp_order(g, l)


def test_group_bfs_cap():
    assert group_bfs(standard_generators(1, 5), 5, cap=10) is None


def test_group_bfs_rejects_non_symplectic_generator():
    with pytest.raises(ValueError):
        group_bfs([((1, 1), (0, 2))], 5)


# ---------------------------------------------------------------------------
# sampling


def test_random_sp_is_symplectic_and_deterministic():
    for seed in range(5):
        walks = _kernel_walks(2, 3, random.Random(seed), 5)
        assert {multiplier(m, 3) for m in walks} == {1}
        assert _kernel_walks(2, 3, random.Random(seed), 5) == walks


@pytest.mark.parametrize("l", [2, 4, 9])
def test_random_sp_rejects_a_modulus_that_is_not_an_odd_prime(l):
    with pytest.raises(ValueError, match="odd prime"):
        next(_random_sp_blocks(2, l, random.Random(0), 1, DEFAULT_WALK_LENGTH))
    with pytest.raises(ValueError, match="odd prime"):
        fixed_vector_proportion(2, l, 1, mode="montecarlo", n=5)


def _product_walk(g, l, rng, walk_length):
    """The walk as a product of transvection matrices: the rank-1 walk's
    reference."""
    d = 2 * g
    m = identity(d)
    for _ in range(walk_length):
        code = rng.randrange(l**d)
        if code == 0:
            continue
        v = []
        for _ in range(d):
            v.append(code % l)
            code //= l
        m = mat_mul(m, transvection(tuple(v), g, l), l)
    return m


def _kernel_walks(g, l, rng, n, walk_length=50):
    """The n walks of the block kernel, as tuple-of-tuple matrices."""
    return [tuple(map(tuple, m))
            for block in _random_sp_blocks(g, l, rng, n, walk_length)
            for m in block.tolist()]


@pytest.mark.parametrize("g,l", [(1, 3), (2, 3), (2, 5), (3, 3), (3, 7)])
def test_rank1_walk_equals_transvection_product(g, l):
    import random as _random
    for seed in range(30):
        assert _kernel_walks(g, l, _random.Random(seed), 1) == \
            [_product_walk(g, l, _random.Random(seed), 50)]


# (2, 257), (3, 1009): codes of 33 and 60 bits, two Mersenne Twister words;
# (7, 31): codes l^14 > 2^63 are split into digits as Python ints;
# (1, 4294967311): d l^2 > 2^63, so the matrices hold Python ints too
@pytest.mark.parametrize("g,l", [(1, 3), (2, 3), (2, 5), (3, 3), (3, 7), (2, 257),
                                 (3, 1009), (7, 31), (1, 4294967311)])
def test_walk_blocks_equal_consecutive_product_walks(g, l, monkeypatch):
    """n walks in blocks of 3 (n = 1, one block, one block + 1) equal n
    consecutive reference walks on one stream, and leave the stream where
    those walks leave it."""
    from strataforge import symplectic
    monkeypatch.setattr(symplectic, "SP_WALK_BLOCK", 3)
    walk_length = 50 if g < 7 else 6
    for n in (1, 3, 4):
        rng, ref = random.Random(n), random.Random(n)
        assert _kernel_walks(g, l, rng, n, walk_length) == \
            [_product_walk(g, l, ref, walk_length) for _ in range(n)]
        assert rng.random() == ref.random()


# bit lengths 1, 2, 4, 31, 32, 33, 63, 64 (2^63 is the last int64 top), 65
# and past 70; 2^32 + 1 and 2^63 + 1 reject about half their draws, while
# 2^32 - 1 and 2^64 - 59 fill whole words
@pytest.mark.parametrize("top", [1, 2, 9, 2**31 - 1, 3**20, 2**32 - 1, 2**32 + 1,
                                 257**4, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1,
                                 2**64 - 59, 2**64 + 1, (2**32 + 15)**2, 3**50, 7**200])
def test_bulk_draw_equals_randrange(top):
    """The bulk draw returns rng.randrange(top) call for call and leaves the
    stream where those calls leave it."""
    for seed, n in [(0, 1), (1, 7), (2, 1000)]:
        rng, ref = random.Random(seed), random.Random(seed)
        codes = _randbelow_many(rng, top, n)
        assert codes.dtype == (np.int64 if top <= 2**63 else object)
        assert codes.tolist() == [ref.randrange(top) for _ in range(n)]
        assert rng.random() == ref.random()


# K = 1 where d l^2 is just below 2^63; K = 5 and 3 at l near 2^20, with a
# walk length that K does not divide and one it does; K past the walk
@pytest.mark.parametrize("g,l,walk_length,regime", [
    (1, 2147483647, 7, "every step"), (1, 1048573, 23, "within"),
    (2, 1048573, 50, "within"), (2, 1048573, 9, "within"), (3, 3, 50, "at the end")])
def test_deferred_reduction_equals_product_walks(g, l, walk_length, regime, monkeypatch):
    """Reducing M once every K steps gives the per-step residues, on random
    codes and on the all-(l-1) code, whose v has the largest entries."""
    from strataforge import symplectic
    every = _reduction_interval(2 * g, l)
    assert _entry_dtype(2 * g, l) is np.int64
    assert {"every step": every == 1, "within": 1 < every < walk_length,
            "at the end": every >= walk_length}[regime]
    monkeypatch.setattr(symplectic, "SP_WALK_BLOCK", 2)
    rng, ref = random.Random(5), random.Random(5)
    assert _kernel_walks(g, l, rng, 3, walk_length) == \
        [_product_walk(g, l, ref, walk_length) for _ in range(3)]

    class Largest:
        def randrange(self, top):
            return top - 1
    monkeypatch.setattr(symplectic, "_randbelow_many",
                        lambda rng, top, count: np.full(count, top - 1, dtype=object))
    assert _kernel_walks(g, l, None, 1, walk_length) == \
        [_product_walk(g, l, Largest(), walk_length)]


def test_walk_blocks_cross_the_real_block_boundary():
    n = SP_WALK_BLOCK + 1
    blocks = list(_random_sp_blocks(1, 3, random.Random(4), n, 50))
    assert [len(b) for b in blocks] == [SP_WALK_BLOCK, 1]
    rng, ref = random.Random(4), random.Random(4)
    assert _kernel_walks(1, 3, rng, n) == [_product_walk(1, 3, ref, 50) for _ in range(n)]
    assert rng.random() == ref.random()


def test_transvection_is_x_plus_pairing_times_v(monkeypatch):
    """The one-step walk of code c, v its base-l digits, and the reference
    T_v are both the symplectic matrix of x -> x + <x, v> v, for every v."""
    from strataforge import symplectic

    def pairing(x, y, g, l):
        """<x, y> = x^T J y for the fixed form."""
        d = 2 * g
        return sum(x[i] * y[d - 1 - i] - x[d - 1 - i] * y[i] for i in range(g)) % l

    monkeypatch.setattr(symplectic, "_randbelow_many",
                        lambda rng, top, count: np.arange(count, dtype=np.int64))
    for g, l in [(1, 3), (2, 3), (1, 5)]:
        d = 2 * g
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        steps = _kernel_walks(g, l, None, l**d, 1)      # walk c takes code c
        for code, step in enumerate(steps):
            v = tuple(code // l**i % l for i in range(d))
            expected = tuple(
                tuple((int(i == j) + v[i] * pairing(units[j], v, g, l)) % l
                      for j in range(d))
                for i in range(d))
            assert step == transvection(v, g, l) == expected
            assert multiplier(step, l) == 1


def test_random_sp_uniformity_chi_square():
    """20k walk samples over the 24 elements of SL_2(Z/3); fixed seed keeps
    the 3-sigma per-element check deterministic."""
    import random as _random

    n = 20_000
    rng = _random.Random(11)
    counts: dict = {}
    for m in _kernel_walks(1, 3, rng, n, 50):
        counts[m] = counts.get(m, 0) + 1
    assert len(counts) == 24
    expected = n / 24
    sigma = math.sqrt(n * (1 / 24) * (23 / 24))
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


# ---------------------------------------------------------------------------
# fixed-vector proportions


def test_fixed_vector_proportion_frozen_values():
    assert fixed_vector_proportion(1, 3, 1) == Fraction(3, 8)
    assert fixed_vector_proportion(1, 3, 2) == Fraction(1, 2)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_fixed_vector_proportion_matches_leading_term(l):
    v = fixed_vector_proportion(1, l, 1)
    assert abs(v - Fraction(l, l * l - 1)) <= Fraction(2, l**3)
    assert v == Fraction(l, l * l - 1)  # observed to be exact at g = 1


def test_fixed_vector_proportion_m_not_one_leading_term():
    # 1/(l-1) + O(1/l^3)
    for l in (3, 5):
        v = fixed_vector_proportion(1, l, l - 1)
        assert abs(v - Fraction(1, l - 1)) <= Fraction(2, l**3)


@pytest.mark.parametrize("g", [1, 3])
def test_walk_memory_is_flat_in_n(g):
    """The tracemalloc peak of a Monte Carlo run is set by one block, not by
    n, and at g = 3 stays under SP_WALK_BYTES_PER_WALK per walk of it."""
    import tracemalloc

    def peak(n):
        tracemalloc.start()
        try:
            fixed_vector_proportion(g, 3, 1, mode="montecarlo", n=n, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fixed_vector_proportion(g, 3, 1, mode="montecarlo", n=2, seed=1)  # warm numpy
    one, ten = peak(SP_WALK_BLOCK), peak(10 * SP_WALK_BLOCK)
    assert ten <= 1.25 * one
    if g == 3:
        assert ten <= SP_WALK_BYTES_PER_WALK * SP_WALK_BLOCK


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_fixed_vector_proportion_equals_enumeration_g1(l):
    elements = sp_elements(1, l)
    for m in range(1, l):
        rep = coset_rep(1, m)
        hits = sum(fixes_a_vector(mat_mul(s, rep, l), l) for s in elements)
        assert fixed_vector_proportion(1, l, m) == Fraction(hits, len(elements))


def _vanish_at_one(stack, l):
    """Whether the kernel's charpoly of each matrix of ``stack`` vanishes at
    T = 1, i.e. whether det(1 - M) = 0: its coefficient sum mod l."""
    return (_charpolys(np.array(stack), l).sum(axis=1) % l == 0).tolist()


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_singular_mod_matches_det_mod_on_the_cosets_of_sp2(l):
    """On every element M of every coset Sp_2(Z/l) D_m, the kernel's
    charpoly vanishes at 1 exactly when det_mod(M - 1) = 0."""
    elements = sp_elements(1, l)
    for m in range(1, l):
        rep = coset_rep(1, m)
        stack = [mat_mul(s, rep, l) for s in elements]
        assert _vanish_at_one(stack, l) == [fixes_a_vector(a, l) for a in stack]


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("l", [3, 5, 7])
def test_singular_mod_matches_det_mod_on_random_matrices(d, l):
    """2,000 matrices A: dense, sparse, with a zero leading column, and with
    one row a combination of two others.  The kernel's charpoly of M = A + 1
    vanishes at 1 exactly when det_mod(A) = 0, and its first 240 rows (every
    kind of A) are the cofactor charpolys."""
    rng = random.Random(10 * d + l)
    stack = []
    for k in range(2000):
        a = [[rng.randrange(l) if rng.random() < (1.0, 0.3)[k % 2] else 0 for _ in range(d)]
             for _ in range(d)]
        if k % 4 == 1:
            for row in a:
                row[0] = 0
        if k % 4 == 2:
            x, y = rng.randrange(l), rng.randrange(l)
            a[rng.randrange(d)] = [(x * u + y * w) % l for u, w in zip(a[0], a[1])]
        stack.append(a)
    expected = [det_mod(a, l) == 0 for a in stack]
    shifted = [[[(x + (i == j)) % l for j, x in enumerate(row)] for i, row in enumerate(a)]
               for a in stack]
    assert _vanish_at_one(shifted, l) == expected
    zero_lead = [e for a, e in zip(stack, expected) if not any(row[0] for row in a)]
    assert all(zero_lead) and len(zero_lead) >= 500
    assert 0 < sum(expected) < len(expected)
    rows = _charpolys(np.array(shifted[:240]), l).tolist()
    assert list(map(tuple, rows)) == [cofactor_charpoly(a, l) for a in shifted[:240]]


def test_fixed_vector_proportion_sp4_mod_3_recorded():
    # recorded by enumerating all 51,840 elements of Sp_4(Z/3)
    assert fixed_vector_proportion(2, 3, 1) == Fraction(231, 640)
    assert fixed_vector_proportion(2, 3, 2) == Fraction(7, 16)


def test_fixed_vector_proportion_closed_forms_g1():
    for l in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert fixed_vector_proportion(1, l, 1) == Fraction(l, l * l - 1)
        for m in range(2, l):
            assert fixed_vector_proportion(1, l, m) == Fraction(1, l - 1)


def test_subspace_types_count_every_subspace():
    """Summed by dimension 2s + t, the subspace types give the Gaussian
    binomials [2g choose k]_l."""
    def gaussian_binomial(n, k, l):
        num = math.prod(l ** (n - i) - 1 for i in range(k))
        return num // math.prod(l ** (i + 1) - 1 for i in range(k))

    for g, l in [(1, 3), (2, 3), (2, 5), (3, 3), (3, 7), (4, 5)]:
        by_dim = [0] * (2 * g + 1)
        for s, t, count in _subspace_types(g, l):
            by_dim[2 * s + t] += count
        assert by_dim == [gaussian_binomial(2 * g, k, l) for k in range(2 * g + 1)]


def test_multiplier_must_be_a_unit():
    for m in (0, 3, 4):
        with pytest.raises(ValueError):
            fixed_vector_proportion(1, 3, m)
        with pytest.raises(ValueError):
            coset_charpoly_distribution(1, 3, m)
    with pytest.raises(ValueError):
        coset_charpoly_distribution(1, 9, 1)


def test_fixed_vector_proportion_montecarlo():
    est = fixed_vector_proportion(1, 3, 1, mode="montecarlo", n=4000, seed=5)
    assert isinstance(est, MonteCarloEstimate)
    assert est.n == 4000
    assert est.ci_low <= 3 / 8 <= est.ci_high


@pytest.mark.parametrize("n", [0, -1])
def test_montecarlo_needs_a_sample(n):
    with pytest.raises(ValueError, match="n >= 1"):
        fixed_vector_proportion(2, 3, 1, mode="montecarlo", n=n)
    with pytest.raises(ValueError, match="n >= 1"):
        coset_charpoly_distribution(2, 3, 1, mode="montecarlo", n=n)


def _first_block(g, walk_length):
    return next(_random_sp_blocks(g, 3, random.Random(1), 1, walk_length))


@pytest.mark.parametrize("call,match", [
    (lambda: _first_block(0, DEFAULT_WALK_LENGTH), "g must be"),
    (lambda: _first_block(2, 0), "walk_length >= 1"),
    (lambda: _first_block(2, -3), "walk_length >= 1"),
    (lambda: fixed_vector_proportion(0, 3, 1), "g must be"),
    (lambda: fixed_vector_proportion(0, 3, 1, mode="montecarlo", n=5), "g must be"),
    (lambda: coset_charpoly_distribution(0, 3, 1, mode="montecarlo", n=5), "g must be"),
], ids=["random_sp-g0", "random_sp-walk0", "random_sp-walk-neg", "exact-g0", "montecarlo-g0",
        "charpoly-g0"])
def test_walks_need_a_genus_and_a_step(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_montecarlo_intervals_contain_sp4_mod_3_values():
    for m, exact, (low, high) in [(1, Fraction(231, 640), (0.324, 0.418)),
                                  (2, Fraction(7, 16), (0.373, 0.469))]:
        est = fixed_vector_proportion(2, 3, m, mode="montecarlo", n=400, seed=7)
        assert est.ci_low <= exact <= est.ci_high
        assert round(est.ci_low, 3) == low and round(est.ci_high, 3) == high


def test_wilson_interval_at_the_ends():
    for n in (1, 10, 400):
        for hits in (0, n):
            est = MonteCarloEstimate.from_hits(hits, n)
            assert est.estimate == hits / n
            assert 0 <= est.ci_low <= est.estimate <= est.ci_high <= 1
            assert est.ci_high - est.ci_low > 0
    est = MonteCarloEstimate.from_hits(0, 400)
    assert est.ci_low == 0 and 0 < est.ci_high < 0.01


def test_wilson_bounds_solve_the_score_equation():
    """The Wilson bounds are the p with |p_hat - p| = z sqrt(p (1 - p) / n)."""
    z = 1.96
    for hits, n in [(0, 50), (7, 50), (25, 50), (148, 400), (400, 400)]:
        est = MonteCarloEstimate.from_hits(hits, n)
        for p in (est.ci_low, est.ci_high):
            if 0 < p < 1:
                assert n * (hits / n - p) ** 2 == pytest.approx(z * z * p * (1 - p))


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_charpoly_mod_reversal_example():
    L = LPolynomial(3, 1, (1, 2, 3))
    assert charpoly_mod(L, 5) == (3, 2, 1)  # T^2 + 2T + 3, constant first


def test_charpoly_mod_evaluation_at_one():
    L = LPolynomial(7, 1, (1, 3, 7))
    for l in (3, 5):
        assert sum(charpoly_mod(L, l)) % l == L(1) % l


def test_charpoly_mod_rejects_l_equal_p():
    L = LPolynomial(3, 1, (1, 2, 3))
    with pytest.raises(ValueError):
        charpoly_mod(L, 3)


def test_charpoly_mod_functional_equation_reduction():
    # P(T) = T^2g * P(q/T) * q^-g mod l whenever q is invertible mod l:
    # coefficientwise, P_i = P_{2g-i} * q^(g-i)
    L = LPolynomial(5, 2, (1, 2, 3, 10, 25))
    g = 2
    for l in (3, 7):
        P = charpoly_mod(L, l)
        d = len(P) - 1
        q_inv = pow(5 % l, -1, l)
        for i in range(d + 1):
            power = pow(5 % l, g - i, l) if g >= i else pow(q_inv, i - g, l)
            assert P[i] == P[d - i] * power % l


def kernel_charpolys(samples, l):
    """The kernel's charpolys of a list of d x d matrices, as tuples."""
    a = np.array(samples, dtype=_entry_dtype(len(samples[0]), l))
    return list(map(tuple, _charpolys(a, l).tolist()))


def coset_walks(g, l, multipliers, n):
    """n walk samples M D_m of each multiplier-m coset, as tuple matrices."""
    return [tuple(map(tuple, a)) for m in multipliers
            for block in _coset_sample_blocks(g, l, m, n, seed=m) for a in block.tolist()]


def test_matrix_charpoly_against_known():
    assert kernel_charpolys([identity(2), ((0, 1), (4, 0))], 5) == \
        [(1, 3, 1), ((-4) % 5, 0, 1)]  # (T-1)^2 and T^2 - 4


def test_matrix_charpoly_trace_det_consistency():
    walks = _kernel_walks(2, 3, random.Random(0), 8)
    for m, poly in zip(walks, kernel_charpolys(walks, 3)):
        assert len(poly) == 5 and poly[-1] == 1
        tr = sum(m[i][i] for i in range(4)) % 3
        assert poly[3] == (-tr) % 3
        assert poly[0] == det_mod(m, 3)


def cofactor_charpoly(m, l):
    """det(T*1 - M) mod l by cofactor expansion along the first row, O(d!):
    the reference for the Berkowitz kernel ``_charpolys``."""
    d = len(m)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % l
        return out

    def det(rows, cols):
        if not cols:
            return [1]
        i, total = rows[0], [0] * (len(cols) + 1)
        for idx, j in enumerate(cols):
            entry = [(-m[i][j]) % l, 1] if i == j else [(-m[i][j]) % l]
            term = poly_mul(entry, det(rows[1:], cols[:idx] + cols[idx + 1:]))
            sign = -1 if idx % 2 else 1
            for k, x in enumerate(term):
                total[k] = (total[k] + sign * x) % l
        return total

    return tuple(det(tuple(range(d)), tuple(range(d))))


@pytest.mark.parametrize("g,l", [(1, 3), (2, 3), (2, 5), (3, 3), (3, 7)])
def test_matrix_charpoly_matches_cofactor_expansion(g, l):
    """Walk samples in every multiplier coset, dense random matrices, and
    sparse ones."""
    rng = random.Random(100 * g + l)
    d = 2 * g
    samples = coset_walks(g, l, range(1, l), -(-12 // (l - 1)))
    for density in (1.0, 0.3):
        for _ in range(40):
            samples.append(tuple(
                tuple(rng.randrange(l) if rng.random() < density else 0 for _ in range(d))
                for _ in range(d)))
    samples.append(identity(d))
    assert kernel_charpolys(samples, l) == [cofactor_charpoly(m, l) for m in samples]


@pytest.mark.parametrize("g,l", [(2, 65537), (1, 4294967311)])
def test_matrix_charpoly_matches_cofactor_expansion_at_large_l(g, l):
    """At l = 4294967311, d l^2 > 2^63 and the kernel runs on Python ints."""
    assert _entry_dtype(2 * g, l) is (object if l > 2**32 else np.int64)
    rng = random.Random(l)
    d = 2 * g
    samples = coset_walks(g, l, range(1, 11), 1)
    samples += [tuple(tuple(rng.randrange(-l, 2 * l) for _ in range(d)) for _ in range(d))
                for _ in range(20)]
    assert kernel_charpolys(samples, l) == [cofactor_charpoly(m, l) for m in samples]


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_exact_coset_charpoly_distribution_counts_cofactor_charpolys(l):
    """Every coset of Sp_2(Z/l): the closed form is the histogram of the
    cofactor charpolys of s D_m over the group, its keys in sorted order."""
    elements = sp_elements(1, l)
    for m in range(1, l):
        rep = coset_rep(1, m)
        counts = Counter(cofactor_charpoly(mat_mul(s, rep, l), l) for s in elements)
        dist = coset_charpoly_distribution(1, l, m)
        assert dist == {k: Fraction(v, len(elements)) for k, v in counts.items()}
        assert list(dist) == sorted(dist)


def test_coset_charpoly_distribution_sl2_frozen():
    dist = coset_charpoly_distribution(1, 3, 1)
    assert dist == {
        (1, 0, 1): Fraction(1, 4),
        (1, 1, 1): Fraction(3, 8),
        (1, 2, 1): Fraction(3, 8),
    }
    assert sum(dist.values()) == 1


# Recorded from one run of the BFS oracle over the 51,840 elements of Sp_4(Z/3)
# (sp_elements(2, 3), cofactor-equal kernel charpolys of s D_m), keyed by m.
SP4_MOD_3_BFS = {
    1: {
        (1, 0, 0, 0, 1): Fraction(1, 8),
        (1, 0, 1, 0, 1): Fraction(9, 64),
        (1, 0, 2, 0, 1): Fraction(3, 32),
        (1, 1, 0, 1, 1): Fraction(81, 640),
        (1, 1, 1, 1, 1): Fraction(1, 10),
        (1, 1, 2, 1, 1): Fraction(3, 32),
        (1, 2, 0, 2, 1): Fraction(81, 640),
        (1, 2, 1, 2, 1): Fraction(1, 10),
        (1, 2, 2, 2, 1): Fraction(3, 32),
    },
    2: {
        (1, 0, 0, 0, 1): Fraction(1, 16),
        (1, 0, 1, 0, 1): Fraction(3, 16),
        (1, 0, 2, 0, 1): Fraction(9, 80),
        (1, 1, 0, 2, 1): Fraction(1, 10),
        (1, 1, 1, 2, 1): Fraction(1, 8),
        (1, 1, 2, 2, 1): Fraction(3, 32),
        (1, 2, 0, 1, 1): Fraction(1, 10),
        (1, 2, 1, 1, 1): Fraction(1, 8),
        (1, 2, 2, 1, 1): Fraction(3, 32),
    },
}


@pytest.mark.parametrize("m", [1, 2])
def test_exact_coset_charpoly_distribution_sp4_mod_3_equals_bfs(m):
    dist = coset_charpoly_distribution(2, 3, m)
    assert dist == SP4_MOD_3_BFS[m]
    assert list(dist) == sorted(dist)


def test_charpoly_multiplicity_reaching_l():
    """(T - 1)^4 at l = 3: the multiplicity passes l, where the derivative
    alone sees no repeated factor; the block is Sp_4(Z/3), with 3^8
    unipotents among its 51,840 elements."""
    chi = [1, 2, 0, 2, 1]
    assert zp_squarefree_parts(chi, 3) == {4: [2, 1]}
    assert _charpoly_blocks(chi, 3, 1) == [("sp", 1, 4)]
    assert coset_charpoly_distribution(2, 3, 1)[tuple(chi)] == Fraction(3**8, 51_840)


@pytest.mark.parametrize("g,l", [(g, l) for g in (1, 2, 3, 4) for l in (3, 5, 7)])
def test_exact_charpoly_mass_and_fixed_vector_cross_route(g, l):
    """Every coset, the non-square m at g >= 2 (whose T^2 - m block a
    version without it missed) included: the l^g charpolys carry mass
    exactly 1, and the mass of chi(1) = 0 is the Moebius fixed-vector
    proportion."""
    for m in range(1, l):
        dist = coset_charpoly_distribution(g, l, m)
        assert len(dist) == l**g
        assert sum(dist.values()) == 1
        assert sum(p for chi, p in dist.items() if sum(chi) % l == 0) == \
            fixed_vector_proportion(g, l, m)


def total_variation(p, q):
    return sum(abs(p.get(k, 0) - q.get(k, 0)) for k in {*p, *q}) / 2


@pytest.mark.parametrize("g,l,m", [(2, 5, 2), (3, 3, 1)])
def test_exact_charpoly_distribution_against_montecarlo(g, l, m):
    """Where no enumeration fits: the Monte Carlo distribution at n = 20,000
    is within 3x the TV distance of n seeded draws from the exact
    distribution itself (a parametric bootstrap of the sampling noise)."""
    n = 20_000
    exact = coset_charpoly_distribution(g, l, m)
    walks = coset_charpoly_distribution(g, l, m, mode="montecarlo", n=n, seed=3)
    draws = Counter(random.Random(4).choices(list(exact), [float(p) for p in exact.values()], k=n))
    noise = total_variation(exact, {k: Fraction(v, n) for k, v in draws.items()})
    assert 0 < total_variation(exact, walks) < 3 * noise


def sympy_blocks(chi, l, m):
    """The blocks of chi from sympy's full factorization: each irreducible
    phi against its m-reciprocal phi*(T) = T^deg phi(m/T) / phi(0)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    blocks = []
    for phi, k in gf_factor(list(chi)[::-1], l, ZZ)[1]:
        phi = [int(c) for c in phi[::-1]]
        deg, inv = len(phi) - 1, pow(phi[0], -1, l)
        star = [phi[deg - j] * m ** (deg - j) * inv % l for j in range(deg + 1)]
        if phi != star:
            if phi < star:
                blocks.append(("gl", deg, k))
        elif deg == 1 or phi == [-m % l, 0, 1]:
            blocks.append(("sp", deg, k))
        else:
            blocks.append(("u", deg // 2, k))
    return Counter(blocks)


@pytest.mark.parametrize("g,l", [(2, 5), (3, 3), (3, 5), (4, 3)])
def test_charpoly_blocks_match_sympy_factorization(g, l):
    """Every chi of every coset, so self-dual factors of degree up to 2g = 8
    (odd D/2 at degree 6) and repeated factors are read."""
    for m in range(1, l):
        for chi in coset_charpoly_distribution(g, l, m):
            assert Counter(_charpoly_blocks(list(chi), l, m)) == sympy_blocks(chi, l, m), (chi, m)


@pytest.mark.parametrize("g,l", [(1, 4294967311), (6, 31)])
def test_exact_charpoly_budget_refuses_up_front(g, l, monkeypatch):
    from strataforge import symplectic

    def no_work(*args):
        raise AssertionError("a block was read before the budget check")
    monkeypatch.setattr(symplectic, "_charpoly_blocks", no_work)
    assert l**g > CHARPOLY_BUDGET
    with pytest.raises(BudgetExceededError, match=rf"g = {g}, l = {l}, m = 2: l\^g = {l**g} "):
        coset_charpoly_distribution(g, l, 2)
    with pytest.raises(ValueError, match="g must be"):
        coset_charpoly_distribution(0, 3, 1)
