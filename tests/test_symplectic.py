import math
import random
from fractions import Fraction

import numpy as np
import pytest

from strataforge.curves import LPolynomial
from strataforge.errors import BudgetExceededError
from strataforge.symplectic import (
    SP_ENUM_BYTES_PER_ELEMENT,
    SP_ENUM_CAP,
    SP_WALK_BLOCK,
    SP_WALK_BYTES_PER_WALK,
    MonteCarloEstimate,
    _charpolys,
    _entry_dtype,
    _randbelow_many,
    _random_sp_blocks,
    _reduction_interval,
    _sp_elements,
    _subspace_types,
    charpoly_mod,
    coset_charpoly_distribution,
    det_mod,
    fixed_vector_proportion,
    group_bfs,
    has_nonzero_fixed_vector,
    identity,
    is_symplectic,
    mat_mul,
    mat_sub,
    matrix_charpoly,
    multiplier,
    multiplier_coset_rep,
    pairing,
    random_sp,
    sp_order,
    standard_generators,
    symplectic_form,
    transvection,
    weyl_order,
)


# ---------------------------------------------------------------------------
# form and multiplier


def test_symplectic_form_is_skew_and_invertible():
    from strataforge.symplectic import det_mod, mat_transpose
    for g, l in [(1, 3), (2, 3), (2, 5)]:
        j = symplectic_form(g, l)
        assert mat_transpose(j) == tuple(tuple((-x) % l for x in row) for row in j)
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
        a = random_sp(1, l, seed=1)
        b = random_sp(1, l, seed=2)
        d2 = multiplier_coset_rep(1, l, 2)
        for x in (a, mat_mul(a, d2, l)):
            for y in (b, mat_mul(b, d2, l)):
                assert multiplier(mat_mul(x, y, l), l) == \
                    multiplier(x, l) * multiplier(y, l) % l


def test_coset_rep_has_multiplier_m():
    for g, l in [(1, 3), (2, 3), (2, 5)]:
        for m in range(1, l):
            assert multiplier(multiplier_coset_rep(g, l, m), l) == m


# ---------------------------------------------------------------------------
# orders and BFS


def test_sp_order_formula():
    assert sp_order(1, 3) == 24
    assert sp_order(1, 5) == 120
    assert sp_order(2, 3) == 51840


def test_weyl_order():
    assert [weyl_order(g) for g in (1, 2, 3)] == [2, 8, 48]


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
        m = random_sp(2, 3, seed=seed)
        assert multiplier(m, 3) == 1
        assert random_sp(2, 3, seed=seed) == m


@pytest.mark.parametrize("l", [2, 4, 9])
def test_random_sp_rejects_a_modulus_that_is_not_an_odd_prime(l):
    with pytest.raises(ValueError, match="odd prime"):
        random_sp(2, l, 0)


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


def test_transvection_is_x_plus_pairing_times_v():
    import itertools
    for g, l in [(1, 3), (2, 3), (1, 5)]:
        d = 2 * g
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        for v in itertools.product(range(l), repeat=d):
            t = transvection(v, g, l)
            expected = tuple(
                tuple((int(i == j) + v[i] * pairing(units[j], v, g, l)) % l
                      for j in range(d))
                for i in range(d))
            assert t == expected
            assert is_symplectic(t, l)


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


def test_coset_charpoly_distribution_cap():
    with pytest.raises(BudgetExceededError):
        coset_charpoly_distribution(2, 7, 1, cap=1000)


def test_enumeration_cap_refuses_sp4_mod_5_up_front():
    # 9,360,000 elements, about 3.6 GiB: refused before the closure starts
    assert sp_order(2, 5) > SP_ENUM_CAP
    with pytest.raises(BudgetExceededError, match="9360000"):
        coset_charpoly_distribution(2, 5, 1)


def test_enumeration_memory_per_element():
    import tracemalloc
    standard_generators(1, 13)  # warm caches outside the measurement
    _sp_elements.cache_clear()
    tracemalloc.start()
    try:
        elements = _sp_elements(1, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _sp_elements.cache_clear()
    assert len(elements) == sp_order(1, 13)
    assert peak < SP_ENUM_BYTES_PER_ELEMENT * len(elements)


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
    elements = _sp_elements(1, l)
    for m in range(1, l):
        rep = multiplier_coset_rep(1, l, m)
        hits = sum(has_nonzero_fixed_vector(mat_mul(s, rep, l), l) for s in elements)
        assert fixed_vector_proportion(1, l, m) == Fraction(hits, len(elements))


def _vanish_at_one(stack, l):
    """Whether the kernel's charpoly of each matrix of ``stack`` vanishes at
    T = 1, i.e. whether det(1 - M) = 0: its coefficient sum mod l."""
    return (_charpolys(np.array(stack), l).sum(axis=1) % l == 0).tolist()


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_singular_mod_matches_det_mod_on_the_cosets_of_sp2(l):
    """On every element M of every coset Sp_2(Z/l) D_m, the kernel's
    charpoly vanishes at 1 exactly when det_mod(M - 1) = 0."""
    elements = _sp_elements(1, l)
    for m in range(1, l):
        rep = multiplier_coset_rep(1, l, m)
        stack = [mat_mul(s, rep, l) for s in elements]
        assert _vanish_at_one(stack, l) == \
            [det_mod(mat_sub(a, identity(2), l), l) == 0 for a in stack]


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


@pytest.mark.parametrize("call,match", [
    (lambda: random_sp(0, 3, 1), "g must be"),
    (lambda: random_sp(2, 3, 1, walk_length=0), "walk_length >= 1"),
    (lambda: fixed_vector_proportion(0, 3, 1), "g must be"),
    (lambda: fixed_vector_proportion(0, 3, 1, mode="montecarlo", n=5), "g must be"),
    (lambda: fixed_vector_proportion(2, 3, 1, mode="montecarlo", walk_length=0), "walk_length >= 1"),
    (lambda: fixed_vector_proportion(2, 3, 1, mode="montecarlo", walk_length=-3), "walk_length >= 1"),
    (lambda: coset_charpoly_distribution(0, 3, 1, mode="montecarlo", n=5), "g must be"),
], ids=["random_sp-g0", "random_sp-walk0", "exact-g0", "montecarlo-g0", "montecarlo-walk0",
        "montecarlo-walk-neg", "charpoly-g0"])
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


def test_matrix_charpoly_against_known():
    assert matrix_charpoly(identity(2), 5) == (1, 3, 1)  # (T-1)^2
    m = ((0, 1), (4, 0))
    assert matrix_charpoly(m, 5) == ((-4) % 5, 0, 1)  # T^2 - 4


def test_matrix_charpoly_trace_det_consistency():
    for seed in range(8):
        m = random_sp(2, 3, seed=seed)
        poly = matrix_charpoly(m, 3)
        assert len(poly) == 5 and poly[-1] == 1
        tr = sum(m[i][i] for i in range(4)) % 3
        assert poly[3] == (-tr) % 3
        from strataforge.symplectic import det_mod
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
    samples = [mat_mul(random_sp(g, l, seed=s), multiplier_coset_rep(g, l, 1 + s % (l - 1)), l)
               for s in range(12)]
    for density in (1.0, 0.3):
        for _ in range(40):
            samples.append(tuple(
                tuple(rng.randrange(l) if rng.random() < density else 0 for _ in range(d))
                for _ in range(d)))
    samples.append(identity(d))
    for m in samples:
        assert matrix_charpoly(m, l) == cofactor_charpoly(m, l), m


@pytest.mark.parametrize("g,l", [(2, 65537), (1, 4294967311)])
def test_matrix_charpoly_matches_cofactor_expansion_at_large_l(g, l):
    """At l = 4294967311, d l^2 > 2^63 and the kernel runs on Python ints."""
    assert _entry_dtype(2 * g, l) is (object if l > 2**32 else np.int64)
    rng = random.Random(l)
    d = 2 * g
    samples = [mat_mul(random_sp(g, l, seed=s), multiplier_coset_rep(g, l, 1 + s), l)
               for s in range(10)]
    samples += [tuple(tuple(rng.randrange(-l, 2 * l) for _ in range(d)) for _ in range(d))
                for _ in range(20)]
    for m in samples:
        assert matrix_charpoly(m, l) == cofactor_charpoly(m, l), m


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_exact_coset_charpoly_distribution_counts_cofactor_charpolys(l):
    """Every coset of Sp_2(Z/l): the distribution, keys in first-seen order,
    is the histogram of the cofactor charpolys of s D_m over the group."""
    elements = _sp_elements(1, l)
    for m in range(1, l):
        rep = multiplier_coset_rep(1, l, m)
        counts = {}
        for s in elements:
            key = cofactor_charpoly(mat_mul(s, rep, l), l)
            counts[key] = counts.get(key, 0) + 1
        expected = [(k, Fraction(v, len(elements))) for k, v in counts.items()]
        assert list(coset_charpoly_distribution(1, l, m).items()) == expected


def test_coset_charpoly_distribution_sl2_frozen():
    dist = coset_charpoly_distribution(1, 3, 1)
    assert dist == {
        (1, 0, 1): Fraction(1, 4),
        (1, 1, 1): Fraction(3, 8),
        (1, 2, 1): Fraction(3, 8),
    }
    assert sum(dist.values()) == 1
