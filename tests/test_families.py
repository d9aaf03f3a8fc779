import itertools
import tracemalloc

import numpy as np
import pytest

from strataforge import families, ffield
from strataforge.curves import curve_new
from strataforge.errors import BudgetExceededError
from strataforge.ffield import (FqPoly, enumerate_monic, field_new, monic_codes, poly_squarefree,
                                squarefree_mask)
from strataforge.prank import hasse_witt_from_poly, stable_rank

# Exact weighted counts at f = 0 .. g of every monic squarefree model of
# degree 2g + 1 (the total is q^d - q^(d-1)).
PINNED = {
    (7, 1, 2): [378, 1764, 12264],
    (3, 2, 2): [648, 4608, 47232],
    (5, 1, 3): [580, 2360, 9200, 50360],
    (3, 1, 3): [54, 120, 342, 942],
    (3, 1, 5): [522, 1194, 3360, 9750, 24360, 78912],
}


@pytest.mark.parametrize("p,n,g", sorted(PINNED))
def test_stratum_counts_are_pinned_with_and_without_the_cut(p, n, g):
    field = field_new(p, n)
    q, d = field.size, 2 * g + 1
    family = families.exhaustive(field, g)
    blocks = list(family)
    assert sum(len(codes) * w for codes, w in blocks) == q**d - q ** (d - 1)
    assert {w for _, w in blocks} == {q}                  # p does not divide d here
    assert all(codes.dtype == np.int16 and codes.shape[1] == d + 1
               and len(codes) <= ffield.BLOCK_ROWS and (codes[:, d - 1] == 0).all()
               for codes, _ in blocks)
    assert families.strata_counts(family) == PINNED[p, n, g]
    # every model, uncut, weight 1
    every = monic_codes(q, d, np.flatnonzero(squarefree_mask(field, d)))
    uncut = np.bincount(families.p_ranks(field, g, every), minlength=g + 1)
    assert uncut.tolist() == PINNED[p, n, g]


def det_a_p3(field, c, g):
    """det A at p = 3 from the coefficients of f (c_(2g+1) = 1), written out:
    A[i][j] = c_(3i-j), so it is a polynomial in the c_m."""
    add, mul, sub = field.add, field.mul, field.sub
    if g == 2:
        return sub(mul(c[2], c[4]), c[1])
    return add(sub(mul(mul(c[2], c[4]), c[6]), mul(c[2], c[3])),
               sub(mul(c[0], c[5]), mul(mul(c[1], c[5]), c[6])))


@pytest.mark.parametrize("n,g", [(1, 2), (2, 2), (1, 3)])
def test_non_ordinary_weight_equals_the_models_where_det_a_vanishes_at_p3(n, g):
    """At p = 3 the p-rank is below g exactly when det A = 0, and det A is
    an explicit polynomial in the coefficients: the weighted count of f < g
    equals a plain count over every squarefree model."""
    field = field_new(3, n)
    plain = sum(1 for f in enumerate_monic(field, 2 * g + 1, squarefree_only=True)
                if det_a_p3(field, f.coeffs, g) == 0)
    assert sum(families.strata_counts(families.exhaustive(field, g))[:g]) == plain


def scalar_ranks(field, g, codes):
    return [stable_rank(hasse_witt_from_poly(field, row, g)) for row in codes.tolist()]


@pytest.mark.parametrize("p,n,g", [(7, 1, 2), (3, 2, 2), (5, 1, 3)])
def test_p_ranks_equal_stable_rank_on_every_model(p, n, g):
    field = field_new(p, n)
    for codes, _ in families.exhaustive(field, g):
        assert families.p_ranks(field, g, codes).tolist() == scalar_ranks(field, g, codes)


@pytest.mark.parametrize("p,n,g", [(3, 3, 2), (3, 2, 3), (5, 1, 4), (11, 1, 2), (3, 1, 6)])
def test_p_ranks_equal_stable_rank_on_seeded_samples(p, n, g):
    field = field_new(p, n)
    (codes, weight), = families.sampled(field, g, 300, seed=p * n * g)
    assert weight == 1 and codes.shape == (300, 2 * g + 2)
    assert families.p_ranks(field, g, codes).tolist() == scalar_ranks(field, g, codes)


@pytest.mark.parametrize("p,n,g", [(3, 1, 2), (5, 1, 2), (3, 2, 3)])
def test_p_ranks_of_even_degree_models(p, n, g):
    """A model of degree 2g + 2 has the same Hasse-Witt matrix formula."""
    field = field_new(p, n)
    rng = np.random.default_rng(p * n * g)
    codes = rng.integers(0, field.size, (200, 2 * g + 3)).astype(np.int16)
    codes[:, -1] = rng.integers(1, field.size, 200)
    codes = codes[[ffield._gcd_squarefree(field, row) for row in codes.tolist()]]
    assert families.p_ranks(field, g, codes).tolist() == scalar_ranks(field, g, codes)


def test_p_ranks_in_steps_and_of_no_models(monkeypatch):
    field = field_new(5)
    codes = next(iter(families.exhaustive(field, 3)))[0]
    expected = families.p_ranks(field, 3, codes).tolist()
    monkeypatch.setattr(families, "BLOCK_BYTES", 1)        # one model a step
    assert families.p_ranks(field, 3, codes[:50]).tolist() == expected[:50]
    assert families.p_ranks(field, 3, codes[:0]).tolist() == []


def test_p_ranks_refuses_codes_of_another_genus():
    field = field_new(3)
    genus2 = next(iter(families.exhaustive(field, 2)))[0]          # 6 columns
    assert len(families.p_ranks(field, 2, genus2)) == len(genus2)
    for g, codes in ((3, genus2), (1, genus2), (2, genus2[0]), (2, genus2[:, :5])):
        with pytest.raises(ValueError, match=f"genus {g} needs rows of"):
            families.p_ranks(field, g, codes)


@pytest.mark.parametrize("rows,bad", [
    ([[1, 0, 0, 1, 0, 0, -1, 1]], "-1"),        # read as 2 by the int16 tables: p-rank 1
    ([[1, 0, 0, 1, 0, 0, 3, 1]], "3"),
    ([[1, 0, 0, 1, 0, 0, 1.5, 1]], "1.5"),      # the cast would truncate it to 1
    ([[1, 0, 0, 1, 0, 0, float("nan"), 1]], "nan"),
    (np.array([[1, 0, 0, 1, 0, 0, 40000, 1]], dtype=np.int32), "40000"),   # wraps in int16
    (np.array([[1, 0, 0, 1, 0, 0, 2**16 + 2, 1]], dtype=np.uint32), "65538"),
    ([[1, 0, 0, 1, 0, 0, None, 1]], None),
    (np.ones((1, 8), bool), None),
], ids=["negative", "q", "fraction", "nan", "wraps", "wraps-to-2", "object", "bool"])
def test_p_ranks_refuse_codes_outside_the_field(rows, bad):
    """A code that is not an integer in [0, q) is refused, named, before the
    int16 cast that would truncate or wrap it, and so is an array of
    non-numbers; the row with 2 in place of the bad code, whole floats
    included, has the p-rank 2 of the scalar route."""
    field = field_new(3)
    message = (rf"^code {bad} is not an integer in \[0, 3\)$" if bad
               else r"^codes must be integers, got an array of (object|bool)$")
    with pytest.raises(ValueError, match=message):
        families.p_ranks(field, 3, rows)
    good = np.array([[1, 0, 0, 1, 0, 0, 2, 1]])
    assert scalar_ranks(field, 3, good) == [2]
    assert families.p_ranks(field, 3, good).tolist() == [2]
    assert families.p_ranks(field, 3, good.astype(float)).tolist() == [2]


@pytest.mark.parametrize("n", [-1, 2.5, "3", None])
def test_sampled_refuses_a_bad_n_when_called(n):
    """The family is refused when it is made, not iterated: a negative or
    fractional n would never reach zero models left."""
    with pytest.raises(ValueError, match="n must be an int >= 0"):
        families.sampled(field_new(7), 2, n, 0)


def test_sampled_of_no_models_is_empty():
    assert list(families.sampled(field_new(7), 2, 0, 0)) == []
    assert sum(len(codes) for codes, _ in families.sampled(field_new(7), 2, np.int64(5), 0)) == 5


# strata_g3_sampled of the benchmark draws the same 1,000 models per seed
@pytest.mark.parametrize("seed,counts", [(1, [10, 22, 113, 855]), (2, [2, 7, 134, 857])])
def test_sampled_family_is_the_benchmark_sample(seed, counts):
    family = families.sampled(field_new(7), 3, 1000, seed)
    assert sum(len(codes) * w for codes, w in family) == 1000
    assert families.strata_counts(family) == counts
    assert families.strata_counts(family) == counts        # a second pass, same blocks


def test_curve_new_on_a_sampled_family_reads_the_verdict_memo(empty_verdict_memo):
    """``sampled`` tests each candidate once; ``curve_new`` on each kept
    model re-tests it, and every re-test is a memo hit (no mask held)."""
    field = field_new(7)
    squarefree_mask(field, 2)                              # no degree-7 mask held
    (codes, _), = families.sampled(field, 3, 1000, 1)
    before = empty_verdict_memo.cache_info()
    for row in codes:
        curve_new(field, FqPoly(field, row))
    after = empty_verdict_memo.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1000, 0)


@pytest.mark.parametrize("p,n", [(7, 1), (3, 1), (3, 2)])
def test_poly_squarefree_on_numpy_rows(p, n, empty_verdict_memo):
    """Rows of int16 or int64 codes, squarefree or not, give the answer of
    the same list of ints on the gcd route: over F_7 and F_9 with a mask of
    another degree held, and over F_3 after a degree-4 mask replaced the
    one that ``exhaustive`` held for its rows."""
    field = field_new(p, n)
    q, g = field.size, 3 if p == 7 else 2
    if (p, n) == (3, 1):
        kept = next(iter(families.exhaustive(field, g)))[0][:200]
        squarefree_mask(field, 4)
    else:
        kept = next(iter(families.sampled(field, g, 200, 1)))[0]
        squarefree_mask(field, 2)
    drawn = monic_codes(q, 2 * g + 1, np.random.default_rng(q).integers(0, q ** (2 * g + 1), 200))
    for codes in (kept, drawn):
        expected = [ffield._gcd_squarefree(field, c) for c in codes.tolist()]
        for dtype in (np.int16, np.int64):
            empty_verdict_memo.cache_clear()
            assert [poly_squarefree(field, row) for row in codes.astype(dtype)] == expected
    assert all(ffield._gcd_squarefree(field, c) for c in kept.tolist())
    assert not all(expected)


def test_sampled_blocks_continue_one_stream(monkeypatch):
    field = field_new(5)
    whole = np.concatenate([codes for codes, _ in families.sampled(field, 2, 100, 3)])
    monkeypatch.setattr(families, "BLOCK_ROWS", 30)
    blocks = [codes for codes, _ in families.sampled(field, 2, 100, 3)]
    assert [len(b) for b in blocks] == [30, 30, 30, 10]
    assert np.concatenate(blocks).tolist() == whole.tolist()


def test_exhaustive_blocks_span_the_mask(monkeypatch):
    field = field_new(3)
    whole = np.concatenate([codes for codes, _ in families.exhaustive(field, 3)])
    monkeypatch.setattr(families, "BLOCK_ROWS", 100)
    blocks = [codes for codes, _ in families.exhaustive(field, 3)]
    assert len(blocks) == 8 and np.concatenate(blocks).tolist() == whole.tolist()   # 3^6 / 100
    listed = enumerate_monic(field, 7, squarefree_only=True)
    assert whole.tolist() == [list(f.coeffs) for f in listed if f.coeffs[6] == 0]


def test_families_over_a_budget_are_refused_before_any_allocation(monkeypatch):
    big, f7 = field_new(3, 10), field_new(7)
    monkeypatch.setattr(ffield, "ENUMERATE_CAP", 7**8 - 1)     # the cut mask at g = 4
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"genus 2 over GF\(3\^10\): .* int16"):
            families.exhaustive(big, 2)
        with pytest.raises(BudgetExceededError, match=r"genus 2 over GF\(3\^10\)"):
            families.sampled(big, 2, 10, 1)
        with pytest.raises(BudgetExceededError, match=r"genus 2 over GF\(3\^10\)"):
            families.p_ranks(big, 2, np.zeros((1, 6), dtype=np.int16))
        with pytest.raises(BudgetExceededError, match=r"degree 9 over GF\(7\): .*ENUMERATE_CAP"):
            families.exhaustive(f7, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(ValueError, match="genus"):
        families.exhaustive(f7, 0)


def test_cut_applies_only_where_p_does_not_divide_the_degree():
    # 2g + 1 = 5 at p = 5: x -> x + b leaves c_4 alone
    family = families.exhaustive(field_new(5), 2)
    assert {w for _, w in family} == {1}
    assert sum(len(codes) for codes, _ in family) == 5**5 - 5**4
    assert list(itertools.islice(family, 1))[0][0][:, 4].any()
