import itertools
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest

import strataforge.curves as curves
from strataforge import families, ffield, prank, weil
from strataforge.curves import (
    MATRIX_PASS_ENTRIES,
    POINTCOUNT_BYTES_PER_ELEMENT,
    POINTCOUNT_FIELD_CAP,
    HyperellipticCurve,
    LPolynomial,
    curve_new,
    l_polynomial,
    l_polynomial_from_counts,
    point_count,
    point_counts,
    point_counts_from,
    power_sums,
)
from strataforge.errors import BudgetExceededError, ConsistencyError
from strataforge.ffield import FqPoly, enumerate_monic, field_new

# Every test here starts with the translation-class memos of l_polynomial and
# p_rank empty: a test that feeds l_polynomial a miscount through
# curves._sums must reach that count, not an L that a test of another module
# left behind for the class of its curve.
pytestmark = pytest.mark.usefixtures("empty_class_memos")


def make_curve(p_or_field, ints, n=1):
    field = p_or_field if hasattr(p_or_field, "size") else field_new(p_or_field, n)
    return curve_new(field, FqPoly(field, tuple(c % field.p for c in ints)))


def brute_count(curve, k=1):
    """Oracle: double loop over (x, y) in F_{q^k}^2 plus points at infinity,
    using only add/mul (independent of the quadratic-character path)."""
    base = curve.field
    ext = field_new(base.p, base.n * k)
    emb = base.embedding_into(ext)
    coeffs = [int(emb[c]) for c in curve.f.coeffs]
    count = 0
    for x in range(ext.size):
        fx = 0
        for c in reversed(coeffs):
            fx = ext.add(ext.mul(fx, x), c)
        for y in range(ext.size):
            if ext.mul(y, y) == fx:
                count += 1
    if curve.model_degree % 2 == 1:
        count += 1
    else:
        lead = coeffs[-1]
        count += sum(1 for y in range(ext.size) if y and ext.mul(y, y) == lead) and 2
    return count


def scalar_count(curve, k=1):
    """Oracle: the scalar Horner loop, one x at a time, with the quadratic
    character from Euler's criterion instead of the parity of a log."""
    base = curve.field
    ext = field_new(base.p, base.n * k)
    emb = base.embedding_into(ext)
    coeffs = [int(emb[c]) for c in curve.f.coeffs]
    half = (ext.size - 1) // 2
    total = ext.size
    for x in range(ext.size):
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        if acc:
            total += 1 if ext.pow(acc, half) == 1 else -1
    if curve.model_degree % 2 == 1:
        return total + 1
    return total + (2 if ext.pow(coeffs[-1], half) == 1 else 0)


def full_field_count(curve, k=1):
    """Oracle for large fields: f at every x of F_{q^k} in numpy, x = G^i
    multiplied through the exp/log tables (a zero accumulator stays zero)
    and each coefficient added digit by digit in base p (no Zech table, no
    Frobenius orbit)."""
    base = curve.field
    ext = field_new(base.p, base.n * k)
    emb = base.embedding_into(ext)
    coeffs = [int(emb[c]) for c in curve.f.coeffs]
    exp, log = ext.exp_log
    i = np.arange(ext.size - 1, dtype=np.int32)
    acc = np.zeros(ext.size - 1, dtype=np.int32)
    for c in reversed(coeffs):
        zero = acc == 0
        acc = exp[np.where(zero, 0, log[acc]) + i]       # acc * x
        acc[zero] = 0
        change, place = np.zeros_like(acc), 1
        while c:
            c, digit = divmod(c, ext.p)
            if digit:
                low = acc // place % ext.p
                change += ((low + digit) % ext.p - low) * place
            place *= ext.p
        acc += change
    signs = np.where(acc == 0, 0, 1 - 2 * (log[acc] & 1))
    count = ext.size + int(signs.sum()) + ext.chi(coeffs[0])
    if curve.model_degree % 2 == 1:
        return count + 1
    return count + (2 if ext.chi(coeffs[-1]) == 1 else 0)


@pytest.fixture
def each_route(monkeypatch):
    """Iterate a check over both point-count routes: with the matrix cap at
    0 every pass runs Horner steps, and above every case, matrix products.
    Each leg starts with both pass caches empty and checks, when the check
    asks for the next leg, that it built passes of its own route only, so a
    route decision left over from the other leg shows."""
    def routes():
        for route, cap in (("horner", 0), ("matrix", 1 << 62)):
            monkeypatch.setattr(curves, "MATRIX_PASS_ENTRIES", cap)
            curves._extension_pass.cache_clear()
            curves._matrix_pass.cache_clear()
            yield route
            built = {"horner": curves._extension_pass.cache_info().misses,
                     "matrix": curves._matrix_pass.cache_info().misses}
            assert built.pop(route) > 0 and set(built.values()) == {0}, (route, built)
    return routes


def power_sums_of(q, counts):
    """s_k = q^k + 1 - N_k, k = 1, 2, ...: what a pass hands l_polynomial."""
    return [q**k + 1 - n for k, n in enumerate(counts, start=1)]


def nonsquare(field):
    return next(a for a in range(1, field.size)
                if all(field.mul(y, y) != a for y in range(field.size)))


# ---------------------------------------------------------------------------
# construction


def test_curve_new_genus_one_example():
    c = make_curve(3, [1, 0, 1, 1])  # x^3 + x^2 + 1
    assert c.genus == 1 and c.model_degree == 3


def test_curve_new_genus_two_example():
    c = make_curve(5, [1, 1, 0, 0, 0, 1])  # x^5 + x + 1, squarefree over F_5
    assert c.genus == 2


def test_curve_new_rejects_bad_models():
    f3 = field_new(3)
    with pytest.raises(ValueError):
        curve_new(f3, FqPoly(f3, (0, 0, 1)))  # x^2: degree too small
    with pytest.raises(ValueError):
        curve_new(f3, FqPoly(f3, (0, 0, 0, 2)))  # not monic
    with pytest.raises(ValueError):
        curve_new(f3, FqPoly(f3, (0, 0, 1, 1)))  # x^3 + x^2 = x^2(x+1)
    f5 = field_new(5)
    with pytest.raises(ValueError, match="over a different field"):
        curve_new(f3, FqPoly(f5, (1, 1, 0, 1)))


def test_curve_new_on_a_sieved_family_runs_no_gcd(monkeypatch, empty_verdict_memo):
    """Every model of the sieved genus-3 family over F_3 is checked by one
    lookup in the mask its enumeration holds: neither ``zp_squarefree`` nor
    the gcd route runs, no verdict reaches the memo, and a model the mask
    rejects is still refused."""
    field = field_new(3)
    models = list(enumerate_monic(field, 7, squarefree_only=True))

    def refuse(*args):
        raise AssertionError("the gcd route ran")

    monkeypatch.setattr(ffield, "zp_squarefree", refuse)
    monkeypatch.setattr(ffield, "_gcd_squarefree", refuse)
    assert len([curve_new(field, f) for f in models]) == 1458
    with pytest.raises(ValueError, match="squarefree"):
        curve_new(field, FqPoly(field, (0, 0, 0, 0, 0, 0, 0, 1)))    # x^7
    assert empty_verdict_memo.cache_info().currsize == 0


def test_even_degree_model_supported():
    c = make_curve(5, [1, 1, 0, 0, 1])  # degree 4 => genus 1
    assert c.genus == 1


# ---------------------------------------------------------------------------
# point counts


def test_point_count_frozen_examples():
    assert point_count(make_curve(3, [0, 1, 0, 1])) == 4      # y^2 = x^3 + x
    assert point_count(make_curve(3, [1, 0, 1, 1])) == 6      # y^2 = x^3 + x^2 + 1


@pytest.mark.parametrize("p,ints", [
    (3, [0, 1, 0, 1]),
    (3, [1, 0, 1, 1]),
    (5, [1, 1, 0, 0, 0, 1]),
    (7, [3, 2, 0, 1]),
    (5, [1, 1, 0, 0, 1]),          # even-degree model
])
def test_point_count_matches_brute_force(p, ints):
    c = make_curve(p, ints)
    for k in (1, 2):
        assert point_count(c, k) == brute_count(c, k)


def test_point_count_over_extension_base_field():
    c = make_curve(field_new(3, 2), [1, 0, 1, 1])
    assert point_count(c, 1) == brute_count(c, 1)


@pytest.mark.parametrize("p,n,ints,lead,ks", [
    (3, 2, [1, 0, 1, 1], None, (2,)),
    (3, 2, [1, 3, 0, 0, 5], "nonsquare", (1, 2)),  # even degree, lead not in F_3
    (5, 2, [1, 7, 0, 1], None, (1,)),
    (5, 2, [2, 0, 1, 0, 1], "square", (1,)),
    (5, 2, [2, 0, 1, 0, 1], "nonsquare", (1,)),
    (5, 1, [1, 1, 0, 0, 1], "nonsquare", (1, 2)),
    (7, 1, [3, 0, 1, 0, 0, 0, 1], "square", (1, 2)),
])
def test_point_count_matches_brute_force_on_leads_and_base_fields(p, n, ints, lead, ks,
                                                                  each_route):
    field = field_new(p, n)
    coeffs = [c % field.size for c in ints]
    if lead == "square":
        coeffs[-1] = field.mul(2, 2)
    elif lead == "nonsquare":
        coeffs[-1] = nonsquare(field)
    # built directly: curve_new accepts monic f only
    c = HyperellipticCurve(field, FqPoly(field, tuple(coeffs)))
    brute = {k: brute_count(c, k) for k in range(1, max(ks) + 1)}
    for route in each_route():
        for k in ks:
            assert point_count(c, k) == brute[k], route
        assert point_counts(c, max(ks)) == [brute[k] for k in range(1, max(ks) + 1)], route


@pytest.mark.parametrize("degree", [5, 6])
def test_point_count_matches_scalar_loop_on_exhaustive_genus2_f3(degree, each_route):
    field = field_new(3)
    family = [curve_new(field, f) for f in enumerate_monic(field, degree, squarefree_only=True)]
    expected = [[scalar_count(c, k) for k in (1, 2, 3)] for c in family]
    for route in each_route():
        for c, counts in zip(family, expected):
            for k in (1, 2, 3):
                assert point_count(c, k) == counts[k - 1], (route, c.f.coeffs, k)
            assert point_counts(c, 3) == counts, (route, c.f.coeffs)


@pytest.mark.parametrize("p,n,ints,upto", [
    (3, 1, [1, 0, 0, 0, 0, 0, 0, 1], 3),        # x^7 + 1: one gap of 7
    (3, 1, [0, 1, 0, 0, 0, 0, 0, 0, 1], 3),     # x^8 + x: a gap of 7, then a factor x
    (5, 1, [1, 0, 0, 0, 0, 0, 0, 1], 3),
    (7, 1, [0, 1, 0, 0, 0, 0, 0, 0, 1], 2),
    (3, 2, [1, 0, 0, 0, 0, 0, 0, 1], 2),
    (3, 1, [1, 0, 0, 0, 0, 0, 1, 1], 3),        # x + 1 = 0 at x = -1, then a gap of 6
    (5, 1, [0, 3, 1, 0, 0, 1], 3),              # x^3 + 1 = 0 at x = -1; roots 0 and 1
    (7, 1, [0, 5, 0, 1, 1], 3),                 # even degree, x + 1 = 0; roots 0 and 1
    (3, 2, [2, 3, 0, 1, 1], 2),                 # even degree over F_9, x + 1 = 0
])
def test_point_counts_on_zero_runs_and_vanishing_partial_values(p, n, ints, upto, each_route):
    """Runs of zero coefficients multiply by x^r in one step, and a Horner
    value that vanishes midway (x = -c_{d-1}, or a root of f in the base
    field) must go through the zero code and come back at the next term."""
    field = field_new(p, n)
    c = HyperellipticCurve(field, FqPoly(field, tuple(x % field.size for x in ints)))
    expected = [scalar_count(c, k) for k in range(1, upto + 1)]
    for route in each_route():
        assert point_counts(c, upto) == expected, route
        assert [point_count(c, k) for k in range(1, upto + 1)] == expected, route


def necklace_count(q, d):
    """Number of aperiodic necklaces of length d over q letters:
    (1/d) sum over e | d of mu(d/e) q^e."""
    def mobius(n):
        sign, r = 1, 2
        while n > 1:
            if n % r == 0:
                n //= r
                if n % r == 0:
                    return 0
                sign = -sign
            r += 1
        return sign
    return sum(mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d


# R_d is built only for fields a point count may walk, q^d <= the budget;
# at (27, 6) it would hold 64.6 million representatives
@pytest.mark.parametrize("q,d", [(q, d) for q in (3, 5, 7, 9, 25, 27) for d in range(1, 7)
                                 if q**d <= POINTCOUNT_FIELD_CAP])
def test_orbit_representatives_are_counted_by_necklaces(q, d):
    from strataforge.curves import _orbit_representatives
    reps = _orbit_representatives(q, d)
    assert len(reps) == necklace_count(q, d) - (d == 1)
    assert reps.dtype == np.int32 and np.all(np.diff(reps) > 0)


@pytest.mark.parametrize("q,d", [(3, d) for d in range(1, 7)] + [(5, 4), (9, 3), (7, 2)])
def test_orbit_representatives_are_the_least_of_each_exact_orbit(q, d):
    from strataforge.curves import _orbit_representatives
    m = q**d - 1
    orbits = {frozenset(i * q**t % m for t in range(d)) for i in range(m)}
    expected = sorted(min(orbit) for orbit in orbits if len(orbit) == d)
    assert _orbit_representatives(q, d).tolist() == expected


def test_orbit_representatives_span_blocks(monkeypatch):
    expected = curves._orbit_representatives(5, 4).tolist()
    monkeypatch.setattr(curves, "ORBIT_BLOCK", 7)
    assert curves._orbit_representatives(5, 4).tolist() == expected


def test_point_counts_match_scalar_loop_on_exhaustive_genus3_f3(each_route):
    field = field_new(3)
    family = [curve_new(field, f) for f in enumerate_monic(field, 7, squarefree_only=True)]
    expected = [[scalar_count(c, k) for k in range(1, 5)] for c in family]
    for route in each_route():
        for c, counts in zip(family, expected):
            assert point_counts(c, 4) == counts, (route, c.f.coeffs)


@pytest.mark.parametrize("p,n,ints,k", [
    (3, 1, [1, 0, 1, 0, 0, 1], 4),
    (3, 1, [1, 0, 1, 0, 0, 1], 6),
    (3, 1, [2, 1, 0, 2, 1, 0, 1], 6),           # even model
    (5, 1, [1, 1, 0, 0, 0, 1], 4),
    (3, 2, [1, 0, 1, 1], 4),
    (7, 1, [0, 5, 0, 1, 1], 4),                 # even model with roots 0 and 1
])
def test_point_count_at_composite_degree(p, n, ints, k, each_route):
    """N_4 sums the segments d = 1, 2 (as chi^2) and 4; N_6 sums d = 1, 3
    (as chi^2) and 2, 6."""
    c = make_curve(p, ints, n)
    expected = scalar_count(c, k)
    for route in each_route():
        assert point_count(c, k) == expected, route
        assert point_counts(c, k)[-1] == expected, route


@pytest.mark.parametrize("p,n,ints", [
    (3, 2, [0, None, 0, 1, 0, 1]),              # x^5 + x^3 + c_1 x
    (3, 2, [0, None, 1, 0, 0, 0, 1]),           # even model x^6 + x^2 + c_1 x
])
def test_point_counts_with_a_nonsquare_lowest_coefficient(p, n, ints, each_route):
    """With c_0 = 0 the Horner route reads f(x) = c_1 x g^u, and
    chi_{q^d}(c_1) = chi_q(c_1)^d is -1 for a non-square c_1 of F_q at odd d
    only: N_1..N_4 (segments d = 1, 2, 3, 4, where the tally's minus and
    plus entries swap at d = 1 and 3) equal the double loop over (x, y) up
    to k = 3 and the scalar loop at every k."""
    field = field_new(p, n)
    coeffs = [nonsquare(field) if c is None else c for c in ints]
    c = curve_new(field, FqPoly(field, tuple(coeffs)))
    expected = [scalar_count(c, k) for k in range(1, 5)]
    assert expected[:3] == [brute_count(c, k) for k in range(1, 4)]
    for route in each_route():
        assert point_counts(c, 4) == expected, route


@pytest.mark.parametrize("p,n,ints", [
    (3, 1, [1, 0, 1, 0, 2]),
    (5, 1, [1, 1, 0, 0, 0, 0, 2]),
    (7, 1, [3, 0, 1, 0, 3]),
    (3, 2, [2, 3, 0, 1, 1]),
])
def test_even_models_with_a_nonsquare_lead(p, n, ints, each_route):
    """No point at infinity at odd k, two at even k, where the lead becomes
    a square."""
    field = field_new(p, n)
    coeffs = [x % field.size for x in ints]
    coeffs[-1] = nonsquare(field)
    c = HyperellipticCurve(field, FqPoly(field, tuple(coeffs)))
    expected = [scalar_count(c, k) for k in range(1, 5)]
    for route in each_route():
        assert point_counts(c, 4) == expected, route
        assert [point_count(c, k) for k in range(1, 5)] == expected, route


def test_l_polynomial_checks_n4_on_seeded_genus3_curves_over_f27():
    field, rng, curves_ = field_new(3, 3), random.Random(27), []
    while len(curves_) < 5:
        coeffs = [rng.randrange(27) for _ in range(7)] + [1]
        try:
            curves_.append(curve_new(field, FqPoly(field, tuple(coeffs))))
        except ValueError:
            continue
    for c in curves_:
        L = l_polynomial(c)                      # counts N_4 over F_3^12 and checks it
        assert l_polynomial(c, field_cap=27**3) == L
        assert point_counts_from(L, 4)[3] == full_field_count(c, 4), c.f.coeffs


def test_point_count_memory_per_element():
    c = make_curve(47, [1, 1, 0, 1])       # F_47^3: 103,823 elements
    field_new(47, 3)                       # the descriptor is not a point_count table
    tracemalloc.start()
    try:
        point_count(c, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < POINTCOUNT_BYTES_PER_ELEMENT * 47**3


def test_point_counts_memory_per_element():
    ffield._fields.clear()                 # fresh descriptors: no tables built yet
    c = make_curve(47, [1, 1, 0, 1])
    for k in (1, 2, 3):
        field_new(47, k)
    tracemalloc.start()
    try:
        point_counts(c, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < POINTCOUNT_BYTES_PER_ELEMENT * (47 + 47**2 + 47**3)


@pytest.mark.parametrize("p,n,ints,upto,matrix", [
    (7, 1, [3, 2, 0, 1, 0, 0, 0, 1], 4, True),      # strata_g3_sampled's pass
    (3, 1, [1, 0, 1, 0, 0, 1], 6, True),
    (97, 1, [1, 1, 0, 1], 2, True),                 # sums up to 4 * 96^2
    (11, 1, [1, 2, 0, 1, 0, 0, 0, 1], 4, False),    # 132,320 entries
    (3, 2, [1, 0, 1, 1], 4, False),                  # F_9, k = 1..4: 121,856 entries
])
def test_point_count_route_follows_the_matrix_size(p, n, ints, upto, matrix):
    """A pass under MATRIX_PASS_ENTRIES builds no Horner tables, and one
    above it no matrix."""
    c = make_curve(p, ints, n)
    curves._extension_pass.cache_clear()
    curves._matrix_pass.cache_clear()
    ks = tuple(range(1, upto + 1))
    assert (curves._matrix_entries(c.field, ks, c.model_degree) <= MATRIX_PASS_ENTRIES) == matrix
    expected = point_counts(c, upto)
    assert curves._matrix_pass.cache_info().misses == matrix
    assert curves._extension_pass.cache_info().misses == (not matrix)
    assert expected == [full_field_count(c, k) for k in ks]


def test_matrix_pass_memory_at_the_cap():
    """The matrix route's largest passes (here 64,845 entries: F_23 up to
    F_23^3, an even model of degree 4) peak under 16 B per entry of the cap,
    with fresh field tables."""
    ffield._fields.clear()
    curves._matrix_pass.cache_clear()
    c = make_curve(23, [1, 0, 2, 1, 1])
    for k in (1, 2, 3):
        field_new(23, k)
    entries = curves._matrix_entries(c.field, (1, 2, 3), c.model_degree)
    assert 0.95 * MATRIX_PASS_ENTRIES < entries <= MATRIX_PASS_ENTRIES
    tracemalloc.start()
    try:
        point_counts(c, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curves._matrix_pass.cache_info().misses == 1
    assert peak < 16 * MATRIX_PASS_ENTRIES


def test_point_count_odd_model_always_has_a_point():
    for f in itertools.islice(enumerate_monic(field_new(3), 3, squarefree_only=True), 6):
        assert point_count(curve_new(field_new(3), f)) >= 1


def test_point_count_budget():
    c = make_curve(7, [3, 2, 0, 1])
    # the message names the field and f, so the failure reproduces from a log
    with pytest.raises(BudgetExceededError, match=re.escape("GF(7) with f = [3, 2, 0, 1]")):
        point_count(c, 9)
    # the pass stops at the first k over the budget
    with pytest.raises(BudgetExceededError, match=re.escape("= 5764801 exceeds the point-count "
                                                            "budget 2000000 at k = 8")):
        point_counts(c, 9)
    for k in (0, -1):                    # no extension degree, before any budget
        with pytest.raises(ValueError, match="extension degree must be >= 1"):
            point_count(c, k)
        with pytest.raises(ValueError, match="extension degree must be >= 1"):
            point_counts(c, k)


def test_horner_pass_past_int32_is_refused_before_any_table():
    """The Horner codes are int32 and reach 5 * sum of (q^d - 1) over the
    pass's degrees d; a caller's field_cap may admit such a pass (F_3 up to
    k = 18, F_9 up to k = 9), which is refused by name before any table."""
    misses = curves._extension_pass.cache_info().misses
    for p, n, k in ((3, 1, 18), (3, 2, 9)):
        c = make_curve(field_new(p, n), [1, 1, 0, 1])    # x^3 + x + 1
        with pytest.raises(BudgetExceededError, match=re.escape(f"int32, curve over {c.field!r} "
                                                                "with f = [1, 1, 0, 1]")):
            point_counts(c, k, field_cap=c.q**k)
    assert curves._extension_pass.cache_info().misses == misses


@pytest.mark.parametrize("call,name,value", [
    (point_count, "k", 2.0), (point_count, "k", "2"), (point_count, "k", None),
    (point_counts, "upto", 3.0), (point_counts, "upto", 1.5), (point_counts, "upto", "3"),
])
def test_extension_degree_must_be_an_integer(monkeypatch, call, name, value):
    """A k or ``upto`` that is not an integer is refused by name before any
    budget check or pass build; numpy integers are read as ints."""
    c = make_curve(7, [3, 2, 0, 1])
    expected = call(c, np.int64(2))
    assert expected == call(c, 2) and type(expected) is type(call(c, 2))
    monkeypatch.setattr(curves, "_route", lambda *args: pytest.fail("route decided"))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(c, value)


# ---------------------------------------------------------------------------
# L-polynomials


def test_l_polynomial_genus1_frozen_examples():
    assert l_polynomial(make_curve(3, [0, 1, 0, 1])).coeffs == (1, 0, 3)
    assert l_polynomial(make_curve(3, [1, 0, 1, 1])).coeffs == (1, 2, 3)


def test_l_polynomial_functional_equation_and_leading_coeff():
    for f in itertools.islice(enumerate_monic(field_new(5), 5, squarefree_only=True), 10):
        L = l_polynomial(curve_new(field_new(5), f))
        g, q = L.genus, L.q
        assert L.coeffs[2 * g] == q**g
        for i in range(g + 1):
            assert L.coeffs[2 * g - i] == q ** (g - i) * L.coeffs[i]


def test_l_polynomial_consistency_error_names_the_curve(monkeypatch):
    c = make_curve(3, [1, 0, 1, 0, 0, 1])  # x^5 + x^2 + 1 over F_3
    true_counts = curves.point_counts
    # N_2 off by one makes a_2 = (s_1^2 + s_2) / 2 a non-integer
    bad = [n + (k == 2) for k, n in enumerate(true_counts(c, 3, POINTCOUNT_FIELD_CAP), start=1)]
    # l_polynomial reads the power sums s_k = q^k + 1 - N_k of its pass
    monkeypatch.setattr(curves, "_sums", lambda curve, ks, cap: power_sums_of(3, bad))
    # the L memo caches no failure: every call raises again and names its
    # own curve, also a second curve (the translate f(x + 1)) with the same
    # counts
    translate = make_curve(3, [0, 1, 2, 1, 2, 1])
    for curve, f in ((c, "[1, 0, 1, 0, 0, 1]"), (c, "[1, 0, 1, 0, 0, 1]"),
                     (translate, "[0, 1, 2, 1, 2, 1]")):
        with pytest.raises(ConsistencyError, match=re.escape(f"GF(3) with f = {f}")):
            l_polynomial(curve)


@pytest.mark.parametrize("delta,cause", [
    (-4, "predicts N_3 = 38, counted 18"),     # a valid-looking L = (1, -2, 6, -6, 9)
    (30, "Weil bound"),                        # no LPolynomial at all
])
def test_l_polynomial_miscounted_n1_raises(monkeypatch, delta, cause):
    c = make_curve(3, [1, 0, 1, 0, 0, 1])  # x^5 + x^2 + 1 over F_3
    true_sums = curves._sums
    # N_1 + delta is s_1 - delta in the power sums that l_polynomial reads
    monkeypatch.setattr(curves, "_sums", lambda curve, ks, cap: [
        s - delta * (k == 1) for k, s in zip(ks, true_sums(curve, ks, cap))])
    with pytest.raises(ConsistencyError,
                       match=re.escape(cause) + ".*" + re.escape("GF(3) with f = [1, 0, 1, 0, 0, 1]")):
        l_polynomial(c)


def test_l_polynomial_skips_the_check_count_above_the_budget():
    c = make_curve(3, [1, 0, 1, 0, 0, 1])
    assert l_polynomial(c, field_cap=9).coeffs == l_polynomial(c).coeffs == (1, 2, 6, 6, 9)


def test_l_polynomial_from_counts_needs_g_counts():
    with pytest.raises(ValueError, match="genus 3 needs the counts N_1..N_3, got 2"):
        l_polynomial_from_counts(3, 3, [4, 10])
    for genus in (0, -1):      # a caller's error, not a ConsistencyError on the counts
        with pytest.raises(ValueError, match=rf"genus must be >= 1, got {genus}$"):
            l_polynomial_from_counts(5, genus, [])
    L = LPolynomial(3, 2, (1, 2, 6, 6, 9))
    assert l_polynomial_from_counts(3, 2, point_counts_from(L, 2)) == L


def test_l_check_continues_the_power_sums_of_the_counts():
    """N_(g+1).. are checked against the power sums of N_1..N_g continued by
    Newton's identity (``power_sums`` from a known prefix): the same sums as
    recomputed from L, and a miscount at any k > g names that k."""
    L = l_polynomial(make_curve(7, [3, 1, 4, 1, 5, 0, 2, 1]))   # genus 3 over F_7
    full = power_sums(L.coeffs, 8)
    assert all(power_sums(L.coeffs, 8, full[:j]) == full for j in range(9))
    counts = point_counts_from(L, 8)
    assert l_polynomial_from_counts(7, 3, counts) == L
    for k in range(4, 9):
        bad = list(counts)
        bad[k - 1] += 1
        with pytest.raises(ConsistencyError, match=re.escape(
                f"L = {list(L.coeffs)} predicts N_{k} = {counts[k - 1]}, counted {bad[k - 1]}")):
            l_polynomial_from_counts(7, 3, bad)


@pytest.mark.parametrize("build,message", [
    (lambda: LPolynomial(5.0, 2, (1, 0, 10, 0, 25)), "q must be an integer, got 5.0"),
    (lambda: LPolynomial(5, 2.0, (1, 0, 10, 0, 25)), "genus must be an integer, got 2.0"),
    (lambda: LPolynomial(5, 2, (1, 0, 10.0, 0, 25)),
     "coefficients must be integers, got (1, 0, 10.0, 0, 25)"),
    (lambda: LPolynomial(5, 2, None), "coefficients must be integers, got None"),
    (lambda: l_polynomial_from_counts(5, 2, [7, 31.0]), "N_2 must be an integer, got 31.0"),
    (lambda: l_polynomial_from_counts(5, 2.0, [7, 31]), "genus must be an integer, got 2.0"),
    (lambda: l_polynomial_from_counts(5.0, 2, [7, 31]), "q must be an integer, got 5.0"),
    (lambda: l_polynomial_from_counts(5, 2, [7, "31"]), "N_2 must be an integer, got '31'"),
])
def test_l_inputs_must_be_integers(monkeypatch, build, message):
    """L is built from integers only: a q, genus, coefficient or count of
    another type is refused by name, and ``l_polynomial_from_counts``
    refuses it before any Newton step."""
    monkeypatch.setattr(curves, "_l_from_sums", lambda *args: pytest.fail("Newton step"))
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_l_from_numpy_integers_is_the_l_of_python_ints():
    """numpy integers and lists become a tuple of Python ints, so the L is
    equal, hashes alike and goes through the Weil layer: with np.int64
    coefficients the power sums behind ``absolutely_simple`` overflowed."""
    L = l_polynomial(make_curve(7, [3, 1, 4, 1, 5, 0, 2, 1]))   # genus 3 over F_7
    for coeffs in (np.array(L.coeffs, dtype=np.int64), list(L.coeffs)):
        copy = LPolynomial(np.int64(L.q), np.int32(L.genus), coeffs)
        assert copy == L and hash(copy) == hash(L)
        assert {type(x) for x in (copy.q, copy.genus, *copy.coeffs)} == {int}
        assert type(copy.coeffs) is tuple
        weil.absolutely_simple.cache_clear()
        assert weil.absolutely_simple(copy) == weil.absolutely_simple.__wrapped__(L)
    counts = point_counts_from(L, 4)
    assert l_polynomial_from_counts(np.int64(7), np.int64(3), np.array(counts)) == L


# genus-2 families over F_3, F_5 and F_9 and the genus-3 family over F_3,
# as (p, n, genus); every squarefree model of degree 2g + 1, and over F_3
# and F_5 of degree 2g + 2 as well (two points or none at infinity)
ORACLE_FAMILIES = ((3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3))


@pytest.mark.parametrize("top_is_g", [False, True])
@pytest.mark.parametrize("p,n,g", ORACLE_FAMILIES)
def test_l_from_the_pass_sums_is_the_l_of_the_counts(p, n, g, top_is_g, each_route):
    """On both routes, the L that ``l_polynomial`` reads off its pass's power
    sums is the L of ``l_polynomial_from_counts`` on N_1..N_top of the same
    curve, top = g + 1 under the default budget and g at a ``field_cap`` of
    q^g, where the N_(g+1) check is skipped."""
    field = field_new(p, n)
    cap = field.size**g if top_is_g else POINTCOUNT_FIELD_CAP
    top = g if top_is_g else g + 1
    degrees = (2 * g + 1, 2 * g + 2) if n == 1 and p**g < 100 else (2 * g + 1,)
    models = [curve_new(field, f) for d in degrees
              for f in enumerate_monic(field, d, squarefree_only=True)]
    for route in each_route():
        for c in models:
            assert l_polynomial.__wrapped__(c, cap) == l_polynomial_from_counts(
                c.q, g, point_counts(c, top, cap)), (route, c.f.coeffs)


def test_l_polynomial_refuses_q_to_the_g_over_the_budget():
    """Under a ``field_cap`` below q^g no L can be read: the refusal names
    the first k over the budget, the field and f, before any pass."""
    c = make_curve(7, [1, 0, 1, 0, 0, 1])     # genus 2 over F_7
    built = curves._matrix_pass.cache_info().misses, curves._extension_pass.cache_info().misses
    for cap, k in ((48, 2), (6, 1)):
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"|F_q^k| = {7**k} exceeds the point-count budget {cap} at k = {k}, "
                "curve over GF(7) with f = [1, 0, 1, 0, 0, 1]")):
            l_polynomial(c, field_cap=cap)
    assert (curves._matrix_pass.cache_info().misses,
            curves._extension_pass.cache_info().misses) == built


def test_l_polynomial_refuses_a_horner_pass_past_int32():
    """A genus-8 L over F_9 under a ``field_cap`` of 9^9 needs N_1..N_9 in
    one Horner pass, whose codes pass int32: refused by name before any
    table."""
    field = field_new(3, 2)
    c = make_curve(field, [1, 0, 1] + [0] * 14 + [1])   # x^17 + x^2 + 1
    misses = curves._extension_pass.cache_info().misses
    with pytest.raises(BudgetExceededError, match=re.escape(
            "the Horner pass for k in (1, 2, 3, 4, 5, 6, 7, 8, 9) indexes 2179240200 Zech "
            f"entries, past int32, curve over {field!r} with f = {list(c.f.coeffs)}")):
        l_polynomial(c, field_cap=9**9)
    assert curves._extension_pass.cache_info().misses == misses


def test_isomorphic_models_share_one_l_polynomial():
    """f(x) and its translate f(x + 1) have the same counts, so the L memo
    hands both curves the one immutable LPolynomial."""
    c = make_curve(3, [1, 0, 1, 0, 0, 1])
    translate = make_curve(3, [0, 1, 2, 1, 2, 1])
    assert point_counts(c, 3) == point_counts(translate, 3)
    assert l_polynomial(c) is l_polynomial(translate)


# (p, n, genus): p prime to d = 2g + 1, so every model has a cut model; the
# genus-2 family over F_9 shifts on the scalar ops of F_{p^n}, and its 5,832
# classes overflow the memos' bound
CLASS_FAMILIES = ((3, 2, 2), (3, 1, 3))


def _every_model(field, g):
    return [curve_new(field, f) for f in enumerate_monic(field, 2 * g + 1, squarefree_only=True)]


@pytest.mark.parametrize("p,n,g", CLASS_FAMILIES)
def test_cut_models_are_the_exhaustive_rows_and_key_the_class_memos(p, n, g, empty_class_memos):
    """The cut model of every squarefree model is a row of
    ``families.exhaustive``, and every row is the cut model of exactly q
    models (its translation class).  A pass of ``l_polynomial`` and
    ``p_rank`` over every model, class by class, misses once per class and
    leaves one entry per class in each memo, up to its bound."""
    field = field_new(p, n)
    rows = {tuple(r) for codes, _ in families.exhaustive(field, g) for r in codes.tolist()}
    classes = {}
    for c in _every_model(field, g):
        classes.setdefault(tuple(ffield.cut_model(field, c.f.coeffs)), []).append(c)
    assert set(classes) == rows
    assert {len(members) for members in classes.values()} == {field.size}
    for members in classes.values():
        for c in members:
            l_polynomial(c)
            prank.p_rank(c)
    for memo in empty_class_memos:
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (
            len(rows), (field.size - 1) * len(rows), min(len(rows), ffield.L_CACHE_SIZE))


@pytest.mark.parametrize("p,g,sample", [(5, 2, None), (7, 3, 150)])
def test_no_class_memo_entry_where_p_divides_the_degree(p, g, sample, empty_class_memos):
    """At p | d no translate clears c_(d-1): there is no cut model, and
    ``l_polynomial`` and ``p_rank`` run on the curve without reading the
    memos (every genus-2 model over F_5, a seeded genus-3 sample over F_7)."""
    field = field_new(p)
    if sample is None:
        models = _every_model(field, g)
    else:
        models = [curve_new(field, FqPoly(field, tuple(row)))
                  for codes, _ in families.sampled(field, g, sample, 7) for row in codes.tolist()]
    for c in models:
        assert ffield.cut_model(field, c.f.coeffs) is None
        assert l_polynomial(c) == l_polynomial.__wrapped__(c)
        assert prank.p_rank(c) == prank.p_rank.__wrapped__(c)
    for memo in empty_class_memos:
        assert tuple(memo.cache_info()) == (0, 0, ffield.L_CACHE_SIZE, 0)


@pytest.mark.parametrize("p,n,g", CLASS_FAMILIES)
def test_class_memos_equal_the_bare_routes_on_every_model(p, n, g):
    """On every model, the memoized L is the one of the model's own counts
    N_1..N_(g+1), and the memoized p-rank the stable rank of the model's own
    Hasse-Witt matrix."""
    field = field_new(p, n)
    for c in _every_model(field, g):
        assert l_polynomial(c) == l_polynomial_from_counts(c.q, g, point_counts(c, g + 1)), \
            c.f.coeffs
        assert prank.p_rank(c) == prank.stable_rank(prank.hasse_witt(c)), c.f.coeffs


def test_a_class_memo_miss_computes_on_the_calling_threads_curve():
    """Two threads miss a class memo at once, on curves of two classes: each
    hands its curve over, then waits inside the memo's key lookup until the
    other has handed over its own.  The hand-over is per thread, so each
    miss still computes on its caller's curve."""
    curves_ = (make_curve(3, [1, 0, 1, 0, 0, 1]), make_curve(3, [1, 2, 0, 0, 0, 1]))
    handed = [threading.Event(), threading.Event()]

    class Handshake:
        """An argument that the memo hashes after the curve is handed over."""

        def __init__(self, i):
            self.i = i

        def __hash__(self):
            handed[self.i].set()
            handed[1 - self.i].wait(10)
            return self.i

    probe = ffield.class_memo(lambda curve, token: curve.f.coeffs)
    seen = {}

    def call(i):
        seen[i] = probe(curves_[i], Handshake(i))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert seen == {i: c.f.coeffs for i, c in enumerate(curves_)}
    assert probe.cache_info().misses == 2


def test_refused_count_names_each_translate_and_is_never_stored(empty_class_memos):
    """Under a ``field_cap`` that refuses N_1, ``l_polynomial`` on f and on
    its translate f(x + 1) raises every time, naming the f it was given; the
    refusals leave no entry, and a count within the cap still runs."""
    c = make_curve(3, [1, 0, 1, 0, 0, 1])
    translate = make_curve(3, [0, 1, 2, 1, 2, 1])
    assert l_polynomial(translate) is l_polynomial(c)          # the class is memoized
    for curve in (c, translate, translate, c):
        f = re.escape(f"GF(3) with f = {list(curve.f.coeffs)}")
        with pytest.raises(BudgetExceededError, match=f"at k = 1, curve over {f}"):
            l_polynomial(curve, field_cap=2)
    assert empty_class_memos[0].cache_info().currsize == 1
    assert l_polynomial(translate, field_cap=9) == l_polynomial(c)


def test_power_sums_of_integer_roots():
    """Newton's identities on prod (1 - alpha T) give the power sums of the
    alpha, past the degree as well (the recurrence branch for k > n)."""
    rng = random.Random(11)
    for _ in range(200):
        roots = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))]
        a = [1]
        for alpha in roots:                     # times (1 - alpha T)
            a = [x - alpha * y for x, y in zip(a + [0], [0] + a)]
        upto = len(roots) + rng.randrange(1, 8)
        assert power_sums(a, upto) == [sum(x**k for x in roots) for k in range(1, upto + 1)]


def test_lpolynomial_validation():
    with pytest.raises(ValueError):
        LPolynomial(3, 1, (1, 1, 5))       # functional equation fails
    with pytest.raises(ValueError):
        LPolynomial(3, 1, (2, 0, 6))       # a_0 != 1
    with pytest.raises(ValueError):
        LPolynomial(3, 1, (1, -4, 3))      # L(1) = 0
    with pytest.raises(ValueError):
        LPolynomial(9, 1, (1, 11, 9))      # Weil bound
    with pytest.raises(ValueError, match="degree exactly 2g"):
        LPolynomial(3, 1, (1, 0, 0, 3))    # degree 3 at genus 1
    for genus, coeffs in ((0, (1,)), (-1, (1,)), (-1, ())):
        with pytest.raises(ValueError, match=rf"genus must be >= 1, got {genus}$"):
            LPolynomial(5, genus, coeffs)


def test_base_change_consistency_genus1():
    c = make_curve(3, [1, 0, 1, 1])
    L = l_polynomial(c)
    predicted = point_counts_from(L, 9)
    assert predicted[0] == 6
    for k in range(2, 10):  # up to F_3^9, 19,683 elements
        assert point_count(c, k) == predicted[k - 1]


def test_base_change_consistency_genus2():
    c = make_curve(3, [1, 0, 1, 0, 0, 1])  # x^5 + x^2 + 1 over F_3
    L = l_polynomial(c)
    predicted = point_counts_from(L, 4)
    for k in (3, 4):
        assert point_count(c, k) == predicted[k - 1]


def test_serre_weil_bound_on_counts():
    import math
    for p in (3, 5):
        field = field_new(p)
        for f in itertools.islice(enumerate_monic(field, 5, squarefree_only=True), 25):
            c = curve_new(field, f)
            for k in (1, 2):
                nk = point_count(c, k)
                assert abs(nk - (p**k + 1)) <= c.genus * math.isqrt(4 * p**k)


# ---------------------------------------------------------------------------
# #J = L(1)


def test_jacobian_order_frozen_examples():
    assert l_polynomial(make_curve(3, [0, 1, 0, 1]))(1) == 4
    assert l_polynomial(make_curve(3, [1, 0, 1, 1]))(1) == 6


def test_jacobian_order_equals_n1_for_genus_one():
    field = field_new(5)
    for f in enumerate_monic(field, 3, squarefree_only=True):
        c = curve_new(field, f)
        assert l_polynomial(c)(1) == point_count(c, 1)


def test_jacobian_order_within_weil_interval():
    import math
    field = field_new(7)
    for f in itertools.islice(enumerate_monic(field, 5, squarefree_only=True), 20):
        c = curve_new(field, f)
        order = l_polynomial(c)(1)
        lo = (math.sqrt(7) - 1) ** (2 * c.genus)
        hi = (math.sqrt(7) + 1) ** (2 * c.genus)
        assert lo < order < hi
