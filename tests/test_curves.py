import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

import strataforge.curves as curves
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
    0 every pass runs Horner steps, and above every case, matrix products."""
    def routes():
        for route, cap in (("horner", 0), ("matrix", 1 << 62)):
            monkeypatch.setattr(curves, "MATRIX_PASS_ENTRIES", cap)
            yield route
    return routes


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
    field_new.cache_clear()                # fresh descriptors: no tables built yet
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
    field_new.cache_clear()
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
    monkeypatch.setattr(curves, "point_counts", lambda curve, upto, cap: list(bad))
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
    true_counts = curves.point_counts
    monkeypatch.setattr(curves, "point_counts", lambda curve, upto, cap: [
        n + delta * (k == 1) for k, n in enumerate(true_counts(curve, upto, cap), start=1)])
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


def test_isomorphic_models_share_one_l_polynomial():
    """f(x) and its translate f(x + 1) have the same counts, so the L memo
    hands both curves the one immutable LPolynomial."""
    c = make_curve(3, [1, 0, 1, 0, 0, 1])
    translate = make_curve(3, [0, 1, 2, 1, 2, 1])
    assert point_counts(c, 3) == point_counts(translate, 3)
    assert l_polynomial(c) is l_polynomial(translate)


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
