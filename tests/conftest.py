"""Families of zeta numerators shared by the Weil-layer and Z/r tests, and
the emptied memos (squarefree verdicts, translation classes) shared by the
tests that count calls."""
import random

import pytest

from strataforge import curves, ffield, prank
from strataforge.curves import curve_new, l_polynomial
from strataforge.ffield import FqPoly, enumerate_monic, field_new, poly_squarefree

# (p, model degree): exhaustive genus 2 over F_3 and F_5, genus 3 over F_3
CENSUS = ((3, 5), (5, 5), (3, 7))

# (p, n, model degree, curves): seeded samples of genus 3 over F_5 and
# genus 2 and 3 over F_9
SAMPLED = ((5, 1, 7, 300), (3, 2, 5, 300), (3, 2, 7, 200))


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
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


@pytest.fixture
def empty_verdict_memo():
    """``poly_squarefree``'s verdict memo, emptied: a test that counts the
    gcd route's calls reads no verdict that an earlier test left behind."""
    ffield._squarefree_memo.cache_clear()
    return ffield._squarefree_memo


@pytest.fixture
def empty_class_memos():
    """The translation-class memos of ``curves.l_polynomial`` and
    ``prank.p_rank``, emptied: a test that counts their entries or calls, or
    that feeds ``l_polynomial`` a miscount, reads no L or p-rank that an
    earlier test left behind for the class of its curve."""
    curves.l_polynomial.cache_clear()
    prank.p_rank.cache_clear()
    return curves.l_polynomial, prank.p_rank
