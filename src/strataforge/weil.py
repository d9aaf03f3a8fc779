"""Splitting fields of zeta numerators and absolute-simplicity certificates.

Everything works on the Frobenius polynomial P(T) = T^2g * L(1/T) (monic,
integer coefficients).  Writing P(T) = T^g * h(T + q/T) for the real Weil
polynomial h, the splitting field of P is K_0(sqrt(d_1), ..., sqrt(d_g)),
where K_0 splits h and d_i = b_i^2 - 4q for the roots b_i of h.  Since the
b_i are real of absolute value <= 2 sqrt(q), every d_i is a negative real,
so no odd product of the d_i can become a square in the real field K_0;
only even products need testing, and those reduce to exact integer
square tests (g <= 2) or to factorization of resultant-built minimal
polynomials (g = 3).
"""
from __future__ import annotations

import math
from functools import lru_cache

import sympy

from .curves import LPolynomial, frobenius_power_sums

_T = sympy.symbols("T")

# Entries kept by each L-keyed cache below.  The invariants depend on L
# alone and a census meets few distinct L (218 among the 1,458 genus-3
# curves over F_3), but the caches live as long as the process, so they are
# bounded.  One entry, its key L included, measured 360-460 bytes under
# tracemalloc (genus 2 and 3, q <= 49), so a full cache holds under 2 MB.
WEIL_CACHE_SIZE = 4096


def frobenius_poly(L: LPolynomial) -> list[int]:
    """Coefficients of P(T) = T^2g L(1/T), constant term first, monic."""
    return list(reversed(L.coeffs))


def real_weil_coeffs(L: LPolynomial) -> list[int]:
    """Monic degree-g h with P(T) = T^g h(T + q/T); constant term first."""
    g, q = L.genus, L.q
    # work[j] = coefficient of T^j in the not-yet-matched part of P
    work = frobenius_poly(L)
    h = [0] * (g + 1)
    for m in range(g, -1, -1):
        d = work[g + m]
        h[m] = d
        if d:
            # subtract d * T^(g-m) (T^2 + q)^m
            for i in range(m + 1):
                work[g - m + 2 * i] -= d * math.comb(m, i) * q ** (m - i)
    if any(work):
        raise ValueError("polynomial does not satisfy the functional equation")
    return h


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _rational_square_class_trivial(n: int) -> bool:
    """True iff the nonzero integer n is a square in Q (n = 0 counts trivial)."""
    return n == 0 or is_perfect_square(n)


def splitting_degree(L: LPolynomial) -> int:
    """Exact degree over Q of the splitting field of L, for genus <= 2.

    Genus 1: 2 unless the discriminant a_1^2 - 4q is a perfect square.
    Genus 2: [K_0 : Q] * 2^e with K_0 the splitting field of the real Weil
    quadratic and e the number of independent quadratic sign extensions,
    both decided by integer perfect-square tests.
    """
    g, q = L.genus, L.q
    if g == 1:
        delta = L.coeffs[1] ** 2 - 4 * q
        return 1 if _rational_square_class_trivial(delta) else 2
    if g != 2:
        raise ValueError("exact splitting degrees are implemented for genus <= 2")
    b1, b0 = L.coeffs[1], L.coeffs[2] - 2 * q
    disc = b1 * b1 - 4 * b0
    if disc < 0:
        raise ValueError("real Weil polynomial has complex roots; L is not a Weil polynomial")
    prod_deltas = (L.coeffs[2] + 2 * q) ** 2 - 4 * q * b1 * b1  # d_1 * d_2, an integer
    if is_perfect_square(disc):
        s = math.isqrt(disc)
        deltas = [((-b1 + s) // 2) ** 2 - 4 * q, ((-b1 - s) // 2) ** 2 - 4 * q]
        classes = [d for d in deltas if not _rational_square_class_trivial(d)]
        if len(classes) < 2:
            return 2 ** len(classes)
        return 2 if is_perfect_square(classes[0] * classes[1]) else 4
    # h irreducible: K_0 = Q(sqrt(disc)), real; both deltas are negative
    # conjugates, hence nontrivial classes
    if prod_deltas == 0:
        return 2  # both deltas vanish: P = (T^2 - q)^2, splitting field K_0
    merged = (prod_deltas > 0 and is_perfect_square(prod_deltas)) or (
        prod_deltas * disc > 0 and is_perfect_square(prod_deltas * disc))
    return 4 if merged else 8


def _poly_is_irreducible(coeffs: list[int]) -> bool:
    return sympy.Poly(list(reversed(coeffs)), _T).is_irreducible


def l_reducible(L: LPolynomial) -> bool:
    """True iff L factors over the integers."""
    return not _poly_is_irreducible(list(L.coeffs))


def _squarefree_integer(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in sympy.factorint(n).values())


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def splitting_class_g3(L: LPolynomial) -> tuple[str, int | None]:
    """("maximal", 48) when the splitting field provably has degree 2^3 * 3!,
    else ("undetermined", None).  Never guesses.  Memoized on L in a bounded
    LRU cache (see ``WEIL_CACHE_SIZE``).

    Certificate: L irreducible; the real Weil cubic h irreducible with
    squarefree nonsquare discriminant (so h has Galois group S_3 and K_0 is
    a real sextic field whose only quadratic subfield is Q(sqrt(disc)));
    and the even products d_i d_j stay nonsquare in K_0, decided by
    factoring C(T^2) and C_disc(T^2) for the cubic C with roots d_i d_j.
    """
    if L.genus != 3:
        raise ValueError("this classification path is for genus 3")
    q = L.q
    if l_reducible(L):
        return ("undetermined", None)
    h = real_weil_coeffs(L)
    hpoly = sympy.Poly(list(reversed(h)), _T)
    if not hpoly.is_irreducible:
        return ("undetermined", None)
    disc = int(sympy.discriminant(hpoly.as_expr(), _T))
    if disc <= 0 or is_perfect_square(disc) or not _squarefree_integer(disc):
        return ("undetermined", None)
    # D(T) = prod (T - d_i) via the resultant Res_y(h(y), T - y^2 + 4q)
    y = sympy.symbols("y")
    dpoly = sympy.Poly(sympy.resultant(hpoly.as_expr().subs(_T, y), _T - y**2 + 4 * q, y), _T)
    dpoly = dpoly.monic()
    e3 = -int(dpoly.nth(0))          # d_1 d_2 d_3
    e2 = int(dpoly.nth(1))           # sum of pair products
    e1 = -int(dpoly.nth(2))          # sum of d_i
    # C(T) = prod (T - d_i d_j), the pair-product transform
    def pair_cubic(scale: int) -> sympy.Poly:
        return sympy.Poly([1, -e2 * scale, e1 * e3 * scale**2, -e3 * e3 * scale**3], _T)

    for scale in (1, disc):
        c = pair_cubic(scale)
        if not c.is_irreducible:
            return ("undetermined", None)  # degenerate pair products; stay conservative
        doubled = sympy.Poly(c.as_expr().subs(_T, _T**2), _T)
        if not doubled.is_irreducible:
            # some d_i d_j (times scale) is a square in the cubic field,
            # so the sign extensions are not independent
            return ("undetermined", None)
    return ("maximal", 48)


# ---------------------------------------------------------------------------
# absolute simplicity


def power_charpoly(L: LPolynomial, d: int) -> list[int]:
    """Monic integer polynomial with roots the d-th powers of the Frobenius
    eigenvalues, constant term first (degree 2g)."""
    g2 = 2 * L.genus
    ps = frobenius_power_sums(L, g2 * d)
    ps_d = [ps[d * k - 1] for k in range(1, g2 + 1)]
    # invert Newton's identities for the power-composed polynomial
    e = [1] + [0] * g2
    for k in range(1, g2 + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * ps_d[i - 1] for i in range(1, k + 1))
        if total % k:
            raise ArithmeticError("power-sum transform gave a non-integer coefficient")
        e[k] = total // k
    coeffs = [(-1) ** k * e[k] for k in range(g2 + 1)]  # e_k -> T^(2g-k) coefficient
    return list(reversed(coeffs))


@lru_cache(maxsize=None)
def _power_degrees(g: int) -> tuple[int, ...]:
    """The d that ``absolutely_simple`` tests: the maximal elements, under
    divisibility, of {d >= 1 : phi(d) <= 2g}.

    A root of unity of order d lives in a degree-2g field only if
    phi(d) <= 2g.  That set is closed under divisors, and testing its
    maximal elements suffices: if the d-th power polynomial is irreducible
    then pi^d has degree 2g, and Q(pi^d) <= Q(pi^d') <= Q(pi) for every
    d' | d forces the d'-th power polynomial to be irreducible as well
    (d' = 1 gives P itself).  Genus 3 gives {8, 10, 12, 14, 18} out of 13
    values, genus 2 gives {8, 10, 12} out of 9.
    """
    bound = 2 * (2 * g) ** 2 + 1
    small = [d for d in range(1, bound + 1) if sympy.totient(d) <= 2 * g]
    return tuple(d for d in small if not any(e != d and e % d == 0 for e in small))


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def absolutely_simple(L: LPolynomial) -> bool:
    """Certificate that the abelian variety with Frobenius polynomial P is
    absolutely simple: P irreducible and, for every d with phi(d) <= 2g, the
    minimal polynomial of pi^d still has degree 2g (i.e. the power polynomial
    stays irreducible).  False means "not certified", not "not simple".

    Only the divisor-maximal d of ``_power_degrees`` are tested; the answer
    is the same as over every d with phi(d) <= 2g (see there).  Results are
    memoized on L in a bounded LRU cache (see ``WEIL_CACHE_SIZE``).
    """
    for d in _power_degrees(L.genus):
        if not _poly_is_irreducible(power_charpoly(L, d)):
            return False
    return True
