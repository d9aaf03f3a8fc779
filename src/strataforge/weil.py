"""Splitting fields of zeta numerators and absolute-simplicity certificates.

Everything works on the Frobenius polynomial P(T) = T^2g * L(1/T) (monic,
integer coefficients).  Writing P(T) = T^g * h(T + q/T) for the real Weil
polynomial h, the splitting field of P is K_0(sqrt(d_1), ..., sqrt(d_g)),
where K_0 splits h and d_i = b_i^2 - 4q for the roots b_i of h.  Since the
b_i are real of absolute value <= 2 sqrt(q), every d_i is a negative real,
so no odd product of the d_i can become a square in the real field K_0;
only even products need testing, and those reduce to exact integer
square tests (g <= 2) or, at g = 3, to closed-form integer invariants of the
real Weil cubic and irreducibility tests of the cubic with roots d_i d_j and
of its substitution T -> T^2.

Factorization runs only where no cheaper exact test is equivalent: an
integer root of h certifies that L is reducible, and absolute simplicity of
an irreducible L needs only squarefreeness of its power polynomials.
"""
from __future__ import annotations

import math
from functools import lru_cache

import sympy

from .curves import LPolynomial, frobenius_power_sums

_T = sympy.symbols("T")

# Entries kept by each of the three L-keyed caches below (``l_reducible``,
# ``absolutely_simple``, ``splitting_class_g3``).  The invariants depend on
# L alone and a census meets few distinct L (218 among the 1,458 genus-3
# curves over F_3), but the caches live as long as the process, so they are
# bounded.  Measured under tracemalloc on 1,434 genus-2 and genus-3 L
# (q <= 49): an ``l_reducible`` entry with its key L takes 343 B, and an
# entry of either other cache whose L is already held adds 282 B
# (``absolutely_simple``) or 210 B (``splitting_class_g3``); one genus-3 L
# in all three caches takes 772 B.  Even with no key shared, three full
# caches stay under 3 * 4096 * 650 B, about 8 MB.
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
        return 1 if is_perfect_square(delta) else 2
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
        classes = [d for d in deltas if not is_perfect_square(d)]
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


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def l_reducible(L: LPolynomial) -> bool:
    """True iff L factors over the integers.  Memoized on L in a bounded LRU
    cache (see ``WEIL_CACHE_SIZE``), which ``absolutely_simple`` and
    ``splitting_class_g3`` share.

    For g >= 2 an integer root b of the real Weil polynomial h gives the
    proper factor T^2 - bT + q of P, so L is reducible without factoring;
    the roots of h are real with |b| <= 2 sqrt(q), so only |b| <= isqrt(4q)
    is scanned.  At g = 1 that factor is P itself (h is linear and its root
    always an integer), so genus 1 goes straight to the factorization, as
    does every L whose h has no integer root.
    """
    if L.genus >= 2:
        h = real_weil_coeffs(L)
        bound = math.isqrt(4 * L.q)
        if any(sum(c * b**m for m, c in enumerate(h)) == 0 for b in range(-bound, bound + 1)):
            return True
    return not _poly_is_irreducible(list(L.coeffs))


def _squarefree_integer(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in sympy.factorint(n).values())


def _cubic_invariants(h: list[int], q: int) -> tuple[int, int, int, int]:
    """(disc h, e1, e2, e3) for the monic real Weil cubic h = [c0, c1, c2, 1],
    where e_k is the k-th elementary symmetric function of the d_i =
    b_i^2 - 4q over the roots b_i of h, so that
    D(T) = prod (T - d_i) = T^3 - e1 T^2 + e2 T - e3.

    Closed forms: disc = c2^2 c1^2 - 4 c1^3 - 4 c2^3 c0 - 27 c0^2 + 18 c2 c1 c0;
    the squares b_i^2 have symmetric functions (one Graeffe step)
    s1 = c2^2 - 2 c1, s2 = c1^2 - 2 c0 c2, s3 = c0^2, and shifting them by
    -4q gives e1 = s1 - 12q, e2 = s2 - 8q s1 + 48q^2,
    e3 = s3 - 4q s2 + 16q^2 s1 - 64q^3.
    """
    c0, c1, c2, _ = h
    disc = c2 * c2 * c1 * c1 - 4 * c1**3 - 4 * c2**3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0
    s1, s2, s3 = c2 * c2 - 2 * c1, c1 * c1 - 2 * c0 * c2, c0 * c0
    e1 = s1 - 12 * q
    e2 = s2 - 8 * q * s1 + 48 * q * q
    e3 = s3 - 4 * q * s2 + 16 * q * q * s1 - 64 * q**3
    return disc, e1, e2, e3


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def splitting_class_g3(L: LPolynomial) -> tuple[str, int | None]:
    """("maximal", 48) when the splitting field provably has degree 2^3 * 3!,
    else ("undetermined", None).  Never guesses.  Memoized on L in a bounded
    LRU cache (see ``WEIL_CACHE_SIZE``).

    Certificate: L irreducible (so the real Weil cubic h is irreducible too,
    since a factor of h gives a factor of P); disc h squarefree and not a
    square (so h has Galois group S_3 and K_0 is a real sextic field whose
    only quadratic subfield is Q(sqrt(disc))); and the even products d_i d_j
    stay nonsquare in K_0, decided by the irreducibility of the cubic C with
    roots d_i d_j and of C(T^2) and C_disc(T^2), where
    C_disc(T) = disc^3 C(T / disc) has roots disc * d_i d_j and is
    irreducible exactly when C is.  disc and the symmetric functions
    e1, e2, e3 of the d_i are integer closed forms in the coefficients of h
    (``_cubic_invariants``), and C(T) = T^3 - e2 T^2 + e1 e3 T - e3^2.
    """
    if L.genus != 3:
        raise ValueError("this classification path is for genus 3")
    if l_reducible(L):
        return ("undetermined", None)
    disc, e1, e2, e3 = _cubic_invariants(real_weil_coeffs(L), L.q)
    if disc <= 0 or is_perfect_square(disc) or not _squarefree_integer(disc):
        return ("undetermined", None)
    pair_cubic = [-e3 * e3, e1 * e3, -e2, 1]  # C(T), constant term first
    if not _poly_is_irreducible(pair_cubic):
        return ("undetermined", None)  # degenerate pair products; stay conservative
    for scale in (1, disc):
        doubled = [0] * 7  # C_scale(T^2)
        for k, c in enumerate(pair_cubic):
            doubled[2 * k] = c * scale ** (3 - k)
        if not _poly_is_irreducible(doubled):
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
    P_d stays irreducible).  False means "not certified", not "not simple".

    Decided as: L irreducible (``l_reducible``) and P_d squarefree for each
    divisor-maximal d of ``_power_degrees``; the answer is the same as over
    every d with phi(d) <= 2g (see there).  For irreducible P, P_d is the
    characteristic polynomial of pi^d acting on Q(pi) by multiplication, which
    equals minpoly(pi^d)^[Q(pi) : Q(pi^d)]; so P_d is irreducible exactly when
    it is squarefree.  Conversely an irreducible P_d at any d forces P to be
    irreducible, so this agrees with requiring every P_d irreducible.
    Results are memoized on L in a bounded LRU cache (see ``WEIL_CACHE_SIZE``).
    """
    if l_reducible(L):
        return False
    return all(sympy.Poly(list(reversed(power_charpoly(L, d))), _T).is_sqf
               for d in _power_degrees(L.genus))
