"""Splitting fields of zeta numerators and absolute-simplicity certificates.

Everything works on the Frobenius polynomial P(T) = T^2g * L(1/T) (monic,
integer coefficients).  Writing P(T) = T^g * h(T + q/T) for the real Weil
polynomial h, the splitting field of P is K_0(sqrt(d_1), ..., sqrt(d_g)),
where K_0 splits h and d_i = b_i^2 - 4q for the roots b_i of h.  So the
Galois group G of an irreducible P lies in W_g = (Z/2)^g x| S_g, which
permutes the b_i and flips pairs {pi, q/pi}.  Exact splitting degrees
(g <= 2) reduce to integer square tests; at any genus, G = W_g is certified
from the signed cycle types of Frobenius at small primes.

Factorization runs only where no cheaper exact test is equivalent: an
integer root of h certifies that L is reducible, and absolute simplicity of
an irreducible L needs only squarefreeness of its power polynomials.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .curves import LPolynomial, frobenius_power_sums

# Entries kept by each of the three L-keyed caches below (``l_reducible``,
# ``absolutely_simple``, ``splitting_class``).  The invariants depend on L
# alone and a census meets few distinct L (218 among the 1,458 genus-3
# curves over F_3), but the caches live as long as the process, so they are
# bounded.  Measured under tracemalloc on genus-2 and genus-3 L (q <= 49):
# an ``l_reducible`` entry with its key L takes 343 B, and an entry of
# either other cache whose L is already held adds 282 B (1,434 L) for
# ``absolutely_simple``, 178-213 B (1,038 L) for ``splitting_class``.  Even
# with no key shared, three full caches stay under 3 * 4096 * 650 B, 8 MB.
WEIL_CACHE_SIZE = 4096
WITNESS_PRIMES = 20  # good primes ``splitting_class`` reads before it gives up


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


def _poly(coeffs: list[int]):
    """sympy Poly in T from integer coefficients, constant term first."""
    # imported here so that importing strataforge.weil does not load sympy
    import sympy
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("T"))


def _poly_is_irreducible(coeffs: list[int]) -> bool:
    return _poly(coeffs).is_irreducible


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def l_reducible(L: LPolynomial) -> bool:
    """True iff L factors over the integers.  Memoized on L in a bounded LRU
    cache (see ``WEIL_CACHE_SIZE``), which ``absolutely_simple`` and
    ``splitting_class`` share.

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


@lru_cache(maxsize=WEIL_CACHE_SIZE)
def splitting_class(L: LPolynomial) -> tuple[str, int | None]:
    """("maximal", 2^g g!) when G is provably all of W_g, else
    ("undetermined", None).  Never guesses, given a genuine Weil polynomial
    L (as from ``l_polynomial``).  Memoized on L (see ``WEIL_CACHE_SIZE``).

    L must be irreducible (``l_reducible``), so h is too.  At a good prime r
    (odd, prime to q, P squarefree mod r) a degree-k factor f of h mod r is
    a k-cycle of Frobenius on the b_i.  It flips its pairs an odd number of
    times iff b^2 - 4q is a nonsquare in F_{r^k}, iff the norm
    f(s) f(-s) = E(4q)^2 - 4q O(4q)^2 (s^2 = 4q, f = E(T^2) + T O(T^2)) is a
    nonsquare mod r; a zero norm means P is not squarefree mod r.  Certified
    once ``WITNESS_PRIMES`` good primes show a transposition (one 2-cycle,
    all other cycles odd), a (g-1)-cycle (type [1, g-1]) and a pure flip
    sigma^K, K the lcm of the cycle lengths, of weight 0 < w < g, w odd if g
    is even.  Proof: Gal(h) is transitive, the (g-1)-cycle makes it
    primitive, and with a transposition it is S_g (Jordan).  The flips in G
    form an S_g-stable subspace of F_2^g: 0, <1>, the even-weight one or
    F_2^g.  Complex conjugation gives 1 (an irreducible Weil P has no real
    root), w rules out 0 and <1>, and odd weight (w, or 1 at odd g) the
    even-weight one.  The first two witnesses are free for g < 3, the third
    at g = 1.
    """
    from sympy import nextprime
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p

    g, q = L.genus, L.q
    if l_reducible(L):
        return ("undetermined", None)
    h = real_weil_coeffs(L)[::-1]
    transposition = cycle = g < 3
    flip = g == 1
    good, r = 0, 2
    while not (transposition and cycle and flip) and good < WITNESS_PRIMES:
        r = nextprime(r)
        hr, u, signed = gf_from_int_poly(h, r), 4 * q % r, []
        if u == 0 or not gf_sqf_p(hr, r, ZZ):
            continue
        for f in gf_factor_sqf(hr, r, ZZ)[1]:
            low = f[::-1]  # constant term first
            even = sum(c * pow(u, i, r) for i, c in enumerate(low[0::2]))
            odd = sum(c * pow(u, i, r) for i, c in enumerate(low[1::2]))
            norm = (even * even - u * odd * odd) % r
            if norm == 0:
                break
            signed.append((len(f) - 1, pow(norm, (r - 1) // 2, r) != 1))
        else:
            good += 1
            lengths = sorted(k for k, _ in signed)
            transposition |= lengths.count(2) == 1 and all(k % 2 for k in lengths if k != 2)
            cycle |= lengths == [1, g - 1]
            K = math.lcm(*lengths)
            w = sum(k for k, flipped in signed if flipped and (K // k) % 2)
            flip |= 0 < w < g and (g % 2 == 1 or w % 2 == 1)
    if transposition and cycle and flip:
        return ("maximal", 2**g * math.factorial(g))
    return ("undetermined", None)


def splitting_class_g3(L: LPolynomial) -> tuple[str, int | None]:
    """``splitting_class`` at genus 3, where "maximal" means order 48."""
    if L.genus != 3:
        raise ValueError("this classification path is for genus 3")
    return splitting_class(L)


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
    small = [d for d in range(1, bound + 1)
             if sum(math.gcd(a, d) == 1 for a in range(1, d + 1)) <= 2 * g]  # phi(d)
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
    return all(_poly(power_charpoly(L, d)).is_sqf for d in _power_degrees(L.genus))
