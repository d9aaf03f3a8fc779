"""Splitting fields of zeta numerators and absolute-simplicity certificates.

Everything works on the Frobenius polynomial P(T) = T^2g * L(1/T) (monic,
integer coefficients).  Writing P(T) = T^g * h(T + q/T) for the real Weil
polynomial h, the splitting field of P is K_0(sqrt(d_1), ..., sqrt(d_g)),
where K_0 splits h and d_i = b_i^2 - 4q for the roots b_i of h.  So the
Galois group G of an irreducible P lies in W_g = (Z/2)^g x| S_g, which
permutes the b_i and flips pairs {pi, q/pi}.  At any genus, G = W_g is
certified from the signed cycle types of Frobenius at small primes.

Every question about P is asked of h, at half the degree, and nothing
here factors a polynomial over Q.  L is reducible iff h has a monic
integer factor of some degree k <= g/2 (or L = (1 - qT^2)^2): at k = 1 an
integer root of h, at k >= 2 an integer root of a linear resolvent formed
from the power sums of h (``l_reducible``), so at genus <= 3 the integer
roots of h decide.  P is squarefree mod r iff r divides neither
q disc(h) nor N(h) = h(2 sqrt q) h(-2 sqrt q), since disc P =
q^(g(g-1)) disc(h)^2 N(h); at such r the signed cycle types come from h
alone, its factors mod r and the square classes of b^2 - 4q
(``ffield.zp_reciprocal_blocks``); and absolute simplicity of an
irreducible L needs only squarefreeness of its power polynomials P_d, the
same exact integer test on the trace polynomials h_d.  No path here
imports sympy.

Three Galois facts decide many L without that work.  Write delta =
prod (pi_i - q/pi_i), one pi_i from each pair; delta^2 = prod (b_i^2 - 4q)
= N(h), and an element of W_g negates delta iff it flips an odd number of
pairs.  So when N(h) is a square, delta is rational, G lies in the kernel
of that flip-parity character, and no Frobenius shows a flip of odd
weight: ``splitting_class`` is "undetermined" before it reads a prime
(at odd g this never happens, as each b_i^2 - 4q < 0 makes N(h) < 0).
And for g >= 2, G = W_g forces every power polynomial P_d to be
squarefree, so a "maximal" L is absolutely simple.  Suppose pi^d = rho^d
for roots pi != rho.  If rho = q/pi, then pi^(2d) = q^d, and so does every
conjugate of pi: the splitting field lies in the abelian Q(sqrt q, mu_2d),
but W_g is not abelian for g >= 2.  If rho lies in another pair, the flip
of rho's pair alone (in W_g) fixes pi and gives rho^d = (q/rho)^d, the
first case.  At g = 1, W_1 = Z/2 is abelian: T^2 + 3 over F_3 is
maximal, but P_4 = (T - 9)^2.  Last, when L lies in Z[T^k] for some
k >= 2, so does P, and with each root pi, zeta_k pi is a root too: a
different one with the same k-th power.  So P_k is not squarefree, L is
not absolutely simple (any g), and by the second fact G != W_g (g >= 2):
both answers come at once (``_power_step``).

Every answer here is the same for L and its quadratic twist L(-T) =
(a_0, -a_1, a_2, -a_3, ...), the zeta numerator of the twist y^2 = u f(x)
by a nonsquare u (``quadratic_twist``).  Its Frobenius polynomial is P(-T),
with roots the -pi.  So -pi generates the same splitting field as pi, each
Galois element sigma sends -pi to -sigma(pi), and the pair {-pi, q/(-pi)}
is the negated pair {pi, q/pi}: G is the same subgroup of W_g.  The real
Weil polynomial is (-1)^g h(-T), with the same disc(h) and N(h), and at
every good prime r Frobenius is the same element of G, so
``splitting_class`` reads the same signed cycle types and stops at the same
prime.  P(-T) factors over Q exactly as P does, and the twist's P_d is
P_d(-T) at odd d and P_d at even d, so every test of ``absolutely_simple``
reads the same; indeed the twisted Jacobian is isomorphic to the original
over F_(q^2), so one is absolutely simple exactly when the other is.  The
three memos below therefore share each entry across a twist pair
(``_twist_shared``): each twist class is computed once.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce, update_wrapper

from .curves import LPolynomial, coeffs_from_power_sums, power_sums
from .ffield import (L_CACHE_SIZE, is_prime, norm_at_root, reciprocal_trace, zp_ddf,
                     zp_reciprocal_blocks)

WITNESS_PRIMES = 20  # good primes ``splitting_class`` reads before it gives up


def frobenius_poly(L: LPolynomial) -> list[int]:
    """Coefficients of P(T) = T^2g L(1/T), constant term first, monic."""
    return list(reversed(L.coeffs))


def real_weil_coeffs(L: LPolynomial) -> list[int]:
    """Monic degree-g h with P(T) = T^g h(T + q/T); constant term first."""
    h, rest = reciprocal_trace(frobenius_poly(L), L.q)
    if any(rest):
        raise ValueError("polynomial does not satisfy the functional equation")
    return h


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def quadratic_twist(L: LPolynomial) -> LPolynomial | None:
    """L(-T), the zeta numerator of the quadratic twist, or None when it
    fails ``LPolynomial``'s checks (L(-1) <= 0, so L is no Weil polynomial).
    L in Z[T^2] is its own twist."""
    coeffs = tuple(-a if i % 2 else a for i, a in enumerate(L.coeffs))
    try:
        return LPolynomial(L.q, L.genus, coeffs)
    except ValueError:
        return None


def _twist_shared(compute):
    """A bounded LRU memo of ``compute`` on L (see ``L_CACHE_SIZE``) that
    shares each entry across a twist pair (module docstring).  On a miss,
    an L whose twist has the smaller coefficient tuple is answered by the
    twist's entry, read through the same memo; any other L (a self-twist,
    or one whose twist fails ``LPolynomial``'s checks) is computed by
    ``__wrapped__``, looked up at the miss.  The tuples are compared before
    any twist is built: L(-T) negates the odd a_i, so its tuple is the
    smaller one exactly when the first nonzero odd a_i is positive, and
    only then is the twist formed (``quadratic_twist``).  So a hit costs
    one lookup, the twist is formed only on a miss that may redirect, and
    ``__wrapped__(L)`` is the bare computation on L itself.
    ``cache_info()`` counts the twist's lookup of a redirected miss as
    well."""
    @lru_cache(maxsize=L_CACHE_SIZE)
    def memo(L):
        if next((a for a in L.coeffs[1::2] if a), 0) > 0:
            twin = quadratic_twist(L)
            if twin is not None:
                return memo(twin)
        return memo.__wrapped__(L)
    return update_wrapper(memo, compute)


@_twist_shared
def l_reducible(L: LPolynomial) -> bool:
    """True iff L factors over the integers, for a Weil polynomial L (all
    roots of absolute value 1/sqrt(q), as from ``l_polynomial``).  Memoized
    on the twist class of L (``_twist_shared``), a memo which
    ``absolutely_simple`` and ``splitting_class`` share.

    Genus 1: P = T^2 + a_1 T + q splits iff N(h) = a_1^2 - 4q is a square.  For
    g >= 2, P is reducible iff h is, or g = 2 and h = T^2 - 4q (that is,
    L = (1 - qT^2)^2).  Proof: a root b of an irreducible h has degree g;
    for pi with pi + q/pi = b, either [Q(pi) : Q(b)] = 2 and P, of degree
    2g, is the minimal polynomial of pi, or pi lies in the totally real
    field Q(b), so pi = +-sqrt(q), b = +-2 sqrt(q) and h = T^2 - 4q.

    A reducible h has a monic integer factor of some degree 1 <= k <= g/2,
    and the roots b of h are real with |b| <= 2 sqrt(q).  At k = 1 the
    factor is an integer root, found by scanning |b| <= isqrt(4q); at
    g <= 3 no other k is left.  At g >= 4, disc(h) = 0 means h is
    reducible.  For squarefree h and 2 <= k <= g/2, ``_has_factor`` forms
    the linear resolvent (Soicher and McKay) R(T) = prod (T - sum_(i in S)
    phi(b_i)) over the k-subsets S of the roots, for phi(x) = x + lam x^2
    + ... + lam^(k-1) x^k, lam = 0, 1, ...; R is monic in Z[T].  A factor
    of degree k has a Galois-stable S, whose sum t is a rational algebraic
    integer: an integer root of R, with t^2 <= k sum_i phi(b_i)^2 by
    Cauchy-Schwarz.  So no integer root means no such factor.  A simple
    integer root t belongs to exactly one S, which Galois, fixing t, must
    fix, so prod_(i in S) (T - b_i) is a factor over Z.  When every integer
    root is multiple, the next lam is read, and only finitely many lam
    fail: S != S' have equal sums for at most k - 1 values of lam, as the
    difference is a polynomial in lam with coefficients sum_S b^j -
    sum_S' b^j, j = 1..k, all zero only if S = S' (the b_i are distinct).
    The resolvents run only on the k a sieve leaves: a factor of degree k
    over Z is a product of factors mod r, so at a prime r prime to disc(h),
    k is a sum of degrees of the factors that ``zp_ddf(h, r)`` reads.  Up
    to g such primes are read, fewer once no k is left.
    """
    g, q, h = L.genus, L.q, real_weil_coeffs(L)
    if g == 1:
        return is_perfect_square(norm_at_root(h, 4 * q))
    bound = math.isqrt(4 * q)
    if any(sum(c * b**m for m, c in enumerate(h)) == 0 for b in range(-bound, bound + 1)):
        return True
    if g <= 3:
        return h == [-4 * q, 0, 1]
    disc = discriminant(h)
    if disc == 0:
        return True
    degrees, r, good = (1 << g // 2 + 1) - 4, 2, 0   # bit k: a factor of degree k, 2 <= k <= g/2
    while degrees and good < g:
        good, r = good + 1, _next_prime(r)
        while disc % r == 0:
            r = _next_prime(r)
        sums = 1   # bit s: s is a sum of degrees of factors mod r
        for d, part in zp_ddf(h, r).items():
            for _ in range((len(part) - 1) // d):
                sums |= sums << d
        degrees &= sums
    return any(degrees >> k & 1 and _has_factor(h, k) for k in range(2, g // 2 + 1))


def _has_factor(h: list[int], k: int) -> bool:
    """True iff the monic squarefree integer h of degree g has a monic
    integer factor of degree k, read off the linear resolvents R of
    ``l_reducible`` (see there) at lam = 0, 1, ... until one decides.

    R is formed from power sums alone.  y_m = sum_i phi(b_i)^m is the trace
    sum_j c_j s_j of phi(x)^m = sum_j c_j x^j mod h, s_j the power sums of
    the roots b_i of h.  As exponential series in t, e_j = sum_i exp(j
    phi(b_i) t) has m-th coefficient j^m y_m (times m!), and E_k = sum_S
    exp(t sum_S phi(b_i)) over the k-subsets S, whose m-th coefficient is
    the m-th power sum of the roots of R, follows from E_0 = 1 and Newton's
    identities i E_i = sum_(j=1..i) (-1)^(j-1) E_(i-j) e_j, where the
    product of two such series is a binomial convolution over Z.
    """
    g = len(h) - 1
    n = math.comb(g, k)
    s = [g] + power_sums(h[::-1], g - 1)
    pascal = [[math.comb(m, j) for j in range(m + 1)] for m in range(n + 1)]
    for lam in itertools.count():
        ys, power = [g], [1] + [0] * (g - 1)
        for _ in range(n):   # power <- phi(x) power mod h, one factor x at a time
            step, power = power, [0] * g
            for j in range(k):
                top = step[-1]
                step = [-top * h[0]] + [a - top * b for a, b in zip(step, h[1:-1])]
                power = [a + lam**j * b for a, b in zip(power, step)]
            ys.append(sum(a * b for a, b in zip(power, s)))
        e = [[j**m * y for m, y in enumerate(ys)] for j in range(1, k + 1)]
        E = [[1] + [0] * n]
        for i in range(1, k + 1):
            E.append([sum((-1) ** (j - 1) * sum(w * a * b for w, a, b in
                                                zip(pascal[m], E[i - j], e[j - 1][m::-1]))
                          for j in range(1, i + 1)) // i for m in range(n + 1)])
        R = coeffs_from_power_sums(E[k][1:])   # leading term first
        dR = [(n - i) * a for i, a in enumerate(R[:-1])]
        bound = math.isqrt(k * ys[2])
        roots = [t for t in range(-bound, bound + 1) if reduce(lambda v, a: v * t + a, R, 0) == 0]
        if not roots:
            return False
        if any(reduce(lambda v, a: v * t + a, dR, 0) for t in roots):
            return True


def discriminant(h: list[int]) -> int:
    """Exact discriminant over Z of a monic integer h (constant term first).

    With b_i the roots and s_k their power sums, disc(h) = prod_(i<j)
    (b_i - b_j)^2 = det(V V^T) for the Vandermonde matrix V = (b_i^j), and
    V V^T is the Hankel matrix (s_(i+j)), i, j < deg h.  The s_k come from
    ``power_sums`` (h reversed is prod (1 - b_i T)), the determinant from
    Bareiss's fraction-free elimination; every step is exact in Z.
    """
    g = len(h) - 1
    s = [g] + power_sums(h[::-1], 2 * g - 2)
    return _det_z([[s[i + j] for j in range(g)] for i in range(g)])


def _det_z(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss's algorithm: each
    division is exact, so every entry stays an integer minor."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _power_step(L: LPolynomial) -> int:
    """The largest k with L in Z[T^k]: the gcd of the degrees of its
    nonzero terms, among them a_2g = q^g, so k divides 2g."""
    return math.gcd(*(i for i, a in enumerate(L.coeffs) if a))


def _next_prime(r: int) -> int:
    """The least prime above r, testing odd numbers only past 2."""
    if r < 2:
        return 2
    r += 1 + r % 2
    while not is_prime(r):
        r += 2
    return r


def signed_cycle_type(h: list[int], q: int, r: int) -> list[tuple[int, bool]]:
    """Signed cycle type of Frobenius at r on the roots of P = T^g h(T + q/T),
    given its real Weil polynomial h: one (k, flipped) per k-cycle on the
    roots b of h, flipped when the cycle moves pi to q/pi after k steps (a
    2k-cycle on the roots of P).  Needs r prime to q disc(h) N(h), that is
    P squarefree mod r (see the module docstring).

    P mod r is q-reciprocal, read as a GSp element of multiplier q by
    ``zp_reciprocal_blocks`` from the factors of h mod r: a pair
    {phi, phi*} of degree k is an unflipped k-cycle, and a self-dual phi of
    degree 2k a flipped one.
    """
    return [(k, kind == "u") for kind, k in zp_reciprocal_blocks(h, r, q % r)]


@_twist_shared
def splitting_class(L: LPolynomial) -> tuple[str, int | None]:
    """("maximal", 2^g g!) when G is provably all of W_g, else
    ("undetermined", None).  Never guesses, given a genuine Weil polynomial
    L (as from ``l_polynomial``).  Memoized on the twist class of L
    (``_twist_shared``).

    L must be irreducible (``l_reducible``), so h is too.  At a good prime r
    (odd, prime to q, P squarefree mod r: r does not divide q disc(h) N(h),
    see the module docstring) Frobenius has a signed cycle type
    on the roots (``signed_cycle_type``): a k-cycle on the b_i flips its
    pairs {pi, q/pi} an odd number of times iff it is a 2k-cycle on the
    roots of P.  Certified once ``WITNESS_PRIMES`` good primes show a
    transposition (one 2-cycle, all other cycles odd), a (g-1)-cycle (type
    [1, g-1]) and a pure flip sigma^K, K the lcm of the cycle lengths, of
    weight 0 < w < g, w odd if g is even.  Proof: Gal(h) is transitive, the
    (g-1)-cycle makes it primitive, and with a transposition it is S_g
    (Jordan).  The flips in G form an S_g-stable subspace of F_2^g: 0, <1>,
    the even-weight one or F_2^g.  Complex conjugation gives 1 (an
    irreducible Weil P has no real root), w rules out 0 and <1>, and odd
    weight (w, or 1 at odd g) the even-weight one.  The first two witnesses
    are free for g < 3, the third at g = 1.  When disc(h) is a square
    (``discriminant``), Gal(h) lies in A_g, so no Frobenius is the odd
    permutation a transposition witness is, and the answer is
    "undetermined" without reading a prime.  Likewise when N(h) = h(2 sqrt q)
    h(-2 sqrt q) is a square: delta = prod (pi_i - q/pi_i), one pi_i per
    pair, has delta^2 = N(h), so delta is rational and fixed by G, while a
    Frobenius that flips an odd number of pairs negates it.  So G lies in
    the kernel of the flip-parity character, every pure flip in G has even
    weight, and at even g (the only g where N(h) can be a square: each
    b_i^2 - 4q is negative) no flip witness exists.  And when g >= 2 and L
    lies in Z[T^k], k >= 2 (``_power_step``), the roots pi != zeta_k pi
    have equal k-th powers, so P_k is not squarefree, which G = W_g rules
    out (module docstring): "undetermined" at once.
    """
    g, q = L.genus, L.q
    if g >= 2 and _power_step(L) >= 2:
        return ("undetermined", None)   # P_k has the repeated root pi^k = (zeta_k pi)^k
    if l_reducible(L):
        return ("undetermined", None)
    h = real_weil_coeffs(L)
    norm = norm_at_root(h, 4 * q)
    if is_perfect_square(norm):
        return ("undetermined", None)   # G fixes delta, sqrt N(h): no flip is odd
    disc = discriminant(h)
    transposition = cycle = g < 3
    if not transposition and is_perfect_square(disc):
        return ("undetermined", None)   # Gal(h) lies in A_g: no witness is odd
    flip = g == 1
    bad = q * disc * norm   # r | bad iff r | q or P is not squarefree mod r
    good, r = 0, 2
    while not (transposition and cycle and flip) and good < WITNESS_PRIMES:
        r = _next_prime(r)
        if bad % r == 0:
            continue
        good += 1
        signed = signed_cycle_type(h, q, r)
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
    ps = power_sums(L.coeffs, 2 * L.genus * d)
    # prod (1 - alpha^d T), reversed: the T^(2g-k) coefficient is its a_k
    return coeffs_from_power_sums([ps[d * k - 1] for k in range(1, 2 * L.genus + 1)])[::-1]


def _power_trace(ps: list[int], q: int, d: int) -> list[int]:
    """The trace polynomial h_d of P_d = T^g h_d(T + q^d/T), monic of degree
    g, constant term first, from ps = [2g, p_1, ..., p_(g d)], the power sums
    of the eigenvalues alpha.  The roots of h_d are alpha^d + (q/alpha)^d,
    one per pair, so their k-th power sum is half the sum over all alpha of
    sum_j C(k, j) q^(d(k-j)) alpha^(d(2j-k)); with sum alpha^(-x) = p_x/q^x
    (the alpha are the q/alpha), the j-th term is C(k, j) q^(d min(j, k-j))
    p_(d|k-2j|), and k = g needs p_x only up to x = g d."""
    g = ps[0] // 2
    sums = [sum(math.comb(k, j) * q ** (d * min(j, k - j)) * ps[d * abs(k - 2 * j)]
                for j in range(k + 1)) // 2 for k in range(1, g + 1)]
    return coeffs_from_power_sums(sums)[::-1]


def _reciprocal_squarefree(h: list[int], m: int) -> bool:
    """True iff T^g h(T + m/T) is squarefree: its discriminant is
    m^(g(g-1)) disc(h)^2 N(h), N(h) = h(2 sqrt m) h(-2 sqrt m)."""
    return discriminant(h) != 0 and norm_at_root(h, 4 * m) != 0


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


@_twist_shared
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
    Squarefreeness is decided exactly on the trace polynomial h_d of P_d
    (``_power_trace``, ``_reciprocal_squarefree``), at half the degree.
    The power sums are computed once, up to g times the largest d.  Results
    are memoized on the twist class of L (``_twist_shared``).

    For g >= 2 the answer is True at once when the memoized
    ``splitting_class`` of L is "maximal": if pi^d = rho^d for roots
    pi != rho and rho = q/pi, every conjugate of pi has pi^(2d) = q^d, so
    the splitting field lies in the abelian Q(sqrt q, mu_2d), but W_g is
    not abelian; if rho lies in another pair, the flip of rho's pair alone
    fixes pi and gives rho^d = (q/rho)^d, the first case.  So every P_d is
    squarefree.  At g = 1, W_1 is abelian and the implication fails
    (T^2 + 3 over F_3 is maximal, yet P_4 = (T - 9)^2).  The P_d route
    decides the irreducible L that the certificate leaves undetermined.
    An L in Z[T^k], k >= 2 (``_power_step``), is False at once at any g:
    P_k has the repeated root pi^k = (zeta_k pi)^k, and k divides some
    tested d (phi(k) <= k <= 2g), so the P_d route gives False as well.
    """
    if _power_step(L) >= 2 or l_reducible(L):
        return False
    if L.genus >= 2 and splitting_class(L)[0] == "maximal":
        return True
    g, q, degrees = L.genus, L.q, _power_degrees(L.genus)
    ps = [2 * g] + power_sums(L.coeffs, g * max(degrees))
    return all(_reciprocal_squarefree(_power_trace(ps, q, d), q**d) for d in degrees)

