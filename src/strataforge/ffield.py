"""Exact arithmetic in F_p and F_{p^n} (p odd) and polynomials over them.

An element of F_{p^n} is stored as the integer in [0, p^n) whose base-p
digits are its coordinates in the power basis of the field's modulus.  All
arithmetic is exact integer arithmetic; no floats anywhere.

Fields are built through :func:`field_new`, which picks the canonical
modulus (the lexicographically least monic irreducible, coefficients
compared constant term first) so that serialized elements mean the same
thing across runs and machines.  Products in F_{p^n} read discrete-log
tables built with multiply-by-c matrices over F_p.

The ``zp_*`` helpers are the polynomial layer over Z/r for a prime r given
as a plain int, because the Weil layer's witness primes may exceed
``MAX_P``: products, remainders, gcds, squarefreeness, modular powers and
the distinct-degree factorization.  A reciprocal polynomial s(T) =
T^n h(T + m/T) is read through its trace polynomial h, at half the degree
(``reciprocal_trace``, ``norm_at_root``): given h with r prime to
disc(h) N(h), ``zp_reciprocal_blocks`` pairs the factors of s mod r under
x -> m/x from the factors of h and the square classes of b^2 - 4m at
their roots b.  The modulus search runs on the ``zp_*`` helpers.

Polynomials over F_q (``FqPoly``, or coefficient lists of encodings) have
two entry points: ``poly_mul`` and ``poly_squarefree``.  On F_p both run
on the Z/r layer; on F_{p^n} they run on the descriptor's scalar ops.  No
path here imports sympy.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError

MAX_P = 97            # supported characteristic cap; desk-scale fields only
# Largest family ``enumerate_monic`` lists.  Listing costs about 3 us per
# polynomial, and 20-70 us with the squarefree filter (F_3 at degree 9, F_7
# at degree 6, F_9 at degree 5); the invariants of one curve cost 0.3-1 ms
# more, so a census of a family at the cap already runs for hours.  F_9 at
# degree 7 (4.8 * 10^6) fits; F_97 at degree 9 (7.6 * 10^17) does not.
ENUMERATE_CAP = 10**7

NEG_INF = float("-inf")  # degree of the zero polynomial; never -1


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


class FieldDescriptor:
    """Explicit model of F_{p^n} with a fixed monic irreducible modulus.

    Immutable; safe to share across threads.  Construct with
    :func:`field_new` so that equal parameters reuse one instance (and its
    lookup tables).
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus            # length n+1, constant term first, monic
        self.size = p**n
        self._embeddings: dict[FieldDescriptor, np.ndarray] = {}
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._chi: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldDescriptor)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    # -- digit view ---------------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Coordinates of element ``a`` in the power basis (length n)."""
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(a % p)
            a //= p
        return tuple(out)

    # -- scalar arithmetic on element encodings ------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.n == 1:
            return (a + b) % p
        s, shift = 0, 1
        while a or b:
            s += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return s

    def neg(self, a: int) -> int:
        p = self.p
        if self.n == 1:
            return (-a) % p
        s, shift = 0, 1
        while a:
            s += ((-a) % p) * shift
            a //= p
            shift *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _times(self, c: int) -> np.ndarray:
        """The n x n matrix over F_p whose row i holds the digits of c * x^i
        (shift and reduce by the modulus), so digits @ it multiply by c."""
        p, rows = self.p, [list(self.digits(c))]
        for _ in range(self.n - 1):
            row = rows[-1]
            rows.append([(s - row[-1] * m) % p for s, m in zip([0] + row[:-1], self.modulus)])
        return np.array(rows, dtype=np.int64)

    def _times_pow(self, c: int, e: int) -> np.ndarray:
        """``_times(c^e)``, by square-and-multiply on the matrices (e >= 0)."""
        p, base, result = self.p, self._times(c), np.eye(self.n, dtype=np.int64)
        while e:
            if e & 1:
                result = result @ base % p
            e >>= 1
            if e:
                base = base @ base % p
        return result

    def _ensure_exp_log(self) -> None:
        """Discrete-log tables for a fixed generator g, built once per field.

        ``_exp`` has 2(q-1) int32 entries, g^(i mod (q-1)), so
        ``_exp[_log[a] + _log[b]]`` is a * b for nonzero a and b with no
        modulo.  ``_log[a]`` is the log of a != 0 and ``_log[0]`` is 2(q-1),
        one past the end of ``_exp``, so an exp lookup at the log of zero
        raises instead of reading a value.  int32 holds these indices for
        fields of up to 10^9 elements.

        g is the least primitive encoding.  Every product is digits times a
        multiply-by-c matrix (``_times_pow``): the first block g^0..g^(b-1),
        b = isqrt(q-1) + 1, doubles in length, and each later block is the
        one before it times the matrix of g^b.
        """
        if self._exp is not None:
            return
        q, p, n = self.size, self.p, self.n
        facs, one = _prime_factors(q - 1), list(self.digits(1))
        gen = next(g for g in range(2, q)            # row 0 holds the digits of g^((q-1)/r)
                   if all(self._times_pow(g, (q - 1) // r)[0].tolist() != one for r in facs))
        b = math.isqrt(q - 1) + 1
        digits = np.eye(1, n, dtype=np.int64)                # g^0
        while len(digits) < b:
            digits = np.vstack([digits, digits @ self._times_pow(gen, len(digits)) % p])
        digits, step, place = digits[:b], self._times_pow(gen, b), p ** np.arange(n)
        exp = np.empty(2 * (q - 1), dtype=np.int32)
        for start in range(0, q - 1, b):
            exp[start:min(start + b, q - 1)] = (digits @ place)[:q - 1 - start]
            digits = digits @ step % p
        exp[q - 1:2 * (q - 1)] = exp[:q - 1]
        log = np.empty(q, dtype=np.int32)
        log[exp[:q - 1]] = np.arange(q - 1, dtype=np.int32)
        log[0] = 2 * (q - 1)
        self._exp, self._log = exp, log

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        self._ensure_exp_log()
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.n == 1:
            return pow(a, -1, self.p)
        self._ensure_exp_log()
        return int(self._exp[-int(self._log[a]) % (self.size - 1)])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.n == 1:
            return pow(a, e, self.p)
        self._ensure_exp_log()
        # int(): the int32 log times a large e would wrap in numpy
        return int(self._exp[int(self._log[a]) * e % (self.size - 1)])

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(p^k)."""
        return self.pow(a, self.p**k)

    def chi(self, a: int) -> int:
        """Quadratic character: 0 at 0, +1 on squares, -1 on nonsquares."""
        if a == 0:
            return 0
        return 1 - 2 * (int(self.exp_log[1][a]) & 1)

    # -- numpy views (built lazily, used by census hot loops) ----------------

    @property
    def exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """(``_exp``, ``_log``): the vector-step layout of :meth:`_ensure_exp_log`."""
        self._ensure_exp_log()
        return self._exp, self._log

    @property
    def chi_table(self) -> np.ndarray:
        """Quadratic character of every element as int8: chi(g^i) = (-1)^i."""
        if self._chi is None:
            _, log = self.exp_log
            t = (1 - 2 * (log & 1)).astype(np.int8)
            t[0] = 0
            self._chi = t
        return self._chi

    def embedding_into(self, ext: "FieldDescriptor") -> np.ndarray:
        """Index map realizing the inclusion of this field into ``ext``.

        Deterministic: the power basis generator is sent to the least root
        of this field's modulus inside ``ext``.  The table depends on the
        model of ``ext`` (its modulus), so it is cached per descriptor.
        Every root lies in the image of this field, the subfield
        {0} u {G^(step i)} of ``ext`` with step = (|ext| - 1) / (|self| - 1)
        and G the generator of ``ext.exp_log``, and the modulus has no root
        0; so only those |self| - 1 elements are tried.  int32, like the
        exp and log tables.
        """
        if ext in self._embeddings:
            return self._embeddings[ext]
        if ext.p != self.p or ext.n % self.n != 0:
            raise ValueError(f"{ext!r} is not an extension of {self!r}")
        if self.n == 1 or ext == self:
            # constants encode identically; and x, the code p, is the least
            # root of a field's own modulus (smaller codes are constants)
            table = np.arange(self.size, dtype=np.int32)
        else:
            def at(coeffs, x: int) -> int:
                acc = 0
                for c in reversed(coeffs):
                    acc = ext.add(ext.mul(acc, x), c)
                return acc

            exp, _ = ext.exp_log
            step = (ext.size - 1) // (self.size - 1)
            root = min(x for x in exp[:ext.size - 1:step].tolist() if at(self.modulus, x) == 0)
            table = np.array([at(self.digits(a), root) for a in range(self.size)], dtype=np.int32)
        self._embeddings[ext] = table
        return table


@lru_cache(maxsize=None)
def field_new(p: int, n: int = 1) -> FieldDescriptor:
    """Build (or reuse) the descriptor of F_{p^n} with the canonical modulus."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        raise ValueError("even characteristic is not supported (p must be odd)")
    if p > MAX_P:
        raise ValueError(f"p={p} exceeds the supported cap {MAX_P}")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if n == 1:
        return FieldDescriptor(p, 1, (0, 1))  # modulus x
    # least (c_0, c_1, ..., c_{n-1}) lexicographically, constant term first;
    # c_0 = 0 would make x a factor, so the search starts at c_0 = 1
    for vec in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        coeffs = list(vec) + [1]
        if list(zp_ddf(coeffs, p)) == [n]:
            return FieldDescriptor(p, n, tuple(coeffs))
    raise AssertionError("no irreducible polynomial found")  # unreachable


# -- raw coefficient-list polynomial helpers (hot-loop friendly) -------------


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


# -- integer-list polynomials over Z/r, r prime ----------------------------
#
# Constant term first, coefficients in [0, r), trailing zeros trimmed.


def zp_rem(a: list[int], b: list[int], r: int) -> list[int]:
    """a mod b over Z/r, b != 0; the entries of a may be any integers."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, r)
    while len(a) > db:
        coef = a.pop() * inv_lead % r
        if coef:
            shift = len(a) - db
            for i in range(db):
                a[shift + i] -= coef * b[i]
    return poly_trim([c % r for c in a])


def zp_gcd(a: list[int], b: list[int], r: int) -> list[int]:
    """Monic gcd over Z/r ([] when both are zero)."""
    while b:
        a, b = b, zp_rem(a, b, r)
    if a:
        inv = pow(a[-1], -1, r)
        a = [c * inv % r for c in a]
    return a


def zp_deriv(a: list[int], r: int) -> list[int]:
    return poly_trim([k * c % r for k, c in enumerate(a)][1:])


def zp_squarefree(a: list[int], r: int) -> bool:
    """True iff a mod r is nonzero with no repeated factor over Z/r, that
    is gcd(a, a') is constant; the entries of a may be any integers."""
    a = poly_trim([c % r for c in a])
    return len(zp_gcd(a, zp_deriv(a, r), r)) == 1


def zp_quo(a: list[int], b: list[int], r: int) -> list[int]:
    """a / b over Z/r for a monic b that divides a."""
    a, q = list(a), []
    for i in range(len(a) - len(b), -1, -1):
        q.append(a[i + len(b) - 1] % r)
        for j, x in enumerate(b):
            a[i + j] -= q[-1] * x
    return q[::-1]


def zp_squarefree_parts(f: list[int], r: int) -> dict[int, list[int]]:
    """{k: the product of the irreducible factors of multiplicity k in the
    monic f over Z/r}, for k with such factors.  The loop peels off the
    factors whose multiplicity r does not divide (Yun's steps stop there).
    What is left, c, has c' = 0, so it is a polynomial in x^r: the r-th power
    of the polynomial of every r-th coefficient, whose parts are taken
    again."""
    c = zp_gcd(f, zp_deriv(f, r), r)
    w, k, parts = zp_quo(f, c, r), 1, {}
    while len(w) > 1:
        y = zp_gcd(w, c, r)
        if len(y) < len(w):
            parts[k] = zp_quo(w, y, r)
        w, c, k = y, zp_quo(c, y, r), k + 1
    if len(c) > 1:
        parts.update((k * r, s) for k, s in zp_squarefree_parts(c[::r], r).items())
    return parts


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer coefficient lists over Z, unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def zp_mulmod(a: list[int], b: list[int], f: list[int], r: int) -> list[int]:
    """a * b mod f over Z/r."""
    return zp_rem(_convolve(a, b), f, r)


def zp_powmod(a: list[int], e: int, f: list[int], r: int) -> list[int]:
    """a^e mod f over Z/r, e >= 0."""
    result, base = zp_rem([1], f, r), zp_rem(a, f, r)
    while e:
        if e & 1:
            result = zp_mulmod(result, base, f, r)
        e >>= 1
        if e:
            base = zp_mulmod(base, base, f, r)
    return result


def zp_ddf(f: list[int], r: int) -> dict[int, list[int]]:
    """Distinct-degree factorization {D: monic product of the irreducible
    factors of degree D} of a squarefree f over Z/r (any nonzero leading
    coefficient), D increasing.

    Step k divides g_k = gcd(rest, x^(r^k) - x) out of rest, f less the
    earlier products, so g_k is the product at k.  Once 2(k + 1) > deg rest,
    rest has no factor of degree <= k, so it is irreducible (or 1).  x^(r^k)
    is kept mod f and advanced by the Frobenius matrix a -> a^r, whose rows
    are x^(r i) mod f (Berlekamp's Q): one matrix-vector product a step.
    Whatever f, the products multiply back to monic f, and deg f is the one
    key exactly when f is irreducible: a reducible f has a factor of least
    degree k <= deg f / 2, divided out by step k at the latest.
    """
    f = poly_trim([c % r for c in f])
    n = len(f) - 1
    if n < 1:
        return {}
    inv = pow(f[-1], -1, r)
    f = [c * inv % r for c in f]
    x_r = zp_powmod([0, 1], r, f, r)
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(zp_mulmod(rows[-1], x_r, f, r))
    parts: dict[int, list[int]] = {}
    frob, k, rest = [0, 1] + [0] * (n - 2), 0, f
    while 2 * (k + 1) < len(rest):             # 2(k + 1) <= deg rest
        acc = [0] * n
        for c, row in zip(frob, rows):
            if c:
                for j, v in enumerate(row):
                    acc[j] += c * v
        frob, k = [c % r for c in acc], k + 1  # x^(r^k) mod f
        moved = list(frob)                     # length n >= 2
        moved[1] = (moved[1] - 1) % r          # x^(r^k) - x
        common = zp_gcd(rest, poly_trim(moved), r)
        if len(common) > 1:
            parts[k] = common
            rest = zp_quo(rest, common, r)
    if len(rest) > 1:
        d = len(rest) - 1
        parts[d] = poly_trim([c % r for c in _convolve(parts.get(d, [1]), rest)])
    return parts


def reciprocal_trace(s: list[int], m: int) -> tuple[list[int], list[int]]:
    """(h, rest) with s(T) = T^n h(T + m/T) + rest(T) for a monic s of
    degree 2n, exact over Z (so over Z/r after reduction): h, monic of degree
    n, matches the coefficients of T^n..T^2n, and rest = 0 exactly when the
    roots of s pair up as {x, m/x}.  Constant terms first."""
    n = (len(s) - 1) // 2
    work, h = list(s), [0] * (n + 1)     # work: the not-yet-matched part of s
    for j in range(n, -1, -1):
        c = h[j] = work[n + j]
        if c:
            # subtract c T^(n-j) (T^2 + m)^j
            for i in range(j + 1):
                work[n - j + 2 * i] -= c * math.comb(j, i) * m ** (j - i)
    return h, work


def norm_at_root(h: list[int], c: int) -> int:
    """h(sqrt c) h(-sqrt c) = E(c)^2 - c O(c)^2 over Z, writing h(T) =
    E(T^2) + T O(T^2) (constant term first).  For the trace polynomial h of
    s = T^n h(T + m/T) and c = 4m it is the product of b^2 - 4m over the
    roots b of h, zero iff s has a root x with x^2 = m."""
    e = sum(a * c**i for i, a in enumerate(h[0::2]))
    o = sum(a * c**i for i, a in enumerate(h[1::2]))
    return e * e - c * o * o


def zp_reciprocal_blocks(h: list[int], r: int, m: int) -> list[tuple[str, int]]:
    """The blocks (kind, k) of s = T^n h(T + m/T) over Z/r (r odd, m a
    unit), read from its trace polynomial h, monic with integer
    coefficients.  They pair the irreducible factors of s under x -> m/x:
    "gl" for phi != phi* of degree k, phi* having the roots m/x of phi, and
    "u" for phi = phi* of degree 2k.  In the order of ``zp_ddf(h)``: k
    increasing, "u" before "gl".

    Needs r prime to disc(h) N(h), N(h) = ``norm_at_root(h, 4m)``: h is
    squarefree mod r and has no root b with b^2 = 4m, so s is squarefree
    and prime to T^2 - m.  A factor psi of h of degree k, with root
    b = x + m/x, is the image of phi, and x is a root of T^2 - bT + m over
    F_(r^k).  When b^2 - 4m is a square there, x has degree k and phi* != phi
    (a "gl" pair); else x^(r^k) = m/x and phi = phi* has degree 2k (a "u").
    For one psi in the product H_k of ``zp_ddf(h)`` the square class is the
    Legendre symbol of its norm, ``norm_at_root(H_k, 4m)``; for several,
    the "u" factors are gcd(H_k, (T^2 - 4m)^((r^k - 1)/2) + 1).
    """
    blocks = []
    for k, H in zp_ddf(h, r).items():
        n = (len(H) - 1) // k
        if n == 1:
            u = pow(norm_at_root(H, 4 * m), (r - 1) // 2, r) != 1
        else:
            w = zp_powmod([-4 * m, 0, 1], (r**k - 1) // 2, H, r)
            u = (len(zp_gcd(H, poly_trim([(w[0] + 1) % r, *w[1:]]), r)) - 1) // k
        blocks += [("u", k)] * u + [("gl", k)] * (n - u)
    return blocks


def poly_mul(field: FieldDescriptor, a: list[int], b: list[int]) -> list[int]:
    if field.n == 1:
        return poly_trim([c % field.p for c in _convolve(a, b)])
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return poly_trim(out)


def poly_squarefree(field: FieldDescriptor, a: list[int]) -> bool:
    """True iff a has no repeated factor over the field, that is gcd(a, a')
    is constant.  Trailing zeros are trimmed first; the zero polynomial
    raises ValueError.  F_p delegates to ``zp_squarefree``; F_{p^n} runs
    one remainder-only Euclid on the descriptor's scalar ops."""
    a = poly_trim(list(a))
    if not a:
        raise ValueError("squarefree is undefined for the zero polynomial")
    if field.n == 1:
        return zp_squarefree(a, field.p)
    b = poly_trim([field.mul(c, k % field.p) for k, c in enumerate(a)][1:])
    while b:
        db, inv_lead = len(b) - 1, field.inv(b[-1])
        while len(a) > db:                  # a <- a mod b
            coef = field.mul(a.pop(), inv_lead)
            if coef:
                shift = len(a) - db
                for i in range(db):
                    a[shift + i] = field.sub(a[shift + i], field.mul(coef, b[i]))
        a, b = b, poly_trim(a)
    return len(a) == 1


@dataclass(frozen=True)
class FqPoly:
    """Univariate polynomial over F_q, constant term first, trailing zeros trimmed."""

    field: FieldDescriptor
    coeffs: tuple[int, ...]

    def __post_init__(self):
        try:                                # numpy integers become plain ints
            c = list(map(operator.index, self.coeffs))
        except TypeError:
            bad = next(x for x in self.coeffs if not hasattr(type(x), "__index__"))
            raise TypeError(f"element encodings are integers, got {bad!r}") from None
        object.__setattr__(self, "coeffs", tuple(poly_trim(c)))
        for x in self.coeffs:
            if not 0 <= x < self.field.size:
                raise ValueError(f"coefficient encoding {x} out of range for {self.field!r}")

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def pow_coeffs(field: FieldDescriptor, base: list[int], e: int, mul) -> list[int]:
    """base^e for e >= 1 by square-and-multiply with the product ``mul``.
    The result starts as the power of base at the lowest set bit of e, so
    no product by 1 is formed (e = 1 forms none)."""
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    while not e & 1:
        base = mul(field, base, base)
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = mul(field, base, base)
        if e & 1:
            result = mul(field, result, base)
        e >>= 1
    return result


def enumerate_monic(field: FieldDescriptor, degree: int, squarefree_only: bool = False):
    """Iterator over every monic degree-d polynomial over the field, each once.

    Order is part of the external contract: lexicographic on coefficient
    vectors with the constant term varying fastest.  A family of more than
    ``ENUMERATE_CAP`` polynomials raises :class:`BudgetExceededError` here,
    before anything is listed.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    q = field.size
    if q**degree > ENUMERATE_CAP:
        raise BudgetExceededError(
            f"the {q}^{degree} = {q**degree} monic polynomials of degree {degree} "
            f"over {field!r} exceed the enumeration budget {ENUMERATE_CAP}")
    return _monic_family(field, degree, squarefree_only)


def _monic_family(field: FieldDescriptor, degree: int, squarefree_only: bool):
    q = field.size
    for idx in range(q**degree):
        rest, coeffs = idx, []
        for _ in range(degree):
            coeffs.append(rest % q)
            rest //= q
        coeffs.append(1)
        if squarefree_only and not poly_squarefree(field, coeffs):
            continue
        yield FqPoly(field, tuple(coeffs))
