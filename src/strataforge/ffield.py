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
distinct-degree factor counts.  The modulus search runs on them, and on F_p
the ``poly_*`` helpers only delegate to them.  No path here imports sympy.
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

        ``_exp`` has 3(q-1) int32 entries: g^(i mod (q-1)) for i < 2(q-1),
        then zeros.  ``_log[a]`` is the log of a != 0 and ``_log[0]`` is the
        sentinel 2(q-1), so ``_exp[_log[a] + i]`` is a * g^i for every a and
        every 0 <= i < q-1, zero included, with no modulo and no mask.
        int32 holds these indices for fields of up to 7*10^8 elements.

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
        exp = np.zeros(3 * (q - 1), dtype=np.int32)
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
        0; so only those |self| - 1 elements are tried.
        """
        if ext in self._embeddings:
            return self._embeddings[ext]
        if ext.p != self.p or ext.n % self.n != 0:
            raise ValueError(f"{ext!r} is not an extension of {self!r}")
        if self.n == 1 or ext == self:
            # constants encode identically; and x, the code p, is the least
            # root of a field's own modulus (smaller codes are constants)
            table = np.arange(self.size, dtype=np.int64)
        else:
            def at(coeffs, x: int) -> int:
                acc = 0
                for c in reversed(coeffs):
                    acc = ext.add(ext.mul(acc, x), c)
                return acc

            exp, _ = ext.exp_log
            step = (ext.size - 1) // (self.size - 1)
            root = min(x for x in exp[:ext.size - 1:step].tolist() if at(self.modulus, x) == 0)
            table = np.array([at(self.digits(a), root) for a in range(self.size)], dtype=np.int64)
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
        if zp_ddf(coeffs, p) == {n: 1}:
            return FieldDescriptor(p, n, tuple(coeffs))
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# element and polynomial value types


def _encodings(xs) -> list[int]:
    """The encodings xs as plain ints (numpy integers included); a TypeError
    names the first that is not an integer."""
    try:
        return list(map(operator.index, xs))
    except TypeError:
        bad = next(x for x in xs if not hasattr(type(x), "__index__"))
        raise TypeError(f"element encodings are integers, got {bad!r}") from None


@dataclass(frozen=True)
class FqElement:
    """A field element: a descriptor plus its integer encoding."""

    field: FieldDescriptor
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", _encodings([self.value])[0])
        if not 0 <= self.value < self.field.size:
            raise ValueError(f"element encoding {self.value} out of range")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.digits(self.value)

    def _apply(self, op, other):
        """op on the encodings; an int is a prime-field constant, and any
        other type gives NotImplemented."""
        if isinstance(other, FqElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return FqElement(self.field, op(self.value, other.value))
        try:
            b = operator.index(other) % self.field.p
        except TypeError:
            return NotImplemented
        return FqElement(self.field, op(self.value, b))

    def __add__(self, other):
        return self._apply(self.field.add, other)

    def __sub__(self, other):
        return self._apply(self.field.sub, other)

    def __neg__(self):
        return FqElement(self.field, self.field.neg(self.value))

    def __mul__(self, other):
        return self._apply(self.field.mul, other)

    def __truediv__(self, other):
        return self._apply(lambda a, b: self.field.mul(a, self.field.inv(b)), other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._apply(lambda a, b: self.field.sub(b, a), other)

    def __rtruediv__(self, other):
        return self._apply(lambda a, b: self.field.mul(b, self.field.inv(a)), other)

    def __pow__(self, e: int):
        return FqElement(self.field, self.field.pow(self.value, e))

    def __bool__(self):
        return self.value != 0


def is_square(a: FqElement) -> bool:
    """True iff ``a`` has a square root (0 counts as a square)."""
    return a.value == 0 or a.field.chi(a.value) == 1


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


def zp_ddf(f: list[int], r: int) -> dict[int, int]:
    """Distinct-degree counts {k: number of irreducible factors of degree k}
    of a squarefree f over Z/r (any nonzero leading coefficient).

    The k-th step takes gcd(f, x^(r^k) - x), the product of the distinct
    irreducible factors of f whose degree divides k; its degree less that of
    the factors counted at the proper divisors of k gives the count at k, so
    f is never divided.  x^(r^k) is kept mod f and advanced by the Frobenius
    matrix a -> a^r, whose rows are x^(r i) mod f (Berlekamp's Q), so each
    step is one matrix-vector product.  Whatever f, the result is
    {deg f: 1} exactly when f is irreducible: a reducible f has a factor of
    least degree k <= deg f / 2, and the k-th step counts it.
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
    counts: dict[int, int] = {}
    left, frob, k = n, [0, 1], 0                         # degree not counted yet
    while 2 * (k + 1) <= left:
        k += 1
        acc = [0] * n
        for c, row in zip(frob, rows):
            if c:
                for j, v in enumerate(row):
                    acc[j] += c * v
        frob = [c % r for c in acc]                      # x^(r^k) mod f
        moved = list(frob)                               # length n >= 2
        moved[1] = (moved[1] - 1) % r                    # x^(r^k) - x
        common = zp_gcd(f, poly_trim(moved), r)
        fresh = len(common) - 1 - sum(d * c for d, c in counts.items() if k % d == 0)
        if fresh:
            counts[k] = fresh // k
            left -= fresh
    if left:
        counts[left] = counts.get(left, 0) + 1
    return counts


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


def poly_divmod(field: FieldDescriptor, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        coef = field.mul(a[-1], inv_lead)
        shift = len(a) - 1 - db
        quot[shift] = coef
        if coef:
            for i in range(db + 1):
                a[shift + i] = field.sub(a[shift + i], field.mul(coef, b[i]))
        a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(field: FieldDescriptor, a: list[int], b: list[int]) -> list[int]:
    if field.n == 1:
        return zp_gcd(a, b, field.p)
    a, b = list(a), list(b)
    while b:
        _, a = poly_divmod(field, a, b)
        a, b = b, a
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) for c in a]
    return a


def poly_deriv(field: FieldDescriptor, a: list[int]) -> list[int]:
    if field.n == 1:
        return zp_deriv(a, field.p)
    out = [field.mul(c, k % field.p) for k, c in enumerate(a)][1:]
    return poly_trim(out)


def poly_squarefree(field: FieldDescriptor, a: list[int]) -> bool:
    if not a:
        raise ValueError("squarefree is undefined for the zero polynomial")
    if field.n == 1:
        return zp_squarefree(a, field.p)
    return len(poly_gcd(field, a, poly_deriv(field, a))) == 1


@dataclass(frozen=True)
class FqPoly:
    """Univariate polynomial over F_q, constant term first, trailing zeros trimmed."""

    field: FieldDescriptor
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = poly_trim(_encodings(self.coeffs))
        object.__setattr__(self, "coeffs", tuple(c))
        for x in self.coeffs:
            if not 0 <= x < self.field.size:
                raise ValueError(f"coefficient encoding {x} out of range for {self.field!r}")

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def derivative(self) -> "FqPoly":
        return FqPoly(self.field, tuple(poly_deriv(self.field, list(self.coeffs))))


def squarefree(f: FqPoly) -> bool:
    """True iff gcd(f, f') is constant (f nonzero)."""
    return poly_squarefree(f.field, list(f.coeffs))


def poly_pow(f: FqPoly, e: int) -> FqPoly:
    """Exact e-th power of f; degree multiplies by e."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = [1]
    base = list(f.coeffs)
    while e:
        if e & 1:
            result = poly_mul(f.field, result, base)
        e >>= 1
        if e:
            base = poly_mul(f.field, base, base)
    return FqPoly(f.field, tuple(result))


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
