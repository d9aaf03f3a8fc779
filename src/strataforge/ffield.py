"""Exact arithmetic in F_p and F_{p^n} (p odd) and polynomials over them.

An element of F_{p^n} is stored as the integer in [0, p^n) whose base-p
digits are its coordinates in the power basis of the field's modulus.  All
arithmetic is exact integer arithmetic; no floats anywhere.

Fields are built through :func:`field_new`, which picks the canonical
modulus (the lexicographically least monic irreducible, coefficients
compared constant term first) so that serialized elements mean the same
thing across runs and machines.  Products in F_{p^n} read discrete-log
tables built with multiply-by-c matrices over F_p.  Matrices (lists of rows
of encodings) have two whole-matrix kernels on the descriptor, ``echelon``
and ``mat_mul``: each runs a whole elimination or product in one call,
inline on F_p (``% p``, ``pow(x, -1, p)``) and on the scalar ops on
F_{p^n}.

The ``zp_*`` helpers are the polynomial layer over Z/r for a prime r given
as a plain int, because the Weil layer's witness primes may exceed
``MAX_P``: products (one loop, ``_convolve``), remainders (one loop,
``zp_rem``), gcds, squarefreeness, modular powers and the distinct-degree
factorization.  A reciprocal polynomial s(T) = T^n h(T + m/T) is read
through its trace polynomial h, at half the degree (``reciprocal_trace``,
``norm_at_root``): given h with r prime to disc(h) N(h),
``zp_reciprocal_blocks`` pairs the factors of s mod r under x -> m/x from
the factors of h and the square classes of b^2 - 4m at their roots b.  The
modulus search, the primitivity test of the log tables and ``poly_mul``'s
reduction by the modulus run on them too.

Polynomials over F_q (``FqPoly``, or coefficient lists of encodings) have
two entry points: ``poly_mul`` and ``poly_squarefree``.  ``poly_mul`` forms
the product of one or more factors as one product of packed integers, on
one path for every F_q, and refuses codes outside [0, q) (``poly_codes``).
Given ``at``, it reads back only the coefficients at those exponents, off
the same product: the Hasse-Witt matrix wants g^2 of the
(2g + 1)(p - 1)/2 + 1 coefficients of f^((p-1)/2) (``prank``).  k copies
of one object are packed once and raised by one power, and a single
factor is read straight off its codes.  The gcd route of
``poly_squarefree`` (``_gcd_squarefree``) is
``zp_squarefree`` on F_p and a remainder-only Euclid on the scalar ops on
F_{p^n}.

Families of polynomials run in numpy blocks of int16 codes instead, on one
path for every F_q: each field's add, mul, neg, inv and Frobenius tables
(``FieldDescriptor.tables``, built once from ``exp_log`` and capped in
bytes) serve the row-wise product ``poly_mul_rows``.  ``squarefree_mask``
sieves a whole family by marking every product u^2 k, and
``enumerate_monic`` lists its squarefree models off that mask.  Each field
holds the last mask it sieved (read-only, at most ``ENUMERATE_CAP`` bytes),
so ``poly_squarefree`` answers the models that mask covers by one lookup;
its verdicts on other models are kept in a bounded LRU memo
(``L_CACHE_SIZE`` entries), so a model tested again costs one lookup too.
``cut_model`` is the normal form of a model under x -> x + b (the Taylor
shift that clears c_(d-1), where p does not divide d), and ``class_memo``
memoizes an invariant of curves on it, one entry per translation class.
The budgets (``ENUMERATE_CAP``, ``BLOCK_BYTES``, ``FIELD_TABLE_CAP``) refuse
a family before anything is allocated or read from the held mask.  No path
here imports sympy.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError

MAX_P = 97            # supported characteristic cap; desk-scale fields only
# Byte budget of a family's squarefree mask (``squarefree_mask``), one byte
# per model; ``enumerate_monic`` admits the same number of models without
# the filter.  Its blocks of codes and batched steps have their own caps,
# ``BLOCK_ROWS`` and ``BLOCK_BYTES``.  Listing FqPolys off the mask costs
# about 3 us per polynomial and the invariants of one curve 0.3-1 ms more,
# so a census of an ``enumerate_monic`` family at the cap already runs for
# hours; F_9 at degree 7 (4.8 * 10^6 models) fits, F_11 at degree 7 does not.
ENUMERATE_CAP = 10**7
# Rows of codes in a block of ``families``, and of ``enumerate_monic``'s
# listing.
BLOCK_ROWS = 1 << 15
# Bytes of the temporaries of one batched step (a chunk of the sieve's
# products, a chunk of ``families.p_ranks``); each step takes as many rows
# as fit, by its measured bytes per row.
BLOCK_BYTES = 1 << 22
# Byte budget of a field's ``tables``: add and mul hold q^2 int16 entries
# each, neg, inv and frob q each.  At the cap q is at most 2,896 (3^7 = 2187
# and 7^4 = 2401 fit, 5^5 = 3125 does not).
FIELD_TABLE_CAP = 1 << 25

# Entries kept by each bounded LRU memo that lives as long as the process:
# ``poly_squarefree``'s verdicts off the held mask (``_squarefree_memo``),
# the three stages of ``weil`` keyed on L (``l_reducible``,
# ``absolutely_simple``, ``splitting_class``), and the Newton polygons of
# ``prank.newton_polygon``, keyed on (v_p(a_1), ..., v_p(a_g), n).
# The L stages depend on L alone, and a census meets few distinct L (218
# among the 1,458 genus-3 curves over F_3), but the caches live as long as
# the process, so they are bounded.  Measured under tracemalloc on genus-2
# and genus-3 L (q <= 49): an ``l_reducible`` entry with its key L 343 B,
# and an entry of the other caches whose L is already held adds 282 B
# (``absolutely_simple``, 1,434 L) and 178-213 B (``splitting_class``,
# 1,038 L).  A polygon entry with its key and its Fractions takes about
# 670 B, but 1,833 L over F_7 and F_9 (1,294 distinct) make 51 of them.
# A verdict entry, keyed on the field and one int, takes 180 B (4,096
# degree-7 models over F_7).
# The translation-class memos (``class_memo``: ``curves.l_polynomial`` and
# ``prank.p_rank``) are keyed on (field, one int), and both memos' entries
# for one class share that int: over the 486 classes of the genus-3 census
# over F_3, an ``l_polynomial`` entry with its L took 371 B and a ``p_rank``
# entry 182 B, with their share of the memos' dicts.  Three full L caches with
# no key shared stay under 3 * 4096 * 800 B, 10 MB; a full verdict memo adds
# about 0.7 MB, the two full class memos about 2.3 MB together, and a full
# polygon memo, were there 4,096 valuation classes, 2.7 MB.
L_CACHE_SIZE = 4096

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
    """True iff n is a prime integer (False for any non-integer).  Division by
    the 13 primes up to 41 decides n < 43^2 and any n with such a factor;
    the rest get the strong Miller-Rabin test to those bases, exact below
    3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2017), and
    past that bound raise ValueError."""
    if not isinstance(n, numbers.Integral):
        return False
    n, bases = int(n), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    if n < 1849:
        return n > 1
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"is_prime is exact below 3,317,044,064,679,887,385,961,981, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1          # n - 1 = d 2^s, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


class FieldDescriptor:
    """Explicit model of F_{p^n} with a fixed monic irreducible modulus.

    Immutable up to its caches; safe to share across threads.  Construct
    with :func:`field_new` so that equal parameters reuse one instance (and
    its lookup tables).  The caches are the lazily built tables and one
    slot, ``_mask``, holding the (degree, cut, mask) of the last
    ``squarefree_mask`` call: a read-only mask of at most ``ENUMERATE_CAP``
    bytes, replaced whole by one assignment, so a reader sees one triple.
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
        self._tables: FieldTables | None = None
        self._mask: tuple[int, bool, np.ndarray] | None = None
        self._hash = hash((p, n, modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FieldDescriptor)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self) -> int:
        return self._hash

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

    def _ensure_exp_log(self) -> None:
        """Discrete-log tables for a fixed generator g, built once per field.

        ``_exp`` has 2(q-1) int32 entries, g^(i mod (q-1)), so
        ``_exp[_log[a] + _log[b]]`` is a * b for nonzero a and b with no
        modulo.  ``_log[a]`` is the log of a != 0 and ``_log[0]`` is 2(q-1),
        one past the end of ``_exp``, so an exp lookup at the log of zero
        raises instead of reading a value.  ``field_new`` refuses fields of
        more than 2^30 elements, so every index, up to 2(q-1), fits int32.

        g is the least primitive encoding (g^((q-1)/r) != 1, by ``zp_powmod``,
        for every prime r | q - 1).  Every product is digits times a
        multiply-by-c matrix (``_times``): b = isqrt(q-1) + 1 steps by g
        give g^0..g^b, the first block is g^0..g^(b-1), and each later block
        is the one before it times the matrix of g^b.
        """
        if self._exp is not None:
            return
        q, p, n, modulus = self.size, self.p, self.n, list(self.modulus)
        facs = _prime_factors(q - 1)
        gen = next(g for g in range(2, q) if all(
            zp_powmod(list(self.digits(g)), (q - 1) // r, modulus, p) != [1] for r in facs))
        b, times_g, place = math.isqrt(q - 1) + 1, self._times(gen), p ** np.arange(n)
        powers = [np.eye(1, n, dtype=np.int64)[0]]          # g^0
        for _ in range(b):
            powers.append(powers[-1] @ times_g % p)
        digits, step = np.array(powers[:b]), self._times(int(powers[b] @ place))
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

    def frobenius(self, a: int) -> int:
        """a^p (the identity on F_p)."""
        if self.n == 1:
            return a
        return self.pow(a, self.p)

    def chi(self, a: int) -> int:
        """Quadratic character: 0 at 0, +1 on squares, -1 on nonsquares."""
        if a == 0:
            return 0
        return 1 - 2 * (int(self.exp_log[1][a]) & 1)

    # -- whole-matrix kernels on lists of rows of encodings -------------------

    def echelon(self, rows) -> list[list[int]]:
        """The nonzero rows of a row echelon form of the matrix ``rows``, a
        basis of its row space, as new lists; ``rows`` is not changed.

        Column by column, the first row not yet used with a nonzero entry
        there is swapped up as the next pivot row, and each row below it
        adds the multiple of it that clears the column.  On F_p the
        arithmetic is inline (``% p``, ``pow(x, -1, p)``); on F_{p^n} it is
        the scalar ops."""
        p, fp = self.p, self.n == 1
        rows, rank = [list(r) for r in rows], 0
        for col in range(len(rows[0]) if rows else 0):
            for piv in range(rank, len(rows)):
                if rows[piv][col]:
                    break
            else:
                continue
            top = rows[piv]
            rows[piv], rows[rank] = rows[rank], top
            rank += 1
            minus = p - pow(top[col], -1, p) if fp else self.neg(self.inv(top[col]))
            for r in range(rank, len(rows)):
                row = rows[r]
                if row[col]:
                    c = row[col] * minus if fp else self.mul(row[col], minus)
                    rows[r] = ([(v + c * w) % p for v, w in zip(row, top)] if fp else
                               [self.add(v, self.mul(c, w)) for v, w in zip(row, top)])
        return rows[:rank]

    def mat_mul(self, a, b) -> list[list[int]]:
        """The product of an r x m matrix a and an m x c matrix b (rows of
        encodings), as r new rows; inline on F_p, on the scalar ops on
        F_{p^n}."""
        cols = list(zip(*b))
        if self.n == 1:
            return [[sum(map(operator.mul, row, col)) % self.p for col in cols] for row in a]
        return [[reduce(self.add, map(self.mul, row, col), 0) for col in cols] for row in a]

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

    @property
    def tables(self) -> "FieldTables":
        """The add, mul, neg, inv and Frobenius tables of every code, int16,
        built once from ``exp_log``; the batched kernels read them.
        Refused (``table_refusal``) when q >= 2^15 or over ``FIELD_TABLE_CAP``.

        add and mul are q x q, built a few rows at a time so that the int64
        temporaries stay near ``BLOCK_ROWS`` entries.  Digits add mod p; a
        product is g^(log a + log b), zero on row and column 0; neg is the
        column of -1 (code p - 1) of mul, inv(a) = g^(q-1-log a) with
        inv(0) = 0, and frob(a) = g^(p log a mod (q-1)).
        """
        if self._tables is None:
            why = table_refusal(self)
            if why:
                raise BudgetExceededError(why)
            q, p = self.size, self.p
            exp, log = self.exp_log
            digits = np.arange(q)[:, None] // p ** np.arange(self.n) % p
            place = p ** np.arange(self.n)
            logs = log.astype(np.int64)
            logs[0] = 0
            add, mul = np.empty((q, q), np.int16), np.empty((q, q), np.int16)
            step = max(1, BLOCK_ROWS // (q * self.n))
            for r in range(0, q, step):
                rows = slice(r, r + step)
                add[rows] = (digits[rows, None] + digits) % p @ place
                mul[rows] = exp.take(logs[rows, None] + logs)
            mul[0], mul[:, 0] = 0, 0
            inv = exp.take((q - 1 - logs) % (q - 1)).astype(np.int16)
            frob = exp.take(p * logs % (q - 1)).astype(np.int16)
            inv[0] = frob[0] = 0
            self._tables = FieldTables(q, add.reshape(-1), mul.reshape(-1),
                                       mul[:, p - 1].copy(), inv, frob)
        return self._tables

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


class FieldTables(NamedTuple):
    """Lookup tables of a field on its codes (see ``FieldDescriptor.tables``).

    ``add`` and ``mul`` take code arrays that broadcast together; both read
    one flat q^2 table at a q + b (int16 while q^2 fits, else int32)."""

    q: int
    sums: np.ndarray        # sums[a q + b] = a + b
    products: np.ndarray    # products[a q + b] = a * b
    neg: np.ndarray         # neg[a] = -a
    inv: np.ndarray         # inv[a] = 1 / a, and inv[0] = 0
    frob: np.ndarray        # frob[a] = a^p

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.sums.take(self._pairs(a, b))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.products.take(self._pairs(a, b))

    def _pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        wide = np.int32 if self.q * self.q > 1 << 15 else np.int16
        return np.asarray(a).astype(wide, copy=False) * self.q + b


def table_refusal(field: FieldDescriptor) -> str | None:
    """Why ``field.tables`` may not be built, or None when it may."""
    q = field.size
    if q >= 1 << 15:
        return f"the {q} codes of {field!r} do not fit the int16 tables"
    if 4 * q * q + 6 * q > FIELD_TABLE_CAP:
        return (f"the tables of {field!r} take {4 * q * q + 6 * q} bytes, "
                f"over FIELD_TABLE_CAP = {FIELD_TABLE_CAP}")
    return None


_fields: dict[tuple[int, int], FieldDescriptor] = {}    # every descriptor built, by (p, n)


def field_new(p: int, n: int = 1) -> FieldDescriptor:
    """Build (or reuse) the descriptor of F_{p^n} with the canonical modulus:
    one per (p, n), however the call is spelt, so its tables and held mask
    are built once.  p and n must be ints."""
    if not isinstance(p, int) or not isinstance(n, int):
        raise ValueError(f"p and n must be ints, got p = {p!r}, n = {n!r}")
    if (p, n) in _fields:
        return _fields[p, n]
    if p > MAX_P:
        raise ValueError(f"p={p} exceeds the supported cap {MAX_P}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        raise ValueError("even characteristic is not supported (p must be odd)")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if p**n > 2**30:   # the int32 exp and log tables index up to 2(q-1)
        raise ValueError(f"F_{p}^{n} has more than 2^30 elements, the limit of its int32 tables")
    # x at n = 1; else the lexicographically least (c_0, ..., c_{n-1}),
    # constant term first, from c_0 = 1 since c_0 = 0 makes x a factor
    modulus = (0, 1) if n == 1 else next(
        (*vec, 1) for vec in itertools.product(range(1, p), *[range(p)] * (n - 1))
        if list(zp_ddf([*vec, 1], p)) == [n])
    return _fields.setdefault((p, n), FieldDescriptor(p, n, modulus))   # one, even if raced


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


def _monic(f: list[int], r: int) -> list[int]:
    """f over Z/r divided by its leading coefficient; f itself when that
    is 1."""
    if f[-1] == 1:
        return f
    inv = pow(f[-1], -1, r)
    return [c * inv % r for c in f]


def zp_mulmod(a: list[int], b: list[int], f: list[int], r: int) -> list[int]:
    """a * b mod f over Z/r, f != 0; the entries of a and b may be any
    integers.  The product over Z (``_convolve``) reduced by ``zp_rem``."""
    return zp_rem(_convolve(a, b), f, r)


def zp_powmod(a: list[int], e: int, f: list[int], r: int) -> list[int]:
    """a^e mod f over Z/r, e >= 0.  The bits of e are read from the top, so
    every product other than a square is by a itself, which is short for
    the x and x^2 - 4m that the Weil layer raises."""
    f = _monic(f, r)
    if e == 0:
        return zp_rem([1], f, r)
    base = result = zp_rem(a, f, r)
    for bit in bin(e)[3:]:
        result = zp_mulmod(result, result, f, r)
        if bit == "1":
            result = zp_mulmod(result, base, f, r)
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
    f = _monic(f, r)
    x_r = zp_powmod([0, 1], r, f, r)
    rows = [[1], x_r][:n]                      # x^(r i) mod f, i < n
    while len(rows) < n:
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


def poly_codes(field: FieldDescriptor, coeffs) -> list[int]:
    """The coefficient codes as a list of ints; ValueError names the first
    code outside [0, q)."""
    codes, q = list(map(operator.index, coeffs)), field.size
    for c in codes:
        if not 0 <= c < q:
            raise ValueError(f"coefficient encoding {c} out of range for {field!r}")
    return codes


def poly_mul(field: FieldDescriptor, *factors, at=None) -> list[int]:
    """The product of one or more polynomials over the field (sequences of
    codes, constant term first, trailing zeros allowed), trimmed, as one
    product of packed integers (Kronecker substitution).  Given ``at``, a
    sequence of ints, it is instead the list of the product's coefficients
    at those exponents, 0 outside [0, deg], untrimmed, read off the same
    product: the Hasse-Witt matrix needs only its g^2 entries c_(ip-j) of
    f^((p-1)/2) (``prank.hasse_witt_from_poly``), not every coefficient of
    the power.  A code outside [0, q) raises ValueError (``poly_codes``),
    with ``at`` or without.

    A code c = sum d_j p^j stands for the polynomial sum d_j alpha^j over
    Z, alpha the root of the modulus, so each of the k factors is a
    polynomial in x and alpha with digits in [0, p).  Its coefficient of
    x^i alpha^j goes in slot i S + j, of w bits, of one integer, with
    S = k(n - 1) + 1 (``_packed``).  The product of the k integers holds
    the product over Z[x, alpha] in the same slots as long as no slot
    overflows into the next.  The coefficient of x^m alpha^t of that
    product is a sum of products d_1 ... d_k, one per pair of index tuples
    (i_1, ..., i_k) with sum m and (j_1, ..., j_k) with sum t.  Each
    product is at most (p - 1)^k.  The indices into all factors but the
    first fix the first one, so there are at most len_2 ... len_k
    i-tuples; likewise at most n^(k-1) j-tuples.  So every coefficient is
    at most (p - 1)^k n^(k-1) len_2 ... len_k, and w is the bit length of
    that bound (at least 1).  The alpha-degree of a product coefficient is
    at most k(n - 1) < S, so the powers of x stay apart.  The S slots of
    x^m are read back as a polynomial in alpha and reduced mod the modulus
    over Z/p by ``zp_rem``; on F_p that is one slot and one % p.  Slots
    past the product read 0.  k copies of one object (f^k) are checked
    and packed once and raised by one power, and a single factor is read
    straight off its codes, unpacked.
    """
    if not factors:
        raise ValueError("poly_mul needs at least one factor")
    p, n, k = field.p, field.n, len(factors)
    if k == 1:                                      # read straight off the codes
        f = poly_codes(field, factors[0])
        return poly_trim(f) if at is None else [f[m] if 0 <= m < len(f) else 0 for m in at]
    f, e = factors[0], 1
    while e < k and factors[e] is f:                # the leading run of one object
        e += 1
    span, bound = k * (n - 1) + 1, (p - 1) ** k * n ** (k - 1)
    if e == k:                                      # one object: checked and packed once
        f = poly_codes(field, f)
        w = (bound * len(f) ** (k - 1)).bit_length() or 1
        prod, top = _packed(field, f, w, span) ** k, k * len(f) - k + 1
    else:
        codes = [poly_codes(field, g) for g in factors]
        lens = [*map(len, codes)]
        w = (bound * math.prod(lens[1:])).bit_length() or 1
        prod, top = 1, sum(lens) - k + 1
        for f in codes:
            prod *= _packed(field, f, w, span)
    mask, wanted = (1 << w) - 1, range(top) if at is None else at
    if n == 1:
        out = [(prod >> m * w & mask) % p if m >= 0 else 0 for m in wanted]
    else:
        out, step = [], span * w
        for m in wanted:
            code = 0
            if m >= 0:
                slots = [prod >> s & mask for s in range(m * step, m * step + step, w)]
                for d in reversed(zp_rem(slots, field.modulus, p)):
                    code = code * p + d
            out.append(code)
    return poly_trim(out) if at is None else out


def _packed(field: FieldDescriptor, codes: list[int], w: int, span: int) -> int:
    """The codes as one integer for ``poly_mul``: digit j of the code of
    x^i in the w-bit slot i * span + j."""
    p, n, x = field.p, field.n, 0
    if n == 1:                                      # the code is its one digit
        for c in reversed(codes):
            x = x << w | c
        return x
    for c in reversed(codes):
        x <<= span * w
        for shift in range(0, n * w, w):
            c, d = divmod(c, p)
            x |= d << shift
    return x


def poly_squarefree(field: FieldDescriptor, a: list[int]) -> bool:
    """True iff a has no repeated factor over the field, that is gcd(a, a')
    is constant.  The entries of a are integers (numpy integers included):
    on F_p they are read mod p, and on F_{p^n} a code outside [0, q) raises
    ValueError (``poly_codes``) before any lookup.  Trailing zeros are
    trimmed first, and the zero polynomial raises ValueError.

    The answer comes from the first of three places that has it:

    1. the field's held mask (``squarefree_mask``): a monic a of its
       degree, with every entry in [0, q) (and c_(d-1) = 0 for a cut mask),
       is read off that mask at sum c_i q^i;
    2. the verdict memo (``_squarefree_memo``), an LRU memo of the last
       ``L_CACHE_SIZE`` distinct models tested off the mask, keyed on the
       field and the one int sum (c_i mod q) q^i;
    3. ``_gcd_squarefree``, on the model decoded from that int (entries
       reduced, trailing zeros trimmed), whose verdict the memo then
       keeps.  A failure (the zero polynomial's ValueError) is never
       stored.

    The memo saves a Euclid only where a model is tested again within
    ``L_CACHE_SIZE`` distinct tests, as when ``curves.curve_new`` builds a
    model that ``families.sampled`` (or any sampler) has just kept.  On the
    benchmark's workloads: all 1,000 ``curve_new`` calls of
    strata_g3_sampled re-test a model of its set-up and hit the memo; none
    of the 1,458 of census_g3_full reaches it, since the held mask answers
    them; sp_baselines makes no call.
    """
    q, index, held = field.size, 0, field._mask
    for c in reversed(a):
        if not 0 <= c < q:                  # off the mask, read mod p on F_p
            if field.n > 1:
                poly_codes(field, a)
            held, c = None, c % q
        index = index * q + operator.index(c)
    if held:
        degree, cut, mask = held
        if len(a) == degree + 1 and a[-1] == 1 and not (cut and a[-2]):
            return bool(mask[index - q**degree])
    return _squarefree_memo(field, index)


@lru_cache(maxsize=L_CACHE_SIZE)
def _squarefree_memo(field: FieldDescriptor, index: int) -> bool:
    """``poly_squarefree`` off the held mask: the gcd route's verdict on the
    polynomial sum c_i x^i with sum c_i q^i = index, its digits decoded on a
    miss, memoized on (field, index).  Its ``cache_info()`` gives the hits
    and misses of the squarefree test for a run record."""
    a = []
    while index:
        a.append(index % field.size)
        index //= field.size
    return _gcd_squarefree(field, a)


def _gcd_squarefree(field: FieldDescriptor, a: list[int]) -> bool:
    """``poly_squarefree`` by gcd(a, a'), never reading a held mask: on F_p
    ``zp_squarefree`` (the entries of a may be any integers, taken mod p),
    on F_{p^n} one remainder-only Euclid on the descriptor's scalar ops."""
    p = field.p
    a = poly_trim([c % p for c in a] if field.n == 1 else list(a))
    if not a:
        raise ValueError("squarefree is undefined for the zero polynomial")
    if field.n == 1:
        return zp_squarefree(a, p)
    b = poly_trim([field.mul(c, k % p) for k, c in enumerate(a)][1:])
    while b:
        db = len(b) - 1
        minus = field.neg(field.inv(b[-1]))
        while len(a) > db:                  # a <- a mod b
            c = field.mul(a.pop(), minus)
            if c:
                shift = len(a) - db
                for i in range(db):
                    a[shift + i] = field.add(a[shift + i], field.mul(c, b[i]))
        a, b = b, poly_trim(a)
    return len(a) == 1


def cut_model(field: FieldDescriptor, coeffs) -> list[int] | None:
    """The cut model of f (integer codes, numpy ones included, constant term
    first, nonzero lead c_d): f(x + b) with b = -c_(d-1) / (d c_d), the one
    translate of f with c_(d-1) = 0, as int codes; None where p divides
    d = deg f, since there no translate moves c_(d-1).  x -> x + b is an
    isomorphism over F_q, so the q translates of f (its translation class)
    share one cut model, the one model of the class that
    ``families.exhaustive`` keeps.

    On F_p the Taylor shift is Horner's rule at the integer X + b,
    X = 2^w, with b in [0, p): f(X + b) = sum g_k X^k, g_k the coefficients
    of f(x + b) over Z, each below (d + 1) p^(d + 1) < 2^w, so each sits
    in its own w-bit slot, read back mod p.  On F_{p^n} it is d rounds of
    Horner steps on the scalar ops."""
    p, d = field.p, len(coeffs) - 1
    if d < 1 or d % p == 0:
        return None
    a = list(map(operator.index, coeffs))           # numpy codes become ints
    if not a[-2]:
        return a
    if field.n == 1:
        b = -a[-2] * pow(a[-1] * d, -1, p) % p
        w = ((d + 1) * p ** (d + 1)).bit_length()
        x = 0
        for c in reversed(a):
            x = x * ((1 << w) + b) + c
        return [(x >> s & (1 << w) - 1) % p for s in range(0, (d + 1) * w, w)]
    b = field.neg(field.mul(a[-2], field.inv(field.mul(a[-1], d % p))))
    for i in range(d):
        for j in range(d - 1, i - 1, -1):    # round i divides a[i:] by x - b: g_i in a[i]
            a[j] = field.add(a[j], field.mul(b, a[j + 1]))
    return a


# The last curve a class memo was called on, with the index of its cut model,
# per thread (never set at p | deg f): the other class memos called on the
# same curve reuse the index, and a miss hands the curve to the memoized
# function.
_class_caller = threading.local()


def class_memo(fn):
    """``fn(curve, *args)`` memoized on its translation class: the key is
    the field, the index sum c_i q^i of the cut model (``cut_model``) and
    the other arguments, in an LRU memo of ``L_CACHE_SIZE`` entries.  fn
    must be an invariant of the curve's isomorphism class over F_q.  A miss
    calls fn on the caller's own curve, so an exception names the caller's
    f, and none is stored.  Where p divides deg f there is no cut model:
    fn runs on the curve at once, before ``cut_model`` or the per-thread
    hand-over is touched, and the memo is not read.  The wrapper's
    ``cache_info`` and ``cache_clear`` are the memo's, and ``__wrapped__``
    is fn."""
    @lru_cache(maxsize=L_CACHE_SIZE)
    def memo(field, index, *args, **kwargs):
        return fn(_class_caller.curve, *args, **kwargs)

    @wraps(fn)
    def wrapper(curve, *args, **kwargs):
        field = curve.field
        if (len(curve.f.coeffs) - 1) % field.p == 0:     # no cut model
            return fn(curve, *args, **kwargs)
        last = _class_caller
        if getattr(last, "curve", None) is not curve:
            index, q = 0, field.size
            for c in reversed(cut_model(field, curve.f.coeffs)):
                index = index * q + c
            last.curve, last.index = curve, index
        return memo(field, last.index, *args, **kwargs)

    wrapper.cache_info, wrapper.cache_clear = memo.cache_info, memo.cache_clear
    return wrapper


@dataclass(frozen=True)
class FqPoly:
    """Univariate polynomial over F_q, constant term first, trailing zeros trimmed."""

    field: FieldDescriptor
    coeffs: tuple[int, ...]

    def __post_init__(self):
        try:                                # numpy integers become plain ints
            c = poly_codes(self.field, self.coeffs)
        except TypeError:
            bad = next(x for x in self.coeffs if not hasattr(type(x), "__index__"))
            raise TypeError(f"element encodings are integers, got {bad!r}") from None
        object.__setattr__(self, "coeffs", tuple(poly_trim(c)))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def poly_mul_rows(field: FieldDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of polynomials over the field, as int16 codes.

    a and b hold coefficient codes along their last axis, constant term
    first; their other axes broadcast, and row r of the result is
    a[r] * b[r], of length len(a[r]) + len(b[r]) - 1 (not trimmed).  One
    pass per coefficient of a, through the field's add and mul tables.
    """
    t, lb = field.tables, b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (a.shape[-1] + lb - 1,), dtype=np.int16)
    for i in range(a.shape[-1]):
        part = out[..., i:i + lb]
        part[...] = t.add(part, t.mul(a[..., i, None], b))
    return out


def monic_codes(q: int, degree: int, index: np.ndarray, cut: bool = False) -> np.ndarray:
    """The monic polynomials of the given degree at ``index`` in the order of
    ``enumerate_monic`` (index = sum of c_i q^i), one row of codes each,
    constant term first; int16 while q < 2^15, else int64.  With ``cut``
    the index runs over the lower degree - 1 coefficients and c_(degree-1)
    is 0."""
    index = np.asarray(index, dtype=np.int64)
    rows = np.zeros((len(index), degree + 1), dtype=np.int16 if q < 1 << 15 else np.int64)
    for i in range(degree - 1 if cut else degree):
        rows[:, i] = index // q**i % q
    rows[:, degree] = 1
    return rows


def squarefree_mask(field: FieldDescriptor, degree: int, cut: bool = False) -> np.ndarray:
    """Boolean mask over the monic polynomials of the given degree, in the
    order of ``enumerate_monic``: True exactly at the squarefree ones.

    A monic f is not squarefree iff f = u^2 k for a monic u of degree
    1..degree/2 (u need not be irreducible) and a monic k, so the sieve
    marks every such product, formed by ``poly_mul_rows`` as many at a time
    as ``BLOCK_BYTES`` holds.  With ``cut`` (odd degrees only) the mask
    covers only the models with c_(degree-1) = 0 (indexed as in
    ``monic_codes``), and only the k whose x^(deg k - 1) coefficient cancels
    that of u^2 are formed: about q^(degree-1) products in all.

    The field holds the mask it returns, read-only, in its one slot (at
    most ``ENUMERATE_CAP`` bytes next to its tables): a later call for the
    same (degree, cut) returns it, and ``poly_squarefree`` reads it.

    Raises :class:`BudgetExceededError`, naming the field and the degree,
    before anything is allocated or the held mask is read, when the field's
    tables may not be built (``table_refusal``) or the mask, one byte per
    model, exceeds ``ENUMERATE_CAP``.
    """
    if cut and degree % 2 == 0:
        raise ValueError(f"the cut mask needs an odd degree, got {degree}")
    q = field.size
    free = degree - 1 if cut else degree
    why = table_refusal(field)
    if why is None and q**free > ENUMERATE_CAP:
        why = (f"the mask of {q**free} models exceeds the enumeration "
               f"budget ENUMERATE_CAP = {ENUMERATE_CAP} bytes")
    if why:
        raise BudgetExceededError(f"monic degree {degree} over {field!r}: {why}")
    held = field._mask
    if held and held[:2] == (degree, cut):
        return held[2]
    mask = np.ones(q**free, dtype=bool)
    place = q ** np.arange(free, dtype=np.int64)
    rows = BLOCK_BYTES // (24 * (degree + 1))     # products per step: about 20 B per code
    for e in range(1, degree // 2 + 1):
        u = monic_codes(q, e, np.arange(q**e))
        squares, m = poly_mul_rows(field, u, u), degree - 2 * e
        # with the cut (odd degree, so m >= 1) the coefficient x^(m-1) of k
        # is set per square, below
        n_k = q ** (m - 1 if cut else m)
        width = min(n_k, rows)
        for k_start, start in itertools.product(range(0, n_k, width),
                                                range(0, len(squares), rows // width)):
            a = squares[start:start + rows // width, None, :]
            k = monic_codes(q, m, np.arange(k_start, min(k_start + width, n_k)), cut)
            b = np.repeat(k[None], len(a), axis=0)
            if cut:
                b[:, :, m - 1] = field.tables.neg.take(a[:, :, -2])
            products = poly_mul_rows(field, a, b).reshape(-1, degree + 1)
            # widen first: numpy 1.x keeps int16 times a scalar place q^i that
            # fits int16 in int16, and the index wraps
            mask[products[:, :free].astype(np.int64) @ place] = False
    mask.flags.writeable = False
    field._mask = (degree, cut, mask)
    return mask


def enumerate_monic(field: FieldDescriptor, degree: int, squarefree_only: bool = False):
    """Iterator over every monic degree-d polynomial over the field, each once.

    Order is part of the external contract: lexicographic on coefficient
    vectors with the constant term varying fastest.  ``squarefree_only``
    reads the models off ``squarefree_mask``.  A family of more than
    ``ENUMERATE_CAP`` polynomials (the bytes of its mask) raises
    :class:`BudgetExceededError` here, before anything is listed.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    q = field.size
    if q**degree > ENUMERATE_CAP:
        raise BudgetExceededError(
            f"the {q}^{degree} = {q**degree} monic polynomials of degree {degree} "
            f"over {field!r} exceed the enumeration budget {ENUMERATE_CAP}")
    # every monic polynomial of degree 1 is squarefree
    mask = squarefree_mask(field, degree) if squarefree_only and degree > 1 else None
    return _monic_family(field, degree, mask)


def _monic_family(field: FieldDescriptor, degree: int, mask: np.ndarray | None):
    q = field.size
    for start in range(0, q**degree, BLOCK_ROWS):
        index = np.arange(start, min(start + BLOCK_ROWS, q**degree))
        if mask is not None:
            index = index[mask[start:start + BLOCK_ROWS]]
        for coeffs in monic_codes(q, degree, index).tolist():
            yield FqPoly(field, tuple(coeffs))
