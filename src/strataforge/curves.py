"""Hyperelliptic curves y^2 = f(x) over F_q: point counts, zeta numerator,
Jacobian group order.

Point counting evaluates f once per Frobenius orbit: for every degree d
that divides a requested k, at one x of each orbit of exact degree d in
F_{q^d}^* (about q^d / d of them), all in one numpy pass over the
concatenated representatives.  Conjugate x give the same character value,
and an x of degree d | k counts d times in N_k with character
chi_{q^d}(f(x))^(k/d), so each degree contributes two sums (of chi and of
chi^2) that every N_k reuses.  A pass takes one of two routes to those
sums, by size.  When its matrix of the digits of theta x^j (theta running
over a basis of F_q, x over the representatives, j up to deg f) has at
most ``MATRIX_PASS_ENTRIES`` entries, the digits of every f(x) are one
matrix product with the digits of f's coefficients, reduced mod p, and
each field's character table reads chi(f(x)) (``_MatrixPass``).  Larger
passes run Horner's rule in the log domain: x runs over powers g^i of each
field's generator, multiplying by x adds i, and adding a coefficient c is
a lookup in a per-field Zech table (log(1 + g^n), Huber 1990) shifted by
log c; the quadratic character of f(x) is the parity of its final log
(``_ExtensionPass``).  The zeta numerator L(T) is recovered
from N_1..N_g through Newton's identities and the functional equation,
then checked against N_{g+1}, counted in the same pass (when that field is
within budget), so that a miscount raises instead of propagating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, ConsistencyError
from .ffield import FieldDescriptor, FqPoly, field_new, poly_squarefree

# Largest |F_{q^k}| a point count will walk, for each k it counts.  At the
# cap one segment peaks at about 132 MB (POINTCOUNT_BYTES_PER_ELEMENT
# below); the l_polynomial pass over k = 1..g+1 holds at most q/(q-1) <= 3/2
# times the elements of its largest segment, so about 198 MB.
POINTCOUNT_FIELD_CAP = 2_000_000
# Bound on the tracemalloc peak of one point count per element counted (the
# sum of |F_{q^k}| over the k of the pass), on fields whose tables are not
# built yet.  The pass holds 12 B of the fields' int32 exp and log tables (2
# and 1 entries per element) and 25 B of Zech and character tables (5 int32
# and 5 int8 entries per element); building the Zech tables and the orbit
# representatives costs about 16 B more of temporaries.  The Horner state
# runs over R_d, so a segment of degree d adds 4/d B for each cached
# log(x^r) array and 16/d B of Horner temporaries (int32 state and index,
# and the intp copy of the index that ``take`` makes).  Measured for
# y^2 = x^3 + x + 1 (r = 1, 2): 54.1 B at 103,823 elements (F_47^3 alone,
# segments d = 1, 3), 53.7 B at 106,079 (F_47, F_47^2, F_47^3 in one pass)
# and 54.0 B at 1,594,323 (F_3^13 over F_3), all peaking in the build.
# Over a base field that large itself (d = 1, every element walked) the
# count peaks at 57.0 B: the base's exp and log tables are built before (by
# ``curve_new``), but its int32 self-embedding and coefficient logs add
# 8 B.  Each further distinct gap r between nonzero coefficients adds
# 4/d B.  These passes all run the Horner route; a matrix pass is far
# smaller (see ``MATRIX_PASS_ENTRIES``).
POINTCOUNT_BYTES_PER_ELEMENT = 66
# Largest float32 matrix (and mod-p table) of a pass that counts by matrix
# products (see _MatrixPass); larger passes run log-domain Horner steps.
# Per curve (N_1..N_{g+1}), the matrix route took about half the Horner
# time at 23k-50k entries (F_7 genus 3, F_5 genus 4, F_3 genus 6); it still
# won at 132k-253k entries over F_11 and F_13 (genus 3), but tied over F_9
# (244k, genus 3) and lost over F_25 (398k, genus 2).  At this cap a matrix
# pass holds at most 0.5 MB, and a count with fresh field tables peaked at
# 0.9 MB (F_23 up to F_23^3, 64,845 entries).
MATRIX_PASS_ENTRIES = 1 << 16
# Pass tables (see _ExtensionPass, _MatrixPass) kept per process, per
# route; a census meets one (base field, k range, model degree) per family.
PASS_CACHE_SIZE = 4
# Logs that ``_orbit_representatives`` tests at a time: its int64
# temporaries then peak near 18 B * 32,768 = 0.6 MB.
ORBIT_BLOCK = 1 << 15


@dataclass(frozen=True)
class HyperellipticCurve:
    """Smooth projective model of y^2 = f(x), with f monic squarefree."""

    field: FieldDescriptor
    f: FqPoly

    @property
    def model_degree(self) -> int:
        return len(self.f.coeffs) - 1

    @property
    def genus(self) -> int:
        return math.ceil(self.model_degree / 2) - 1

    @property
    def q(self) -> int:
        return self.field.size


def curve_new(field: FieldDescriptor, f: FqPoly) -> HyperellipticCurve:
    """Validate and build a curve; genus comes from the model degree."""
    if f.field != field:
        raise ValueError("polynomial is over a different field")
    if not f.is_monic:
        raise ValueError("f must be monic")
    if f.degree < 3:
        raise ValueError(f"deg(f) = {f.degree} gives genus < 1")
    if not poly_squarefree(field, list(f.coeffs)):
        raise ValueError("f must be squarefree (singular model otherwise)")
    return HyperellipticCurve(field, f)


def _describe(curve: HyperellipticCurve) -> str:
    """Field and f of a curve, enough to rebuild it from a log line."""
    return f"curve over {curve.field!r} with f = {list(curve.f.coeffs)} (constant term first)"


def _orbit_representatives(q: int, d: int) -> np.ndarray:
    """R_d: the least log i of each Frobenius orbit of exact degree d in
    F_{q^d}^*, increasing, as int32.

    x = g^i goes to x^q = g^(i q mod m), m = q^d - 1, so i is the least of an
    orbit of exactly d elements iff i < i q^t mod m for 0 < t < d.  (In base
    q, multiplying by q mod m rotates the d digits of i: R_d is the set of
    Lyndon words of length d, and |R_d| is the necklace count, less one at
    d = 1, where the word q - 1 is m, no log.)  The logs are tested
    ``ORBIT_BLOCK`` at a time, so the int64 temporaries stay bounded
    whatever the field.
    """
    m = q**d - 1
    reps = []
    for start in range(0, m, ORBIT_BLOCK):
        i = np.arange(start, min(start + ORBIT_BLOCK, m), dtype=np.int64)
        least = np.ones(len(i), dtype=bool)
        turned = i.copy()
        for _ in range(d - 1):
            turned *= q
            turned %= m
            least &= i < turned
        reps.append(i[least].astype(np.int32))
    return np.concatenate(reps)


class _Pass:
    """One x per Frobenius orbit for a pass that counts N_k, k in ``ks``,
    and the N_k from its character sums.

    An x of exact degree d over F_q (d | k) has d conjugates, all with the
    same character value, and chi_{q^k}(f(x)) = chi_{q^d}(f(x))^(k/d), since
    chi_{q^k} restricted to F_{q^d} is chi_{q^d} of the norm.  So

      N_k = q^k + #infinity_k + chi_q(c_0)^k + sum over d | k of d S_d,

    where S_d sums chi_{q^d}(f(x)) (k/d odd) or chi_{q^d}(f(x))^2 (k/d even,
    the number of x with f(x) != 0) over the set R_d of one x per orbit of
    exact degree d (``_orbit_representatives``); #infinity_k is 1 for an odd
    model, and for an even one 2 when chi_q(lead)^k = 1 and 0 otherwise.
    The pass has one segment per degree d dividing some k (segment 0 is
    d = 1), and ``reps`` lays the logs i of x = g^i in R_d (g the generator
    of F_{q^d}) end to end.  A route supplies ``character_sums(curve)``:
    per segment, the sums of chi(f(x)) and of chi(f(x))^2 over R_d.
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...]):
        self.q, self.ks = base.size, ks
        self.degrees = _degrees(ks)
        # per k, the (segment, d, k/d odd) terms of its sum
        self.terms = [[(seg, d, (k // d) % 2 == 1) for seg, d in enumerate(self.degrees)
                       if k % d == 0] for k in ks]
        reps = [_orbit_representatives(self.q, d) for d in self.degrees]
        self.lengths = np.array([len(r) for r in reps], dtype=np.int32)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
        self.reps = np.concatenate(reps)

    def counts(self, curve: HyperellipticCurve) -> list[int]:
        """N_k of the curve for every k of the pass."""
        chis, nonzero = self.character_sums(curve)
        coeffs, log = curve.f.coeffs, curve.field.exp_log[1]
        at_zero = 1 - 2 * (int(log[coeffs[0]]) & 1) if coeffs[0] else 0   # chi_q(c_0)
        lead_square = int(log[coeffs[-1]]) % 2 == 0                      # chi_q(lead) = 1
        odd_model = curve.model_degree % 2 == 1
        out = []
        for k, terms in zip(self.ks, self.terms):
            total = self.q**k + at_zero**k
            total += 1 if odd_model else 2 * (lead_square or k % 2 == 0)
            for seg, d, odd in terms:
                total += d * (chis[seg] if odd else nonzero[seg])
            out.append(total)
        return out


class _MatrixPass(_Pass):
    """Character sums of a pass as one matrix product per curve.

    Over F_p, f(x) is linear in the digits c_{j,t} of f's coefficients
    (c_j = sum_t c_{j,t} theta_t, theta_t the code p^t of F_q = F_{p^n}
    embedded in F_{q^d}):

      digits(f(x)) = sum over j, t of c_{j,t} digits(theta_t x^j) mod p.

    Row j n + t of ``matrix`` holds digits(theta_t x^j) at every x of the
    pass, W = n max(d) columns per x (zero past the n d digits of its own
    segment), so one product with the curve's digit row, a lookup in
    ``mod_p`` and a dot with the place values p^s give the code of every
    f(x), and each field's ``chi_table`` its character.  No Zech table is
    built.  The float32 sums are exact, as they stay below 2^24: an entry
    of the product is at most (deg f + 1) n (p - 1)^2, the last index of
    ``mod_p``, which ``_matrix_entries`` keeps within ``MATRIX_PASS_ENTRIES``
    like the matrix; and a code is below q^d <= 2 d |R_d|, at most twice
    the matrix's columns.
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...], degree: int):
        super().__init__(base, ks)
        p, n = base.p, base.n
        rows, self.width = (degree + 1) * n, n * self.degrees[-1]
        matrix = np.zeros((rows, len(self.reps), self.width), dtype=np.float32)
        self.tables, self.bounds = [], []
        for d, start, stop in zip(self.degrees, self.starts.tolist(),
                                  (self.starts + self.lengths).tolist()):
            ext = field_new(p, n * d)
            exp, log = ext.exp_log
            thetas = log.take(base.embedding_into(ext).take(p ** np.arange(n)))
            powers = (np.arange(degree + 1)[:, None, None] * self.reps[start:stop].astype(np.int64)
                      + thetas[:, None])
            powers %= ext.size - 1
            codes = exp.take(powers).reshape(rows, -1)        # theta_t x^j, int32
            del powers
            for s in range(n * d):                           # digit s
                codes, matrix[:, start:stop, s] = np.divmod(codes, p)
            self.tables.append(ext.chi_table)
            self.bounds.append((start, stop))
        self.matrix = matrix.reshape(rows, -1)
        self.mod_p = np.resize(np.arange(p, dtype=np.float32), rows * (p - 1) ** 2 + 1)
        self.place = (p ** np.arange(self.width)).astype(np.float32)
        self.coef_digits = (np.arange(base.size)[:, None] // p ** np.arange(n) % p).astype(np.float32)

    def character_sums(self, curve: HyperellipticCurve) -> tuple[list[int], list[int]]:
        row = self.coef_digits.take(curve.f.coeffs, axis=0).reshape(-1)
        digits = self.mod_p.take((row @ self.matrix).astype(np.intp))
        codes = (digits.reshape(len(self.reps), self.width) @ self.place).astype(np.intp)
        signs = np.empty(len(codes), dtype=np.int8)
        for table, (start, stop) in zip(self.tables, self.bounds):
            table.take(codes[start:stop], out=signs[start:stop])
        return (np.add.reduceat(signs, self.starts, dtype=np.int32).tolist(),
                np.add.reduceat(signs != 0, self.starts, dtype=np.int32).tolist())


class _ExtensionPass(_Pass):
    """Character sums of a pass by log-domain Horner steps; it holds the
    full tables of each F_{q^d}, but its Horner state runs over R_d only.

    The elements x = g^i (g the generator of F_{q^d}, i in R_d, m = q^d - 1)
    of all the segments are laid end to end.  The Horner state of an element
    is a code z = b + u into ``zech``, b the segment's table offset: with c
    the coefficient added last, u < m means the partial value is c * g^u,
    and u = 3m means it is zero.  One step, acc * x^r + c' with
    e = log c - log c' mod m, is ``zech[z + log(x^r) + e]``:

      zech[b + t] = b + log(1 + g^(t mod m)) for t < 3m  (acc + c' = c' (1 + g^t)),
                  = b + 3m                   at g^t = -1  (acc + c' = 0),
                  = b                        for t >= 3m  (acc = 0, so acc + c' = c').

    Since log(x^r) and e lie in [0, m), t <= 3m - 3 for a nonzero partial
    value and t <= 5m - 2 for a zero one, so a segment takes 5m entries and
    the lookup needs no modulo and no mask.  At the end
    f(x) = c_j x^j * g^u, c_j the lowest nonzero coefficient, and its
    quadratic character is (-1)^(log c_j + u + j i): ``chi[z]`` (plus i when
    j is odd) reads the parity of u, 0 at the zero code (b is even).
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...]):
        exts = [field_new(base.p, base.n * d) for d in _degrees(ks)]
        self.sizes = np.array([ext.size - 1 for ext in exts], dtype=np.int32)
        self.offsets = (5 * np.concatenate(([0], np.cumsum(self.sizes)[:-1]))).astype(np.int32)
        self.coef_logs = np.empty((base.size, len(exts)), dtype=np.int32)
        self.zech = np.zeros(5 * int(self.sizes.sum()), dtype=np.int32)
        self.chi = np.zeros(len(self.zech), dtype=np.int8)
        for seg, (ext, m, b) in enumerate(zip(exts, self.sizes.tolist(),
                                               self.offsets.tolist())):
            exp, log = ext.exp_log
            self.coef_logs[:, seg] = log.take(base.embedding_into(ext))
            wraps = exp[:m] % ext.p == ext.p - 1
            one_plus = exp[:m] + 1        # 1 + g^t: digit 0 goes up by one, p wraps to 0
            np.subtract(one_plus, ext.p, out=one_plus, where=wraps)
            seg_zech = self.zech[b:b + 5 * m]
            seg_zech[:m] = log.take(one_plus)
            seg_zech[m // 2] = 3 * m      # g^(m/2) = -1
            seg_zech[m:2 * m] = seg_zech[:m]
            seg_zech[2 * m:3 * m] = seg_zech[:m]
            seg_zech += b
            self.chi[b:b + 3 * m:2] = 1
            self.chi[b + 1:b + 3 * m:2] = -1
        super().__init__(base, ks)        # the representatives, past the build's peak
        self._x_logs = {1: self.reps}

    def x_log(self, r: int) -> np.ndarray:
        """log(x^r) = r i mod m at every representative; built once per r."""
        if r not in self._x_logs:
            out = np.empty_like(self._x_logs[1])
            for m, start, stop in zip(self.sizes.tolist(), self.starts.tolist(),
                                      (self.starts + self.lengths).tolist()):
                part = self._x_logs[1][start:stop].astype(np.int64)
                part *= r
                part %= m
                out[start:stop] = part
            self._x_logs[r] = out
        return self._x_logs[r]

    def character_sums(self, curve: HyperellipticCurve) -> tuple[list[int], list[int]]:
        coeffs = curve.f.coeffs
        support = [j for j, c in enumerate(coeffs) if c]
        logs = self.coef_logs[[coeffs[j] for j in support]]   # lowest degree first
        signs = self.chi.take(self._horner(support, logs))
        chis = np.add.reduceat(signs, self.starts, dtype=np.int32)
        chis *= 1 - 2 * (logs[0] & 1)                       # times chi_{q^d}(c_j)
        nonzero = np.add.reduceat(signs != 0, self.starts, dtype=np.int32)
        return chis.tolist(), nonzero.tolist()

    def _horner(self, support: list[int], logs: np.ndarray) -> np.ndarray:
        """Final codes z, shifted by i when the lowest degree j is odd."""
        steps = (logs[1:] - logs[:-1]) % self.sizes           # log c - log c' per segment
        # built before the Horner arrays, so that their set-up adds no peak
        x_logs = [self.x_log(b - a) for a, b in zip(support, support[1:])]
        x = self.x_log(1)
        z = np.repeat(self.offsets, self.lengths)             # acc = lead
        for s in range(len(support) - 2, -1, -1):
            t = np.repeat(steps[s], self.lengths)
            t += z
            t += x_logs[s]
            # in range by construction; "clip" writes in place, unbuffered
            self.zech.take(t, out=z, mode="clip")
            del t                                             # before the next one is made
        if support[0] % 2:
            z += x
        return z


@lru_cache(maxsize=PASS_CACHE_SIZE)
def _extension_pass(base: FieldDescriptor, ks: tuple[int, ...]) -> _ExtensionPass:
    return _ExtensionPass(base, ks)


@lru_cache(maxsize=PASS_CACHE_SIZE)
def _matrix_pass(base: FieldDescriptor, ks: tuple[int, ...], degree: int) -> _MatrixPass:
    return _MatrixPass(base, ks, degree)


def _degrees(ks: tuple[int, ...]) -> list[int]:
    """The degrees d that divide some k, increasing: the segments of a pass."""
    return sorted({d for k in ks for d in range(1, k + 1) if k % d == 0})


@lru_cache(maxsize=PASS_CACHE_SIZE)
def _matrix_entries(base: FieldDescriptor, ks: tuple[int, ...], degree: int) -> int:
    """Entries of the larger of a _MatrixPass's matrix and its mod-p table,
    from |R_d| = (elements of exact degree d) / d, less x = 0 at d = 1."""
    degrees, q, rows = _degrees(ks), base.size, (degree + 1) * base.n
    exact: list[int] = []                                  # exact[e - 1], e = 1, 2, ...
    for e in range(1, degrees[-1] + 1):
        exact.append(q**e - sum(exact[f - 1] for f in range(1, e) if e % f == 0))
    reps = sum(exact[d - 1] // d for d in degrees) - 1
    return max(rows * reps * base.n * degrees[-1], rows * (base.p - 1) ** 2 + 1)


def _count(curve: HyperellipticCurve, ks: tuple[int, ...], field_cap: int) -> list[int]:
    for k in ks:
        ext_size = curve.q**k
        if ext_size > field_cap:
            raise BudgetExceededError(
                f"|F_q^k| = {ext_size} exceeds the point-count budget {field_cap} "
                f"at k = {k}, {_describe(curve)}")
    base, degree = curve.field, curve.model_degree
    if _matrix_entries(base, ks, degree) <= MATRIX_PASS_ENTRIES:
        return _matrix_pass(base, ks, degree).counts(curve)
    return _extension_pass(base, ks).counts(curve)


def point_counts(curve: HyperellipticCurve, upto: int,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> list[int]:
    """[N_1, ..., N_upto], all counted in one pass over the Frobenius orbits
    (by matrix products or log-domain Horner steps, by the pass's size).

    Raises :class:`BudgetExceededError` at the first k with q^k above
    ``field_cap``.
    """
    if upto < 1:
        raise ValueError("extension degree must be >= 1")
    return _count(curve, tuple(range(1, upto + 1)), field_cap)


def point_count(curve: HyperellipticCurve, k: int = 1,
                field_cap: int = POINTCOUNT_FIELD_CAP) -> int:
    """N_k: number of points of the smooth model over F_{q^k}; the
    one-segment case of :func:`point_counts`."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return _count(curve, (k,), field_cap)[0]


# Entries kept by each bounded LRU cache keyed on L or on the point counts
# that give it: ``_l_from_counts``, ``prank.newton_polygon`` and the three
# of ``weil`` (``l_reducible``, ``absolutely_simple``, ``splitting_class``).
# These stages depend on L alone, and a census meets few distinct L (218
# among the 1,458 genus-3 curves over F_3), but the caches live as long as
# the process, so they are bounded.  Measured under tracemalloc on genus-2
# and genus-3 L (q <= 49): an ``_l_from_counts`` entry with its key and its
# L takes 280-412 B (909 L), an ``l_reducible`` entry with its key L 343 B,
# and an entry of the other caches whose L is already held adds 282 B
# (``absolutely_simple``, 1,434 L), 178-213 B (``splitting_class``, 1,038 L)
# and 273-483 B (``newton_polygon``, its polygon with its Fractions, 909 L).
# Five full caches with no key shared stay under 5 * 4096 * 800 B, 17 MB.
L_CACHE_SIZE = 4096


@dataclass(frozen=True)
class LPolynomial:
    """Zeta numerator: degree-2g integer polynomial with a_0 = 1.

    Coefficients are plain Python integers (arbitrary precision), constant
    term first.  Construction enforces the functional equation
    a_{2g-i} = q^{g-i} a_i and positivity of L(1).
    """

    q: int
    genus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        g = self.genus
        if g < 1:
            raise ValueError(f"genus must be >= 1, got {g}")
        if len(self.coeffs) != 2 * g + 1:
            raise ValueError("L must have degree exactly 2g")
        if self.coeffs[0] != 1:
            raise ValueError("a_0 must be 1")
        for i in range(g + 1):
            if self.coeffs[2 * g - i] != self.q ** (g - i) * self.coeffs[i]:
                raise ValueError("functional equation violated")
        if sum(self.coeffs) <= 0:
            raise ValueError("L(1) must be positive")
        s1 = -self.coeffs[1]
        if s1 * s1 > 4 * g * g * self.q:
            raise ValueError("|a_1| violates the Weil bound")

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def power_sums(a: Sequence[int], upto: int) -> list[int]:
    """p_k = sum of alpha^k, k = 1..upto, over the alpha with prod (1 - alpha T)
    = a_0 + ... + a_n T^n, a_0 = 1 (for L.coeffs, the Frobenius eigenvalues),
    by Newton's identities; past k = n the k a_k term drops out."""
    n = len(a) - 1
    ps: list[int] = []
    for k in range(1, upto + 1):
        s = k * a[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            s += a[i] * ps[k - i - 1]
        ps.append(-s)
    return ps


def coeffs_from_power_sums(ps: list[int]) -> list[int]:
    """The integer coefficients 1, a_1, ..., a_n (constant term first) of
    prod (1 - alpha T) over the numbers alpha whose power sums are
    ps = [p_1, ..., p_n], by Newton's identities
    k a_k = -(p_1 a_(k-1) + ... + p_k a_0).  Raises ArithmeticError at the
    first a_k that is not an integer."""
    a = [1]
    for k in range(1, len(ps) + 1):
        total = -sum(ps[i - 1] * a[k - i] for i in range(1, k + 1))
        if total % k:
            raise ArithmeticError(f"Newton identity gave a non-integer a_{k}")
        a.append(total // k)
    return a


def point_counts_from(L: LPolynomial, upto: int) -> list[int]:
    """N_1..N_upto predicted by L (exact, any extension degree)."""
    return [L.q**k + 1 - p for k, p in enumerate(power_sums(L.coeffs, upto), start=1)]


def l_polynomial(curve: HyperellipticCurve,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> LPolynomial:
    """Recover L(T) from N_1..N_g via Newton's identities, checked on N_{g+1}.

    N_1..N_g determine L.  Whenever q^(g+1) <= ``field_cap``, N_{g+1} is
    counted as well, in the same :func:`point_counts` pass, and must equal
    the count L predicts, so a miscount raises instead of returning a
    valid-looking L.  Above that budget only the integrality of the Newton
    steps and the :class:`LPolynomial` checks (functional equation,
    L(1) > 0, Weil bound on a_1) run.  Any failure is a
    :class:`ConsistencyError` naming the counts, the field and f.
    """
    g = curve.genus
    top = g + 1 if curve.q ** (g + 1) <= field_cap else g
    counts = point_counts(curve, top, field_cap)
    try:
        return l_polynomial_from_counts(curve.q, g, counts)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc}: counts {counts}, {_describe(curve)}") from exc


def l_polynomial_from_counts(q: int, genus: int, counts: Sequence[int]) -> LPolynomial:
    """L(T) from N_1..N_g; counts past N_g must match the ones L predicts.

    Memoized on (q, genus, counts) (see ``L_CACHE_SIZE``): equal counts give
    the one shared, immutable L, and a failure is never cached."""
    return _l_from_counts(q, genus, tuple(counts))


@lru_cache(maxsize=L_CACHE_SIZE)
def _l_from_counts(q: int, genus: int, counts: tuple[int, ...]) -> LPolynomial:
    g = genus
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if len(counts) < g:
        raise ValueError(f"genus {g} needs the counts N_1..N_{g}, got {len(counts)}")
    # sum of alpha^k over the Frobenius eigenvalues: q^k + 1 - N_k
    ps = [q**k + 1 - n_k for k, n_k in enumerate(counts[:g], start=1)]
    try:
        a = coeffs_from_power_sums(ps) + [0] * g
    except ArithmeticError as exc:
        raise ConsistencyError(str(exc)) from exc
    for i in range(g):
        a[2 * g - i] = q ** (g - i) * a[i]
    try:
        L = LPolynomial(q, g, tuple(a))
    except ValueError as exc:
        raise ConsistencyError(f"the counts give no valid L ({exc})") from exc
    predicted = point_counts_from(L, len(counts))
    for k in range(g + 1, len(counts) + 1):
        if predicted[k - 1] != counts[k - 1]:
            raise ConsistencyError(
                f"L = {a} predicts N_{k} = {predicted[k - 1]}, counted {counts[k - 1]}")
    return L
