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
(``_ExtensionPass``).  Which route a pass takes, and whether the budget
refuses it, is decided once per (field, k range, model degree, budget) in
``_route``.

A pass yields the power sums s_k = q^k + 1 - N_k of the Frobenius
eigenvalues, which ``point_count`` and ``point_counts`` turn into counts.
The zeta numerator L(T) is read off s_1..s_g through Newton's identities
and the functional equation, then checked against s_{g+1}, taken in the
same pass (when that field is within budget), so that a miscount raises
instead of propagating.  ``l_polynomial`` runs this on its pass's sums and
``l_polynomial_from_counts`` on the sums of the counts it is given, both
through ``_l_from_sums``.

L is an invariant of the curve's isomorphism class over F_q, so
``l_polynomial`` is memoized on the translation class
(``ffield.class_memo``): where p does not divide d = deg f, the q models
f(x + b) share one cut model, the one with c_(d-1) = 0, and the memo is
keyed on the field, the index sum c_i q^i of that model, and ``field_cap``
when it is passed.  A miss counts on the caller's own curve, so a
``ConsistencyError`` or ``BudgetExceededError`` names the f it was given,
and no failure is stored.  At p | d the count runs on every call.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, ConsistencyError
from .ffield import FieldDescriptor, FqPoly, class_memo, field_new, poly_squarefree

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
# route, and route decisions (_route) kept per process; a census meets one
# (base field, k range, model degree) per family.
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
    and the power sums s_k = q^k + 1 - N_k from its character sums.

    An x of exact degree d over F_q (d | k) has d conjugates, all with the
    same character value, and chi_{q^k}(f(x)) = chi_{q^d}(f(x))^(k/d), since
    chi_{q^k} restricted to F_{q^d} is chi_{q^d} of the norm.  So

      N_k = q^k + 1 + chi_q(c_0)^k + chi_q(lead)^k + sum over d | k of d S_d,

    the lead's term read as 0 for an odd model (one point at infinity),
    where S_d sums chi_{q^d}(f(x)) (k/d odd) or chi_{q^d}(f(x))^2 (k/d even,
    the number of x with f(x) != 0) over the set R_d of one x per orbit of
    exact degree d (``_orbit_representatives``).  The pass has one segment
    per degree d dividing some k (segment 0 is d = 1), and ``reps`` lays the
    logs i of x = g^i in R_d (g the generator of F_{q^d}) end to end.  Both
    routes label every x of the pass 3 seg + chi(f(x)) + 1 from one int8
    table (42 segments fit; a pass has at most 18, as ``field_new`` stops at
    2^30 elements), and a route supplies ``tally(curve)``, the bincount of
    those labels: per segment, the number of x with chi(f(x)) = -1, 0 and
    1.  The sums are linear in the tally, so the int64 matrix ``weights``,
    one row per k and one column per label, holds them all: for each
    segment with d | k, d in the chi = 1 column and, in the chi = -1 column,
    -d where k/d is odd and d where it is even.  ``sums`` is then minus
    ``weights @ tally`` minus the terms at 0 and at infinity (``ends``):
    the power sums s_k = q^k + 1 - N_k.
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...]):
        self.q, self.ks, self.log = base.size, ks, base.exp_log[1]
        self.degrees = _degrees(ks)
        self.weights = np.zeros((len(ks), 3 * len(self.degrees)), dtype=np.int64)
        for row, k in zip(self.weights, ks):
            for seg, d in enumerate(self.degrees):
                if k % d == 0:
                    row[3 * seg:3 * seg + 3] = -d if k // d % 2 else d, 0, d
        # ends[z + 1, i + 1] = -(z^k + i^k), z and i the terms at 0 and at infinity
        self.ends = -np.array([[[z**k + i**k for k in ks] for i in (-1, 0, 1)] for z in (-1, 0, 1)],
                              dtype=np.int64)
        reps = [_orbit_representatives(self.q, d) for d in self.degrees]
        self.lengths = np.array([len(r) for r in reps], dtype=np.int32)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
        self.reps = np.concatenate(reps)

    def sums(self, curve: HyperellipticCurve) -> list[int]:
        """s_k = q^k + 1 - N_k of the curve for every k of the pass."""
        coeffs, log = curve.f.coeffs, self.log
        at_zero = 1 - 2 * (int(log[coeffs[0]]) & 1) if coeffs[0] else 0   # chi_q(c_0)
        # chi_q(lead) for an even model (odd length), 0 for an odd one
        at_infinity = 1 - 2 * (int(log[coeffs[-1]]) & 1) if len(coeffs) % 2 else 0
        return (self.ends[at_zero + 1, at_infinity + 1] - self.weights.dot(self.tally(curve))).tolist()


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
    f(x).  The segments' ``chi_table``s, each shifted to 3 seg + chi + 1,
    lie end to end in ``labels``, so the code plus its segment's offset
    (``shift``, the sum of q^e over the segments e before d) labels f(x).
    No Zech table is built.  The float32 sums are exact, as they stay below
    2^24: an entry of the product is at most (deg f + 1) n (p - 1)^2, the
    last index of ``mod_p``, which ``_matrix_entries`` keeps within
    ``MATRIX_PASS_ENTRIES`` like the matrix; and as each offset is below
    q^d, an index into ``labels`` is below 2 q^d <= 4 d |R_d|, at most four
    times the matrix's columns.
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...], degree: int):
        super().__init__(base, ks)
        p, n = base.p, base.n
        rows, self.width = (degree + 1) * n, n * self.degrees[-1]
        matrix = np.zeros((rows, len(self.reps), self.width), dtype=np.float32)
        labels = []
        for seg, (d, start, stop) in enumerate(zip(self.degrees, self.starts.tolist(),
                                                   (self.starts + self.lengths).tolist())):
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
            labels.append(ext.chi_table + np.int8(3 * seg + 1))
        offsets = np.cumsum([0] + [len(t) for t in labels[:-1]])
        self.labels = np.concatenate(labels)
        self.shift = np.repeat(offsets, self.lengths).astype(np.float32)
        self.matrix = matrix.reshape(rows, -1)
        self.mod_p = np.resize(np.arange(p, dtype=np.float32), rows * (p - 1) ** 2 + 1)
        self.place = (p ** np.arange(self.width)).astype(np.float32)
        self.coef_digits = (np.arange(base.size)[:, None] // p ** np.arange(n) % p).astype(np.float32)

    def tally(self, curve: HyperellipticCurve) -> np.ndarray:
        row = self.coef_digits.take(curve.f.coeffs, axis=0).reshape(-1)
        digits = self.mod_p.take((row @ self.matrix).astype(np.intp))
        index = digits.reshape(len(self.reps), self.width) @ self.place
        index += self.shift
        return np.bincount(self.labels.take(index.astype(np.intp)), minlength=self.weights.shape[1])


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
    quadratic character is (-1)^(log c_j + u + j i): ``labels[z]`` (plus i
    when j is odd) reads 3 seg + 1 + (-1)^u, or 3 seg + 1 past 3m, where
    the zero code lands.  Where chi_{q^d}(c_j) = -1, the segment's minus
    and plus entries of the tally swap.
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...]):
        exts = [field_new(base.p, base.n * d) for d in _degrees(ks)]
        self.sizes = np.array([ext.size - 1 for ext in exts], dtype=np.int32)
        self.offsets = (5 * np.concatenate(([0], np.cumsum(self.sizes)[:-1]))).astype(np.int32)
        self.coef_logs = np.empty((base.size, len(exts)), dtype=np.int32)
        self.zech = np.zeros(5 * int(self.sizes.sum()), dtype=np.int32)
        self.labels = np.empty(len(self.zech), dtype=np.int8)
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
            self.labels[b:b + 3 * m:2] = 3 * seg + 2
            self.labels[b + 1:b + 3 * m:2] = 3 * seg
            self.labels[b + 3 * m:b + 5 * m] = 3 * seg + 1
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

    def tally(self, curve: HyperellipticCurve) -> np.ndarray:
        coeffs = curve.f.coeffs
        support = [j for j, c in enumerate(coeffs) if c]
        logs = self.coef_logs[[coeffs[j] for j in support]]   # lowest degree first
        tally = np.bincount(self.labels.take(self._horner(support, logs)),
                            minlength=self.weights.shape[1]).reshape(-1, 3)
        flip = (logs[0] & 1).astype(bool)                     # chi_{q^d}(c_j) = -1
        tally[flip] = tally[flip, ::-1]                        # swaps minus and plus
        return tally.reshape(-1)

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


def _matrix_entries(base: FieldDescriptor, ks: tuple[int, ...], degree: int) -> int:
    """Entries of the larger of a _MatrixPass's matrix and its mod-p table,
    from |R_d| = (elements of exact degree d) / d, less x = 0 at d = 1."""
    degrees, q, rows = _degrees(ks), base.size, (degree + 1) * base.n
    exact: list[int] = []                                  # exact[e - 1], e = 1, 2, ...
    for e in range(1, degrees[-1] + 1):
        exact.append(q**e - sum(exact[f - 1] for f in range(1, e) if e % f == 0))
    reps = sum(exact[d - 1] // d for d in degrees) - 1
    return max(rows * reps * base.n * degrees[-1], rows * (base.p - 1) ** 2 + 1)


@lru_cache(maxsize=PASS_CACHE_SIZE)
def _route(base: FieldDescriptor, ks: tuple[int, ...], degree: int, field_cap: int,
           matrix_cap: int) -> partial | str:
    """The pass that counts N_k, k in ks, on models of this degree under
    ``field_cap``, with ``matrix_cap`` the current ``MATRIX_PASS_ENTRIES``:
    the call that returns the pass, or the reason it is refused (which the
    caller completes with the curve)."""
    for k in ks:
        if base.size**k > field_cap:
            return (f"|F_q^k| = {base.size**k} exceeds the point-count budget {field_cap} "
                    f"at k = {k}")
    if _matrix_entries(base, ks, degree) <= matrix_cap:
        return partial(_matrix_pass, base, ks, degree)
    zech = 5 * sum(base.size**d - 1 for d in _degrees(ks))  # the int32 Horner index bound
    if zech >= 2**31:
        return f"the Horner pass for k in {ks} indexes {zech} Zech entries, past int32"
    return partial(_extension_pass, base, ks)


def _sums(curve: HyperellipticCurve, ks: tuple[int, ...], field_cap: int) -> list[int]:
    """s_k = q^k + 1 - N_k for every k in ks, all from one pass."""
    route = _route(curve.field, ks, curve.model_degree, field_cap, MATRIX_PASS_ENTRIES)
    if isinstance(route, str):
        raise BudgetExceededError(f"{route}, {_describe(curve)}")
    return route().sums(curve)


def _count(curve: HyperellipticCurve, ks: tuple[int, ...], field_cap: int) -> list[int]:
    return [curve.q**k + 1 - s for k, s in zip(ks, _sums(curve, ks, field_cap))]


def _integer(name: str, value) -> int:
    """value as a Python int (numpy ints included); anything else is
    refused with a ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _degree(name: str, k: int) -> int:
    """An extension degree k >= 1, refused by name when it is not an integer."""
    k = _integer(name, k)
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return k


def point_counts(curve: HyperellipticCurve, upto: int,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> list[int]:
    """[N_1, ..., N_upto], all counted in one pass over the Frobenius orbits
    (by matrix products or log-domain Horner steps, by the pass's size).

    Raises :class:`BudgetExceededError` at the first k with q^k above
    ``field_cap``.
    """
    return _count(curve, tuple(range(1, _degree("upto", upto) + 1)), field_cap)


def point_count(curve: HyperellipticCurve, k: int = 1,
                field_cap: int = POINTCOUNT_FIELD_CAP) -> int:
    """N_k: number of points of the smooth model over F_{q^k}; the
    one-segment case of :func:`point_counts`."""
    return _count(curve, (_degree("k", k),), field_cap)[0]


@dataclass(frozen=True)
class LPolynomial:
    """Zeta numerator: degree-2g integer polynomial with a_0 = 1.

    q, the genus and the coefficients are plain Python integers (arbitrary
    precision; any integer type is read through ``operator.index``, and
    anything else is refused with a ``ValueError`` naming it), coefficients
    constant term first.  Construction enforces the functional equation
    a_{2g-i} = q^{g-i} a_i and positivity of L(1).
    """

    q: int
    genus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        try:                                # numpy integers become plain ints
            q, g, a = operator.index(self.q), operator.index(self.genus), tuple(
                map(operator.index, self.coeffs))
        except TypeError:                   # name the first value that is no integer
            _integer("q", self.q)
            _integer("genus", self.genus)
            raise ValueError(f"coefficients must be integers, got {self.coeffs!r}") from None
        object.__setattr__(self, "coeffs", a)
        if q is not self.q or g is not self.genus:     # index() returns an int as it is
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "genus", g)
        if g < 1:
            raise ValueError(f"genus must be >= 1, got {g}")
        if len(a) != 2 * g + 1:
            raise ValueError("L must have degree exactly 2g")
        if a[0] != 1:
            raise ValueError("a_0 must be 1")
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                raise ValueError("functional equation violated")
        if sum(a) <= 0:
            raise ValueError("L(1) must be positive")
        if a[1] * a[1] > 4 * g * g * q:
            raise ValueError("|a_1| violates the Weil bound")

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def power_sums(a: Sequence[int], upto: int, known: Sequence[int] = ()) -> list[int]:
    """p_k = sum of alpha^k, k = 1..upto, over the alpha with prod (1 - alpha T)
    = a_0 + ... + a_n T^n, a_0 = 1 (for L.coeffs, the Frobenius eigenvalues),
    by Newton's identities; past k = n the k a_k term drops out.  The sums
    continue from ``known`` = [p_1, ..., p_j] when given."""
    n, ps, tail = len(a) - 1, list(known), a[1:]
    for k in range(len(ps) + 1, upto + 1):
        s = sum(map(operator.mul, tail, reversed(ps)))     # a_i p_(k-i), i = 1..min(k-1, n)
        ps.append(-s - k * a[k] if k <= n else -s)
    return ps


def coeffs_from_power_sums(ps: list[int]) -> list[int]:
    """The integer coefficients 1, a_1, ..., a_n (constant term first) of
    prod (1 - alpha T) over the numbers alpha whose power sums are
    ps = [p_1, ..., p_n], by Newton's identities
    k a_k = -(p_1 a_(k-1) + ... + p_k a_0).  Raises ArithmeticError at the
    first a_k that is not an integer."""
    a = [1]
    for k in range(1, len(ps) + 1):
        total = -sum(map(operator.mul, ps, reversed(a)))   # p_i a_(k-i), i = 1..k
        if total % k:
            raise ArithmeticError(f"Newton identity gave a non-integer a_{k}")
        a.append(total // k)
    return a


def point_counts_from(L: LPolynomial, upto: int) -> list[int]:
    """N_1..N_upto predicted by L (exact, any extension degree)."""
    return [L.q**k + 1 - p for k, p in enumerate(power_sums(L.coeffs, upto), start=1)]


@class_memo
def l_polynomial(curve: HyperellipticCurve,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> LPolynomial:
    """Recover L(T) from N_1..N_g via Newton's identities, checked on N_{g+1}.

    N_1..N_g determine L.  Whenever q^(g+1) <= ``field_cap``, N_{g+1} is
    counted as well, in the same pass, and must equal the count L predicts,
    so a miscount raises instead of returning a valid-looking L.  Above
    that budget only the integrality of the Newton steps and the
    :class:`LPolynomial` checks (functional equation, L(1) > 0, Weil bound
    on a_1) run.  L is read off the power sums s_k = q^k + 1 - N_k that the
    pass yields, on the Newton path that :func:`l_polynomial_from_counts`
    takes from counts, so no N_k is formed unless a check fails.  Any
    failure is a :class:`ConsistencyError` naming the counts, the field and
    f.

    Memoized on the translation class of the curve and ``field_cap`` (see
    the module docstring); ``l_polynomial.__wrapped__`` is the count on the
    curve itself, and ``cache_info()`` gives the memo's hits and misses.
    """
    g, q = curve.genus, curve.q
    ks = tuple(range(1, g + 2 if q ** (g + 1) <= field_cap else g + 1))
    sums = _sums(curve, ks, field_cap)
    try:
        return _l_from_sums(q, g, sums)
    except ConsistencyError as exc:
        counts = [q**k + 1 - s for k, s in zip(ks, sums)]
        raise ConsistencyError(f"{exc}: counts {counts}, {_describe(curve)}") from exc


def l_polynomial_from_counts(q: int, genus: int, counts: Sequence[int]) -> LPolynomial:
    """L(T) from N_1..N_g; counts past N_g must match the ones L predicts.

    q, the genus and every count must be integers (numpy ints are read as
    ints); anything else is refused with a ``ValueError`` before any Newton
    step.  Not memoized: ``l_polynomial`` holds L once per translation
    class, and takes the same Newton path from the sums of its pass.  From
    counts the path takes about 6-8 us at genus 2-4 (CPython 3.11, one core
    of a 2-core x86 machine)."""
    q, g = _integer("q", q), _integer("genus", genus)
    counts = [_integer(f"N_{k}", n) for k, n in enumerate(counts, start=1)]
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if len(counts) < g:
        raise ValueError(f"genus {g} needs the counts N_1..N_{g}, got {len(counts)}")
    # sum of alpha^k over the Frobenius eigenvalues: q^k + 1 - N_k
    return _l_from_sums(q, g, [q**k + 1 - n for k, n in enumerate(counts, start=1)])


def _l_from_sums(q: int, g: int, sums: list[int]) -> LPolynomial:
    """L(T) from the power sums s_1..s_top (top >= g) of its Frobenius
    eigenvalues: a_1..a_g from s_1..s_g by Newton's identities, a_(g+1)..
    a_2g by the functional equation, and the :class:`LPolynomial` checks;
    every s_k past s_g must equal the sum L continues to.  Any failure is a
    :class:`ConsistencyError`."""
    head = sums[:g]
    try:
        a = coeffs_from_power_sums(head)
    except ArithmeticError as exc:
        raise ConsistencyError(str(exc)) from exc
    power = 1
    for j in range(1, g + 1):               # a_(g+j) = q^j a_(g-j)
        power *= q
        a.append(power * a[g - j])
    try:
        L = LPolynomial(q, g, tuple(a))
    except ValueError as exc:
        raise ConsistencyError(f"the counts give no valid L ({exc})") from exc
    predicted = power_sums(a, len(sums), head)      # s_(g+1).. from the sums in hand
    for k in range(g + 1, len(sums) + 1):
        if predicted[k - 1] != sums[k - 1]:
            raise ConsistencyError(f"L = {a} predicts N_{k} = {q**k + 1 - predicted[k - 1]}, "
                                   f"counted {q**k + 1 - sums[k - 1]}")
    return L
