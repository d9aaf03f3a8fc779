"""Hyperelliptic curves y^2 = f(x) over F_q: point counts, zeta numerator,
Jacobian group order.

Point counting evaluates f at every x of F_{q^k}^*, for every requested k,
in one numpy Horner pass over the concatenation F_q^* + F_{q^2}^* + ...
Everything runs in the log domain: x runs over the powers g^i of each
field's generator, multiplying by x adds i, and adding a coefficient c is
a lookup in a per-field Zech table (log(1 + g^n), Huber 1990) shifted by
log c.  The quadratic character of f(x) is the parity of its final log.
The zeta numerator L(T) is recovered from N_1..N_g through Newton's
identities and the functional equation, then checked against N_{g+1},
counted in the same pass (when that field is within budget), so that a
miscount raises instead of propagating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# built yet: 16 B of the fields' int32 exp and log tables, 25 B of the
# pass's Zech and character tables (5 int32 and 5 int8 entries per
# element), 4 B for each cached log(x^r) array and 16 B of Horner
# temporaries (int32 state and index, and the intp copy of the index that
# ``take`` makes).  Measured 65.1-65.3 B for y^2 = x^3 + x + 1 (r = 1, 2)
# at 103,823 elements (F_47^3 alone), 106,079 (F_47, F_47^2, F_47^3 in one
# pass) and 1,594,323 (F_3^13); each further distinct gap r between
# nonzero coefficients adds 4 B.
POINTCOUNT_BYTES_PER_ELEMENT = 66
# Pass tables (see _ExtensionPass) kept per process; a census meets one
# (base field, k range) pair per field.
PASS_CACHE_SIZE = 4


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


def infinity_points(ext: FieldDescriptor, lead: int, degree: int) -> int:
    """Points at infinity of the smooth model over the given field."""
    if degree % 2 == 1:
        return 1
    return 2 if ext.chi(lead) == 1 else 0


class _ExtensionPass:
    """Tables for one log-domain Horner pass over F_{q^k}^*, k in ``ks``.

    The elements x = g^i (g the generator of F_{q^k}, 0 <= i < m = q^k - 1)
    of all the segments are laid end to end.  The Horner state of an element
    is a code z = b + u into ``zech``, b the segment's table offset: with c
    the coefficient added last, u < m means the partial value is c * g^u,
    and u = 3m means it is zero.  One step, acc * x^r + c' with
    d = log c - log c' mod m, is ``zech[z + log(x^r) + d]``:

      zech[b + t] = b + log(1 + g^(t mod m)) for t < 3m  (acc + c' = c' (1 + g^t)),
                  = b + 3m                   at g^t = -1  (acc + c' = 0),
                  = b                        for t >= 3m  (acc = 0, so acc + c' = c').

    Since log(x^r) and d lie in [0, m), t <= 3m - 3 for a nonzero partial
    value and t <= 5m - 2 for a zero one, so a segment takes 5m entries and
    the lookup needs no modulo and no mask.  At the end
    f(x) = c_j x^j * g^u, c_j the lowest nonzero coefficient, and its
    quadratic character is (-1)^(log c_j + u + j i): ``chi[z]`` (plus i when
    j is odd) reads the parity of u, 0 at the zero code (b is even).
    """

    def __init__(self, base: FieldDescriptor, ks: tuple[int, ...]):
        self.exts = [field_new(base.p, base.n * k) for k in ks]
        self.sizes = np.array([ext.size - 1 for ext in self.exts], dtype=np.int32)
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.offsets = (5 * self.starts).astype(np.int32)
        self.coef_logs = np.empty((base.size, len(ks)), dtype=np.int32)
        self.zech = np.zeros(5 * int(self.sizes.sum()), dtype=np.int32)
        self.chi = np.zeros(len(self.zech), dtype=np.int8)
        self._x_logs: dict[int, np.ndarray] = {}
        for seg, (ext, m, b) in enumerate(zip(self.exts, self.sizes.tolist(),
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

    def x_log(self, r: int) -> np.ndarray:
        """log(x^r) = r i mod m at every element; built once per r."""
        if r not in self._x_logs:
            out = np.empty(int(self.sizes.sum()), dtype=np.int32)
            for m, start in zip(self.sizes.tolist(), self.starts.tolist()):
                part = np.arange(0, r * m, r, dtype=np.int64)
                part %= m
                out[start:start + m] = part
            self._x_logs[r] = out
        return self._x_logs[r]

    def counts(self, curve: HyperellipticCurve) -> list[int]:
        """N_k of the curve for every k of the pass."""
        coeffs = curve.f.coeffs
        support = [j for j, c in enumerate(coeffs) if c]
        logs = self.coef_logs[[coeffs[j] for j in support]]   # lowest degree first
        signs = self.chi.take(self._horner(support, logs))
        sums = np.add.reduceat(signs, self.starts, dtype=np.int32).tolist()
        out = []
        for ext, total, log_cj in zip(self.exts, sums, logs[0].tolist()):
            sign = 1 - 2 * (log_cj & 1)                        # chi(c_j)
            at_zero = sign if coeffs[0] else 0                 # chi(f(0)) = chi(c_0)
            lead = int(curve.field.embedding_into(ext)[coeffs[-1]])
            out.append(ext.size + sign * total + at_zero
                       + infinity_points(ext, lead, curve.model_degree))
        return out

    def _horner(self, support: list[int], logs: np.ndarray) -> np.ndarray:
        """Final codes z, shifted by i when the lowest degree j is odd."""
        steps = (logs[1:] - logs[:-1]) % self.sizes           # log c - log c' per segment
        # built before the Horner arrays, so that their set-up adds no peak
        x_logs = [self.x_log(b - a) for a, b in zip(support, support[1:])]
        x = self.x_log(1)
        z = np.repeat(self.offsets, self.sizes)               # acc = lead
        for s in range(len(support) - 2, -1, -1):
            t = np.repeat(steps[s], self.sizes)
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


def _count(curve: HyperellipticCurve, ks: tuple[int, ...], field_cap: int) -> list[int]:
    for k in ks:
        ext_size = curve.q**k
        if ext_size > field_cap:
            raise BudgetExceededError(
                f"|F_q^k| = {ext_size} exceeds the point-count budget {field_cap} "
                f"at k = {k}, {_describe(curve)}")
    return _extension_pass(curve.field, ks).counts(curve)


def point_counts(curve: HyperellipticCurve, upto: int,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> list[int]:
    """[N_1, ..., N_upto], all counted in one log-domain Horner pass.

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


def frobenius_power_sums(L: LPolynomial, upto: int) -> list[int]:
    """p_k = sum of k-th powers of the Frobenius eigenvalues, k = 1..upto."""
    g2 = 2 * L.genus
    a = L.coeffs
    ps: list[int] = []
    for k in range(1, upto + 1):
        if k <= g2:
            s = k * a[k]
            for i in range(1, k):
                s += a[i] * ps[k - i - 1]
            ps.append(-s)
        else:
            s = 0
            for i in range(1, g2 + 1):
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
    return [L.q**k + 1 - p for k, p in enumerate(frobenius_power_sums(L, upto), start=1)]


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


def l_polynomial_from_counts(q: int, genus: int, counts: list[int]) -> LPolynomial:
    """L(T) from N_1..N_g; counts past N_g must match the ones L predicts."""
    g = genus
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


def picard_order(curve: HyperellipticCurve) -> int:
    """#Pic^0 over the base field: L(1)."""
    return l_polynomial(curve)(1)
