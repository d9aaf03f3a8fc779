"""Hyperelliptic curves y^2 = f(x) over F_q: point counts, zeta numerator,
Jacobian group order.

Point counting evaluates f at every x of F_{q^k} in one numpy Horner pass:
x runs over the powers g^i of the field's generator, multiplication by x is
an addition of discrete logs, a coefficient is added one base-p digit at a
time, and the quadratic character of f(x) is the parity of its log.  The
zeta numerator L(T) is recovered from N_1..N_g through Newton's identities
and the functional equation, then checked against a separately counted
N_{g+1} (when that field is within budget), so that a miscount raises
instead of propagating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConsistencyError
from .ffield import FieldDescriptor, FqPoly, field_new, poly_squarefree

POINTCOUNT_FIELD_CAP = 2_000_000  # largest |F_{q^k}| point_count will walk
# Bound on the tracemalloc peak of one point_count per element of F_{q^k},
# on a field whose tables are not built yet: 17 B of cached tables (int32
# exp and log, int8 chi) plus the int32 Horner temporaries.  Measured
# 45.1 B per element at 1,594,323 elements, 45.2 B at 103,823 and 45.5 B at
# 59,049 (a fixed part of some 40 kB included), so the cap admits a peak of
# about 92 MB.
POINTCOUNT_BYTES_PER_ELEMENT = 46


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


def point_count(curve: HyperellipticCurve, k: int = 1,
                field_cap: int = POINTCOUNT_FIELD_CAP) -> int:
    """N_k: number of points of the smooth model over F_{q^k}.

    One numpy Horner pass evaluates f at every x = g^i of F_{q^k}^* at once
    (g the field's generator, i = 0..q^k-2); x = 0 is the constant term.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    base = curve.field
    ext_size = base.size**k
    if ext_size > field_cap:
        raise BudgetExceededError(
            f"|F_q^k| = {ext_size} exceeds the point-count budget {field_cap} "
            f"at k = {k}, {_describe(curve)}")
    ext = field_new(base.p, base.n * k)
    emb = base.embedding_into(ext)
    coeffs = [int(emb[c]) for c in curve.f.coeffs]
    exp, log = ext.exp_log
    chi = ext.chi_table
    p = ext.p
    log_x = np.arange(ext_size - 1, dtype=np.int32)
    acc = np.full(ext_size - 1, coeffs[-1], dtype=np.int32)
    for c in reversed(coeffs[:-1]):
        la = log.take(acc)
        la += log_x
        acc = exp.take(la)                    # acc * x
        place = 1
        while c:                              # acc + c, one nonzero digit at a time
            c, d = divmod(c, p)
            if d:
                # the digit at `place` carries iff the digits up to it reach
                # (p - d) * place; a // b * b is much faster than % on int32
                span = place * p
                low = acc - acc // span * span
                acc += d * place
                acc -= (low >= (p - d) * place) * np.int32(span)
            place *= p
    total = ext_size + int(chi.take(acc).sum()) + int(chi[coeffs[0]])
    return total + infinity_points(ext, coeffs[-1], curve.model_degree)


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


def point_counts_from(L: LPolynomial, upto: int) -> list[int]:
    """N_1..N_upto predicted by L (exact, any extension degree)."""
    return [L.q**k + 1 - p for k, p in enumerate(frobenius_power_sums(L, upto), start=1)]


def l_polynomial(curve: HyperellipticCurve,
                 field_cap: int = POINTCOUNT_FIELD_CAP) -> LPolynomial:
    """Recover L(T) from N_1..N_g via Newton's identities, checked on N_{g+1}.

    N_1..N_g determine L.  Whenever q^(g+1) <= ``field_cap``, N_{g+1} is
    counted as well and must equal the count L predicts, so a miscount raises
    instead of returning a valid-looking L.  Above that budget only the
    integrality of the Newton steps and the :class:`LPolynomial` checks
    (functional equation, L(1) > 0, Weil bound on a_1) run.  Any failure is a
    :class:`ConsistencyError` naming the counts, the field and f.
    """
    g = curve.genus
    top = g + 1 if curve.q ** (g + 1) <= field_cap else g
    counts = [point_count(curve, k, field_cap) for k in range(1, top + 1)]
    try:
        return l_polynomial_from_counts(curve.q, g, counts)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc}: counts {counts}, {_describe(curve)}") from exc


def l_polynomial_from_counts(q: int, genus: int, counts: list[int]) -> LPolynomial:
    """L(T) from N_1..N_g; counts past N_g must match the ones L predicts."""
    g = genus
    if len(counts) < g:
        raise ValueError(f"genus {g} needs the counts N_1..N_{g}, got {len(counts)}")
    s = [n_k - (q**k + 1) for k, n_k in enumerate(counts[:g], start=1)]
    a = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        total = sum(s[i - 1] * a[k - i] for i in range(1, k + 1))
        if total % k:
            raise ConsistencyError(f"Newton identity gave a non-integer a_{k}")
        a[k] = total // k
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
