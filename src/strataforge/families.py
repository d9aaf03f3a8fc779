"""Families of models y^2 = f(x), f monic squarefree of degree 2g + 1, as
numpy blocks of coefficient codes, and their p-rank strata.

A family yields blocks ``(codes, weight)``: ``codes`` is an int16 array
with one row per model, the d + 1 = 2g + 2 coefficient codes of f,
constant term first, at most ``ffield.BLOCK_ROWS`` rows; each row stands
for ``weight`` models.  ``exhaustive`` lists every squarefree model off
``ffield.squarefree_mask``.  Where p does not divide d it applies the
affine cut: x -> x + b moves c_(d-1) to c_(d-1) + d b, so each orbit of the
q translations holds exactly one model with c_(d-1) = 0.  The translation
is an isomorphism over F_q, so it keeps L and the p-rank, and each kept
model weighs q.  ``sampled`` draws seeded models one coefficient at a time
and keeps the squarefree ones, weight 1 each.

``p_ranks`` is the batched Hasse-Witt route: A from f^((p-1)/2) by
``ffield.poly_mul_rows``, M = A^(p^(g-1)) ... A^(p) A through the field's
Frobenius table, and the rank of M by batched elimination.  With
V(x) = x^(p) A on row vectors, V^g(x) = x^(p^g) M, so rank M is the
dimension of the stable image, the p-rank (``prank.stable_rank`` computes
it one model at a time, and is the second route in the tests).  Every
product reads the field's add and mul tables, so one path serves every
F_q.  Nothing here is imported by the per-curve modules.
"""
from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceededError
from .ffield import (BLOCK_BYTES, BLOCK_ROWS, FieldDescriptor, FieldTables, monic_codes,
                     poly_mul_rows, poly_squarefree, squarefree_mask, table_refusal)

Block = tuple[np.ndarray, int]


@dataclass(frozen=True)
class Family:
    """Models of genus ``genus`` over ``field`` as blocks of codes; iterating
    yields the blocks (every pass yields the same ones)."""

    field: FieldDescriptor
    genus: int
    blocks: Callable[[], Iterator[Block]]

    def __iter__(self) -> Iterator[Block]:
        return self.blocks()


def _check_family(field: FieldDescriptor, g: int) -> None:
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    why = table_refusal(field)
    if why:
        raise BudgetExceededError(f"genus {g} over {field!r}: {why}")


def exhaustive(field: FieldDescriptor, g: int) -> Family:
    """Every monic squarefree model of degree 2g + 1, one block at a time;
    where p does not divide 2g + 1, only the models with c_(2g) = 0, of
    weight q each.  The total weight is q^d - q^(d-1) either way.  Over
    budget (``ffield.squarefree_mask``: the tables, and the mask within
    ``ENUMERATE_CAP``), raises :class:`BudgetExceededError` before anything
    is allocated."""
    _check_family(field, g)
    q, d = field.size, 2 * g + 1
    cut = d % field.p != 0
    mask = squarefree_mask(field, d, cut)
    weight = q if cut else 1

    def blocks() -> Iterator[Block]:
        for start in range(0, len(mask), BLOCK_ROWS):
            index = start + np.flatnonzero(mask[start:start + BLOCK_ROWS])
            yield monic_codes(q, d, index, cut), weight

    return Family(field, g, blocks)


def sampled(field: FieldDescriptor, g: int, n: int, seed: int) -> Family:
    """n models drawn by ``random.Random(seed)``: each candidate draws its
    coefficients c_0 .. c_(2g) by ``randrange(q)`` in turn and is kept when
    squarefree, weight 1 each.  Over F_7 at g = 3 these are the models of
    the benchmark's strata_g3_sampled workload, model for model.  n must be
    an int >= 0; anything else raises ``ValueError`` here, not when the
    family is iterated."""
    _check_family(field, g)
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    q, d = field.size, 2 * g + 1

    def blocks() -> Iterator[Block]:
        rng, rows, left = random.Random(seed), [], n
        while left:
            coeffs = [rng.randrange(q) for _ in range(d)] + [1]
            if poly_squarefree(field, coeffs):
                rows.append(coeffs)
                if len(rows) == min(BLOCK_ROWS, left):
                    yield np.array(rows, dtype=np.int16), 1
                    left, rows = left - len(rows), []

    return Family(field, g, blocks)


def p_ranks(field: FieldDescriptor, g: int, codes: np.ndarray) -> np.ndarray:
    """The p-rank of y^2 = f(x) for every row of ``codes`` (the coefficient
    codes of f, constant term first, degree 2g + 1 or 2g + 2), as int64.

    A[i][j] = c_(ip - j) of f^((p-1)/2), i, j = 1..g, as in
    ``prank.hasse_witt_from_poly``; the powers are truncated past x^(gp - 1),
    the last coefficient A reads.  A of rank g (an ordinary curve) gives
    p-rank g; for the rest M = A^(p^(g-1)) ... A^(p) A is formed and ranked.
    The rows are taken as many at a time as keep the temporaries, measured
    at 8-18 B per coefficient of f^((p-1)/2) and 4-20 B per entry of A,
    within ``ffield.BLOCK_BYTES``.  Codes of any other shape (not 2-D, or
    not 2g + 2 or 2g + 3 columns) raise ``ValueError``, as do codes of a
    non-numeric dtype and a code that is not an integer in [0, q), named;
    the codes are checked as passed, since the int16 cast would truncate or
    wrap them."""
    _check_family(field, g)
    raw = np.asarray(codes)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"codes must be integers, got an array of {raw.dtype}")
    bad = (raw < 0) | (raw >= field.size) | (raw % 1 != 0)
    if bad.any():
        raise ValueError(f"code {raw[bad][0].tolist()!r} is not an integer in [0, {field.size})")
    f = raw.astype(np.int16, copy=False)
    if f.ndim != 2 or f.shape[1] not in (2 * g + 2, 2 * g + 3):
        raise ValueError(f"genus {g} needs rows of {2 * g + 2} or {2 * g + 3} codes, "
                         f"got an array of shape {f.shape}")
    step = max(1, BLOCK_BYTES // (18 * (g * field.p + 2 * g + 2) + 20 * g * g))
    return np.concatenate([_p_ranks(field, g, f[i:i + step])
                           for i in range(0, max(len(f), 1), step)])


def _p_ranks(field: FieldDescriptor, g: int, f: np.ndarray) -> np.ndarray:
    t, p = field.tables, field.p
    h = f[:, :g * p]
    for _ in range((p - 3) // 2):
        h = poly_mul_rows(field, f, h)[:, :g * p]
    index = np.arange(1, g + 1)[:, None] * p - np.arange(1, g + 1)
    inside = (index >= 0) & (index < h.shape[1])
    a = h[:, np.where(inside, index, 0)]
    a[:, ~inside] = 0
    ranks = _rank(t, a)
    a = a[ranks < g]
    m, frob = a, t.frob
    for _ in range(g - 1):
        m = _mat_mul(t, frob.take(a), m)
        frob = t.frob.take(frob)
    ranks[ranks < g] = _rank(t, m)
    return ranks


def _mat_mul(t: FieldTables, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[r] y[r] for every r, over the field of the tables."""
    out = t.mul(x[:, :, 0, None], y[:, None, 0, :])
    for s in range(1, x.shape[2]):
        out = t.add(out, t.mul(x[:, :, s, None], y[:, None, s, :]))
    return out


def _rank(t: FieldTables, m: np.ndarray) -> np.ndarray:
    """The rank of every matrix m[r], by elimination on all of them at once.

    Column by column, each matrix takes as pivot its first row, not yet
    used, with a nonzero entry there, and clears that column from its
    other rows.  A matrix with no pivot in the column gets a zero pivot
    row, so its rows stay as they are (inv[0] = 0).  Used rows are never
    read again, so clearing them too does no harm."""
    rows = np.arange(len(m))
    used = np.zeros(m.shape[:2], dtype=bool)
    for c in range(m.shape[2]):
        candidates = (m[:, :, c] != 0) & ~used
        pivot_row = candidates.argmax(axis=1)
        found = candidates[rows, pivot_row]
        used[rows[found], pivot_row[found]] = True
        pivot = m[rows, pivot_row] * found[:, None]
        factor = t.mul(m[:, :, c], t.neg.take(t.inv.take(pivot[:, c]))[:, None])
        m = t.add(m, t.mul(factor[:, :, None], pivot[:, None, :]))
    return used.sum(axis=1)


def strata_counts(family: Family) -> list[int]:
    """Weighted number of models of each p-rank f = 0 .. g in the family."""
    g, counts = family.genus, [0] * (family.genus + 1)
    for codes, weight in family:
        found = np.bincount(p_ranks(family.field, g, codes), minlength=g + 1)
        counts = [c + weight * int(k) for c, k in zip(counts, found)]
    return counts
