"""The fixed-vector and characteristic-polynomial statistics of the
multiplier cosets of Sp_2g(Z/l) in GSp_2g(Z/l), the equidistribution
baselines, exact and Monte Carlo.

Both exact statistics are closed forms and enumerate no group.  The
fixed-vector proportion is a Moebius inversion over the subspaces an element
fixes pointwise.  The charpoly distribution of a multiplier coset runs over
the l^g charpolys the coset can have and weights each by a product over its
factors (``_charpoly_blocks``): those of T^2 - m split off by one gcd, the
rest read through their trace polynomial by ``ffield.zp_reciprocal_blocks``.
The Monte Carlo baselines advance their transvection walks in numpy blocks
of ``SP_WALK_BLOCK`` walks, one batched rank-1 update per step
(``_coset_samples``).  A block draws the vectors of all its steps at once,
as residues mod l of the bytes of ``random.Random(seed)`` (``_residues``),
and reduces its matrices mod l only every few steps, as often as int64
needs (``_reduction_interval``).

Every statistic of a coset element reads one kernel, ``_charpolys``: the
characteristic polynomials mod l of a whole block of matrices by
Berkowitz's division-free recurrence.  A fixed vector of M is a zero of
its charpoly at 1, and the Monte Carlo charpoly distribution counts its
rows.  ``det_mod`` (an elimination) and ``mat_mul`` stay as the scalar
references for the kernel and the walks, on matrices that are tuples of
row tuples, and as names the benchmark's tracer wraps.

The symplectic form is the antidiagonal split form J: J[i, 2g+1-i] = +1 for
i <= g and -1 for i > g (1-indexed).
"""
from __future__ import annotations

import itertools
import math
import numbers
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .curves import LPolynomial
from .errors import BudgetExceededError
from .ffield import (is_prime, reciprocal_trace, zp_gcd, zp_quo, zp_reciprocal_blocks,
                     zp_squarefree_parts)

# Largest l^g, the number of charpolys the exact charpoly distribution reads,
# one output entry each.  Measured 0.25 ms per charpoly at g = 1 (l = 10,007)
# rising to 0.55 / 0.77 ms at g = 5 / 6 (l = 5), and a tracemalloc peak of
# 297 to 392 B per output entry at g = 1 to 6.  So the budget admits some
# 80 s and 40 MB; past it the call is refused before any work.
CHARPOLY_BUDGET = 100_000
DEFAULT_WALK_LENGTH = 50  # transvections per random-sample walk
# Walks advanced together as one numpy block, so that the memory of a Monte
# Carlo run is flat in n: a block holds its draws, (walk length, block, 2g)
# residues in words of the narrowest width that holds l (1 B each below 256),
# and a few (block, 2g, 2g) arrays.  Without blocks, n = 100,000 walks at
# g = 3 would need arrays of about 40 MB each.
SP_WALK_BLOCK = 256
# Bound on the tracemalloc peak of a fixed_vector_proportion Monte Carlo run
# per walk of a block, at g = 3, l = 3 and the default walk length.
# Measured 1,554 B per walk at n = SP_WALK_BLOCK and 1,843 B at n = 10
# blocks (the last finished block is still referenced while the next one is
# built); 350 / 831 / 2,151 B at g = 1 / 2 / 4 and n = SP_WALK_BLOCK.  So a
# g = 3 run peaks near 0.5 MB whatever n is.
SP_WALK_BYTES_PER_WALK = 2048

Matrix = tuple[tuple[int, ...], ...]


def _check_integers(**args) -> None:
    """ValueError naming the first argument that is not an integer."""
    for name, value in args.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_l(l: int) -> None:
    if l == 2 or not is_prime(l):
        raise ValueError(f"l must be an odd prime, got {l}")


def mat_mul(a: Matrix, b: Matrix, l: int) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % l for col in bt)
        for row in a)


def det_mod(a: Matrix, l: int) -> int:
    rows = [list(r) for r in a]
    d = len(rows)
    det = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col] % l), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col] % l
        inv = pow(rows[col][col], -1, l)
        for r in range(col + 1, d):
            if rows[r][col]:
                c = rows[r][col] * inv % l
                rows[r] = [(x - c * y) % l for x, y in zip(rows[r], rows[col])]
    return det % l


def _sp_card(n: int, l: int) -> int:
    """|Sp_2n(Z/l)|, with |Sp_0| = 1."""
    return l ** (n * n) * math.prod(l ** (2 * i) - 1 for i in range(1, n + 1))


def sp_order(g: int, l: int) -> int:
    """|Sp_2g(Z/l)| = l^(g^2) * prod_{i=1..g} (l^(2i) - 1)."""
    _check_integers(g=g, l=l)
    if g < 1:
        raise ValueError("g must be >= 1")
    _check_l(l)
    return _sp_card(g, l)


def _entry_dtype(d: int, l: int) -> type:
    """int64 while it holds a sum of d products of residues mod l, below
    d l^2; Python ints (object arrays) past that bound."""
    return np.int64 if d * l * l < 2**63 else object


def _reduction_interval(d: int, l: int) -> int:
    """K, the steps an int64 walk takes between reductions of M mod l, and 0
    for a Python-int walk.  After j unreduced steps an entry of M is below
    (l-1) + j (l-1)^2, so M v stays below d l^2 (1 + j l): K is the largest
    interval that keeps this under the int64 bound of ``_entry_dtype`` for
    j < K, and 1 where that bound is tight."""
    return 1 + ((2**63 - 1) // (d * l * l) - 1) // l


def _residues(rng: random.Random, l: int, size: tuple[int, ...]) -> np.ndarray:
    """An array of shape ``size`` of residues uniform mod l < 2^64, held in
    unsigned words of the narrowest width w of 1, 2, 4 and 8 bytes with
    l < 2^(8w).  Each is a w-byte word of ``rng.randbytes`` taken mod l,
    kept only if below the largest multiple of l under 2^(8w); the words
    rejected are drawn again."""
    w = next(k for k in (1, 2, 4, 8) if l < 256**k)
    top, kept, need = 256**w - 256**w % l, [], math.prod(size)
    while need:
        words = np.frombuffer(rng.randbytes(w * need), f"<u{w}")
        kept.append(words[words < top])
        need -= len(kept[-1])
    return (np.concatenate(kept) % l).reshape(size)


def _coset_samples(g: int, l: int, m: int, n: int, seed: int) -> Iterator[np.ndarray]:
    """``n`` samples M D_m of the multiplier-m coset from
    ``random.Random(seed)``, in blocks of at most ``SP_WALK_BLOCK``: M is a
    lazy walk of ``DEFAULT_WALK_LENGTH`` transvections and D_m = diag(m,
    ..., m, 1, ..., 1).  Each block is built in its own call, so that its
    draws are freed before the next block draws.

    The lazy step matters: Sp_2(Z/3) is not perfect, so a fixed-length
    product of honest transvections stays inside one coset of the derived
    subgroup and can never be uniform."""
    _check_l(l)
    if g < 1:
        raise ValueError("g must be >= 1")
    rng = random.Random(seed)
    for start in range(0, n, SP_WALK_BLOCK):
        yield _coset_block(g, l, m, rng, min(SP_WALK_BLOCK, n - start))


def _coset_block(g: int, l: int, m: int, rng: random.Random, b: int) -> np.ndarray:
    """``b`` walk samples M D_m as a (b, 2g, 2g) array reduced mod l.  The
    block draws all its vectors at once, one (steps, b, 2g) array of
    residues (``_residues``) whose row [t, i] is the v that walk i takes at
    step t, uniform over all vectors; that step is the rank-1 update
    M T_v = M + (M v)(J v)^T over the whole block (v = 0 is an identity
    step), and M D_m scales the first g columns of M by m.

    c = M v is reduced at every step, M only every ``_reduction_interval``
    steps and once M D_m is formed (Python-int blocks then only), so M
    drifts from the per-step residues by multiples of l; scaling by m < l
    stays under the int64 bound of M v."""
    d = 2 * g
    dtype = _entry_dtype(d, l)
    sign = np.array([1] * g + [-1] * g, dtype=dtype)
    every = _reduction_interval(d, l) or DEFAULT_WALK_LENGTH
    a = np.zeros((b, d, d), dtype=dtype)
    a[:, range(d), range(d)] = 1
    for t, step in enumerate(_residues(rng, l, (DEFAULT_WALK_LENGTH, b, d)), 1):
        v = step.astype(dtype)
        c = np.matmul(a, v[:, :, None]) % l
        a += c * (v[:, None, ::-1] * sign)  # Jv[j] = +-v[d-1-j]
        if t % every == 0:
            a %= l
    a[:, :, :g] *= m
    a %= l
    return a


def _charpolys(a: np.ndarray, l: int) -> np.ndarray:
    """det(T*1 - M) mod the prime l for each M of the (b, d, d) stack ``a``
    (int64 as ``_entry_dtype`` allows, else object), as a (b, d+1) array,
    constant term first.

    Berkowitz's recurrence, with products only: split M around its trailing
    k x k block S as [[a_rr, R], [C, S]]; then, coefficients highest degree
    first, charpoly(M) = X charpoly(S) with X the (k+2) x (k+1) lower
    triangular Toeplitz matrix of first column (1, -a_rr, -RC, -RSC, ...,
    -RS^(k-1)C).  Every product is reduced mod l, so an entry never exceeds
    a sum of d products of residues.
    """
    a = a % l
    b, d, _ = a.shape
    poly = np.ones((b, 1), dtype=a.dtype)  # charpoly of the empty block
    for r in range(d - 1, -1, -1):
        k = d - 1 - r
        row, v, sub = a[:, r:r + 1, r + 1:], a[:, r + 1:, r:r + 1], a[:, r + 1:, r + 1:]
        col = [np.ones_like(a[:, r, r]), -a[:, r, r]]
        for _ in range(k):
            col.append(-np.matmul(row, v)[:, 0, 0])
            v = np.matmul(sub, v) % l
        col = np.stack(col, axis=1) % l
        new = np.zeros_like(col)  # X poly: column j of X is col shifted down j
        for j in range(k + 1):
            new[:, j:] += poly[:, j, None] * col[:, :k + 2 - j]
        poly = new % l
    return poly[:, ::-1]


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    n: int

    @classmethod
    def from_hits(cls, hits: int, n: int) -> MonteCarloEstimate:
        """hits/n with the 95% Wilson score interval, which keeps a nonzero
        width inside [0, 1] when hits is 0 or n."""
        z = 1.96
        p_hat = hits / n
        shrink = 1 + z * z / n
        center = (p_hat + z * z / (2 * n)) / shrink
        half = z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / shrink
        # min/max with p_hat only absorb rounding at hits in {0, n}
        return cls(p_hat, max(0.0, min(center - half, p_hat)),
                   min(1.0, max(center + half, p_hat)), n)


def _check_call(g: int, l: int, m: int, mode: str, n: int, seed: int) -> None:
    """The argument checks of both coset statistics, before any primality
    test or walk: g, l and m are integers and g >= 1.  A Monte Carlo run
    takes an int n >= 1, an int seed >= 0 and an l below 2^64, since it
    draws residues in words of at most 8 bytes (``_residues``)."""
    _check_integers(g=g, l=l, m=m)
    if g < 1:
        raise ValueError("g must be >= 1")
    if mode == "montecarlo":
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"a Monte Carlo run needs an int n >= 1 samples, got {n!r}")
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"a Monte Carlo seed must be an int >= 0, got {seed!r}")
        if l >= 2**64:
            raise ValueError(f"Monte Carlo draws 8-byte words: l must be below 2^64, got {l}")
    elif mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    _check_l(l)
    if not 1 <= m < l:
        raise ValueError(f"multiplier must be a unit mod {l}")


def _isotropic_count(n: int, t: int, l: int) -> int:
    """Number of t-dimensional isotropic subspaces of a symplectic space of
    dimension 2n over Z/l."""
    return (math.prod(l ** (2 * n - 2 * i) - 1 for i in range(t))
            // math.prod(l ** (i + 1) - 1 for i in range(t)))


def _subspace_types(g: int, l: int):
    """(s, t, count): the subspaces W of a 2g-dimensional symplectic space on
    which the form has rank 2s and a radical of dimension t, and how many
    there are: choose the radical R, then a nondegenerate W/R in R^perp/R."""
    for s in range(g + 1):
        for t in range(g - s + 1):
            yield s, t, (_isotropic_count(g, t, l) * _sp_card(g - t, l)
                         // (_sp_card(s, l) * _sp_card(g - t - s, l)))


def _fixed_point_free_count(g: int, l: int, m: int) -> int:
    """Elements of the multiplier-m coset Sp_2g(Z/l) D_m with no nonzero
    fixed vector, by Moebius inversion over the subspaces W they fix
    pointwise (mu(0, W) = (-1)^k l^(k(k-1)/2) with k = dim W).

    An element of Sp fixing W pointwise preserves the orthogonal complement,
    of dimension 2n = 2(g - s), of the nondegenerate part of W, and in
    there fixes the t-dimensional radical pointwise: l^(t(2n-2t) + t(t+1)/2)
    |Sp_2(n-t)| elements.  For m != 1, <Mx, My> = m <x, y> forces W to be
    isotropic (s = 0); an isotropic W is fixed pointwise by an element of
    multiplier m (scale a complementary Lagrangian by m), so the coset holds
    as many such elements as Sp does.
    """
    total = 0
    for s, t, count in _subspace_types(g, l):
        if s and m != 1:
            continue
        k, n = 2 * s + t, g - s
        stabilizer = l ** (t * (2 * n - 2 * t) + t * (t + 1) // 2) * _sp_card(n - t, l)
        total += (-1) ** k * l ** (k * (k - 1) // 2) * count * stabilizer
    return total


def fixed_vector_proportion(g: int, l: int, m: int, mode: str = "exact",
                            n: int = 100_000, seed: int = 0):
    """Proportion of the multiplier-m coset of GSp_2g(Z/l) fixing a nonzero
    vector (equivalently det(M - 1) = 0).

    "exact" returns a Fraction from a closed form in l (a sum over the types
    of subspace an element can fix pointwise; no group is enumerated, so any
    g and l are cheap); "montecarlo" samples the coset by transvection walks
    and returns a MonteCarloEstimate with a 95% Wilson interval.
    """
    _check_call(g, l, m, mode, n, seed)
    if mode == "exact":
        return 1 - Fraction(_fixed_point_free_count(g, l, m), _sp_card(g, l))
    # charpoly(1) = det(1 - M): zero exactly when M fixes a vector
    hits = sum(int((_charpolys(block, l).sum(axis=1) % l == 0).sum())
               for block in _coset_samples(g, l, m, n, seed))
    return MonteCarloEstimate.from_hits(hits, n)


# ---------------------------------------------------------------------------
# characteristic polynomials mod l


def charpoly_mod(L: LPolynomial, l: int) -> tuple[int, ...]:
    """Frobenius characteristic polynomial mod l: the coefficient reversal
    T^2g * L(1/T), monic, constant term first."""
    _check_l(l)
    if L.q % l == 0:
        raise ValueError("l must differ from the characteristic")
    return tuple(c % l for c in reversed(L.coeffs))


def _charpoly_blocks(chi: list[int], l: int, m: int) -> list[tuple[str, int, int]]:
    """The blocks (kind, d, k) of an m-reciprocal charpoly chi over Z/l, one
    per factor C = G(l^d) of the centralizer of a semisimple element of the
    coset with charpoly chi, read from the product s of the factors of
    multiplicity k in chi, an m-reciprocal squarefree s.  Its factors
    dividing T^2 - m, T - e with e^2 = m (d = 1) or an irreducible T^2 - m
    (d = 2), are "sp" blocks; the rest is T^n h(T + m/T) with h squarefree
    and no root b with b^2 = 4m, whose blocks (kind, d) are those of
    ``zp_reciprocal_blocks`` on h.  C is GL_k for "gl", U_k for "u" and Sp_k
    for "sp" (k is then even)."""
    d = 1 if pow(m, (l - 1) // 2, l) == 1 else 2    # the degree of the factors of T^2 - m
    blocks = []
    for k, s in zp_squarefree_parts(chi, l).items():
        sp = zp_gcd(s, [-m % l, 0, 1], l)
        h, _ = reciprocal_trace(zp_quo(s, sp, l), m)
        blocks += [("sp", d, k)] * ((len(sp) - 1) // d)
        blocks += [(kind, e, k) for kind, e in zp_reciprocal_blocks(h, l, m)]
    return blocks


def _block_mass(kind: str, d: int, k: int, l: int) -> Fraction:
    """(unipotent elements of C) / |C| for the block's C = G(q), q = l^d:
    q^(2j^2) / |Sp_2j(q)| with k = 2j, and q^(k(k-1)) / |GL_k(q)| or
    / |U_k(q)|, where those orders are q^(k(k-1)/2) prod (q^i - (+-1)^i)."""
    q = l ** d
    if kind == "sp":
        return Fraction(q ** (k * k // 2), _sp_card(k // 2, q))
    s = -1 if kind == "u" else 1
    return Fraction(q ** (k * (k - 1) // 2), math.prod(q**i - s**i for i in range(1, k + 1)))


def coset_charpoly_distribution(g: int, l: int, m: int, mode: str = "exact",
                                n: int = 100_000, seed: int = 0) -> dict[tuple[int, ...], Fraction]:
    """Distribution of characteristic polynomials over the multiplier-m coset.

    "exact" returns every charpoly the coset can have, in sorted order: the
    l^g monic chi of degree 2g with chi(T) = T^2g chi(m/T) / m^g, whose
    coefficients c_j = c_(2g-j) m^(g-j) below T^g follow from those above.
    An element is s u with s semisimple and u unipotent in the centralizer
    C(s); in the simply connected Sp, C(s) is connected and s is fixed up to
    conjugacy by chi, so chi has mass (unipotents of C(s)) / |C(s)|, the
    product of ``_block_mass`` over its blocks (Steinberg's q^(2N)
    unipotents; Fulman, Neumann and Praeger, Mem. AMS 830, 2005).  l^g over
    ``CHARPOLY_BUDGET`` is refused before any work."""
    _check_call(g, l, m, mode, n, seed)
    if mode == "exact":
        if l**g > CHARPOLY_BUDGET:
            raise BudgetExceededError(f"exact charpolys at g = {g}, l = {l}, m = {m}: "
                                      f"l^g = {l**g} exceeds {CHARPOLY_BUDGET}")
        dist = {}
        for top in itertools.product(range(l), repeat=g):
            chi = [0] * g + [*top, 1]
            for j in range(g):
                chi[j] = chi[2 * g - j] * pow(m, g - j, l) % l
            dist[tuple(chi)] = math.prod(_block_mass(*b, l) for b in _charpoly_blocks(chi, l, m))
        return dict(sorted(dist.items()))
    counts: Counter[tuple[int, ...]] = Counter()
    for block in _coset_samples(g, l, m, n, seed):
        counts.update(map(tuple, _charpolys(block, l).tolist()))
    return {k: Fraction(v, n) for k, v in counts.items()}
