"""Clutching trees, p-rank labelings, the boundary-divisor catalog and
degeneration witnesses.

A clutching tree is a finite tree with a genus label g_v >= 1 at each vertex
and deg(v) <= 2 g_v + 2; a labeling assigns each component its p-rank.
Everything here is exact combinatorics on tiny structures.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .curves import HyperellipticCurve, curve_new
from .ffield import FieldDescriptor, enumerate_monic
from .prank import p_rank


@dataclass(frozen=True)
class ClutchingTree:
    """Vertex genus labels plus tree edges (vertex ids are list positions)."""

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.genera)
        if n == 0:
            raise ValueError("a clutching tree needs at least one vertex")
        if any(g < 1 for g in self.genera):
            raise ValueError("vertex genera must be >= 1")
        if len(self.edges) != n - 1:
            raise ValueError("a tree on n vertices has exactly n-1 edges")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError("duplicate edge")
            seen.add(key)
        adj = self.adjacency()
        if n > 1:
            stack, reach = [0], {0}
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in reach:
                        reach.add(w)
                        stack.append(w)
            if len(reach) != n:
                raise ValueError("tree must be connected")
        for v in range(n):
            if len(adj[v]) > 2 * self.genera[v] + 2:
                raise ValueError(f"degree of vertex {v} exceeds 2*g_v + 2")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.genera]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def as_dict(self, labeling: Sequence[int] | None = None) -> dict:
        verts = []
        for i, g in enumerate(self.genera):
            v = {"id": i, "g": g}
            if labeling is not None:
                v["f"] = labeling[i]
            verts.append(v)
        return {"vertices": verts, "edges": [[a, b] for a, b in self.edges]}


def path_tree(genera: Sequence[int]) -> ClutchingTree:
    return ClutchingTree(tuple(genera), tuple((i, i + 1) for i in range(len(genera) - 1)))


def _check_prank(f: int, g: int) -> None:
    if not 0 <= f <= g:
        raise ValueError(f"f = {f} outside [0, {g}]")


def _labelings(genera: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """Every tuple with 0 <= f_v <= g_v and sum f_v = total, in
    lexicographic order ([] when total is negative)."""
    return [labels for labels in itertools.product(*(range(g + 1) for g in genera))
            if sum(labels) == total]


def labelings(tree: ClutchingTree, f: int) -> list[tuple[int, ...]]:
    """All p-rank labelings: 0 <= f_v <= g_v with sum f_v = f, vertex order."""
    _check_prank(f, sum(tree.genera))
    return _labelings(tree.genera, f)


def stratum_dim(tree: ClutchingTree, f: int) -> int:
    """Dimension of the p-rank-f stratum glued along the tree: g + f - |tree|."""
    g = sum(tree.genera)
    _check_prank(f, g)
    return g + f - len(tree.genera)


def prank_compact(tree: ClutchingTree, labeling: Sequence[int]) -> int:
    """p-rank of a compact-type configuration: the label sum."""
    if len(labeling) != len(tree.genera):
        raise ValueError("labeling length mismatch")
    for fv, gv in zip(labeling, tree.genera):
        if not 0 <= fv <= gv:
            raise ValueError("labeling violates 0 <= f_v <= g_v")
    return sum(labeling)


# ---------------------------------------------------------------------------
# boundary divisor catalog


@dataclass(frozen=True)
class BoundaryDivisor:
    """One irreducible boundary divisor, in canonical indexing.

    kind "delta": a chain of two components of genus i and g-i meeting at one
    point; component p-ranks sum to f.  kind "xi": one node gets smoothed to
    a torus factor; component p-ranks sum to f - 1 (xi_0 has a single
    component of genus g-1, xi_i a pair of genus i and g-1-i).
    """

    kind: str
    index: int
    genus: int
    component_genera: tuple[int, ...]
    prank_offset: int  # f_1 + ... = f - prank_offset

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.index}"

    def stratum_dim(self, f: int) -> int:
        _check_prank(f, self.genus)
        return self.genus - 2 + f

    def admissible_labelings(self, f: int) -> list[tuple[int, ...]]:
        """Component p-ranks summing to f - ``prank_offset``, lexicographic."""
        _check_prank(f, self.genus)
        return _labelings(self.component_genera, f - self.prank_offset)


def boundary_catalog(g: int) -> list[BoundaryDivisor]:
    """Canonical representatives of the boundary divisors for genus g."""
    if g < 2:
        raise ValueError("the boundary catalog needs genus >= 2")
    out = [BoundaryDivisor("delta", i, g, (i, g - i), 0) for i in range(1, g // 2 + 1)]
    out.append(BoundaryDivisor("xi", 0, g, (g - 1,), 1))
    out.extend(BoundaryDivisor("xi", i, g, (i, g - 1 - i), 1)
               for i in range(1, (g - 1) // 2 + 1))
    return out


# ---------------------------------------------------------------------------
# degeneration witnesses


@dataclass(frozen=True)
class DegenerationWitness:
    tree: ClutchingTree
    labeling: tuple[int, ...]
    curves: tuple[HyperellipticCurve, ...]

    def as_dict(self) -> dict:
        d = self.tree.as_dict(self.labeling)
        for v, c in zip(d["vertices"], self.curves):
            v["f_coeffs"] = list(c.f.coeffs)
        return d


def _elliptic_with_prank(field: FieldDescriptor, target: int) -> HyperellipticCurve:
    for f in enumerate_monic(field, 3, squarefree_only=True):
        c = curve_new(field, f)
        if p_rank(c) == target:
            return c
    kind = "ordinary" if target else "supersingular"
    raise ValueError(f"no {kind} elliptic curve over {field!r}; field too small")


def degeneration_witness(g: int, f: int, field: FieldDescriptor) -> DegenerationWitness:
    """A path of g elliptic curves over the field, f ordinary and g-f
    supersingular, realizing total p-rank f."""
    if g < 2:
        raise ValueError("witness trees need genus >= 2")
    tree = path_tree([1] * g)
    labeling = labelings(tree, f)[0]
    ordinary = _elliptic_with_prank(field, 1) if f else None
    supersingular = _elliptic_with_prank(field, 0) if f < g else None
    curves = tuple(ordinary if fv else supersingular for fv in labeling)
    assert prank_compact(tree, labeling) == f
    return DegenerationWitness(tree, labeling, curves)
