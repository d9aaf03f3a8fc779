import itertools
import math
import re

import pytest

from strataforge.clutching import (
    ClutchingTree,
    boundary_catalog,
    degeneration_witness,
    labelings,
    path_tree,
    prank_compact,
    stratum_dim,
)
from strataforge.ffield import field_new
from strataforge.prank import p_rank


def star_tree(center_genus, leaf_genera):
    genera = (center_genus,) + tuple(leaf_genera)
    return ClutchingTree(genera, tuple((0, i + 1) for i in range(len(leaf_genera))))


# ---------------------------------------------------------------------------
# construction and basic sizes


def test_tree_genus_and_size():
    """The genus (sum of the vertex genera) and the size (vertex count) as
    ``stratum_dim``, ``labelings`` and ``prank_compact`` read them."""
    for tree, genus, size in ((ClutchingTree((4,), ()), 4, 1), (path_tree([1, 1, 1]), 3, 3),
                              (star_tree(2, [1, 1, 1]), 5, 4)):
        assert stratum_dim(tree, 0) == genus - size
        assert labelings(tree, genus) == [tree.genera]
        with pytest.raises(ValueError, match=f"outside \\[0, {genus}\\]"):
            labelings(tree, genus + 1)
        with pytest.raises(ValueError, match="length mismatch"):
            prank_compact(tree, (0,) * (size + 1))
        for labeling in ((-1, *tree.genera[1:]), (tree.genera[0] + 1, *tree.genera[1:])):
            with pytest.raises(ValueError, match=re.escape("0 <= f_v <= g_v")):
                prank_compact(tree, labeling)


def test_tree_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        ClutchingTree((), ())
    with pytest.raises(ValueError):
        ClutchingTree((1, 1), ())                      # disconnected
    with pytest.raises(ValueError, match="must be connected"):   # triangle plus a lone vertex
        ClutchingTree((1, 1, 1, 1), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError):
        ClutchingTree((1, 1, 1), ((0, 1), (0, 1)))     # duplicate edge
    with pytest.raises(ValueError):
        ClutchingTree((0,), ())                        # genus 0 vertex
    with pytest.raises(ValueError):
        star_tree(1, [1, 1, 1, 1, 1])                  # degree 5 > 2*1+2


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (-1, 0), (1, 1)],
                         ids=["0-5", "5-0", "negative", "loop"])
def test_tree_rejects_an_edge_off_the_vertices(edge):
    with pytest.raises(ValueError, match=re.escape(f"bad edge {edge}")):
        ClutchingTree((1, 1), (edge,))


# ---------------------------------------------------------------------------
# labelings


def test_labelings_elliptic_tree_choose():
    tree = path_tree([1, 1, 1])
    assert len(labelings(tree, 1)) == 3


@pytest.mark.parametrize("g", range(1, 9))
def test_labelings_elliptic_path_binomial(g):
    tree = path_tree([1] * g)
    for f in range(g + 1):
        assert len(labelings(tree, f)) == math.comb(g, f)


def test_labelings_mixed_path_example():
    tree = path_tree([2, 1])
    assert labelings(tree, 2) == [(1, 1), (2, 0)]


def test_labelings_total_product_formula():
    trees = [path_tree([2, 1, 3]), star_tree(2, [1, 1, 1]), path_tree([1, 2]),
             ClutchingTree((2, 1, 1, 1), ((0, 1), (1, 2), (1, 3)))]
    for tree in trees:
        total = sum(len(labelings(tree, f)) for f in range(sum(tree.genera) + 1))
        assert total == math.prod(g + 1 for g in tree.genera)


def test_labelings_swap_closure_on_elliptic_vertices():
    tree = ClutchingTree((1, 2, 1), ((0, 1), (1, 2)))
    for f in range(5):
        labs = set(labelings(tree, f))
        for lab in labs:
            swapped = (lab[2], lab[1], lab[0])  # vertices 0 and 2 have g_v = 1
            assert swapped in labs


def test_labelings_range_errors():
    with pytest.raises(ValueError):
        labelings(path_tree([1, 1]), 3)


# ---------------------------------------------------------------------------
# stratum_dim


@pytest.mark.parametrize("g", range(1, 7))
def test_stratum_dim_single_vertex(g):
    tree = ClutchingTree((g,), ())
    for f in range(g + 1):
        assert stratum_dim(tree, f) == g - 1 + f


def test_stratum_dim_elliptic_tree():
    for g in range(2, 6):
        tree = path_tree([1] * g)
        for f in range(g + 1):
            assert stratum_dim(tree, f) == f
    assert stratum_dim(path_tree([1, 1, 1]), 0) == 0


# ---------------------------------------------------------------------------
# p-rank arithmetic


def test_prank_compact_cases():
    assert prank_compact(path_tree([1, 1]), (1, 0)) == 1
    assert prank_compact(path_tree([1, 2, 1]), (0, 0, 0)) == 0
    g, f = 6, 4
    tree = path_tree([1, g - 2, 1])
    assert prank_compact(tree, (1, f - 2, 1)) == f


# ---------------------------------------------------------------------------
# boundary catalog


def test_boundary_catalog_hand_lists():
    assert [d.name for d in boundary_catalog(2)] == ["delta_1", "xi_0"]
    assert [d.name for d in boundary_catalog(3)] == ["delta_1", "xi_0", "xi_1"]
    assert [d.name for d in boundary_catalog(4)] == ["delta_1", "delta_2", "xi_0", "xi_1"]
    with pytest.raises(ValueError):
        boundary_catalog(1)
    for g in (1, 0):                                   # a witness path starts at genus 2 too
        with pytest.raises(ValueError, match="genus >= 2"):
            degeneration_witness(g, 0, field_new(3))


def test_boundary_catalog_dimensions_and_labelings():
    for g in (2, 3, 4):
        for div in boundary_catalog(g):
            for f in range(g + 1):
                assert div.stratum_dim(f) == g - 2 + f
            if div.kind == "delta":
                assert sum(div.component_genera) == g
                for f in range(g + 1):
                    for combo in div.admissible_labelings(f):
                        assert sum(combo) == f
            else:
                assert sum(div.component_genera) == g - 1
                for combo in div.admissible_labelings(2):
                    assert sum(combo) == 1
                assert div.admissible_labelings(0) == []
            for f in range(g + 1):
                # oracle: every tuple in the box, filtered, in product order
                box = itertools.product(*(range(gv + 1) for gv in div.component_genera))
                assert div.admissible_labelings(f) == [
                    c for c in box if sum(c) == f - div.prank_offset]
            for f in (-1, g + 1, 9):
                with pytest.raises(ValueError, match=f"f = {f} outside"):
                    div.admissible_labelings(f)
                with pytest.raises(ValueError, match=f"f = {f} outside"):
                    div.stratum_dim(f)


def test_boundary_catalog_delta1_pairs_genus3():
    div = boundary_catalog(3)[0]
    assert div.component_genera == (1, 2)
    assert div.admissible_labelings(2) == [(0, 2), (1, 1)]


# ---------------------------------------------------------------------------
# degeneration witnesses


@pytest.mark.parametrize("g,f", [(2, 0), (2, 1), (2, 2), (3, 1), (4, 2)])
def test_degeneration_witness(g, f):
    field = field_new(3)
    w = degeneration_witness(g, f, field)
    assert len(w.tree.genera) == g
    assert prank_compact(w.tree, w.labeling) == f
    for fv, curve in zip(w.labeling, w.curves):
        assert curve.genus == 1
        assert p_rank(curve) == fv


def test_degeneration_witness_all_supersingular_over_f3():
    w = degeneration_witness(3, 0, field_new(3))
    coeff_sets = {c.f.coeffs for c in w.curves}
    assert len(coeff_sets) == 1
    assert p_rank(w.curves[0]) == 0


def test_degeneration_witness_serialization_shape():
    w = degeneration_witness(2, 1, field_new(3))
    d = w.as_dict()
    assert set(d) == {"vertices", "edges"}
    assert all(set(v) == {"id", "g", "f", "f_coeffs"} for v in d["vertices"])
