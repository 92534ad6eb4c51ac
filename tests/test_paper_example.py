"""The worked endomorphism example on its surface.

The three-vertex algebra with relations ab = ba = d^2 = 0 is the tiling
algebra of a pair of pants (samples.pants_tiling): x, y are parallel
arcs around one unmarked component, z is a loop around the other.  The
string w = b^-1 c d c^-1 b lives on it as an arc crossing
x y z z y x, passing through every tile type, and its endomorphism
space is two dimensional whichever way it is computed.
"""

import pytest

from tilealg import samples
from tilealg.arcs import (arc_to_string, hom_dim_geometric,
                          intersection_vector, pivot_move, string_to_arc,
                          tau_inverse_arc, TrivialArc)
from tilealg.artheory import hooks, tau_inverse
from tilealg.homs import hom_dim
from tilealg.oracle import hom_dim_oracle, realize_string_module
from tilealg.strings import StringWord, canonicalize, parse_string
from tilealg.surface import presentations_isomorphic, tiling_algebra


@pytest.fixture(scope="module")
def pants():
    t = samples.pants_tiling()
    return t, tiling_algebra(t)


def test_pants_algebra_matches_fix_a(pants):
    t, alg = pants
    arrows = {(a.source, a.target, a.point) for a in alg.arrows.values()}
    assert arrows == {("x", "y", "P"), ("y", "x", "Q"),
                      ("y", "z", "P"), ("z", "z", "P")}
    names = {(a.source, a.target): a.name for a in alg.arrows.values()}
    rels = set(alg.presentation.relations)
    assert rels == {(names[("x", "y")], names[("y", "x")]),
                    (names[("y", "x")], names[("x", "y")]),
                    (names[("z", "z")], names[("z", "z")])}


def _paper_string(alg):
    names = {(a.source, a.target): a.name for a in alg.arrows.values()}
    b, c, d = names[("y", "x")], names[("y", "z")], names[("z", "z")]
    return parse_string(alg.presentation, f"{b}- {c} {d} {c}- {b}")


def test_paper_string_on_the_surface(pants):
    t, alg = pants
    w = _paper_string(alg)
    arc = string_to_arc(t, alg, w)
    assert [t.label[d] for d in arc.darts] == ["x", "y", "z", "z", "y", "x"]
    assert arc_to_string(t, alg, arc) == w
    vec = intersection_vector(t, arc)
    assert vec == {"x": 2, "y": 2, "z": 2}
    assert vec == realize_string_module(alg.presentation, w).dim_vector(
        alg.presentation)
    # the arc visits all tile kinds: the type II digon (via the b-letters
    # at Q) and the type I monogon (the d-letter wrap)
    visited = {t.tiles[t.face_of[d ^ 1][0]].kind for d in arc.darts[:-1]}
    assert {"type-I", "type-II"} <= visited


def test_paper_hom_value_three_ways(pants):
    t, alg = pants
    p = alg.presentation
    w = _paper_string(alg)
    assert hom_dim(p, w, w) == 2
    arc = string_to_arc(t, alg, w)
    assert hom_dim_geometric(t, alg, arc, arc) == 2
    rep = realize_string_module(p, w)
    assert hom_dim_oracle(p, rep, rep) == 2


def test_paper_string_ar_data(pants):
    t, alg = pants
    p = alg.presentation
    w = _paper_string(alg)
    arc = string_to_arc(t, alg, w)
    h = hooks(p, w)
    for end, want in (("s", h.w_left), ("t", h.w_right)):
        moved = pivot_move(t, alg, arc, end)
        got = StringWord.zero() if isinstance(moved, TrivialArc) \
            else arc_to_string(t, alg, moved)
        assert got == want
    ta = tau_inverse_arc(t, alg, arc)
    tw = tau_inverse(p, w)
    if tw is None:
        assert ta is None
    else:
        assert canonicalize(arc_to_string(t, alg, ta)) == canonicalize(tw)


def test_pants_completes_and_collapses(pants):
    from tilealg.surface import collapse_presentation, complete_to_triangulation
    t, alg = pants
    comp = complete_to_triangulation(t)
    assert all(len(x.walk) == 3 for x in comp.tiling.tiles)
    assert len(comp.added_points) == 2
    collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
    assert presentations_isomorphic(collapsed, alg)
