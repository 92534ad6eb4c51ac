import hashlib
import random
import re

import pytest

from tilealg import samples
from tilealg.algebra import InputError, check_gentle
from tilealg.surface import (Tiling, TilingRejection, collapse_presentation,
                             complete_to_triangulation,
                             oriented_cycles_have_relations,
                             presentations_isomorphic, tiling_algebra,
                             validate_tiling)


def tile_kinds(t):
    return sorted((x.kind, len(x.walk)) for x in t.tiles)


def test_pent_three_triangles():
    t = samples.pent_tiling()
    assert tile_kinds(t) == [("m-gon", 3)] * 3


def test_loop_type_one_and_triangle():
    t = samples.loop_tiling()
    assert tile_kinds(t) == [("m-gon", 3), ("type-I", 1)]
    tile = next(x for x in t.tiles if x.kind == "type-I")
    assert tile.unmarked == "b2"


def test_digon_type_two():
    t = samples.digon_tiling()
    assert tile_kinds(t) == [("m-gon", 3), ("m-gon", 3), ("type-II", 2)]


def test_kron_is_a_triangulation():
    t = samples.kron_tiling()
    assert tile_kinds(t) == [("m-gon", 3), ("m-gon", 3)]


def test_adjacent_chord_rejected():
    # an arc joining adjacent marked points cuts out a digon
    text = """
    tiling
    boundary b1 marked p1 p2 p3 p4
    arc x p1 p2
    fan p1 : x.1
    fan p2 : x.2
    end
    """
    with pytest.raises(TilingRejection, match="digon"):
        validate_tiling(text)


def test_monogon_without_component_rejected():
    text = """
    tiling
    boundary b1 marked p q
    arc x p p
    fan p : x.1 x.2
    end
    """
    with pytest.raises(TilingRejection, match="monogon"):
        validate_tiling(text)


def test_mgon_cannot_hold_unmarked_component():
    text = """
    tiling
    boundary b1 marked p1 p5 p4 p3 p2
    boundary b2 unmarked inside x
    arc x p1 p3
    arc y p1 p4
    fan p1 : x.1 y.1
    fan p3 : x.2
    fan p4 : y.2
    end
    """
    with pytest.raises(TilingRejection):
        validate_tiling(text)


def test_small_disc_rejected():
    text = """
    tiling
    boundary b1 marked p1 p2 p3
    end
    """
    with pytest.raises(TilingRejection, match="four marked points"):
        validate_tiling(text)


def test_disc_with_exactly_four_points_accepted():
    text = """
    tiling
    boundary b1 marked p1 p4 p3 p2
    arc x p1 p3
    fan p1 : x.1
    fan p3 : x.2
    end
    """
    t = validate_tiling(text)
    assert tile_kinds(t) == [("m-gon", 3), ("m-gon", 3)]


def test_fans_must_cover_ends():
    text = """
    tiling
    boundary b1 marked p1 p5 p4 p3 p2
    arc x p1 p3
    fan p1 : x.1
    end
    """
    with pytest.raises(InputError):
        validate_tiling(text)


def test_pent_algebra_is_a2():
    alg = tiling_algebra(samples.pent_tiling())
    p = alg.presentation
    assert p.vertices == ["x", "y"]
    assert len(p.arrows) == 1
    (a,) = alg.arrows.values()
    assert (a.source, a.target, a.point) == ("x", "y", "p1")
    assert not p.relations


def test_loop_algebra_loop_with_square_zero():
    alg = tiling_algebra(samples.loop_tiling())
    p = alg.presentation
    assert p.vertices == ["x"]
    (a,) = alg.arrows.values()
    assert a.source == a.target == "x"
    assert set(p.relations) == {(a.name, a.name)}


def test_digon_algebra_two_cycle_radical_square_zero():
    alg = tiling_algebra(samples.digon_tiling())
    p = alg.presentation
    arrows = list(alg.arrows.values())
    assert {(a.source, a.target) for a in arrows} == {("x", "y"), ("y", "x")}
    ab = {a.point for a in arrows}
    assert ab == {"p", "q"}
    assert len(p.relations) == 2


def test_kron_algebra():
    alg = tiling_algebra(samples.kron_tiling())
    p = alg.presentation
    assert {(a.source, a.target) for a in alg.arrows.values()} == {("x", "y")}
    assert len(alg.arrows) == 2
    assert not p.relations


@pytest.mark.parametrize("name", ["pent", "loop", "digon", "kron", "pants"])
def test_fixture_algebras_are_gentle(name):
    alg = tiling_algebra(samples.tiled_fixtures()[name])
    assert check_gentle(alg.presentation.quiver, alg.presentation.relations).gentle
    assert oriented_cycles_have_relations(alg)


def test_euler_genus_zero_fixtures():
    for t in samples.tiled_fixtures().values():
        assert t.genus() == 0


@pytest.mark.parametrize("name", ["pent", "loop", "digon", "kron", "pants"])
def test_completion_and_collapse(name):
    t = samples.tiled_fixtures()[name]
    comp = complete_to_triangulation(t)
    assert all(len(x.walk) == 3 for x in comp.tiling.tiles)
    assert len(comp.added_points) == len(t.unmarked)
    assert set(t.arcs) <= set(comp.tiling.arcs)
    collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
    assert presentations_isomorphic(collapsed, tiling_algebra(t))


def test_completion_identity_on_triangulations():
    t = samples.pent_tiling()
    comp = complete_to_triangulation(t)
    assert comp.added_points == () and comp.added_arcs == ()
    alg = tiling_algebra(comp.tiling)
    assert presentations_isomorphic(
        collapse_presentation(alg, t.arc_ids()), tiling_algebra(t))


def test_collapse_keep_all_is_identity():
    t = samples.kron_tiling()
    alg = tiling_algebra(t)
    assert presentations_isomorphic(collapse_presentation(alg, t.arc_ids()), alg)


def test_collapse_unknown_arc_rejected():
    alg = tiling_algebra(samples.kron_tiling())
    with pytest.raises(InputError):
        collapse_presentation(alg, ["nope"])


def test_text_roundtrip():
    t = samples.digon_tiling()
    again = Tiling.parse(t.text())
    assert tile_kinds(again) == tile_kinds(t)
    assert again.arcs == t.arcs


def test_genus_one_tiling():
    # same five boundary points and chords as the pentagon, but with the
    # fan at p1 flipped: the map closes into a single 9-gon on a torus
    # with one boundary component
    text = """
    tiling
    boundary b1 marked p1 p2 p3 p4 p5
    arc x p1 p3
    arc y p1 p4
    fan p1 : x.1 y.1
    fan p3 : x.2
    fan p4 : y.2
    end
    """
    t = validate_tiling(text)
    assert tile_kinds(t) == [("m-gon", 9)]
    assert t.genus() == 1
    alg = tiling_algebra(t)
    assert len(alg.arrows) == 1
    assert check_gentle(alg.presentation.quiver, alg.presentation.relations).gentle


DISCONNECTED = """\
tiling
boundary b1 marked p1 p2 p3 p4 p5
boundary b2 marked q1 q2 q3 q4
arc x p1 p3
arc y p1 p4
fan p1 : x.1 y.1
fan p3 : x.2
fan p4 : y.2
end
"""


def test_disconnected_surface_rejected():
    # the one-holed torus of test_genus_one_tiling beside a disc: chi = 0
    # with two boundary components passes the Euler check
    with pytest.raises(TilingRejection, match="^surface is disconnected$"):
        validate_tiling(DISCONNECTED)


def test_genus_one_arcs_and_pivots():
    from tilealg.arcs import (TrivialArc, arc_to_string, intersection_vector,
                              pivot_move, string_to_arc)
    from tilealg.artheory import hooks
    from tilealg.oracle import realize_string_module
    from tilealg.strings import enumerate_strings
    text = """
    tiling
    boundary b1 marked p1 p2 p3 p4 p5
    arc x p1 p3
    arc y p1 p4
    fan p1 : x.1 y.1
    fan p3 : x.2
    fan p4 : y.2
    end
    """
    t = validate_tiling(text)
    alg = tiling_algebra(t)
    p = alg.presentation
    for w in enumerate_strings(p, max_len=4):
        arc = string_to_arc(t, alg, w)
        assert arc_to_string(t, alg, arc) == w
        assert intersection_vector(t, arc) == \
            realize_string_module(p, w).dim_vector(p)
        h = hooks(p, w)
        for end, want in (("s", h.w_left), ("t", h.w_right)):
            moved = pivot_move(t, alg, arc, end)
            got = None if isinstance(moved, TrivialArc) else \
                arc_to_string(t, alg, moved)
            assert (got is None and want.is_zero) or got == want


def test_random_tilings_are_valid_and_gentle():
    for t in samples.random_tilings(7, 40):
        alg = tiling_algebra(t)
        assert check_gentle(alg.presentation.quiver,
                            alg.presentation.relations).gentle
        assert oriented_cycles_have_relations(alg)


def test_random_tilings_complete_and_collapse():
    for t in samples.random_tilings(99, 12):
        comp = complete_to_triangulation(t)
        assert all(len(x.walk) == 3 for x in comp.tiling.tiles)
        collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
        assert presentations_isomorphic(collapsed, tiling_algebra(t))


# -- completion output, pinned ---------------------------------------------

def _completion_record(t):
    """Everything a completion fixes: the completed tiling's text (arcs and
    fan orders), the added points and arcs, and each tile's walk."""
    comp = complete_to_triangulation(t)
    c = comp.tiling
    lines = [c.text(), " ".join(comp.added_points), " ".join(comp.added_arcs)]
    lines += [" ".join(f"{c.kind[d]}:{c.label[d]}:{c.slot[d]}" for d in tile.walk)
              for tile in c.tiles]
    return "\n".join(lines) + "\n"


def _completion_cases():
    for name, t in samples.tiled_fixtures().items():
        yield f"fixture-{name}", t
    for i, t in enumerate(samples.random_tilings(99, 12)):
        yield f"random99-{i}", t
    for n in (4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 200, 240):
        yield f"disc-{n}", samples.random_disc_tiling(random.Random(n), n, n)
    for seed in range(4):
        yield f"loop-{seed}", samples.random_loop_annulus(random.Random(seed))
        yield f"digon-{seed}", samples.random_digon_annulus(random.Random(seed))
    yield "kron", samples.random_kron_annulus(random.Random(0))
    # the least point sits at two corners of a face that needs splits, so
    # the corner tie-break, and with it the walk start, picks the diagonal
    yield "genus-one", Tiling.parse(GENUS_ONE)
    for seed in range(4):
        t = samples.random_digon_annulus(random.Random(seed))
        yield f"digon-a-{seed}", Tiling.parse(re.sub(r"\bp(\d)", r"a\1", t.text()))


GENUS_ONE = """\
tiling
boundary b1 marked p1 p2 p3 p4 p5
arc x p1 p3
arc y p1 p4
fan p1 : x.1 y.1
fan p3 : x.2
fan p4 : y.2
end
"""


# sha256[:16] of _completion_record, recorded before completion moved from
# rebuilding a Tiling per split to local splits on one dart map
COMPLETION_DIGESTS = {
    "fixture-pent": "3853c6c9a515af4d",
    "fixture-loop": "2fc0d9e156a483d3",
    "fixture-digon": "e72e627770bd6a73",
    "fixture-kron": "a17ccb4ff52eaf89",
    "fixture-pants": "9bc188e3ccb976f5",
    "random99-0": "00aa887ed63094a4",
    "random99-1": "5c650901a2a4179f",
    "random99-2": "a17ccb4ff52eaf89",
    "random99-3": "ac87d1f1098c3e65",
    "random99-4": "40fe4a94265f3e80",
    "random99-5": "26510120755a6c65",
    "random99-6": "2f8494e6c053f6f5",
    "random99-7": "d43129e0be3b4144",
    "random99-8": "c821d98c84cbefe6",
    "random99-9": "a17ccb4ff52eaf89",
    "random99-10": "ef1f622e504aa08f",
    "random99-11": "5226d6392354a57e",
    "disc-4": "f4e16eee56d90db0",
    "disc-5": "0adc681b8e18f8c3",
    "disc-6": "2348ad40e8446a04",
    "disc-8": "9a8b6ac5e69019af",
    "disc-12": "c46e83a0e0779c6c",
    "disc-16": "9a233c471daa3e3b",
    "disc-24": "4e9f16d0841a9290",
    "disc-32": "d4c6c3ad98366e55",
    "disc-48": "8f016522846c4e74",
    "disc-64": "8a3055cae15b927e",
    "disc-96": "020442df57d251a6",
    "disc-128": "dcd0716617db6a4e",
    "disc-160": "c81086039d7eefbf",
    "disc-200": "0310a15571a9a638",
    "disc-240": "630e9411909efb62",
    "loop-0": "680299e6f3767067",
    "digon-0": "dcbb8a30a0d19032",
    "loop-1": "461e72ced7b997c6",
    "digon-1": "bcdb8a4ce0a38915",
    "loop-2": "2f39d55196783dc9",
    "digon-2": "ac3065f8658af781",
    "loop-3": "461e72ced7b997c6",
    "digon-3": "bcdb8a4ce0a38915",
    "kron": "a17ccb4ff52eaf89",
    "genus-one": "6926701e18e85813",
    "digon-a-0": "76b0effb395dc911",
    "digon-a-1": "c5b3879dab81a973",
    "digon-a-2": "601dc87e5de003af",
    "digon-a-3": "c5b3879dab81a973",
}


def test_completion_output_is_pinned():
    got = {name: hashlib.sha256(_completion_record(t).encode()).hexdigest()[:16]
           for name, t in _completion_cases()}
    assert got == COMPLETION_DIGESTS


@pytest.mark.parametrize("make", [
    lambda: samples.random_disc_tiling(random.Random(300), 300, 300),
    lambda: samples.random_loop_annulus(random.Random(3)),
    lambda: samples.random_digon_annulus(random.Random(2)),
    samples.pants_tiling,
], ids=["disc300", "loop", "digon", "pants"])
def test_completion_builds_one_tiling_per_piercing_plus_one(monkeypatch, make):
    t = make()
    built = []
    build = Tiling._build

    def counting_build(self):
        built.append(self)
        build(self)

    monkeypatch.setattr(Tiling, "_build", counting_build)
    comp = complete_to_triangulation(t)
    assert comp.added_arcs, "the case must need splits"
    # piercings and splits run on the dart map: only the result is built
    assert built == [comp.tiling]
