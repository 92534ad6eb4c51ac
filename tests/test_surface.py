import hashlib
import random
import re

import pytest

from agreements import agree
from tilealg import samples
from tilealg.algebra import InputError
from tilealg.surface import (Tiling, TilingRejection, collapse_presentation,
                             complete_to_triangulation,
                             presentations_isomorphic, tiling_algebra)


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


def test_many_holes_are_placed_in_their_tiles():
    # 400 unmarked components, each placed in its own tile through one
    # index of the monogons and digons, not by a scan of every face
    n = 200
    t = Tiling.parse(samples.many_holes_text(n))
    held = {x.unmarked: (x.kind, sorted(map(t.side, x.walk)))
            for x in t.tiles if x.unmarked is not None}
    assert held == {**{f"u{i}": ("type-I", [f"x{i}"]) for i in range(1, n + 1)},
                    **{f"v{i}": ("type-II", [f"y{i}", f"z{i}"]) for i in range(1, n + 1)}}
    alg = tiling_algebra(t)
    p = alg.presentation
    ends = {a: (p.s(a), p.t(a)) for a in p.arrows}
    assert len(ends) == len(p.relations) == 3 * n
    # each loop squared, and each two-cycle both ways
    assert {(ends[x], ends[y]) for x, y in p.relations} == {
        pair for i in range(1, n + 1) for pair in (
            ((f"x{i}", f"x{i}"), (f"x{i}", f"x{i}")),
            ((f"y{i}", f"z{i}"), (f"z{i}", f"y{i}")),
            ((f"z{i}", f"y{i}"), (f"y{i}", f"z{i}")))}
    comp = complete_to_triangulation(t)
    assert presentations_isomorphic(
        collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids()), alg)


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
        Tiling.parse(text)


def test_monogon_without_component_rejected():
    text = """
    tiling
    boundary b1 marked p q
    arc x p p
    fan p : x.1 x.2
    end
    """
    with pytest.raises(TilingRejection, match="monogon"):
        Tiling.parse(text)


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
        Tiling.parse(text)


def test_small_disc_rejected():
    text = """
    tiling
    boundary b1 marked p1 p2 p3
    end
    """
    with pytest.raises(TilingRejection, match="four marked points"):
        Tiling.parse(text)


def test_disc_with_exactly_four_points_accepted():
    text = """
    tiling
    boundary b1 marked p1 p4 p3 p2
    arc x p1 p3
    fan p1 : x.1
    fan p3 : x.2
    end
    """
    t = Tiling.parse(text)
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
        Tiling.parse(text)


@pytest.mark.parametrize("make, message", [
    (lambda: Tiling.parse("boundary b1 marked p q r s\nend\n"),
     "missing 'tiling' header line"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {"b": ("x",)}, {}, {}),
     "boundary b both marked and unmarked"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {"c": ()}, {}, {}),
     "unmarked c must name 1 or 2 arcs"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", "r")},
                              {"p": [("x", 1)], "r": [("x", "2")]}),
     "fans must list every arc end exactly once"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", "r", "q")},
                              {"p": [("x", 1)], "r": [("x", 2)]}),
     "arc x has ends ('p', 'r', 'q'), not two points"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": 5}, {}),
     "arc x has ends 5, not two points"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": "pr"},
                              {"p": [("x", 1)], "r": [("x", 2)]}),
     "arc x has ends 'pr', not two points"),
    (lambda: Tiling.from_data({"b": 5}, {}, {}, {}),
     "marked boundary b has points 5, not a sequence"),
    (lambda: Tiling.from_data({"b": "pqrs"}, {}, {}, {}),
     "marked boundary b has points 'pqrs', not a sequence"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {"c": 5}, {}, {}),
     "unmarked c has placement 5, not a sequence"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {}, {"p": 5}),
     "fan at p has slots 5, not a sequence"),
    (lambda: Tiling.from_data({"b1": ["p", "q", "r", "s"], "b2": []}, {}, {}, {}),
     "marked boundary b2 has no points"),
], ids=["no_header", "marked_and_unmarked", "no_placement_arcs", "slot_end_not_an_int",
        "three_arc_ends", "arc_ends_int", "arc_ends_str", "marked_int", "marked_str",
        "unmarked_int", "fan_int", "marked_no_points"])
def test_rejections_the_cli_cannot_reach(make, message):
    # the CLI sniffs the header, and its parser refuses a second boundary
    # line, an empty placement, a slot end that is not an int or an arc
    # line without two ends before from_data sees them
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


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
    t = samples.tiled_fixtures()[name]
    agree("fans", t, tiling_algebra(t))


def test_euler_genus_zero_fixtures():
    for t in samples.tiled_fixtures().values():
        assert t.genus() == 0


@pytest.mark.parametrize("name", ["pent", "loop", "digon", "kron", "pants"])
def test_completion_and_collapse(name):
    t = samples.tiled_fixtures()[name]
    agree("collapse", t, tiling_algebra(t))


def test_completion_identity_on_triangulations():
    t = samples.pent_tiling()
    agree("collapse", t, tiling_algebra(t))


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


def _small_description(rng):
    """Four random dicts for `Tiling.from_data`: one or two marked
    boundaries of up to four of six points, up to three arcs between
    them with every end in its point's fan, in random order, and maybe
    one unmarked component placed inside one or two of those arcs."""
    points = [f"p{i}" for i in range(6)]
    marked = {f"b{c}": rng.sample(points, rng.randint(0, 4))
              for c in range(rng.randint(1, 2))}
    ends = [q for pts in marked.values() for q in pts]
    arcs = {f"x{i}": (rng.choice(ends), rng.choice(ends))
            for i in range(rng.randint(0, 3))} if ends else {}
    unmarked = {f"u{c}": rng.sample(sorted(arcs), rng.randint(1, min(2, len(arcs))))
                for c in range(rng.randint(0, 1))} if arcs else {}
    fans = {}
    for arc, (q, r) in arcs.items():
        fans.setdefault(q, []).append((arc, 1))
        fans.setdefault(r, []).append((arc, 2))
    for slots in fans.values():
        rng.shuffle(slots)
    return marked, unmarked, arcs, fans


def test_accepted_descriptions_survive_their_text():
    # whatever from_data accepts, the parser accepts as its text, and
    # reads back to the same text (a marked boundary without points was
    # once accepted, with genus -1, and its text refused)
    rng, kept = random.Random(0), 0
    for _ in range(2000):
        try:
            t = Tiling.from_data(*_small_description(rng))
        except (InputError, TilingRejection):
            continue
        kept += 1
        assert Tiling.parse(t.text()).text() == t.text()
    assert kept == 177


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
    t = Tiling.parse(text)
    assert tile_kinds(t) == [("m-gon", 9)]
    assert t.genus() == 1
    alg = tiling_algebra(t)
    assert len(alg.arrows) == 1
    agree("fans", t, alg)


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
    # with two boundary components would pass an Euler count alone
    with pytest.raises(TilingRejection, match="^surface is disconnected$"):
        Tiling.parse(DISCONNECTED)


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
    t = Tiling.parse(text)
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
        agree("fans", t, tiling_algebra(t))


def test_random_tilings_complete_and_collapse():
    for t in samples.random_tilings(99, 12):
        agree("collapse", t, tiling_algebra(t))


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


SPLIT_CASES = [
    lambda: samples.random_disc_tiling(random.Random(300), 300, 300),
    lambda: samples.random_loop_annulus(random.Random(3)),
    lambda: samples.random_digon_annulus(random.Random(2)),
    samples.pants_tiling,
]


@pytest.mark.parametrize("make", SPLIT_CASES, ids=["disc300", "loop", "digon", "pants"])
def test_completion_builds_no_tiling_from_a_description(monkeypatch, make):
    t = make()

    def build_from_description(self):
        raise AssertionError("completion built a dart map from a description")

    monkeypatch.setattr(Tiling, "_build", build_from_description)
    # piercings and splits grow a copy of t, which becomes the result
    comp = complete_to_triangulation(t)
    assert comp.added_arcs, "the case must need splits"


def _tiling_view(t):
    """Tile kinds with the (kind, label) of each side in walk order, the
    tile names, and the face_of position of every (label, slot)."""
    return ([(x.kind, [(t.kind[d], t.label[d]) for d in x.walk]) for x in t.tiles],
            t.tile_names,
            {(t.label[d], t.slot[d]): at for d, at in t.face_of.items()})


def test_dart_keys_are_made_with_the_darts():
    # the dart order (face starts, tile order, the completion heap) reads
    # the (kind, label, slot) text key each dart got when it was made;
    # splits and piercings on a copied tiling keep them in step
    for t in samples.random_tilings(7, 40) + [make() for make in SPLIT_CASES]:
        for m in (t, complete_to_triangulation(t).tiling):
            assert m.key == [(k, str(label), str(slot))
                             for k, label, slot in zip(m.kind, m.label, m.slot)]


def test_every_walk_starts_at_its_least_key_dart():
    # one dart order: each tile walk starts at its least-key dart and the
    # tiles go in the order of those keys, before and after completion
    bare = [Tiling.from_data({"b": [f"p{i}" for i in range(n)]}, {}, {}, {})
            for n in range(4, 41)]
    for t in samples.random_tilings(7, 40) + [make() for make in SPLIT_CASES] + bare:
        for m in (t, complete_to_triangulation(t).tiling):
            walks = [x.walk for x in m.tiles]
            assert all(w[0] == min(w, key=m.key.__getitem__) for w in walks), m.text()
            assert walks == sorted(walks, key=lambda w: m.key[w[0]]), m.text()


def test_dart_keys_of_names_that_need_quoting():
    # the key texts are `str` of the label and the slot, however the
    # names quote: a quote of either kind, a backslash, a non-ASCII letter
    text = samples.pants_tiling().text()
    for old, new in (("x", "x'\"\\"), ("b1", "b'1"), ("b3", "b\"3"), ("y", "ÿ")):
        text = re.sub(rf"\b{old}\b", new.replace("\\", "\\\\"), text)
    t = Tiling.parse(text)
    assert {"x'\"\\", "ÿ"} <= set(t.arcs)
    for m in (t, complete_to_triangulation(t).tiling):
        assert m.key == [(k, str(label), str(slot))
                         for k, label, slot in zip(m.kind, m.label, m.slot)]


def test_completion_matches_its_rebuilt_description():
    for t in samples.random_tilings(7, 40) + [make() for make in SPLIT_CASES]:
        c = complete_to_triangulation(t).tiling
        again = Tiling.from_data(c.marked, c.unmarked, c.arcs, c.fans)
        assert _tiling_view(c) == _tiling_view(again), c.text()


# -- the invariants the map's construction guarantees ----------------------

def _invariant_tilings():
    """The fixtures, a random batch and the mixed-hole disc: 46 tilings."""
    return (list(samples.tiled_fixtures().values()) + samples.random_tilings(99, 40)
            + [Tiling.parse(samples.many_holes_text(50))])


def test_outer_orbits_are_the_reversed_boundaries():
    # the orbits of d -> rot_next(d ^ 1) through the reversed boundary
    # darts are exactly those of each marked component, and no tile holds
    # one: the rotation takes each point's forward boundary dart to its
    # reversed one, so the face walks close up without a guard
    for t in _invariant_tilings():
        for m in (t, complete_to_triangulation(t).tiling):
            rseg = [d for d, kind in enumerate(m.kind) if kind == "rseg"]
            orbits = []
            for d0 in rseg:
                if not any(d0 in orbit for orbit in orbits):
                    orbit, d = {d0}, m.rot_next[d0 ^ 1]
                    while d != d0:
                        assert d not in orbit and len(orbit) < len(m.tail)
                        orbit.add(d)
                        d = m.rot_next[d ^ 1]
                    orbits.append(orbit)
            assert sorted(map(sorted, orbits)) == sorted(
                sorted(d for d in rseg if m.label[d][0] == comp) for comp in m.marked)
            assert not any(m.kind[d] == "rseg" for x in m.tiles for d in x.walk)
            assert sorted(d for x in m.tiles for d in x.walk) == [
                d for d, kind in enumerate(m.kind) if kind != "rseg"]


def test_no_two_small_faces_share_their_arcs():
    # two all-arc monogons or digons on the same arcs would leave a
    # rotation cycle without its point's boundary darts, so each placement
    # names at most one face
    for t in _invariant_tilings():
        for m in (t, complete_to_triangulation(t).tiling):
            keys = [tuple(sorted(m.label[d] for d in x.walk)) for x in m.tiles
                    if len(x.walk) <= 2 and all(m.kind[d] == "arc" for d in x.walk)]
            assert len(keys) == len(set(keys)), m.text()


def test_completion_adds_one_arc_per_piercing_and_split():
    # piercing a monogon or digon makes a face of m + 3 darts, and each
    # split turns an m-gon (m >= 4) into an (m - 1)-gon and a triangle, so
    # completion ends after U + sum(m - 3) arcs over the pierced faces
    for t in _invariant_tilings():
        comp = complete_to_triangulation(t)
        pierced = [len(x.walk) + 3 * (x.unmarked is not None) for x in t.tiles]
        assert len(comp.added_arcs) == len(t.unmarked) + sum(m - 3 for m in pierced)
        assert len(comp.tiling.arcs) == len(t.arcs) + len(comp.added_arcs)
