import hashlib

import pytest

from tilealg import samples
from tilealg.algebra import InputError
from tilealg.arcs import (ClosedCurveClass, EndDescriptor, PermissibleArc,
                          TrivialArc, arc_to_string, band_to_closed_curve,
                          check_permissible, closed_curve_to_band,
                          crossing_word, format_arc, hom_dim_geometric,
                          intersection_number, intersection_vector, normalize,
                          pivot_move, pivot_points, rep_type_geometric,
                          reverse_arc, string_to_arc, tau_inverse_arc)
from tilealg.artheory import hook_left, hook_right, is_injective_string, tau_inverse
from tilealg.homs import hom_dim
from tilealg.oracle import realize_string_module
from tilealg.strings import (StringWord, canonicalize, detect_band,
                             enumerate_strings, parse_string)
from tilealg.surface import tiling_algebra


@pytest.fixture(scope="module", params=["pent", "loop", "digon", "kron", "pants"])
def fixture(request):
    t = samples.tiled_fixtures()[request.param]
    return request.param, t, tiling_algebra(t)


def fixture_strings(alg, bound=8):
    return enumerate_strings(alg.presentation, max_len=bound)


def test_pent_arrow_arc_crossing_word():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    assert crossing_word(t, arc) == ("x", "y")
    assert pivot_points(t, arc) == ("p1",)
    assert check_permissible(t, alg, arc) is None


def test_zero_string_gives_trivial_arc():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, StringWord.zero())
    assert isinstance(arc, TrivialArc)
    assert intersection_number(t, arc) == 0


def test_loop_trivial_arc_has_type_one_wrap():
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, StringWord.trivial("x", 1))
    ends = [arc.start, arc.end]
    kinds = sorted(t.tiles[e.tile].kind for e in ends)
    assert kinds == ["m-gon", "type-I"]
    type1 = next(e for e in ends if t.tiles[e.tile].kind == "type-I")
    assert type1.winding(len(t.tiles[type1.tile].walk)) == 1


def test_digon_trivial_arc_type_two_winding_zero():
    t = samples.tiled_fixtures()["digon"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, StringWord.trivial("x", 1))
    type2 = next(e for e in (arc.start, arc.end)
                 if t.tiles[e.tile].kind == "type-II")
    assert type2.winding(len(t.tiles[type2.tile].walk)) == 0
    assert type2.route == 1


def test_loop_letter_arc_crosses_twice():
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    assert crossing_word(t, arc) == ("x", "x")
    assert intersection_vector(t, arc) == {"x": 2}


def test_round_trip_all_strings(fixture):
    name, t, alg = fixture
    for w in fixture_strings(alg):
        arc = string_to_arc(t, alg, w)
        assert arc_to_string(t, alg, arc) == w
        # descriptor normal form is idempotent
        assert normalize(t, arc) == arc


def test_reverse_matches_inverse_string(fixture):
    name, t, alg = fixture
    for w in fixture_strings(alg, bound=5):
        arc = string_to_arc(t, alg, w)
        assert arc_to_string(t, alg, reverse_arc(t, arc)) == w.inv()


def test_intersection_vector_is_dimension_vector(fixture):
    name, t, alg = fixture
    p = alg.presentation
    for w in fixture_strings(alg):
        arc = string_to_arc(t, alg, w)
        rep = realize_string_module(p, w)
        assert intersection_vector(t, arc) == rep.dim_vector(p)


def test_permissibility_rejections():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    # break the pivot: claim the transit cuts a different corner
    bad = PermissibleArc(arc.darts, ((arc.pivots[0][0] + 1, arc.pivots[0][1]),),
                         arc.start, arc.end)
    assert "(3)(b)" in check_permissible(t, alg, bad)
    # break the winding: routes beyond one full wrap around an annular tile
    tl = samples.tiled_fixtures()["loop"]
    algl = tiling_algebra(tl)
    a2 = string_to_arc(tl, algl, StringWord.trivial("x", 1))
    d = a2.start if tl.tiles[a2.start.tile].kind == "type-I" else a2.end
    far = EndDescriptor(d.tile, d.corner, d.route + 2)
    bad2 = PermissibleArc(a2.darts, a2.pivots,
                          far if d is a2.start else a2.start,
                          a2.end if d is a2.start else far)
    assert "(3)(a)" in check_permissible(tl, algl, bad2)
    # a slide-off end is not minimal
    hug = EndDescriptor(arc.start.tile, (arc.start.corner + 1) %
                        len(t.tiles[arc.start.tile].walk), 0)
    bad3 = PermissibleArc(arc.darts, arc.pivots, hug, arc.end)
    assert "not minimal" in check_permissible(t, alg, bad3) or \
        "descriptor" in check_permissible(t, alg, bad3)
    # a closed curve through one crossing has a transit across its wrap
    one = ClosedCurveClass(arc.darts[:1], arc.pivots, 1, 1)
    assert check_permissible(t, alg, one) == "(3)(b) violation at crossings 0,1"


def test_pivot_equals_hooks(fixture):
    name, t, alg = fixture
    p = alg.presentation
    for w in fixture_strings(alg, bound=6):
        arc = string_to_arc(t, alg, w)
        for end, hook in (("s", hook_left), ("t", hook_right)):
            moved = pivot_move(t, alg, arc, end)
            want = hook(p, w).string
            got = StringWord.zero() if isinstance(moved, TrivialArc) \
                else arc_to_string(t, alg, moved)
            assert got == want, (name, w.text(), end)


def test_pivot_commutation(fixture):
    name, t, alg = fixture
    for w in fixture_strings(alg, bound=6):
        arc = string_to_arc(t, alg, w)
        ab = pivot_move(t, alg, arc, "s")
        if not isinstance(ab, TrivialArc):
            ab = pivot_move(t, alg, ab, "t")
        ba = pivot_move(t, alg, arc, "t")
        if not isinstance(ba, TrivialArc):
            ba = pivot_move(t, alg, ba, "s")
        if isinstance(ab, TrivialArc) or isinstance(ba, TrivialArc):
            continue  # an intermediate died; order matters only up to zero
        assert ab == ba, (name, w.text())


def test_disjoint_crossings_rejected():
    # disc with six points, two disjoint chords: the word (x, y) violates
    # (3)(b) since the arcs share no endpoint
    from tilealg.surface import Tiling, tiling_algebra
    text = """
    tiling
    boundary b1 marked p1 p6 p5 p4 p3 p2
    arc x p1 p3
    arc y p4 p6
    fan p1 : x.1
    fan p3 : x.2
    fan p4 : y.1
    fan p6 : y.2
    end
    """
    t = Tiling.parse(text)
    alg = tiling_algebra(t)
    assert not alg.presentation.arrows  # no fan adjacency anywhere
    dx = next(d for d in range(len(t.tail))
              if t.kind[d] == "arc" and t.label[d] == "x")
    dy = next(d for d in range(len(t.tail))
              if t.kind[d] == "arc" and t.label[d] == "y")
    cand = PermissibleArc((dx, dy), ((0, False),),
                          EndDescriptor(t.face_of[dx][0], 0, 1),
                          EndDescriptor(t.face_of[t.twin[dy]][0], 0, 1))
    err = check_permissible(t, alg, cand)
    assert err is not None and "(3)(b)" in err


def test_pivot_rejects_trivial_arc():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    with pytest.raises(InputError):
        pivot_move(t, alg, TrivialArc(), "s")


def test_tau_matches_algebraic_translate(fixture):
    name, t, alg = fixture
    p = alg.presentation
    for w in fixture_strings(alg, bound=6):
        arc = string_to_arc(t, alg, w)
        moved = tau_inverse_arc(t, alg, arc)
        alg_tau = tau_inverse(p, w)
        if alg_tau is None:
            assert moved is None
            assert is_injective_string(p, w)
        else:
            assert moved is not None
            assert canonicalize(arc_to_string(t, alg, moved)) == \
                canonicalize(alg_tau)


def test_tau_pent_simple():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    p = alg.presentation
    # the simple at y is not injective; tau^{-1} moves it to the simple at x
    w = StringWord.trivial("y", p.epsilon["a1"])
    moved = tau_inverse_arc(t, alg, string_to_arc(t, alg, w))
    assert canonicalize(arc_to_string(t, alg, moved)).text() == "triv x +"


def test_tau_loop_cases():
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    p = alg.presentation
    d = parse_string(p, "a1")
    assert tau_inverse_arc(t, alg, string_to_arc(t, alg, d)) is None
    s = StringWord.trivial("x", p.epsilon["a1"])
    moved = tau_inverse_arc(t, alg, string_to_arc(t, alg, s))
    assert canonicalize(arc_to_string(t, alg, moved)).text() == "triv x +"


def test_band_curve_roundtrip_and_powers():
    t = samples.tiled_fixtures()["kron"]
    alg = tiling_algebra(t)
    band = detect_band(alg.presentation)
    curve = band_to_closed_curve(t, alg, band, 1)
    assert crossing_word(t, curve) == ("x", "y")
    assert intersection_number(t, curve) == 2
    back, n = closed_curve_to_band(t, alg, curve)
    assert back == band and n == 1
    squared = band_to_closed_curve(t, alg, band, 2)
    assert crossing_word(t, squared) == ("x", "y", "x", "y")
    back2, n2 = closed_curve_to_band(t, alg, squared)
    assert back2 == band and n2 == 2


def test_band_curve_requires_band_input():
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    assert detect_band(alg.presentation) is None
    # a cyclic word that is not a band: the loop arrow squared
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    fake = ClosedCurveClass(arc.darts, arc.pivots + ((0, False),), 2, 1)
    with pytest.raises(Exception):
        closed_curve_to_band(t, alg, fake)


def test_rep_type_geometric(fixture):
    name, t, alg = fixture
    kind, witness = rep_type_geometric(t, alg)
    assert (kind == "infinite") == (detect_band(alg.presentation) is not None)
    if name == "kron":
        assert kind == "infinite"
        assert crossing_word(t, witness) == ("x", "y")
        assert intersection_number(t, witness) >= 2
        assert check_permissible(t, alg, witness) is None
    else:
        assert kind == "finite"


def test_hom_dim_geometric_matches_strings(fixture):
    name, t, alg = fixture
    p = alg.presentation
    words = fixture_strings(alg, bound=5)
    for v in words:
        for w in words:
            av = string_to_arc(t, alg, v)
            aw = string_to_arc(t, alg, w)
            assert hom_dim_geometric(t, alg, av, aw) == hom_dim(p, v, w), \
                (name, v.text(), w.text())


def test_hom_dim_geometric_band_pairs():
    t = samples.tiled_fixtures()["kron"]
    alg = tiling_algebra(t)
    p = alg.presentation
    band = detect_band(p)
    curve = band_to_closed_curve(t, alg, band, 1)
    for w in enumerate_strings(p, max_len=4):
        arc = string_to_arc(t, alg, w)
        assert hom_dim_geometric(t, alg, arc, curve) == hom_dim(p, w, band)
        assert hom_dim_geometric(t, alg, curve, arc) == hom_dim(p, band, w)


def test_arcs_equivalent_classes():
    from tilealg.arcs import arcs_equivalent
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    p = alg.presentation
    plus = string_to_arc(t, alg, StringWord.trivial("x", 1))
    minus = string_to_arc(t, alg, StringWord.trivial("x", -1))
    assert not arcs_equivalent(t, plus, minus, oriented=True)
    assert arcs_equivalent(t, plus, minus, oriented=False)
    assert arcs_equivalent(t, plus, plus)
    assert not arcs_equivalent(t, plus, TrivialArc())
    d_arc = string_to_arc(t, alg, parse_string(p, "a1"))
    assert not arcs_equivalent(t, plus, d_arc, oriented=False)


def test_random_tilings_cross_check():
    # the bijection, pivots and tau on randomized surfaces, both string
    # orientations, cross-checked against the algebraic side
    from tilealg.artheory import hooks
    for t in samples.random_tilings(314159, 14):
        alg = tiling_algebra(t)
        p = alg.presentation
        bound = 4 if detect_band(p) is not None else 5
        for w0 in enumerate_strings(p, max_len=bound):
            for w in {w0, w0.inv()}:
                if w.kind == "trivial" and w.vertex not in t.arcs:
                    continue
                arc = string_to_arc(t, alg, w)
                assert arc_to_string(t, alg, arc) == w
                rep = realize_string_module(p, w)
                assert intersection_vector(t, arc) == rep.dim_vector(p)
                h = hooks(p, w)
                for end, want in (("s", h.w_left), ("t", h.w_right)):
                    moved = pivot_move(t, alg, arc, end)
                    got = StringWord.zero() if isinstance(moved, TrivialArc) \
                        else arc_to_string(t, alg, moved)
                    assert got == want, (t.text(), w.text(), end)
                ta = tau_inverse_arc(t, alg, arc)
                tw = tau_inverse(p, w)
                if tw is None:
                    assert ta is None
                else:
                    assert canonicalize(arc_to_string(t, alg, ta)) == \
                        canonicalize(tw)


def test_format_arc_is_stable():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    assert format_arc(t, arc) == format_arc(t, arc)
    assert format_arc(t, arc).startswith("arc-word ")
    assert " x @p1 y " in format_arc(t, arc)


def test_format_arc_one_crossing_closed_curve():
    # never permissible, but a hand-built curve still formats: its one
    # pivot is the wrap pair of the crossing with itself
    t = samples.tiled_fixtures()["pent"]
    d = t._slot_dart[("x", 1)]
    curve = ClosedCurveClass((d,), ((0, False),), 1, 1)
    assert pivot_points(t, curve) == ("p3",)
    assert format_arc(t, curve) == "closed-curve ( x @p3 ) ^1"


# -- arc moves pinned on generated families --------------------------------


def _corruptions(arc):
    """Copies of a gamma_{s,t} arc with one pivot corner moved by -1 or +1,
    one inverse flag flipped, or the start route moved by +1, and the
    closed curve through its first crossing alone."""
    for i, (c, inv) in enumerate(arc.pivots):
        for pivot in ((c - 1, inv), (c + 1, inv), (c, not inv)):
            pivots = arc.pivots[:i] + (pivot,) + arc.pivots[i + 1:]
            yield PermissibleArc(arc.darts, pivots, arc.start, arc.end)
    s = arc.start
    yield PermissibleArc(arc.darts, arc.pivots,
                         EndDescriptor(s.tile, s.corner, s.route + 1), arc.end)
    yield ClosedCurveClass(arc.darts[:1], (arc.pivots or ((0, False),))[:1], 1, 1)


def _arc_moves_digest():
    tilings = list(samples.tiled_fixtures().values()) + samples.random_tilings(7, 40)
    h = hashlib.sha256()
    for t in tilings:
        alg = tiling_algebra(t)
        p = alg.presentation
        for w0 in enumerate_strings(p, max_len=4):
            for w in (w0, w0.inv()):
                if w.kind == "trivial" and w.vertex not in t.arcs:
                    continue
                arc = string_to_arc(t, alg, w)
                moved = [pivot_move(t, alg, arc, end) for end in "st"]
                tau = tau_inverse_arc(t, alg, arc)
                lines = [format_arc(t, a) for a in [arc] + moved]
                lines.append("injective" if tau is None else format_arc(t, tau))
                lines += [str(check_permissible(t, alg, bad))
                          for bad in _corruptions(arc)]
                h.update(("\n".join(lines) + "\n").encode())
        band = detect_band(p)
        for n in ((1, 2) if band is not None else ()):
            curve = band_to_closed_curve(t, alg, band, n)
            back, m = closed_curve_to_band(t, alg, curve)
            h.update(f"{format_arc(t, curve)} {back.text()} {m}\n".encode())
    return h.hexdigest()[:16]


def test_arc_moves_are_pinned():
    # recorded before the t move became the s move of the reversed arc
    assert _arc_moves_digest() == "dbfd5dade2709dd3"
