import hashlib

import pytest

from agreements import agree
from test_homs import KRON_BAD_OPERANDS
from tilealg import homs, samples
from tilealg.algebra import InputError
from tilealg.arcs import (ArcRejection, ClosedCurveClass, EndDescriptor,
                          PermissibleArc, TrivialArc, arc_to_string,
                          band_to_closed_curve, check_permissible,
                          closed_curve_to_band, crossing_word, format_arc,
                          hom_dim_geometric, intersection_number,
                          intersection_vector, normalize, pivot_move, pivot_points,
                          reverse_arc, string_to_arc, tau_inverse_arc, _transit_table)
from tilealg.strings import (StringWord, _walk_error, canonicalize, detect_band,
                             enumerate_strings, parse_string)
from tilealg.surface import (Tiling, collapse_presentation,
                             complete_to_triangulation, tiling_algebra)


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
    agree("round_trip", *fixture[1:], bound=8)


def test_reverse_matches_inverse_string(fixture):
    agree("reverse", *fixture[1:], bound=5)


def test_intersection_vector_is_dimension_vector(fixture):
    agree("crossings", *fixture[1:], bound=8)


def test_permissibility_rejections():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    # break the pivot: claim the transit cuts a different corner
    bad = PermissibleArc(arc.darts, ((arc.pivots[0][0] + 1, arc.pivots[0][1]),),
                         arc.start, arc.end)
    assert check_permissible(t, alg, bad) == "(3)(b) violation at crossings 0,1"
    # break the winding: routes beyond one full wrap around an annular tile
    tl = samples.tiled_fixtures()["loop"]
    algl = tiling_algebra(tl)
    a2 = string_to_arc(tl, algl, StringWord.trivial("x", 1))
    d = a2.start if tl.tiles[a2.start.tile].kind == "type-I" else a2.end
    far = EndDescriptor(d.tile, d.corner, d.route + 2)
    bad2 = PermissibleArc(a2.darts, a2.pivots,
                          far if d is a2.start else a2.start,
                          a2.end if d is a2.start else far)
    assert check_permissible(tl, algl, bad2) == \
        "start (3)(a) violation: winding number exceeds one"
    # a slide-off end is not minimal
    hug = EndDescriptor(arc.start.tile, (arc.start.corner + 1) %
                        len(t.tiles[arc.start.tile].walk), 0)
    bad3 = PermissibleArc(arc.darts, arc.pivots, hug, arc.end)
    assert check_permissible(t, alg, bad3) == \
        "start not minimal: end segment can slide off the crossed arc"
    # a closed curve through one crossing has a transit across its wrap
    one = ClosedCurveClass(arc.darts[:1], arc.pivots, 1, 1)
    assert check_permissible(t, alg, one) == "(3)(b) violation at crossings 0,1"
    # a corner outside the start tile, and a route that lands on the
    # crossed side but runs the wrong way round the disc tile
    m = len(t.tiles[arc.start.tile].walk)
    for start, reason in ((arc.start._replace(corner=m + 1), "malformed descriptor"),
                          (arc.start._replace(route=arc.start.route - m),
                           "disc-tile route out of range")):
        assert check_permissible(t, alg, arc._replace(start=start)) == f"start {reason}"
    # a type I end with route 0 can slide off the crossed arc
    assert d is a2.start
    assert check_permissible(tl, algl, a2._replace(start=d._replace(route=0))) == \
        "start not minimal: end segment can slide off the crossed arc"


def test_malformed_arc_reasons_are_exact():
    # recorded while each transit was derived from the tile walk per call
    t = samples.pent_tiling()
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    assert arc.pivots == ((1, False),)

    def with_pivot(pivot, darts=arc.darts):
        return PermissibleArc(darts, (pivot,), arc.start, arc.end)

    # corners are read modulo the size of the transit triangle
    for corner, want in ((0, "(3)(b) violation at crossings 0,1"),
                         (2, "(3)(b) violation at crossings 0,1"),
                         (4, None), (-2, None)):
        assert check_permissible(t, alg, with_pivot((corner, False))) == want
    assert check_permissible(t, alg, with_pivot((1, True))) == \
        "(3)(b) violation at crossings 0,1"
    # a crossing of a boundary side is refused before the walk, with the
    # one text every arcs function gives
    seg = t.tiles[1].walk[2]
    assert t.kind[seg] == "seg"
    for darts, i in (((arc.darts[0], seg), 1), ((seg, arc.darts[0]), 0)):
        for pivot in ((0, False), (0, True), (2, False)):
            bad = with_pivot(pivot, darts)
            reason = f"malformed: crossing {i} is not an arc side"
            assert check_permissible(t, alg, bad) == reason
            for call in (lambda: arc_to_string(t, alg, bad), lambda: format_arc(t, bad)):
                with pytest.raises(ArcRejection) as exc:
                    call()
                assert str(exc.value) == reason


@pytest.mark.parametrize("name, word, slots", [
    ("loop", "a1", "('z1', 2) ('z2', 1)"),
    ("digon", "a1", "('z1', 2) ('z3', 1)"),
    ("pants", "a1", "('x', 1) ('z4', 1)"),
])
def test_transit_between_dropped_arcs_has_no_fan_adjacency(name, word, slots):
    # an arc of the completed triangulation read in the collapsed algebra:
    # its first transit passes an arc the collapse dropped
    t = samples.tiled_fixtures()[name]
    tri = complete_to_triangulation(t).tiling
    alg_tri = tiling_algebra(tri)
    collapsed = collapse_presentation(alg_tri, t.arc_ids())
    arc = string_to_arc(tri, alg_tri, parse_string(alg_tri.presentation, word))
    assert check_permissible(tri, collapsed, arc) == \
        f"(3)(b) violation: no fan adjacency for slots {slots}"
    # the collapsed algebra's arrow a1, a path through dropped arcs, cuts
    # no corner of the triangulation, so it gives no arc there
    with pytest.raises(InputError) as exc:
        string_to_arc(tri, collapsed, parse_string(collapsed.presentation, "a1"))
    assert str(exc.value) == "an arrow of the algebra cuts no corner of its tiling"


def test_pivot_equals_hooks(fixture):
    agree("pivots", *fixture[1:], bound=6)


def test_pivot_commutation(fixture):
    agree("pivots_commute", *fixture[1:], bound=6)


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
                          EndDescriptor(t.face_of[dy ^ 1][0], 0, 1))
    # the ends are checked before the walk: with ends that land on the
    # crossed sides only the (3)(b) fault is left
    assert check_permissible(t, alg, cand) == "start descriptor does not land on the crossed side"
    assert check_permissible(t, alg, _normal(t, cand)) == "(3)(b) violation at crossings 0,1"


def test_pivot_rejects_trivial_arc():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    with pytest.raises(InputError):
        pivot_move(t, alg, TrivialArc(), "s")


def test_tau_matches_algebraic_translate(fixture):
    agree("tau", *fixture[1:], bound=6)


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


def test_reversed_band_curves_spell_the_same_band():
    """The band curves of the fixtures and of random tilings, with
    exponents 1 to 3: the reverse is permissible, reversing twice gives
    the curve back, and both read back as the same (band, exponent)."""
    curves = 0
    for t in list(samples.tiled_fixtures().values()) + samples.random_tilings(7, 40):
        alg = tiling_algebra(t)
        band = detect_band(alg.presentation)
        for n in ((1, 2, 3) if band is not None else ()):
            curve = band_to_closed_curve(t, alg, band, n)
            back = reverse_arc(t, curve)
            assert check_permissible(t, alg, back) is None
            assert back != curve and reverse_arc(t, back) == curve
            assert closed_curve_to_band(t, alg, back) == \
                closed_curve_to_band(t, alg, curve) == (band, n)
            curves += 1
    assert curves == 36
    t = samples.kron_tiling()
    alg = tiling_algebra(t)
    curve = band_to_closed_curve(t, alg, detect_band(alg.presentation), 2)
    for x in (curve, reverse_arc(t, curve)):
        assert repr(closed_curve_to_band(t, alg, x)) == "(<band a1 a2->, 2)"


def test_band_curve_requires_band_input():
    t = samples.tiled_fixtures()["loop"]
    alg = tiling_algebra(t)
    assert detect_band(alg.presentation) is None
    # a cyclic word that is not a band: the loop arrow squared
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    fake = ClosedCurveClass(arc.darts, arc.pivots + ((0, False),), 2, 1)
    with pytest.raises(Exception):
        closed_curve_to_band(t, alg, fake)
    # an arc, even the trivial one, reads back as a string, not a band
    for x in (arc, TrivialArc()):
        with pytest.raises(InputError, match="arcs correspond to strings, not bands"):
            closed_curve_to_band(t, alg, x)
    # a string gives an arc and a band a closed curve, never the other way
    tk = samples.tiled_fixtures()["kron"]
    algk = tiling_algebra(tk)
    with pytest.raises(InputError, match="see string_to_arc"):
        band_to_closed_curve(tk, algk, parse_string(algk.presentation, "a1 a2-"))
    with pytest.raises(InputError, match="see band_to_closed_curve"):
        string_to_arc(tk, algk, detect_band(algk.presentation))


@pytest.mark.parametrize("name", sorted(KRON_BAD_OPERANDS))
def test_arc_bijections_reject_bad_operands(name):
    t = samples.tiled_fixtures()["kron"]
    alg = tiling_algebra(t)
    for to_curve in (string_to_arc, band_to_closed_curve):
        with pytest.raises(InputError):
            to_curve(t, alg, KRON_BAD_OPERANDS[name]())


@pytest.mark.parametrize("name, value", [
    ("max_len", "3"), ("max_len", 2.5), ("max_len", True),
    ("exponent", "2"), ("exponent", 2.5), ("exponent", True),
])
def test_integer_arguments_must_be_ints(name, value):
    """A bool is not taken for an int either."""
    t = samples.kron_tiling()
    alg = tiling_algebra(t)
    calls = {"max_len": lambda: enumerate_strings(samples.fix_b(), value),
             "exponent": lambda: band_to_closed_curve(t, alg, detect_band(alg.presentation),
                                                      value)}
    with pytest.raises(InputError) as err:
        calls[name]()
    assert str(err.value) == f"{name} must be an int, got {value!r}"


def test_rep_type_geometric(fixture):
    agree("rep_type", *fixture[1:])


def test_hom_dim_geometric_matches_strings(fixture):
    agree("geometric_hom", *fixture[1:], bound=5)


def test_hom_dim_geometric_band_pairs():
    t = samples.tiled_fixtures()["kron"]
    assert agree("geometric_hom", t, tiling_algebra(t), bound=4) > 0


def test_arcs_crossing_no_common_arc_have_no_hom(monkeypatch):
    """Arcs and closed curves whose crossing words share no arc give 0,
    without entering a run walk, on strings of at most 3 letters and the
    band witnesses of random tilings: they share no match key."""
    def unavailable(fx, sx):
        raise AssertionError("a run walk was entered for disjoint arcs")

    monkeypatch.setattr(homs, "_runs", unavailable)
    cases = 0
    for t in samples.random_tilings(7, 40):
        alg = tiling_algebra(t)
        band = detect_band(alg.presentation)
        arcs = [string_to_arc(t, alg, w) for w in enumerate_strings(alg.presentation, 3)]
        arcs += [band_to_closed_curve(t, alg, band, n) for n in (1, 2)] if band else []
        words = [set(crossing_word(t, arc)) for arc in arcs]
        for a, crossed_a in zip(arcs, words):
            for b, crossed_b in zip(arcs, words):
                if crossed_a.isdisjoint(crossed_b):
                    assert hom_dim_geometric(t, alg, a, b) == 0, (format_arc(t, a),
                                                                  format_arc(t, b))
                    cases += 1
    assert cases == 678


def test_random_tilings_cross_check():
    for t in samples.random_tilings(314159, 14):
        alg = tiling_algebra(t)
        for name in ("round_trip", "crossings", "pivots", "tau"):
            agree(name, t, alg, bound=5)


def test_format_arc_is_stable():
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    assert format_arc(t, arc) == format_arc(t, arc)
    assert format_arc(t, arc).startswith("arc-word ")
    assert " x @p1 y " in format_arc(t, arc)


def test_moves_and_checks_read_their_arc_once(monkeypatch):
    """Each arc given to a function that takes an algebra is read through
    `_arc` once per algebra, by the first query; later queries read it 0
    times, and so do the arcs the library made (by string_to_arc,
    band_to_closed_curve, a pivot or a tau move).  A reversal and a normal
    form take no algebra, and read the arcs they are given on every call."""
    import tilealg.arcs as arcs
    reads = []

    def counted(t, arc):
        reads.append(arc)
        return read(t, arc)

    read = arcs._arc
    monkeypatch.setattr(arcs, "_arc", counted)
    for t in samples.tiled_fixtures().values():
        alg = tiling_algebra(t)
        on_tiling = [lambda a: reverse_arc(t, a), lambda a: normalize(t, a)]
        on_alg = [lambda a: check_permissible(t, alg, a),
                  lambda a: hom_dim_geometric(t, alg, a, a)]
        on_open = on_alg + [lambda a: pivot_move(t, alg, a, "s"),
                            lambda a: pivot_move(t, alg, a, "t"),
                            lambda a: tau_inverse_arc(t, alg, a),
                            lambda a: arc_to_string(t, alg, a)]
        made = [(string_to_arc(t, alg, w), on_open) for w in fixture_strings(alg, bound=4)]
        made += [(moved, on_open) for arc, _ in list(made)
                 for moved in (pivot_move(t, alg, arc, "s"), tau_inverse_arc(t, alg, arc))
                 if moved]
        band = detect_band(alg.presentation)
        made += [(band_to_closed_curve(t, alg, band, n),
                  on_alg + [lambda a: closed_curve_to_band(t, alg, a)])
                 for n in ((1, 2) if band else ())]
        for arc, queries in made:
            given = type(arc)(*arc)    # an equal arc the library did not make
            reads.clear()
            for query in queries:
                query(arc)
                query(given)
            assert [x is given for x in reads] == [True], format_arc(t, arc)
            for query in on_tiling:
                reads.clear()
                query(arc)
                assert reads == [arc], format_arc(t, arc)
            reads.clear()
            check_permissible(t, tiling_algebra(t), arc)   # another algebra reads it
            assert reads == [arc]


def _answer(call):
    """What a call gives: its value, or ("refused", the type and the
    message of its refusal)."""
    try:
        return call()
    except (InputError, ArcRejection) as exc:
        return "refused", type(exc).__name__, str(exc)


def _refused(answer):
    return isinstance(answer, tuple) and answer[:1] == ("refused",)


def test_refused_arc_gives_the_same_message_twice():
    """Asking again gives the same refusal (a refused verdict is kept with
    its arc), and a record that `_arc` refuses leaves nothing in the arcs
    store."""
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    e = EndDescriptor(0, 0, 1)
    bad = list(_corruptions(arc)) + [
        PermissibleArc((4,), (), e, e), PermissibleArc((5, 0), ((0, False),), e, e),
        PermissibleArc((2, 0), ((0, False),), e, e), PermissibleArc((99,), (), e, e),
        PermissibleArc((4,), (), EndDescriptor(9, 0, 1), e), "not an arc"]
    calls = [lambda a: check_permissible(t, alg, a), lambda a: arc_to_string(t, alg, a),
             lambda a: pivot_move(t, alg, a, "s"),
             lambda a: pivot_move(t, alg, a, "t"), lambda a: tau_inverse_arc(t, alg, a),
             lambda a: closed_curve_to_band(t, alg, a),
             lambda a: hom_dim_geometric(t, alg, a, a)]
    refusals = 0
    for a in bad:
        for call in calls:
            first = _answer(lambda: call(a))
            assert _answer(lambda: call(a)) == first, (a, first)
            refusals += _refused(first)
    assert refusals >= 2 * len(bad)
    for a in bad[-3:]:
        assert id(a) not in alg._arcs


def _session(t, strings):
    """Arc, pivot, tau and geometric Hom queries on the arcs of some
    strings, made once on an algebra of their own: key -> query on an
    algebra.  Some queries also take the arcs their algebra makes."""
    base = tiling_algebra(t)
    arcs = [string_to_arc(t, base, w) for w in strings]
    queries = {}
    for i, (w, arc) in enumerate(zip(strings, arcs)):
        queries["arc", i] = lambda alg, w=w: string_to_arc(t, alg, w)
        queries["string", i] = lambda alg, a=arc: arc_to_string(t, alg, a)
        queries["tau", i] = lambda alg, a=arc: tau_inverse_arc(t, alg, a)
        queries["tau tau", i] = lambda alg, a=arc: _answer(
            lambda: tau_inverse_arc(t, alg, tau_inverse_arc(t, alg, a) or a))
        for end in "st":
            queries["pivot", i, end] = lambda alg, a=arc, end=end: pivot_move(t, alg, a, end)
            queries["made pivot", i, end] = lambda alg, w=w, end=end: [
                pivot_move(t, alg, string_to_arc(t, alg, w), e) for e in (end, "s", "t")]
        for j in range(min(i + 1, 4)):
            queries["hom", i, j] = lambda alg, a=arc, b=arcs[j]: (
                hom_dim_geometric(t, alg, a, b), hom_dim_geometric(t, alg, b, a))
    return queries


def test_arcs_answers_do_not_depend_on_the_store():
    """The same answers on a fresh algebra per query and on one warm
    algebra, with the queries run forwards and backwards; a repeated
    move gives the same object."""
    for t in samples.random_tilings(2718, 8):
        p = tiling_algebra(t).presentation
        strings = [w for w in enumerate_strings(p, max_len=3)
                   if w.kind != "trivial" or w.vertex in t.arcs]
        queries = _session(t, strings)
        fresh = {k: _answer(lambda: q(tiling_algebra(t))) for k, q in queries.items()}
        for order in (list(queries), list(reversed(queries))):
            alg = tiling_algebra(t)
            assert {k: _answer(lambda: queries[k](alg)) for k in order} == fresh, t.text()
        for k, q in queries.items():
            if k[0] in ("pivot", "tau"):
                assert q(alg) is q(alg)


def test_arcs_store_stays_within_its_bound():
    from tilealg.strings import _VIEWS
    t = samples.tiled_fixtures()["pent"]
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    moved = pivot_move(t, alg, arc, "s")
    given = [PermissibleArc(*arc) for _ in range(3 * _VIEWS)]   # all alive, so ids differ
    for a in given:
        assert check_permissible(t, alg, a) is None
        assert len(alg._arcs) <= _VIEWS
    assert pivot_move(t, alg, arc, "s") == moved
    assert arc_to_string(t, alg, given[0]) == parse_string(alg.presentation, "a1")


def _well_typed_records(t):
    """Well-typed records of 1 and 2 crossings over every dart of t, with
    pivots of corner 0 or 1 read either way and two pairs of ends."""
    darts = range(len(t.tail))
    pivots = [(c, inv) for c in (0, 1) for inv in (False, True)]
    last = EndDescriptor(len(t.tiles) - 1, 1, -1)
    ends = [(EndDescriptor(0, 0, 1), last), (last, EndDescriptor(0, 5, 2))]
    for d in darts:
        yield from (PermissibleArc((d,), (), s, e) for s, e in ends)
        yield from (ClosedCurveClass((d,), (x,), 1, 1) for x in pivots)
        for d2 in darts:
            yield from (PermissibleArc((d, d2), (x,), s, e) for x in pivots for s, e in ends)
            yield from (ClosedCurveClass((d, d2), (x, y), 2, 1) for x in pivots
                        for y in pivots[::3])


def _arcs_calls(t, alg):
    """Every public arcs function of one arc record, by name, but
    check_permissible, whose reason the others are held to.  A reversal
    keeps its darts and pivots and a format its middle, so that an arc
    and its normal form answer alike."""
    def middle(text):   # without the end descriptors of an open arc
        return text.split(" : ")[1] if " : " in text else text
    return {"crossing_word": lambda a: crossing_word(t, a),
            "intersection_vector": lambda a: intersection_vector(t, a),
            "intersection_number": lambda a: intersection_number(t, a),
            "pivot_points": lambda a: pivot_points(t, a),
            "format_arc": lambda a: middle(format_arc(t, a)),
            "normalize": lambda a: normalize(t, a),
            "reverse_arc": lambda a: reverse_arc(t, a)[:2],
            "arc_to_string": lambda a: arc_to_string(t, alg, a),
            "pivot_move s": lambda a: pivot_move(t, alg, a, "s"),
            "pivot_move t": lambda a: pivot_move(t, alg, a, "t"),
            "tau_inverse_arc": lambda a: tau_inverse_arc(t, alg, a),
            "closed_curve_to_band": lambda a: closed_curve_to_band(t, alg, a),
            "hom_dim_geometric": lambda a: hom_dim_geometric(t, alg, a, a)}


ON_TILING = {"crossing_word", "intersection_vector", "intersection_number",
             "pivot_points", "format_arc", "normalize", "reverse_arc"}
# the calls that take only the other kind of arc, and refuse it with InputError
OTHER_KIND = {PermissibleArc: {"closed_curve_to_band"},
              ClosedCurveClass: {"arc_to_string", "pivot_move s", "pivot_move t",
                                 "tau_inverse_arc"}}


def _normal(t, a):
    """The gamma_{s,t} copy of an open arc record (each end one side behind
    the side it lands on, route +1); a closed curve is its own."""
    if isinstance(a, ClosedCurveClass):
        return a
    (f, i), (g, j) = t.face_of[a.darts[0]], t.face_of[a.darts[-1] ^ 1]
    return a._replace(start=EndDescriptor(f, (i - 1) % len(t.tiles[f].walk), 1),
                      end=EndDescriptor(g, (j - 1) % len(t.tiles[g].walk), 1))


def _held_to_the_verdict(t, alg, records):
    """Run each record through every public arcs function.  A call of the
    other kind of arc refuses it with InputError.  When check_permissible
    accepts the record, and for a function of the tiling alone when the
    tiling accepts its sides and ends, each call answers as it does for
    the record's normal form; every other call raises ArcRejection with
    exactly check_permissible's reason.  The number of refused records."""
    calls, refused = _arcs_calls(t, alg), 0
    for a in records:
        reason = check_permissible(t, alg, a)
        by_tiling = reason is not None and reason.startswith(("malformed: crossing",
                                                               "start ", "end "))
        for name, call in calls.items():
            got = _answer(lambda: call(a))
            if name in OTHER_KIND[type(a)]:
                assert got[:2] == ("refused", "InputError"), (name, a, got)
            elif reason is None or (name in ON_TILING and not by_tiling):
                assert got == _answer(lambda: call(_normal(t, a))), (name, a, reason)
            else:
                assert got == ("refused", "ArcRejection", reason), (name, a, got)
        refused += reason is not None
    return refused


def test_impossible_arcs_are_refused(fixture):
    """Every public arcs call on a well-typed record answers as for its
    normal form or raises check_permissible's reason, never another
    exception; a crossing of a boundary side is refused by its index."""
    _, t, alg = fixture
    assert _held_to_the_verdict(t, alg, _well_typed_records(t))
    boundary = {d for d in range(len(t.tail)) if t.kind[d] != "arc"}
    for a in _well_typed_records(t):
        i = next((i for i, d in enumerate(a.darts) if d in boundary), None)
        if i is not None:
            assert check_permissible(t, alg, a) == f"malformed: crossing {i} is not an arc side"


def _moved_ends(t, arc):
    """Copies of an open arc with one end's corner or route moved: in and
    out of range, off and back onto the crossed side, round a full turn."""
    for name in ("start", "end"):
        x = getattr(arc, name)
        m = len(t.tiles[x.tile].walk)
        for corner, route in ((x.corner - 1, x.route + 1), (x.corner + 1, x.route - 1),
                              (x.corner, x.route + 1), (x.corner, -x.route),
                              (x.corner, x.route + m), (x.corner, x.route - m),
                              (x.corner + m, x.route), (-1, x.route), (m + 4, 4)):
            yield arc._replace(**{name: EndDescriptor(x.tile, corner, route)})


def test_arcs_whose_ends_are_refused_are_refused_everywhere(fixture):
    """An open arc whose ends check_permissible refuses is refused with its
    reason by every arcs function; with ends it accepts, the arc answers
    as the arc of its string."""
    _, t, alg = fixture
    records = []
    for w in fixture_strings(alg, bound=3):
        if w.kind == "trivial" and w.vertex not in t.arcs:
            continue
        arc = string_to_arc(t, alg, w)
        assert _normal(t, arc) == arc
        records += _moved_ends(t, arc)
    refused = _held_to_the_verdict(t, alg, records)
    assert refused
    t = samples.pent_tiling()
    alg = tiling_algebra(t)
    arc = string_to_arc(t, alg, parse_string(alg.presentation, "a1"))
    bad = arc._replace(start=EndDescriptor(0, 9, 4))
    assert check_permissible(t, alg, bad) == "start malformed descriptor"
    calls = [call for name, call in _arcs_calls(t, alg).items()
             if name not in OTHER_KIND[PermissibleArc]]
    for call in calls + [lambda a: hom_dim_geometric(t, alg, a, arc),
                         lambda a: hom_dim_geometric(t, alg, arc, a)]:
        assert _answer(lambda: call(bad)) == ("refused", "ArcRejection",
                                             "start malformed descriptor")


def _transit_walks(alg):
    """(open, closed) counts of the walks of at most 5 crossings through
    the transit table of alg, each checked to spell a string."""
    t, table, p = alg.tiling, _transit_table(alg), alg.presentation
    opened = closed = 0
    todo = [((d,), ()) for d, kind in enumerate(t.kind) if kind == "arc"]
    for darts, codes in todo:
        for inverse in (False, True):
            d_out, _, _, code, _ = table[darts[-1], inverse]
            if code is None:
                continue
            spelled = codes + (code,)
            if d_out == darts[0]:   # the walk closes up across the wrap pair
                closed += 1
                assert _walk_error(p, spelled, True) is None, (t.text(), darts)
            if t.kind[d_out] == "arc" and len(darts) < 5:
                opened += 1
                assert _walk_error(p, spelled, False) is None, (t.text(), darts)
                todo.append((darts + (d_out,), spelled))
    return opened, closed


def test_every_transit_walk_spells_a_string():
    # the (3)(b) walk through the transit table of a tiling algebra, or of
    # one collapsed from its completion, spells a string, open or closed,
    # so the verdict needs no minimality step
    tilings = (list(samples.tiled_fixtures().values()) + samples.random_tilings(5, 120)
               + [Tiling.parse(samples.many_holes_text(3))])
    tiled = [0, 0]
    collapsed = [0, 0]
    for t in tilings:
        for i, n in enumerate(_transit_walks(tiling_algebra(t))):
            tiled[i] += n
        tri = complete_to_triangulation(t).tiling
        alg_tri = tiling_algebra(tri)
        for keep in (t.arcs, sorted(tri.arcs)[::2]):
            for i, n in enumerate(_transit_walks(collapse_presentation(alg_tri, keep))):
                collapsed[i] += n
    assert tiled == [780, 128]
    assert collapsed == [1040, 144]


def test_each_arc_is_judged_once_per_algebra(monkeypatch):
    """A made arc runs `_verdict` once, in its permissibility assertion.
    An arc given to the functions of an algebra runs it once, whether it
    is refused or not, and its gamma_{s,t} form takes its codes and
    verdict without running it.  A function of the tiling alone runs the
    checks of the tiling on every call."""
    import tilealg.arcs as arcs
    runs = []

    def counted(t, arc, alg=None):
        runs.append((arc, alg is not None))
        return verdict(t, arc, alg)

    verdict = arcs._verdict
    monkeypatch.setattr(arcs, "_verdict", counted)
    accepted = 0
    for t in samples.tiled_fixtures().values():
        alg = tiling_algebra(t)
        calls = _arcs_calls(t, alg)
        for w in fixture_strings(alg, bound=3):
            if w.kind == "trivial" and w.vertex not in t.arcs:
                continue
            runs.clear()
            arc = string_to_arc(t, alg, w)
            assert runs == [(arc, True)]
            for a in _moved_ends(t, arc):
                runs.clear()
                for name, call in calls.items():
                    if name not in ON_TILING:
                        _answer(lambda: call(a))
                        _answer(lambda: call(a))
                assert [r for r in runs if r[0][:2] == a[:2]] == [(a, True)], a
                accepted += check_permissible(t, alg, a) is None
                for name in ON_TILING:
                    runs.clear()
                    _answer(lambda: calls[name](a))
                    assert runs == [(a, False)], (name, a)
    assert accepted


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
