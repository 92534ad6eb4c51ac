"""The input contract of the API: names are non-empty strs, collections
any non-str iterables, ints not bools, and a malformed record raises an
InputError that names it.  Every entry point either returns or raises
InputError or Rejection, whatever junk sits in one of its record slots;
and tuples, generators and sets stay accepted wherever lists are."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tilealg import samples
from tilealg.algebra import (GentlePresentation, InputError, Quiver, Rejection, check_gentle,
                             parse_quiver)
from tilealg.arcs import (ClosedCurveClass, EndDescriptor, PermissibleArc, TrivialArc,
                          arc_to_string, band_to_closed_curve,
                          check_permissible, closed_curve_to_band, crossing_word, format_arc,
                          hom_dim_geometric, intersection_number, intersection_vector,
                          normalize, pivot_move, pivot_points, rep_type_geometric,
                          reverse_arc, string_to_arc, tau_inverse_arc)
from tilealg.artheory import ar_quiver_dot, hooks
from tilealg.homs import (Window, factor_count_bruteforce, hom_dim, sub_count_bruteforce,
                          window_key)
from tilealg.oracle import (BandModuleSpec, MatrixRep, hom_dim_oracle, realize_band_module,
                            realize_string_module)
from tilealg.strings import (Band, Letter, StringWord, canonicalize, detect_band,
                             enumerate_strings, is_valid_string, letter_source,
                             letter_target, parse_band, parse_string, valid_pair,
                             validate_string)
from tilealg.surface import (Tiling, TilingAlgebra, TilingArrow, collapse_presentation,
                             complete_to_triangulation, presentations_isomorphic,
                             tiling_algebra)

VERTICES = ["0", "1", "2"]
ARROWS = [("a0", "0", "1"), ("b0", "0", "1"), ("a1", "1", "2"), ("b1", "1", "2")]
RELATIONS = [("a0", "b1"), ("b0", "a1")]
CHAIN = GentlePresentation.from_data(VERTICES, ARROWS, RELATIONS)
BAND = parse_band(CHAIN, "a0 b0-")
WORD = parse_string(CHAIN, "a0 b0- a0")
PAIRS = [("a0", False), ("b0", True)]
DIGON = samples.digon_tiling()
DIGON_ALG = tiling_algebra(DIGON)
DIGON_DATA = (DIGON.marked, DIGON.unmarked, DIGON.arcs, DIGON.fans)
COMPLETED_ALG = tiling_algebra(complete_to_triangulation(DIGON).tiling)
DIGON_WORD = parse_string(DIGON_ALG.presentation, DIGON_ALG.presentation.arrows[0])
PENT = samples.pent_tiling()
PENT_ALG = tiling_algebra(PENT)
NOT_AN_ARC = "arc 5 is not a TrivialArc, PermissibleArc or ClosedCurveClass"
END = EndDescriptor(0, 0, 1)
NO_DARTS = "arc has no darts; the arc without crossings is TrivialArc()"


def _no_crossings():   # refused where it is built, so each call below is too
    return PermissibleArc((), (), END, END)


# the pent disc with the algebra of the pair of pants, and the Kronecker
# annulus with the algebra of another parse of it
PANTS_ALG = tiling_algebra(samples.pants_tiling())
PENT_ARC = string_to_arc(PENT, PENT_ALG, parse_string(PENT_ALG.presentation, "a1"))
KRON = samples.kron_tiling()
KRON_ALG = tiling_algebra(KRON)
KRON_AGAIN = tiling_algebra(samples.kron_tiling())
KRON_CURVE = rep_type_geometric(KRON, KRON_ALG)[1]
NOT_OWN = "the algebra is not built on this tiling; pass tiling_algebra(t) with t"
REP = realize_string_module(CHAIN, WORD)   # dims 0: 2, 1: 2, 2: 0
FIX_A_REP = realize_string_module(samples.fix_a(), parse_string(samples.fix_a(), "c"))
NOT_A_PRESENTATION = "expected a GentlePresentation, got int"
# the pent disc's one arrow a1: x -> y, entering slot y.1, given the target x
PENT_STRAY = {"a1": PENT_ALG.arrows["a1"]._replace(target="x")}
KRONECKER = samples.kronecker()   # arrows a, b


def _bad_letter(letter):   # the complaint of the one letter check
    return f"letter {letter!r} needs a nonempty str arrow and a bool inverse"


# entry point -> (call, the valid arguments whose slots are fuzzed)
ENTRY_POINTS = {
    "GentlePresentation.from_data": (GentlePresentation.from_data,
                                     (VERTICES, ARROWS, RELATIONS)),
    "Quiver.from_arrows": (Quiver.from_arrows, (VERTICES, ARROWS)),
    "check_gentle": (lambda r: check_gentle(CHAIN.quiver, r), (RELATIONS,)),
    "Tiling.from_data": (Tiling.from_data, DIGON_DATA),
    "validate_string": (lambda l: validate_string(CHAIN, l), (PAIRS,)),
    "Band.from_letters": (lambda l: Band.from_letters(CHAIN, l), (PAIRS,)),
    "BandModuleSpec": (BandModuleSpec, (BAND, 2, 3)),
    "realize_band_module": (lambda s, prime: realize_band_module(CHAIN, s, prime),
                            (BandModuleSpec(BAND, 2, 3), 5)),
    "realize_string_module": (lambda w, prime: realize_string_module(CHAIN, w, prime),
                              (WORD, 5)),
    "window_key": (lambda x, w: window_key(CHAIN, x, w), (WORD, Window(0, 2, None, 2))),
    "collapse_presentation": (lambda keep: collapse_presentation(COMPLETED_ALG, keep),
                              (["x", "y"],)),
    "hom_dim": (lambda v, w: hom_dim(CHAIN, v, w), (WORD, BAND)),
    "hooks": (lambda w: hooks(CHAIN, w), (WORD,)),
    "string_to_arc": (lambda w: string_to_arc(DIGON, DIGON_ALG, w), (DIGON_WORD,)),
    "hom_dim_oracle": (lambda prime, dims, mats: hom_dim_oracle(
        CHAIN, MatrixRep(prime, dims, mats), REP), (REP.prime, REP.dims, REP.mats)),
}

LEAVES = (st.integers(-2, 3) | st.booleans() | st.floats() | st.none()
          | st.sampled_from(["", "0", "1", "a0", "b0", "x", "p", "word", "trivial"]))
HASHABLE = st.recursive(LEAVES, lambda inner: st.tuples(inner, inner), max_leaves=3)
JUNK = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                    | st.tuples(inner, inner) | st.dictionaries(HASHABLE, inner, max_size=2),
                    max_leaves=6)


@st.composite
def _junk_slot(draw, value):
    """(path, junk): a path from `value` down to one of its slots and the
    junk to put there.  A step is ("item", i) into a sequence or a record,
    ("value", k) into a dict, or ("key", k), which replaces the key k."""
    path = []
    while isinstance(value, (list, tuple, dict)) and len(tuple(value)) \
            and draw(st.integers(0, 3)):
        if isinstance(value, dict):
            kind = draw(st.sampled_from(["value", "key"]))
            k = draw(st.sampled_from(list(value)))
        else:
            kind, k = "item", draw(st.integers(0, len(tuple(value)) - 1))
        path.append((kind, k))
        if kind == "key":
            return path, draw(HASHABLE)
        value = value[k] if kind == "value" else tuple(value)[k]
    return path, draw(JUNK)


def _put(value, path, junk):
    """`value` with `junk` at the end of `path`; a record is rebuilt by
    its own constructor."""
    if not path:
        return junk
    (kind, k), rest = path[0], path[1:]
    if isinstance(value, dict):
        out = dict(value)
        if kind == "key":
            out[junk] = out.pop(k)
        else:
            out[k] = _put(value[k], rest, junk)
        return out
    items = list(value)
    items[k] = _put(items[k], rest, junk)
    if isinstance(value, list):
        return items
    return type(value)(*items) if hasattr(type(value), "_fields") else tuple(items)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(st.data())
def test_junk_in_any_record_slot_is_input_error_or_rejection(data):
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)))
    call, args = ENTRY_POINTS[name]
    i = data.draw(st.integers(0, len(args) - 1))
    path, junk = data.draw(_junk_slot(args[i]))
    try:
        call(*args[:i], _put(args[i], path, junk), *args[i + 1:])
    except (InputError, Rejection):
        pass


def _kinds(items, ordered=True):
    """The collection `items` as a list, a tuple, a generator and, when
    its order carries nothing, a set."""
    kinds = [list(items), tuple(items), (x for x in items)]
    return kinds + ([] if ordered else [set(items)])


def test_tuples_generators_and_sets_are_read_like_lists():
    p = GentlePresentation.from_data(VERTICES, ARROWS, RELATIONS)
    for vertices in _kinds(VERTICES, False):
        assert GentlePresentation.from_data(vertices, ARROWS, RELATIONS) == p
    for arrows in _kinds(ARROWS, False) + _kinds([list(a) for a in ARROWS]):
        assert GentlePresentation.from_data(VERTICES, arrows, RELATIONS) == p
    for relations in _kinds(RELATIONS, False):
        assert GentlePresentation.from_data(VERTICES, ARROWS, relations) == p
    for record in (list, tuple, iter):
        relations = [record(r) for r in RELATIONS]
        assert GentlePresentation.from_data(VERTICES, ARROWS, relations) == p
    assert check_gentle(p.quiver, (iter(r) for r in RELATIONS)).gentle
    text = DIGON.text()
    for kind in (list, tuple, iter):
        t = Tiling.from_data({k: kind(v) for k, v in DIGON.marked.items()},
                             {k: kind(v) for k, v in DIGON.unmarked.items()},
                             {k: kind(v) for k, v in DIGON.arcs.items()},
                             {k: kind(map(kind, v)) for k, v in DIGON.fans.items()})
        assert t.text() == text
    for letters in _kinds([["a0", False], ("b0", True)]):
        assert validate_string(CHAIN, letters) == parse_string(CHAIN, "a0 b0-")
    for letters in _kinds([["a0", False], ("b0", True)]):
        assert Band.from_letters(CHAIN, letters) == BAND
    for keep in _kinds(["x", "y"], False):
        assert presentations_isomorphic(collapse_presentation(COMPLETED_ALG, keep), DIGON_ALG)
    assert window_key(CHAIN, WORD, (0, 2, None, 2)) == \
        window_key(CHAIN, WORD, Window(0, 2, None, 2))
    assert realize_band_module(CHAIN, (BAND, 1, 2)).dims == \
        realize_band_module(CHAIN, BandModuleSpec(BAND, 1, 2)).dims


@pytest.mark.parametrize("call, message", [
    (lambda: GentlePresentation.from_data("12", [("a", "1", "2")], []),
     "vertices '12' are not a collection"),
    (lambda: GentlePresentation.from_data(["1", "2"], [(1, "1", "2")], []),
     "arrow (1, '1', '2') has id 1, not a name"),
    (lambda: GentlePresentation.from_data(["1", "2"], [("", "1", "2")], []),
     "arrow ('', '1', '2') has id '', not a name"),
    (lambda: GentlePresentation.from_data(5, [], []), "vertices 5 are not a collection"),
    (lambda: GentlePresentation.from_data(["1"], None, []),
     "arrows None are not a collection"),
    (lambda: GentlePresentation.from_data([["1"]], [], []), "vertex ['1'] is not a name"),
    (lambda: GentlePresentation.from_data(["1", "2"], [(["a"], "1", "2")], []),
     "arrow (['a'], '1', '2') has id ['a'], not a name"),
    (lambda: GentlePresentation.from_data(["1", "2"], [("a", "1", "2")], [(["a"], "a")]),
     "relation (['a'], 'a') is not a pair of arrows"),
    (lambda: GentlePresentation.from_data(["1", "2"], [("a", "1", ["2"])], []),
     "arrow 'a' uses undeclared vertex"),
    (lambda: GentlePresentation.from_data(["1", "2"], [("a", "1", "2")], None),
     "relations None are not a collection"),
    (lambda: validate_string(CHAIN, [5]), "letter 5 is not an (arrow, inverse) pair"),
    (lambda: validate_string(CHAIN, [("a0", False, 1)]),
     "letter ('a0', False, 1) is not an (arrow, inverse) pair"),
    (lambda: validate_string(CHAIN, "a0"), "letters 'a0' are not a collection"),
    (lambda: Band.from_letters(CHAIN, [5]), "letter 5 is not an (arrow, inverse) pair"),
    (lambda: Band.from_letters(CHAIN, [("a0", False, 1)]),
     "letter ('a0', False, 1) is not an (arrow, inverse) pair"),
    (lambda: Tiling.from_data([], {}, {}, {}), "marked boundary records [] are not a dict"),
    (lambda: Tiling.from_data({"b": ["p", "q", 5]}, {}, {}, {}),
     "marked boundary b has points ['p', 'q', 5]: 5 is not a name"),
    (lambda: Tiling.from_data({5: ["p", "q", "r", "s"]}, {}, {}, {}),
     "marked boundary 5 is not a name"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", ["r"])}, {}),
     "arc x has ends ('p', ['r']): ['r'] is not a name"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", "r")},
                              {"p": [("x", 1)], "r": [5]}),
     "fan at r has slots [5]: 5 is not (arc, end)"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", "r")},
                              {"p": [(["x"], 1)], "r": [("x", 2)]}),
     "fans must list every arc end exactly once"),
    (lambda: Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ("p", "r")},
                              {"p": [("x", True)], "r": [("x", 2)]}),
     "fans must list every arc end exactly once"),
    (lambda: realize_string_module(CHAIN, WORD, prime="5"), "prime must be an int, got '5'"),
    (lambda: realize_string_module(CHAIN, WORD, prime=5.0), "prime must be an int, got 5.0"),
    (lambda: realize_string_module(CHAIN, ("a0",)), "expected a StringWord, got tuple"),
    (lambda: BandModuleSpec(BAND, "1", 1), "n must be an int, got '1'"),
    (lambda: BandModuleSpec(BAND, True, 1), "n must be an int, got True"),
    (lambda: BandModuleSpec(BAND, 1, "x"), "lam must be an int, got 'x'"),
    (lambda: BandModuleSpec(BAND, 1, 1.5), "lam must be an int, got 1.5"),
    (lambda: BandModuleSpec(WORD, 1, 1), "band module needs a Band, got StringWord"),
    (lambda: realize_band_module(CHAIN, None), "band module None is not (band, n, lam)"),
    (lambda: window_key(CHAIN, WORD, (0, 0)), "window (0, 0) is not a Window"),
    (lambda: window_key(CHAIN, WORD, None), "window None is not a Window"),
    (lambda: collapse_presentation(COMPLETED_ALG, "xy"),
     "keep set 'xy' is not a collection of arcs"),
    (lambda: collapse_presentation(COMPLETED_ALG, [["x"]]),
     "keep set names ['x'], not an arc"),
    (lambda: collapse_presentation(COMPLETED_ALG, None),
     "keep set None is not a collection of arcs"),
    (lambda: parse_quiver(5), "quiver text 5 is not a str"),
    (lambda: Tiling.parse(None), "tiling text None is not a str"),
    (lambda: parse_string(CHAIN, 5), "string literal 5 is not a str"),
    (lambda: parse_band(CHAIN, 5), "band literal 5 is not a str"),
    (lambda: normalize(PENT, 5), NOT_AN_ARC),
    (lambda: reverse_arc(PENT, 5), NOT_AN_ARC),
    (lambda: pivot_move(PENT, PENT_ALG, 5, "s"), NOT_AN_ARC),
    (lambda: check_permissible(PENT, PENT_ALG, 5), NOT_AN_ARC),
    (lambda: format_arc(PENT, 5), NOT_AN_ARC),
    (lambda: arc_to_string(PENT, PENT_ALG, 5), NOT_AN_ARC),
    (lambda: normalize(PENT, PermissibleArc(5, (), None, None)),
     "arc darts 5 are not a tuple"),
    (lambda: format_arc(PENT, PermissibleArc((99,), (), END, END)),
     "arc dart 99 is not a dart of the tiling"),
    (lambda: check_permissible(PENT, PENT_ALG, PermissibleArc(("x",), (), None, None)),
     "arc dart 'x' is not a dart of the tiling"),
    (lambda: reverse_arc(PENT, ClosedCurveClass(None, (), 1, 1)),
     "arc darts None are not a tuple"),
    (lambda: pivot_points(PENT, PermissibleArc((0, 1), ("x",), None, None)),
     "arc pivot 'x' is not a (corner, inverse) pair"),
    (lambda: crossing_word(PENT, PermissibleArc((True,), (), None, None)),
     "arc dart True is not a dart of the tiling"),
    (lambda: format_arc(PENT, PermissibleArc((0, 1), (), END, END)),
     "arc of 2 darts has 0 pivots, not 1"),
    (lambda: format_arc(PENT, PermissibleArc((0,), (), END, EndDescriptor(9, 0, 1))),
     "arc end EndDescriptor(tile=9, corner=0, route=1) is not an EndDescriptor of ints "
     "on a tile of the tiling"),
    (lambda: format_arc(PENT, ClosedCurveClass((0, 1), ((0, True), (1, False)), 2, None)),
     "exponent must be an int, got None"),
    (lambda: normalize(PENT, _no_crossings()), NO_DARTS),
    (lambda: hom_dim_geometric(PENT, PENT_ALG, _no_crossings(), _no_crossings()), NO_DARTS),
    (lambda: arc_to_string(PENT, PENT_ALG, _no_crossings()), NO_DARTS),
    (lambda: format_arc(PENT, _no_crossings()), NO_DARTS),
    (lambda: pivot_move(PENT, PENT_ALG, _no_crossings(), "s"), NO_DARTS),
    (lambda: reverse_arc(PENT, ClosedCurveClass((), (), 1, 1)), NO_DARTS),
    (lambda: check_permissible(PENT, PANTS_ALG, PENT_ARC), NOT_OWN),
    (lambda: string_to_arc(PENT, PANTS_ALG, parse_string(PANTS_ALG.presentation, "a1")),
     NOT_OWN),
    (lambda: arc_to_string(PENT, PANTS_ALG, PENT_ARC), NOT_OWN),
    (lambda: pivot_move(PENT, PANTS_ALG, PENT_ARC, "s"), NOT_OWN),
    (lambda: tau_inverse_arc(PENT, PANTS_ALG, PENT_ARC), NOT_OWN),
    (lambda: band_to_closed_curve(KRON, KRON_AGAIN, detect_band(KRON_ALG.presentation)),
     NOT_OWN),
    (lambda: closed_curve_to_band(KRON, KRON_AGAIN, KRON_CURVE), NOT_OWN),
    (lambda: rep_type_geometric(PENT, PANTS_ALG), NOT_OWN),
    (lambda: hom_dim_geometric(PENT, PANTS_ALG, PENT_ARC, PENT_ARC), NOT_OWN),
    (lambda: string_to_arc(PENT, PENT_ALG.presentation, StringWord.zero()), NOT_OWN),
    (lambda: check_permissible(KRON, KRON_ALG, KRON_CURVE._replace(exponent=-5)),
     "closed curve exponent must be >= 1, got -5"),
    (lambda: format_arc(KRON, KRON_CURVE._replace(exponent=3)),
     "closed curve primitive_length 2 times exponent 3 is not its 2 darts"),
    (lambda: closed_curve_to_band(KRON, KRON_ALG, KRON_CURVE._replace(primitive_length=0)),
     "closed curve primitive_length must be >= 1, got 0"),
    (lambda: reverse_arc(KRON, ClosedCurveClass(KRON_CURVE.darts + KRON_CURVE.darts[::-1],
                                                KRON_CURVE.pivots * 2, 2, 2)),
     "closed curve darts are not their first 2 repeated 2 times"),
    (lambda: hom_dim_geometric(KRON, KRON_ALG, KRON_CURVE,
                               ClosedCurveClass(KRON_CURVE.darts * 2, KRON_CURVE.pivots
                                                + KRON_CURVE.pivots[::-1], 2, 2)),
     "closed curve pivots are not their first 2 repeated 2 times"),
    (lambda: complete_to_triangulation(5), "expected a Tiling, got int"),
    (lambda: tiling_algebra(None), "expected a Tiling, got NoneType"),
    (lambda: presentations_isomorphic(samples.fix_a(), 5),
     "expected a TilingAlgebra, got GentlePresentation"),
    (lambda: presentations_isomorphic(DIGON_ALG, 5), "expected a TilingAlgebra, got int"),
    (lambda: collapse_presentation(DIGON, ["x"]), "expected a TilingAlgebra, got Tiling"),
    (lambda: hom_dim_oracle(samples.kronecker(), FIX_A_REP, FIX_A_REP),
     "M dims are not ints >= 0 on vertices of the presentation"),
    (lambda: hom_dim_oracle(CHAIN, REP, (REP.prime, REP.dims, REP.mats)),
     "N is not a MatrixRep, got tuple"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(5, {**REP.dims, "1": -1}, REP.mats), REP),
     "M dims are not ints >= 0 on vertices of the presentation"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(5, {**REP.dims, "2": 0.0}, REP.mats), REP),
     "M dims are not ints >= 0 on vertices of the presentation"),
    (lambda: hom_dim_oracle(CHAIN, REP, MatrixRep(5, REP.dims, {
        a: m for a, m in REP.mats.items() if a != "b1"})),
     "N matrices are not one per arrow of the presentation"),
    (lambda: hom_dim_oracle(CHAIN, REP, MatrixRep(5, REP.dims, {**REP.mats, "c": []})),
     "N matrices are not one per arrow of the presentation"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(5, REP.dims, {**REP.mats, "a0": [[1, 0]]}), REP),
     "M matrix of arrow a0 is not a 2 x 2 matrix of ints"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(5, REP.dims, {**REP.mats, "b0": [[1], [0]]}),
                            REP),
     "M matrix of arrow b0 is not a 2 x 2 matrix of ints"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(5, REP.dims, {**REP.mats, "a0": [[1, 0], [0, True]]}),
                            REP),
     "M matrix of arrow a0 is not a 2 x 2 matrix of ints"),
    (lambda: hom_dim_oracle(CHAIN, MatrixRep(4, REP.dims, REP.mats),
                            MatrixRep(4, REP.dims, REP.mats)),
     "prime must be a prime number from 2 to 3037000493, got 4"),
    (lambda: format_arc(PENT, PermissibleArc((0,), [], END, END)),
     "arc pivots [] are not a tuple"),
    (lambda: pivot_move(PENT, PENT_ALG, PENT_ARC, "x"), "end must be 's' or 't'"),
    (lambda: band_to_closed_curve(KRON, KRON_ALG, detect_band(KRON_ALG.presentation), 0),
     "exponent must be >= 1"),
    (lambda: hom_dim_geometric(PENT, PENT_ALG, TrivialArc(), PENT_ARC),
     "trivial arcs carry the zero module"),
    (lambda: realize_string_module(CHAIN, StringWord.zero()), "the zero string has no module"),
    (lambda: BandModuleSpec(BAND, 0, 1), "band module needs n >= 1"),
    (lambda: parse_string(CHAIN, "  "), "empty string literal"),
    (lambda: GentlePresentation.from_data(["1", "1", "2"], [("a", "1", "2")], []),
     "duplicate vertex '1'"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), PENT_STRAY),
     "arrow a1 does not join the arcs of its end slots ('x', 1) ('y', 1)"),
    (lambda: detect_band(5), NOT_A_PRESENTATION),
    (lambda: enumerate_strings(5), NOT_A_PRESENTATION),
    (lambda: parse_string(5, "a"), NOT_A_PRESENTATION),
    (lambda: validate_string(5, [("a", False)]), NOT_A_PRESENTATION),
    (lambda: is_valid_string(5, WORD), NOT_A_PRESENTATION),
    (lambda: is_valid_string(CHAIN, 5), "expected a StringWord, got int"),
    (lambda: canonicalize(5), "expected a StringWord, got int"),
    (lambda: ar_quiver_dot(5), "expected an ARQuiver, got int"),
    (lambda: realize_string_module(5, WORD), NOT_A_PRESENTATION),
    (lambda: realize_band_module(5, (BAND, 1, 2)), NOT_A_PRESENTATION),
    (lambda: hom_dim_oracle(5, REP, REP), NOT_A_PRESENTATION),
    (lambda: letter_source(KRONECKER, Letter("zz")), "unknown arrow 'zz'"),
    (lambda: letter_source(KRONECKER, 5), "letter 5 is not a Letter"),
    (lambda: letter_target(KRONECKER, Letter(["a"])), _bad_letter(Letter(["a"]))),
    (lambda: valid_pair(KRONECKER, Letter("zz"), Letter("a")), "unknown arrow 'zz'"),
    (lambda: StringWord.word([Letter("zz")]).source(KRONECKER), "unknown arrow 'zz'"),
    (lambda: TilingAlgebra(PENT, ["x", "y"], {"a": TilingArrow("a", "x", "y", "p1", 5, 6)}),
     "arrow a slot 5 is not an (arc, end) pair"),
    (lambda: validate_string(KRONECKER, [("a", 0)]), _bad_letter(Letter("a", 0))),
    (lambda: validate_string(KRONECKER, [("a", 1.0)]), _bad_letter(Letter("a", 1.0))),
    (lambda: validate_string(KRONECKER, [Letter("a", 0)]), _bad_letter(Letter("a", 0))),
    (lambda: Band.from_letters(KRONECKER, [("a", 0), ("b", 1)]),
     _bad_letter(Letter("a", 0))),
    (lambda: validate_string(KRONECKER, [("", False)]), _bad_letter(Letter("", False))),
    (lambda: parse_string(KRONECKER, "a -"), _bad_letter(Letter("", True))),
    (lambda: TilingAlgebra(PENT, ["x", "y", "q"], {"a1": TilingArrow(
        "a1", "x", "q", "p1", ("x", 1), ("q", 1))}), "vertex 'q' is not an arc of the tiling"),
    (lambda: PENT_ALG.arrows["a1"]._replace(point=["p"]), "arrow a1 point ['p'] is not a name"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {"zz": PENT_ALG.arrows["a1"]}),
     "arrow 'a1' is given under the key 'zz'"),
    (lambda: check_gentle("q", []), "expected a Quiver, got str"),
    (lambda: parse_quiver("quiver\nvertex 1\nvertex 2\nvertex 3\narrow a 1 2\n"
                          "arrow b 2 3\nrelation a b\nrelation a b\nend\n"),
     "duplicate relation (a,b)"),
    (lambda: check_gentle(CHAIN.quiver, RELATIONS + [list(RELATIONS[0])]),
     "duplicate relation (a0,b1)"),
    (lambda: Tiling.parse(PENT.text().replace("x.2", "x.02")), "line 6: bad slot 'x.02'"),
    (lambda: Tiling.parse(PENT.text().replace("x.2", "x.+2")), "line 6: bad slot 'x.+2'"),
    (lambda: Tiling.parse(PENT.text().replace("x.2", "x.\u0662")),   # an Arabic-Indic two
     "line 6: bad slot 'x.\u0662'"),
    (lambda: Tiling.parse(PENT.text().replace("x.2", "x.3")), "line 6: bad slot 'x.3'"),
    *[(lambda f=f: f(5, TrivialArc()), "expected a Tiling, got int")
      for f in (crossing_word, intersection_vector, intersection_number, pivot_points,
                normalize, reverse_arc, format_arc)],
    (lambda: pivot_points(None, PENT_ARC), "expected a Tiling, got NoneType"),
    (lambda: factor_count_bruteforce(CHAIN, 5), "expected StringWord or Band, got int"),
    (lambda: sub_count_bruteforce(CHAIN, [WORD]), "expected StringWord or Band, got list"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {
        "a1": PENT_ALG.arrows["a1"], "a2": PENT_ALG.arrows["a1"]._replace(name="a2")}),
     "arrow a2 leaves the slot ('x', 1) that a1 leaves"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {
        "a1": PENT_ALG.arrows["a1"], "a2": PENT_ALG.arrows["a1"]._replace(
            name="a2", source="x", leave_slot=("x", 2))}),
     "arrow a2 enters the slot ('y', 1) that a1 enters"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {
        "a1": PENT_ALG.arrows["a1"]._replace(point="p3")}),
     "arrow a1 slot ('x', 1) is not at its point p3"),
    (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {
        "a1": PENT_ALG.arrows["a1"]._replace(enter_slot=("y", 3))}),
     "arrow a1 slot ('y', 3) is not at its point p1"),
], ids=["str_vertices", "arrow_id_int", "arrow_id_empty", "vertices_int", "arrows_none",
        "vertex_list", "arrow_id_list", "relation_list_field", "source_list",
        "relations_none", "letter_int", "letter_triple", "letters_str", "band_letter_int",
        "band_letter_triple", "tiling_maps_not_dicts", "marked_point_int",
        "boundary_key_int", "arc_end_list", "slot_int", "slot_arc_list", "slot_end_bool",
        "prime_str", "prime_float", "string_module_of_a_tuple", "n_str", "n_bool",
        "lam_str", "lam_float", "band_module_of_a_word", "band_module_none",
        "window_pair", "window_none", "keep_str", "keep_list_item", "keep_none",
        "quiver_text_int", "tiling_text_none", "string_literal_int", "band_literal_int",
        "normalize_int", "reverse_arc_int", "pivot_move_int", "check_permissible_int",
        "format_arc_int", "arc_to_string_int", "arc_darts_int", "arc_dart_out_of_range",
        "arc_dart_str", "curve_darts_none", "arc_pivot_str", "arc_dart_bool",
        "arc_pivot_count", "arc_end_tile_out_of_range", "curve_exponent_none",
        "arc_no_darts_normalize", "arc_no_darts_geometric_hom",
        "arc_no_darts_to_string", "arc_no_darts_format", "arc_no_darts_pivot_move",
        "curve_no_darts",
        "permissible_on_another_tiling", "string_to_arc_on_another_tiling",
        "arc_to_string_on_another_tiling", "pivot_move_on_another_tiling",
        "tau_on_another_tiling", "band_curve_on_another_parse",
        "curve_band_on_another_parse", "rep_type_on_another_tiling",
        "geometric_hom_on_another_tiling", "string_to_arc_of_a_presentation",
        "curve_exponent_negative", "curve_exponent_miscounted", "curve_primitive_length_0",
        "curve_darts_not_repeated", "curve_pivots_not_repeated", "complete_an_int",
        "tiling_algebra_of_none", "isomorphic_to_a_presentation", "isomorphic_to_an_int",
        "collapse_a_tiling", "oracle_of_another_presentation", "oracle_of_a_tuple",
        "oracle_dim_negative", "oracle_dim_float", "oracle_arrow_missing",
        "oracle_arrow_unknown", "oracle_matrix_rows", "oracle_matrix_columns",
        "oracle_matrix_bool", "oracle_prime_not_prime", "arc_pivots_list",
        "pivot_move_end", "curve_exponent_0", "geometric_hom_of_a_trivial_arc",
        "zero_string_module", "band_module_n_0", "string_literal_empty",
        "duplicate_vertex", "tiling_arrow_off_its_slot", "detect_band_of_an_int",
        "enumerate_strings_of_an_int", "parse_string_of_an_int",
        "validate_string_of_an_int", "is_valid_string_of_an_int",
        "is_valid_string_on_an_int", "canonicalize_an_int", "ar_quiver_dot_of_an_int",
        "oracle_string_module_of_an_int", "oracle_band_module_of_an_int",
        "oracle_hom_of_an_int", "letter_source_unknown_arrow", "letter_source_of_an_int",
        "letter_target_arrow_list", "valid_pair_unknown_arrow",
        "string_source_unknown_arrow", "tiling_arrow_slot_int", "pair_inverse_int",
        "pair_inverse_float", "letter_inverse_int_to_validate_string",
        "band_pair_inverse_int", "pair_arrow_empty", "string_literal_bare_dash",
        "tiling_algebra_vertex_off_the_tiling", "tiling_arrow_point_list",
        "tiling_arrow_key_not_its_name", "check_gentle_of_a_str",
        "quiver_text_relation_twice", "check_gentle_relation_twice", "slot_end_leading_zero",
        "slot_end_plus_sign", "slot_end_other_digit", "slot_end_3",
        "crossing_word_on_an_int", "intersection_vector_on_an_int",
        "intersection_number_on_an_int", "pivot_points_on_an_int", "normalize_on_an_int",
        "reverse_arc_on_an_int", "format_arc_on_an_int", "pivot_points_on_none",
        "factor_count_of_an_int", "sub_count_of_a_list", "tiling_arrows_share_a_leave_slot",
        "tiling_arrows_share_an_enter_slot", "tiling_arrow_off_its_point",
        "tiling_arrow_slot_end_3"])
def test_malformed_records_name_themselves(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_a_path_that_is_not_a_str_is_refused_before_it_is_opened():
    """`load_quiver(1)` must not open fd 1, whose closing would take the
    caller's stdout; a child process prints after the refusal."""
    code = ("from tilealg.algebra import InputError, load_quiver\n"
            "try:\n    load_quiver(1)\nexcept InputError as err:\n    print(err)\n"
            "print('stdout still open')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src))
    assert child.stdout == "expected a str or PathLike path, got int\nstdout still open\n"


def test_list_records_read_as_their_tuples():
    """A record given as a list is read as the tuple of its items: an
    arc end pair, a fan slot and a letter pair."""
    t = Tiling.from_data({"b": ["p", "q", "r", "s"]}, {}, {"x": ["p", "r"]},
                         {"p": [["x", 1]], "r": [("x", 2)]})
    assert t.arcs == {"x": ("p", "r")} and t.fans == {"p": [("x", 1)], "r": [("x", 2)]}
    assert validate_string(CHAIN, [["a0", False]]) == StringWord.word([Letter("a0")])
    assert validate_string(KRONECKER, [("a", False)]) == StringWord.word([Letter("a")])
    # a placement is read in any order
    pair = dict(DIGON.unmarked)
    swapped = Tiling.from_data(DIGON.marked, {k: v[::-1] for k, v in pair.items()},
                               DIGON.arcs, DIGON.fans)
    assert swapped.text() == DIGON.text()
