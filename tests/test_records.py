"""The contract of the public value records: immutable, equal and
equally hashed on equal fields, with stable reprs; plus the few
behaviours a record adds of its own (Letter order, the lengths of
StringWord and Band, the truth of GentleCheck, letter-only words, the
answers for zero and trivial strings and trivial arcs, equality against
another type); the shape checks of the records that check themselves
when built, and that every such record the library returns passes
them."""

import pytest

from tilealg import samples
from tilealg.algebra import GentleCheck, InputError, Violation, _Checked
from tilealg.arcs import (ClosedCurveClass, EndDescriptor, PermissibleArc, TrivialArc,
                          arc_to_string, band_to_closed_curve, closed_curve_to_band,
                          crossing_word, pivot_move, pivot_points, string_to_arc,
                          tau_inverse_arc)
from tilealg.artheory import ARQuiver, ARSequence, HookResult, HookSide, hooks
from tilealg.homs import (AdmissiblePair, FactorDecomposition, HomComputation,
                          SubDecomposition, Window)
from tilealg.oracle import BandModuleSpec
from tilealg.strings import (Band, Letter, StringWord, canonicalize, detect_band,
                             enumerate_strings, is_valid_string)
from tilealg.surface import (Completion, Tile, Tiling, TilingAlgebra, TilingArrow,
                             collapse_presentation, complete_to_triangulation,
                             tiling_algebra)

A, B = Letter("a"), Letter("b", True)


def _word():
    return StringWord.word([A, B])


def _window():
    return Window(0, 1, None, 1)


def _end():
    return EndDescriptor(2, 1, 1)


# record -> (a fresh instance, a field to assign, its repr)
RECORDS = {
    "Violation": (lambda: Violation("G1", "vertex 1 is the source of 3 arrows",
                                    ("1", ("a", "b", "c"))), "axiom",
                  "Violation(axiom='G1', message='vertex 1 is the source of 3 arrows', "
                  "witnesses=('1', ('a', 'b', 'c')))"),
    "GentleCheck": (lambda: GentleCheck(True, ()), "gentle",
                    "GentleCheck(gentle=True, violations=())"),
    "Letter": (lambda: Letter("b", True), "inverse", "Letter(arrow='b', inverse=True)"),
    "StringWord": (_word, "letters", "<a b->"),
    "trivial StringWord": (lambda: StringWord.trivial("1", -1), "sign", "<triv 1 ->"),
    "Band": (lambda: Band((A, B)), "letters", "<band a b->"),
    "Window": (_window, "start",
               "Window(start=0, length=1, left_flank=None, right_flank=1)"),
    "FactorDecomposition": (lambda: FactorDecomposition(_word(), _window()), "host",
                            "FactorDecomposition(host=<a b->, window=Window(start=0, "
                            "length=1, left_flank=None, right_flank=1))"),
    "SubDecomposition": (lambda: SubDecomposition(_word(), _window()), "window",
                         "SubDecomposition(host=<a b->, window=Window(start=0, "
                         "length=1, left_flank=None, right_flank=1))"),
    "AdmissiblePair": (lambda: AdmissiblePair(FactorDecomposition(_word(), _window()),
                                              SubDecomposition(_word(), _window()),
                                              "equal"), "orientation",
                       "AdmissiblePair(factor=FactorDecomposition(host=<a b->, "
                       "window=Window(start=0, length=1, left_flank=None, right_flank=1)), "
                       "sub=SubDecomposition(host=<a b->, window=Window(start=0, length=1, "
                       "left_flank=None, right_flank=1)), orientation='equal')"),
    "HomComputation": (lambda: HomComputation(0, ()), "dim",
                       "HomComputation(dim=0, pairs=())"),
    "HookSide": (lambda: HookSide(StringWord.zero(), "zero"), "tag",
                 "HookSide(string=<zero>, tag='zero')"),
    "HookResult": (lambda: HookResult(_word(), StringWord.zero(), _word(), StringWord.zero(),
                                      "zero", "removed-cohook"), "w_both",
                   "HookResult(w=<a b->, w_left=<zero>, w_right=<a b->, w_both=<zero>, "
                   "tag_left='zero', tag_right='removed-cohook')"),
    "ARSequence": (lambda: ARSequence(_word(), (_word(),), StringWord.trivial("2")), "middle",
                   "ARSequence(left=<a b->, middle=(<a b->,), right=<triv 2 +>)"),
    "ARQuiver": (lambda: ARQuiver((_word(),), (), ()), "nodes",
                 "ARQuiver(nodes=(<a b->,), edges=(), tau_pairs=())"),
    "BandModuleSpec": (lambda: BandModuleSpec(Band((A, B)), 2, 3), "lam",
                       "BandModuleSpec(band=<band a b->, n=2, lam=3)"),
    "Tile": (lambda: Tile(0, (0, 3, 5), "m-gon", None), "kind",
             "Tile(index=0, walk=(0, 3, 5), kind='m-gon', unmarked=None)"),
    "TilingArrow": (lambda: TilingArrow("a1", "x", "y", "p1", ("x", 1), ("y", 1)), "point",
                    "TilingArrow(name='a1', source='x', target='y', point='p1', "
                    "leave_slot=('x', 1), enter_slot=('y', 1))"),
    "Completion": (lambda: Completion("tiling", ("m1",), ("z1", "z2")), "added_arcs",
                   "Completion(tiling='tiling', added_points=('m1',), "
                   "added_arcs=('z1', 'z2'))"),
    "EndDescriptor": (_end, "route", "EndDescriptor(tile=2, corner=1, route=1)"),
    "TrivialArc": (TrivialArc, "darts", "TrivialArc()"),
    "PermissibleArc": (lambda: PermissibleArc((4, 7), ((1, False),), _end(), _end()),
                       "darts",
                       "PermissibleArc(darts=(4, 7), pivots=((1, False),), "
                       "start=EndDescriptor(tile=2, corner=1, route=1), "
                       "end=EndDescriptor(tile=2, corner=1, route=1))"),
    "ClosedCurveClass": (lambda: ClosedCurveClass((4, 7), ((1, False), (0, True)), 2, 1),
                         "exponent",
                         "ClosedCurveClass(darts=(4, 7), pivots=((1, False), (0, True)), "
                         "primitive_length=2, exponent=1)"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_an_immutable_value(name):
    make, field, text = RECORDS[name]
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    assert x == y
    assert repr(x) == text


def test_letters_sort_by_arrow_then_inverse():
    letters = [Letter("b"), Letter("a", True), Letter("b", True), Letter("a")]
    assert sorted(letters) == [Letter("a"), Letter("a", True), Letter("b"),
                               Letter("b", True)]


def test_words_and_bands_count_their_letters():
    assert len(_word()) == len(Band((A, B))) == 2
    assert len(StringWord.trivial("1")) == len(StringWord.zero()) == 0


def test_gentle_check_is_true_when_gentle():
    assert GentleCheck(True, ())
    assert not GentleCheck(False, (RECORDS["Violation"][0](),))


@pytest.mark.parametrize("build", [lambda: StringWord.word([("a", False)]),
                                   lambda: Band((("a", False), B))],
                         ids=["StringWord.word", "Band"])
def test_words_and_bands_reject_raw_pairs(build):
    with pytest.raises(InputError, match="take Letter items"):
        build()


RAW_PAIRS = ("letter words and bands take Letter items; validate_string and "
             "Band.from_letters read (arrow, inverse) pairs")
END = EndDescriptor(0, 0, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: StringWord("word"), "a letter word must be nonempty; use trivial/zero"),
    (lambda: StringWord("trivial", "1", 5), "trivial string sign must be +1 or -1"),
    (lambda: StringWord("junk"), "unknown string kind 'junk'"),
    (lambda: StringWord(("word",)), "unknown string kind ('word',)"),
    (lambda: StringWord("zero", None, None, (A, B)),
     "a zero string has no letters, got (Letter(arrow='a', inverse=False), "
     "Letter(arrow='b', inverse=True))"),
    (lambda: StringWord.trivial(["1"]), "trivial string vertex ['1'] is not a name"),
    (lambda: StringWord("word", "1", 1, (A,)),
     "a word string has no vertex or sign, got '1' and 1"),
    (lambda: StringWord._make(("trivial", "1", 1, (A,))),
     "a trivial string has no letters, got (Letter(arrow='a', inverse=False),)"),
    (lambda: _word()._replace(letters=[("a", False)]), RAW_PAIRS),
    (lambda: EndDescriptor(0, 0, True), "route must be an int, got True"),
    (lambda: Band._make([[5]]), RAW_PAIRS),
    (lambda: Band((A, B))._replace(letters=[3]), RAW_PAIRS),
    (lambda: BandModuleSpec._make((None, 0, 0)), "band module needs a Band, got NoneType"),
    (lambda: BandModuleSpec(Band((A, B)), 2, 3)._replace(n=0), "band module needs n >= 1"),
    (lambda: PermissibleArc._make(((4, 7), ((1, "x"),), END, END)),
     "arc pivot (1, 'x') is not a (corner, inverse) pair"),
    (lambda: PermissibleArc((4, 7), ((1, False),), END, END)._replace(darts=[4, 7]),
     "arc darts [4, 7] are not a tuple"),
    (lambda: canonicalize(StringWord.word([Letter("a"), Letter(5)])),
     "letter Letter(arrow=5, inverse=False) needs a nonempty str arrow and a bool inverse"),
    (lambda: Band((Letter("a", 2),)),
     "letter Letter(arrow='a', inverse=2) needs a nonempty str arrow and a bool inverse"),
    (lambda: StringWord.word([Letter("b", None)]),
     "letter Letter(arrow='b', inverse=None) needs a nonempty str arrow and a bool inverse"),
    (lambda: StringWord.word([Letter("", False)]),
     "letter Letter(arrow='', inverse=False) needs a nonempty str arrow and a bool inverse"),
    (lambda: TilingArrow("a1", "x", "y", "p1", ("x", 1), ("y", [1])),
     "arrow a1 slot ('y', [1]) is not an (arc, end) pair"),
    (lambda: PENT_ALG.arrows["a1"]._replace(leave_slot=["x", 1]),
     "arrow a1 slot ['x', 1] is not an (arc, end) pair"),
    (lambda: TilingArrow._make(("a1", "x", "y", "p1", ("x", True), ("y", 1))),
     "arrow a1 slot ('x', True) is not an (arc, end) pair"),
], ids=["word_without_letters", "trivial_sign_5", "kind_junk", "kind_tuple",
        "zero_with_letters", "trivial_vertex_list", "word_with_a_vertex",
        "string_make_trivial_with_letters", "string_replace_raw_pairs", "end_route_bool",
        "band_make", "band_replace", "band_module_make", "band_module_replace",
        "arc_make", "arc_replace", "letter_arrow_int", "letter_inverse_int",
        "letter_inverse_none", "letter_arrow_empty", "tiling_arrow_slot_unhashable",
        "tiling_arrow_replace_slot_list", "tiling_arrow_make_slot_bool"])
def test_records_refuse_malformed_fields_when_built(build, message):
    """Each record that checks itself refuses a malformed field where it
    is built, through its constructor, `_make` or `_replace`, with an
    InputError naming the field."""
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def _passes_its_check(record):
    """Whether a record the library returned, and each record inside it,
    is one its own constructor builds: type(r)(*r) == r for each record
    that checks itself (the library builds those through `_trusted`)."""
    if isinstance(record, _Checked) and type(record)(*record) != record:
        return False
    return not isinstance(record, tuple) or all(
        _passes_its_check(x) for x in record if isinstance(x, tuple))


def _returned_records(t):
    """The records the library returns on the tiling t: the arrows of its
    algebra and of the collapse of its completion's, the strings of its
    algebra up to length 3 and their inverses, their hooks, arcs, arc
    strings, pivot and tau moves, and its band's closed curve and back."""
    alg = tiling_algebra(t)
    p = alg.presentation
    yield from alg.arrows.values()
    completed = tiling_algebra(complete_to_triangulation(t).tiling)
    yield from collapse_presentation(completed, t.arc_ids()).arrows.values()
    for w0 in enumerate_strings(p, max_len=3):
        for w in (w0, w0.inv()):
            yield w
            yield hooks(p, w)
            arc = string_to_arc(t, alg, w)
            yield arc
            yield arc_to_string(t, alg, arc)
            yield pivot_move(t, alg, arc, "s")
            yield pivot_move(t, alg, arc, "t")
            yield tau_inverse_arc(t, alg, arc)
    band = detect_band(p)
    if band is not None:
        curve = band_to_closed_curve(t, alg, band, 2)
        yield band
        yield curve
        yield closed_curve_to_band(t, alg, curve)


@pytest.mark.parametrize("tilings", [
    lambda: list(samples.tiled_fixtures().values()),
    lambda: samples.random_tilings(5, 120),
    lambda: [Tiling.parse(samples.many_holes_text(3))],
], ids=["fixtures", "random_tilings(5, 120)", "many_holes_text(3)"])
def test_library_records_pass_their_own_check(tilings):
    """The records the library builds through `_trusted`, which skips the
    check, are ones that the check accepts."""
    tilings = tilings()
    checked = 0
    for t in tilings:
        for record in _returned_records(t):
            assert _passes_its_check(record), record
            checked += 1
    assert checked > len(tilings)


ZERO, TRIV = StringWord.zero(), StringWord.trivial("1", -1)
FIX_A = samples.fix_a()
PENT = samples.pent_tiling()
PENT_ALG = tiling_algebra(PENT)
# the pent disc's arrow a1 given twice, under two names: a hand-built arrows
# dict whose arrows share a key, which no tiling gives
A1 = PENT_ALG.arrows["a1"]


NO_ENDS = InputError("zero string has no endpoints")
# call -> its answer, or the InputError it raises
EDGES = {
    "zero inverse": (lambda: ZERO.inv(), ZERO),
    "zero source": (lambda: ZERO.source(FIX_A), NO_ENDS),
    "zero target": (lambda: ZERO.target(FIX_A), NO_ENDS),
    "trivial source": (lambda: TRIV.source(FIX_A), "1"),
    "trivial target": (lambda: TRIV.target(FIX_A), "1"),
    "zero canonical": (lambda: canonicalize(ZERO), ZERO),
    "trivial canonical": (lambda: canonicalize(TRIV), StringWord.trivial("1")),
    "zero valid": (lambda: is_valid_string(FIX_A, ZERO), True),
    "trivial valid": (lambda: is_valid_string(FIX_A, TRIV), True),
    "trivial off the quiver": (lambda: is_valid_string(FIX_A, StringWord.trivial("9")),
                               False),
    "quiver against an int": (lambda: FIX_A.quiver == 5, False),
    "presentation against a quiver": (lambda: FIX_A == FIX_A.quiver, False),
    "trivial arc crossings": (lambda: crossing_word(PENT, TrivialArc()), ()),
    "trivial arc pivots": (lambda: pivot_points(PENT, TrivialArc()), ()),
    "arrows sharing a key": (lambda: TilingAlgebra(PENT, sorted(PENT.arcs), {
        "a1": A1, "a2": A1._replace(name="a2")}),
        InputError("arrow a2 leaves the slot ('x', 1) that a1 leaves")),
}


@pytest.mark.parametrize("name", list(EDGES))
def test_zero_trivial_and_foreign_cases_answer(name):
    call, want = EDGES[name]
    if isinstance(want, InputError):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == str(want)
    else:
        assert call() == want
