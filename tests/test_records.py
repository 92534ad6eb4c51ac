"""The contract of the public value records: immutable, equal and
equally hashed on equal fields, with stable reprs; plus the few
behaviours a record adds of its own (Letter order, the lengths of
StringWord and Band, the truth of GentleCheck, letter-only words, the
answers for zero and trivial strings and trivial arcs, equality against
another type)."""

import pytest

from tilealg import samples
from tilealg.algebra import GentleCheck, InputError, Violation
from tilealg.arcs import (ClosedCurveClass, EndDescriptor, PermissibleArc, TrivialArc,
                          crossing_word, pivot_points)
from tilealg.artheory import ARQuiver, ARSequence, HookResult, HookSide
from tilealg.homs import (AdmissiblePair, FactorDecomposition, HomComputation,
                          SubDecomposition, Window)
from tilealg.oracle import BandModuleSpec
from tilealg.strings import Band, Letter, StringWord, canonicalize, is_valid_string
from tilealg.surface import (Completion, Tile, TilingAlgebra, TilingArrow,
                             presentations_isomorphic, tiling_algebra)

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


ZERO, TRIV = StringWord.zero(), StringWord.trivial("1", -1)
FIX_A = samples.fix_a()
PENT = samples.pent_tiling()
PENT_ALG = tiling_algebra(PENT)
# the pent disc's arrow a1 given twice, under two names: a hand-built arrows
# dict whose arrows share a key, so the algebra is isomorphic to no other
A1 = PENT_ALG.arrows["a1"]
TWICE = TilingAlgebra(PENT, sorted(PENT.arcs), {"a1": A1, "a2": A1._replace(name="a2")})


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
    "arrows sharing a key": (lambda: presentations_isomorphic(TWICE, PENT_ALG), False),
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
