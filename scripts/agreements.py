"""The route agreements of the geometric model, each written once.

An agreement compares two routes to one answer on every input of a
context: the arcs side on a tiling t with alg = tiling_algebra(t), the
algebra side on a gentle presentation p.  The inputs are the strings up
to a bound (on the arcs side in both orientations), the ordered pairs of
strings and bands, or the context itself.  Oracle-side agreements read
modules only through `tilealg.oracle`, which shares no string calculus
with the routes it checks.  tests/test_agreements.py, the acceptance
criteria and scripts/random_tiling_audit.py run them through `check`.
"""

import functools
from typing import Callable, NamedTuple

from tilealg import algebra, arcs, artheory, homs, oracle, strings, surface
from tilealg.oracle import BandModuleSpec
from tilealg.strings import Band, StringWord


class Agreement(NamedTuple):
    name: str
    side: str          # "arcs", context (t, alg), or "algebra", context (p,)
    first: str         # the two routes compared
    second: str
    inputs: Callable   # (*context, bound) -> the argument tuples to compare on
    compare: Callable  # (*context, *args) -> (first answer, second answer), None to skip
    bound: int         # letters when the caller gives none; None for the context itself


AGREEMENTS = {}


def _agreement(side, inputs, bound, first, second):
    def register(compare):
        AGREEMENTS[compare.__name__] = Agreement(compare.__name__, side, first, second,
                                                 inputs, compare, bound)
        return compare
    return register


def check(name, *context, bound=None):
    """(checks, reason) of agreement `name` on `context` at `bound`, its
    own bound when None: how many inputs it compared, and None or the
    reason of the first disagreement or exception, naming the input."""
    a = AGREEMENTS[name]
    checks, text = 0, "the inputs"
    try:
        for args in a.inputs(*context, a.bound if bound is None else bound):
            text = " / ".join(map(_text, args)) or f"the {a.side} context"
            answers = a.compare(*context, *args)
            if answers is None:
                continue
            if answers[0] != answers[1]:
                return checks, (f"{name}: {text}: {a.first} gives {answers[0]!r}, "
                                f"{a.second} gives {answers[1]!r}")
            checks += 1
    except Exception as exc:   # a route that raises disagrees too
        return checks, f"{name}: {text}: {type(exc).__name__}: {exc}"
    return checks, None


def agree(name, *context, bound=None):
    """The check count of `check`; AssertionError with its reason."""
    checks, reason = check(name, *context, bound=bound)
    if reason is not None:
        raise AssertionError(reason)
    return checks


def _text(x):
    if isinstance(x, BandModuleSpec):
        return f"band {x.band.text()} at lambda {x.lam}"
    return f"band {x.text()}" if isinstance(x, Band) else x.text()


# -- inputs ----------------------------------------------------------------


def _strings(p, bound):
    return [(w,) for w in strings.enumerate_strings(p, max_len=bound)]


def _oriented(t, alg, bound):
    return [(x,) for (w,) in _strings(alg.presentation, bound) for x in (w, w.inv())]


def _operands(p, bound, lams=()):
    """The strings up to `bound`, then the band, or its band modules at
    each lambda of `lams`, when p has one."""
    band = strings.detect_band(p)
    bands = [] if band is None else [BandModuleSpec(band, 1, lam) for lam in lams] or [band]
    return strings.enumerate_strings(p, max_len=bound) + bands


def _pairs(operands):
    """The ordered pairs of operands that are not two bands."""
    return [(v, w) for v in operands for w in operands
            if isinstance(v, StringWord) or isinstance(w, StringWord)]


def _once(*context):
    return [()]


# -- the arcs side -------------------------------------------------------


@functools.lru_cache(maxsize=4096)   # the records it keeps are never changed
def _curve(t, alg, x):
    """The arc of a string, the closed curve of a band, made once."""
    return arcs.band_to_closed_curve(t, alg, x) if isinstance(x, Band) else \
        arcs.string_to_arc(t, alg, x)


def _string(t, alg, arc):
    return StringWord.zero() if isinstance(arc, arcs.TrivialArc) else \
        arcs.arc_to_string(t, alg, arc)


@_agreement("arcs", _oriented, 8, "string_to_arc, then arc_to_string and normalize",
            "the string and the arc")
def round_trip(t, alg, w):
    arc = _curve(t, alg, w)
    return (arcs.arc_to_string(t, alg, arc), arcs.normalize(t, arc)), (w, arc)


@_agreement("arcs", _oriented, 8, "reverse_arc", "the inverse string")
def reverse(t, alg, w):
    return arcs.arc_to_string(t, alg, arcs.reverse_arc(t, _curve(t, alg, w))), w.inv()


@_agreement("arcs", _oriented, 8, "the arc's intersection vector and number",
            "the oracle module's dimension vector and dimension")
def crossings(t, alg, w):
    arc = _curve(t, alg, w)
    dims = oracle.realize_string_module(alg.presentation, w).dim_vector(alg.presentation)
    return ((arcs.intersection_vector(t, arc), arcs.intersection_number(t, arc)),
            (dims, sum(dims.values())))


@_agreement("arcs", _oriented, 8, "pivot_move at s and t", "hook_left and hook_right")
def pivots(t, alg, w):
    arc, p = _curve(t, alg, w), alg.presentation
    return (tuple(_string(t, alg, arcs.pivot_move(t, alg, arc, end)) for end in "st"),
            (artheory.hook_left(p, w).string, artheory.hook_right(p, w).string))


@_agreement("arcs", _oriented, 8, "pivot_move at s, then t", "pivot_move at t, then s")
def pivots_commute(t, alg, w):
    """Skipped where a move gives the trivial arc: the order matters only
    up to zero."""
    moved = []
    for ends in ("st", "ts"):
        arc = _curve(t, alg, w)
        for end in ends:
            arc = arcs.pivot_move(t, alg, arc, end)
            if isinstance(arc, arcs.TrivialArc):
                return None
        moved.append(arc)
    return moved


@_agreement("arcs", _oriented, 8, "tau_inverse_arc", "tau_inverse")
def tau(t, alg, w):
    moved = arcs.tau_inverse_arc(t, alg, _curve(t, alg, w))
    want = artheory.tau_inverse(alg.presentation, w)
    return (None if moved is None else strings.canonicalize(arcs.arc_to_string(t, alg, moved)),
            None if want is None else strings.canonicalize(want))


@_agreement("arcs", lambda t, alg, bound: _pairs(_operands(alg.presentation, bound)), 5,
            "hom_dim_geometric of arcs and closed curves",
            "hom_dim of strings and bands")
def geometric_hom(t, alg, v, w):
    return (arcs.hom_dim_geometric(t, alg, _curve(t, alg, v), _curve(t, alg, w)),
            homs.hom_dim(alg.presentation, v, w))


@_agreement("arcs", _once, None, "rep_type_geometric and its witness curve", "detect_band")
def rep_type(t, alg):
    kind, witness = arcs.rep_type_geometric(t, alg)
    band = strings.detect_band(alg.presentation)
    if witness is None:
        return (kind, None), ("finite" if band is None else "infinite", None)
    return ((kind, arcs.closed_curve_to_band(t, alg, witness),
             arcs.check_permissible(t, alg, witness)), ("infinite", (band, 1), None))


@_agreement("arcs", _once, None, "complete_to_triangulation, then collapse_presentation",
            "tiling_algebra")
def collapse(t, alg):
    """The completion is a triangulation with one new point per unmarked
    component, keeps every arc and adds nothing to a triangulation."""
    comp = surface.complete_to_triangulation(t)
    done = not t.unmarked and all(len(x.walk) == 3 for x in t.tiles)
    back = surface.collapse_presentation(surface.tiling_algebra(comp.tiling), t.arc_ids())
    return ({"isomorphic": surface.presentations_isomorphic(back, alg),
             "tile sizes": {len(x.walk) for x in comp.tiling.tiles},
             "new points": len(comp.added_points),
             "arcs kept": t.arcs.keys() <= comp.tiling.arcs.keys(),
             "added": (comp.added_points, comp.added_arcs) if done else None},
            {"isomorphic": True, "tile sizes": {3}, "new points": len(t.unmarked),
             "arcs kept": True, "added": ((), ()) if done else None})


@_agreement("arcs", _once, None, "tiling_algebra", "the adjacent slots of each fan")
def fans(t, alg):
    """Each arrow is an adjacent pair of fan slots, and a composable pair
    xy is a relation exactly when x enters its target at another slot than
    the one y leaves; the algebra is gentle."""
    p = alg.presentation
    slots = {alg.arrow_by_slots.get(pair): pair for fan in t.fans.values()
             for pair in zip(fan, fan[1:])}
    return ({"arrows": {a: (p.s(a), p.t(a)) for a in p.arrows}, "relations": set(p.relations),
             "gentle": algebra.check_gentle(p.quiver, p.relations).gentle},
            {"arrows": {a: (leave[0], enter[0]) for a, (leave, enter) in slots.items()},
             "relations": {(x, y) for x in slots for y in slots
                           if slots[x][1][0] == slots[y][0][0] and slots[x][1] != slots[y][0]},
             "gentle": True})


# -- the algebra side ------------------------------------------------------


@functools.lru_cache(maxsize=4096)   # the oracle only reads a module
def _module(p, x):
    if isinstance(x, BandModuleSpec):
        return oracle.realize_band_module(p, x)
    return oracle.realize_string_module(p, x)


@_agreement("algebra", lambda p, bound: _pairs(_operands(p, bound, (1, 2))), 4,
            "hom_dim", "hom_dim_oracle over F_5")
def hom_oracle(p, v, w):
    host = [x.band if isinstance(x, BandModuleSpec) else x for x in (v, w)]
    return homs.hom_dim(p, *host), oracle.hom_dim_oracle(p, _module(p, v), _module(p, w))


@_agreement("algebra", _strings, 8, "tau_inverse and (w_l)_r", "w_{r,l} and (w_r)_l")
def hooks(p, w):
    """(w_l)_r and (w_r)_l are compared where both hooks are nonzero."""
    h = artheory.hooks(p, w)
    meet = not (h.w_left.is_zero or h.w_right.is_zero)
    return ((artheory.tau_inverse(p, w), meet and artheory.hook_right(p, h.w_left).string),
            (None if h.w_both.is_zero else h.w_both,
             meet and artheory.hook_left(p, h.w_right).string))


@_agreement("algebra", _strings, 5, "ar_sequence's dimensions and verify_ar_middle",
            "dimension additivity and the oracle's maps onto the middle")
def ar_middles(p, w):
    """Dimensions add up along the AR sequence at each non-injective
    string, and the oracle finds a nonzero map onto each middle term."""
    if artheory.is_injective_string(p, w):
        return None
    return (artheory.dimension_additivity_holds(p, w), artheory.verify_ar_middle(p, w)), \
        (True, True)


@_agreement("algebra", _once, None, "is_injective_string on every string", "the vertex count")
def injectives(p):
    """A band-free gentle algebra has one indecomposable injective per vertex."""
    if strings.detect_band(p) is not None:
        return None
    return sum(artheory.is_injective_string(p, w) for w in strings.enumerate_strings(p)), \
        len(p.vertices)


@_agreement("algebra", lambda p, bound: [(x,) for x in _operands(p, bound)], 8,
            "factor_strings and substrings",
            "factor_count_bruteforce and sub_count_bruteforce")
def windows(p, x):
    return ((len(homs.factor_strings(p, x)), len(homs.substrings(p, x))),
            (homs.factor_count_bruteforce(p, x), homs.sub_count_bruteforce(p, x)))
