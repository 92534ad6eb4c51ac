"""Permissible arcs and closed curves on a tiling, in minimal position.

An oriented arc is stored by its crossing darts: the i-th dart is the
side of the i-th crossed arc in the tile the curve leaves.  Condition
(3)(b) says consecutive crossings cut a corner of their transit tile:
the entering and exiting side occurrences are adjacent in the tile
walk.  Each consecutive pair stores its pivot as (corner index,
inverse flag); the flag records the direction of the realized arrow and
is essential on type I tiles, where the walk has length one and the
corner alone cannot tell a loop letter from its inverse.

End segments are descriptors (tile, corner index, route): the route
counts the sides passed while travelling from the corner around the
tile before landing on the crossed side, negative for the opposite
direction; the winding flag is |route| // (tile size).  The canonical
representative gamma_{s,t} starts one side behind the landing side with
route +1, which on m-gons is the paper's maximal counterclockwise
corner, on type I tiles the counterclockwise wrap around the unmarked
component, and on type II tiles the winding-zero end that leaves the
component to the left.

A pivot elementary move turns one end of gamma_{s,t} counterclockwise
to the next marked point: moving s realizes w_l, moving t realizes w_r.
Reversing an arc spells the inverse string, so the t move is the s move
of the reversed arc, the surface form of w_r = ((w^-1)_l)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import InputError, Rejection
from .homs import _HostView, _match
from .strings import (Band, Letter, StringWord, _letter_table, _primitive_root,
                      _word_error, detect_band)
from .surface import Tiling, TilingAlgebra


class ArcRejection(Rejection):
    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"{reason}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class EndDescriptor:
    tile: int       # tile index
    corner: int     # walk corner index (corner i sits before walk dart i)
    route: int      # signed side steps from the corner to the landing side

    def winding(self, tile_size: int) -> int:
        return abs(self.route) // tile_size


@dataclass(frozen=True)
class TrivialArc:
    """A permissible arc with intersection number zero (zero string)."""


@dataclass(frozen=True)
class PermissibleArc:
    darts: tuple              # crossing darts, each in the tile being left
    pivots: tuple             # per pair: (corner index in transit tile, inverse flag)
    start: EndDescriptor
    end: EndDescriptor

    @property
    def crossings(self):
        return len(self.darts)


@dataclass(frozen=True)
class ClosedCurveClass:
    darts: tuple              # cyclic crossing darts
    pivots: tuple             # pivot for pair (i, i+1 mod k)
    primitive_length: int
    exponent: int

    @property
    def crossings(self):
        return len(self.darts)


def crossing_word(t: Tiling, arc) -> tuple:
    if isinstance(arc, TrivialArc):
        return ()
    return tuple(t.label[d] for d in arc.darts)


def intersection_vector(t: Tiling, arc):
    counts = {a: 0 for a in sorted(t.arcs)}
    for a in crossing_word(t, arc):
        counts[a] += 1
    return counts


def intersection_number(t: Tiling, arc) -> int:
    return 0 if isinstance(arc, TrivialArc) else len(arc.darts)


# -- transit geometry ----------------------------------------------------


def _transit(t: Tiling, d_in: int, d_out: int, pivot):
    """The (leave_slot, enter_slot) of the arrow realized by the transit
    entering through crossing dart d_in and leaving through d_out, or
    None when the pivot does not describe a corner cut."""
    corner, inverse = pivot
    e = t.twin[d_in]
    face_e, pos_e = t.face_of[e]
    face_o, pos_o = t.face_of.get(d_out, (None, None))
    if face_o != face_e:
        return None
    walk = t.tiles[face_e].walk
    m = len(walk)
    corner %= m
    if not inverse:
        # walk pair (e, d_out): direct arrow arc(e) -> arc(d_out)
        if pos_o == corner and (pos_e + 1) % m == corner:
            return (t.slot[d_in], t.slot[d_out])
        return None
    # walk pair (d_out, e): arrow arc(d_out) -> arc(e), letter inverse
    if pos_e == corner and (pos_o + 1) % m == corner:
        return (t.slot[t.twin[d_out]], t.slot[e])
    return None


def arc_letters(t: Tiling, alg: TilingAlgebra, arc) -> list:
    """The quiver letters realized by consecutive crossings (also across
    the wrap of a closed curve); ArcRejection when a pair violates (3)(b)."""
    if isinstance(arc, TrivialArc):
        return []
    darts, pivots = arc.darts, arc.pivots
    n = len(darts)
    letters = []
    for i in range(n if isinstance(arc, ClosedCurveClass) else n - 1):
        slots = _transit(t, darts[i], darts[(i + 1) % n], pivots[i])
        if slots is None:
            raise ArcRejection(f"(3)(b) violation at crossings {i},{i + 1}")
        name = alg.arrow_by_slots.get(slots)
        if name is None:
            raise ArcRejection("(3)(b) violation",
                               f"no fan adjacency for slots {slots[0]} {slots[1]}")
        letters.append(Letter(name, pivots[i][1]))
    return letters


def pivot_points(t: Tiling, arc) -> tuple:
    """The marked point shared by each consecutive crossing pair."""
    if isinstance(arc, TrivialArc):
        return ()
    cyclic = isinstance(arc, ClosedCurveClass)
    n = len(arc.darts)
    pts = []
    for i in range(n if cyclic else n - 1):
        face = t.face_of[t.twin[arc.darts[i]]][0]
        walk = t.tiles[face].walk
        pts.append(t.tail[walk[arc.pivots[i][0] % len(walk)]])
    return tuple(pts)


# -- permissibility ------------------------------------------------------


def _end_valid(t: Tiling, desc: EndDescriptor, dart: int):
    tile = t.tiles[desc.tile]
    m = len(tile.walk)
    if not 0 <= desc.corner < m:
        return "malformed descriptor"
    landing = (desc.corner + desc.route) % m
    if tile.walk[landing] != dart:
        return "descriptor does not land on the crossed side"
    if not t.is_annular(tile):
        if desc.route not in range(0, m):
            return "disc-tile route out of range"
        if desc.corner == landing or desc.corner == (landing + 1) % m:
            return "not minimal: end segment can slide off the crossed arc"
        return None
    if desc.winding(m) > 1:
        return "(3)(a) violation: winding number exceeds one"
    if desc.route in (0, -1):
        return "not minimal: end segment can slide off the crossed arc"
    return None


def check_permissible(t: Tiling, alg: TilingAlgebra, arc):
    """None when the arc is permissible and minimal, else the reason."""
    if isinstance(arc, TrivialArc):
        return None
    if not arc.darts:
        return "malformed: no crossings but not the trivial arc"
    for d in arc.darts:
        if not (0 <= d < len(t.tail)) or t.kind[d] != "arc":
            return "malformed: crossing is not an arc side"
    try:   # a (3)(b) fault is reported before a fault at the ends
        letters = arc_letters(t, alg, arc)
    except ArcRejection as exc:
        return str(exc)
    cyclic = isinstance(arc, ClosedCurveClass)
    if not cyclic:
        err = _end_valid(t, arc.start, arc.darts[0])
        if err:
            return f"start {err}"
        err = _end_valid(t, arc.end, t.twin[arc.darts[-1]])
        if err:
            return f"end {err}"
    # minimal position: the induced walk must be reduced and avoid relations
    _, err = _word_error(alg.presentation, letters, cyclic)
    if err is not None:
        walk = "cyclic" if err[0] == 0 else "induced"
        return f"not minimal: {walk} walk is not a string"
    return None


# -- orientation of trivial-string arcs -----------------------------------


def _dart_sign(t: Tiling, alg: TilingAlgebra, d: int) -> int:
    """The sign x such that the single-crossing arc entering through d
    represents the trivial string 1_v^x, v = the crossed arc.

    Any one arrow end at v decides: a leaving end gives -sigma and an
    entering end epsilon, each negated when the end sits in the other
    slot of v.  The sharpened sign convention (sigma(b) = epsilon(a) for
    ab in I) makes every end give the same value, and twin darts get
    opposite signs."""
    p = alg.presentation
    v = t.label[d]
    own = t.slot[d]
    ends = ([(alg.arrows[a].leave_slot, -p.sigma[a]) for a in p.arrows_from(v)]
            + [(alg.arrows[a].enter_slot, p.epsilon[a]) for a in p.arrows_into(v)])
    if not ends:
        return 1 if own == (v, 1) else -1
    slot, sign = ends[0]
    return sign if slot == own else -sign


def _trivial_dart(t: Tiling, alg: TilingAlgebra, vertex: str, sign: int) -> int:
    d = t._slot_dart[(vertex, 1)]
    return d if _dart_sign(t, alg, d) == sign else t.twin[d]


# -- arc <-> string ------------------------------------------------------


def _gamma(t: Tiling, darts, pivots) -> PermissibleArc:
    """The arc gamma_{s,t} with these crossings: each end starts one side
    behind the side it lands on, with route +1."""
    def end(dart):
        face, pos = t.face_of[dart]
        return EndDescriptor(face, (pos - 1) % len(t.tiles[face].walk), 1)
    return PermissibleArc(tuple(darts), tuple(pivots), end(darts[0]),
                          end(t.twin[darts[-1]]))


def normalize(t: Tiling, arc):
    """The gamma_{s,t} representative of the arc's equivalence class."""
    if isinstance(arc, (TrivialArc, ClosedCurveClass)):
        return arc
    return _gamma(t, arc.darts, arc.pivots)


def arcs_equivalent(t: Tiling, a, b, oriented: bool = True) -> bool:
    """Equivalence of permissible arcs as equality of normal forms; with
    oriented=False the reversed traversal is also allowed (classes then
    correspond to inversion classes of strings)."""
    if isinstance(a, TrivialArc) or isinstance(b, TrivialArc):
        return isinstance(a, TrivialArc) and isinstance(b, TrivialArc)
    if normalize(t, a) == normalize(t, b):
        return True
    return not oriented and normalize(t, reverse_arc(t, a)) == normalize(t, b)


def _chain(t: Tiling, alg: TilingAlgebra, letters):
    """(darts, pivots) of the letters' transits, each letter entering
    through the dart the one before it left by; None when they do not
    chain up."""
    darts, pivots = [], []
    for l in letters:
        if l.arrow not in alg.arrows:
            raise InputError(f"{l.arrow!r} is not an arrow of the tiling algebra")
        a = alg.arrows[l.arrow]
        d_leave = t._slot_dart[a.leave_slot]
        d_enter = t._slot_dart[a.enter_slot]
        d_in, d_out = ((t.twin[d_enter], t.twin[d_leave]) if l.inverse
                       else (d_leave, d_enter))
        if not darts:
            darts.append(d_in)
        elif darts[-1] != d_in:
            return None
        pivots.append((t.face_of[d_enter][1], l.inverse))
        darts.append(d_out)
    return darts, pivots


def string_to_arc(t: Tiling, alg: TilingAlgebra, w: StringWord):
    """The canonical permissible arc gamma_{s,t} of a nonzero string."""
    if w.is_zero:
        return TrivialArc()
    if w.is_trivial:
        if w.vertex not in t.arcs:
            raise InputError(f"{w.vertex!r} is not an arc of the tiling")
        return _gamma(t, (_trivial_dart(t, alg, w.vertex, w.sign),), ())
    chain = _chain(t, alg, w.letters)
    if chain is None:
        raise InputError(f"not a string of this tiling algebra: {w.text()}")
    arc = _gamma(t, *chain)
    err = check_permissible(t, alg, arc)
    assert err is None, err
    return arc


def arc_to_string(t: Tiling, alg: TilingAlgebra, arc) -> StringWord:
    """The string of the crossing walk; single crossings give trivial
    strings whose sign is read off the entry side of the arc."""
    if isinstance(arc, TrivialArc):
        return StringWord.zero()
    if isinstance(arc, ClosedCurveClass):
        raise InputError("closed curves correspond to bands, not strings")
    if arc.crossings == 1:
        d = arc.darts[0]
        return StringWord.trivial(t.label[d], _dart_sign(t, alg, d))
    return StringWord.word(arc_letters(t, alg, arc))


def reverse_arc(t: Tiling, arc):
    """The arc traversed backwards.  Note that a self-dual dart sequence
    (e.g. the loop-letter arc through a type I tile) coincides with its
    reverse except for the pivot direction flags."""
    if isinstance(arc, TrivialArc):
        return arc
    darts = tuple(t.twin[d] for d in reversed(arc.darts))
    if isinstance(arc, ClosedCurveClass):
        k = len(arc.darts)
        pivots = tuple((arc.pivots[(k - 2 - i) % k][0],
                        not arc.pivots[(k - 2 - i) % k][1]) for i in range(k))
        return ClosedCurveClass(darts, pivots, arc.primitive_length, arc.exponent)
    pivots = tuple((c, not inv) for c, inv in reversed(arc.pivots))
    return PermissibleArc(darts, pivots, arc.end, arc.start)


# -- pivot elementary moves ----------------------------------------------


def pivot_move(t: Tiling, alg: TilingAlgebra, arc, end: str):
    """Move the chosen endpoint counterclockwise to the next marked
    point, after normalizing to gamma_{s,t}.  Computed by tile-boundary
    traversal: either the moved end sweeps across a fan (adding a hook)
    or the leading crossings slide off (removing a cohook).  end='s'
    realizes w_l; end='t' realizes w_r as the s move of the reversed
    arc, reversed back (the reverse of gamma_{s,t} is again one)."""
    if end not in ("s", "t"):
        raise InputError("end must be 's' or 't'")
    if isinstance(arc, (TrivialArc, ClosedCurveClass)) or not arc.darts:
        raise InputError("pivot moves require an arc with at least one crossing")
    arc = normalize(t, arc)
    if end == "s":
        out = _pivot_start(t, alg, arc)
    else:
        out = reverse_arc(t, _pivot_start(t, alg, reverse_arc(t, arc)))
    if isinstance(out, TrivialArc):
        return out
    err = check_permissible(t, alg, out)
    assert err is None, err
    return out


def _pivot_start(t: Tiling, alg: TilingAlgebra, arc: PermissibleArc):
    face, j = t.face_of[arc.darts[0]]
    walk = t.tiles[face].walk
    p_prev = walk[(j - 1) % len(walk)]
    if t.kind[p_prev] == "arc":
        # hook: the new end sweeps the fan at tail(p_prev) from p_prev
        # onward, crossing it in reverse order, then enters the old
        # start tile at its corner
        fan = t.fans[t.tail[p_prev]]
        sweep = fan[fan.index(t.slot[p_prev]):]
        darts = [t.twin[t._slot_dart[s]] for s in reversed(sweep)]
        pivots = [(t.face_of[t.twin[d]][1], True) for d in darts[:-1]]
        return _gamma(t, tuple(darts) + arc.darts,
                      tuple(pivots) + ((j, False),) + arc.pivots)
    # cohook: the maximal direct prefix and the following inverse
    # crossing slide off the moved endpoint
    letters = arc_letters(t, alg, arc)
    drop = next((i for i, l in enumerate(letters) if l.inverse), None)
    if drop is None:
        return TrivialArc()
    return _gamma(t, arc.darts[drop + 1:], arc.pivots[drop + 1:])


def tau_inverse_arc(t: Tiling, alg: TilingAlgebra, arc):
    """Counterclockwise rotation of both endpoints of gamma_{s,t}; None
    when the string module is injective (the rotated arc has
    intersection number zero)."""
    if isinstance(arc, (TrivialArc, ClosedCurveClass)):
        raise InputError("tau applies to arcs with at least one crossing")
    arc = normalize(t, arc)
    for first, second in (("t", "s"), ("s", "t")):
        moved = pivot_move(t, alg, arc, first)
        if not isinstance(moved, TrivialArc):
            moved = pivot_move(t, alg, moved, second)
            return None if isinstance(moved, TrivialArc) else moved
    return None


# -- closed curves and bands ----------------------------------------------


def band_to_closed_curve(t: Tiling, alg: TilingAlgebra, band: Band,
                         exponent: int = 1) -> ClosedCurveClass:
    if exponent < 1:
        raise InputError("exponent must be >= 1")
    chain = _chain(t, alg, band.letters)
    if chain is None:
        raise InputError("band letters do not chain up on the surface")
    darts, pivots = chain
    if darts[-1] != darts[0]:
        raise InputError("band does not close up on the surface")
    darts = darts[:-1]
    curve = ClosedCurveClass(tuple(darts) * exponent, tuple(pivots) * exponent,
                             len(darts), exponent)
    err = check_permissible(t, alg, curve)
    assert err is None, err
    return curve


def closed_curve_to_band(t: Tiling, alg: TilingAlgebra, curve: ClosedCurveClass):
    """(band, exponent) for a permissible closed curve; rejects curves
    whose cyclic crossing walk is not a band power."""
    err = check_permissible(t, alg, curve)
    if err is not None:
        raise ArcRejection(err)
    if curve.crossings < 2:
        raise ArcRejection("closed curve crosses fewer than two arcs",
                           "not a band power")
    letters = tuple(arc_letters(t, alg, curve))
    root = _primitive_root(letters)
    band = Band.from_letters(alg.presentation, root)
    return band, len(letters) // len(root)


def rep_type_geometric(t: Tiling, alg: TilingAlgebra):
    """('finite', None) or ('infinite', witness closed curve)."""
    band = detect_band(alg.presentation)
    if band is None:
        return ("finite", None)
    curve = band_to_closed_curve(t, alg, band, 1)
    assert check_permissible(t, alg, curve) is None
    assert curve.crossings >= 2
    return ("infinite", curve)


# -- reading morphisms from curves ----------------------------------------


def _arc_view(t: Tiling, alg: TilingAlgebra, arc) -> _HostView:
    if isinstance(arc, TrivialArc):
        raise InputError("trivial arcs carry the zero module")
    codes = _letter_table(alg.presentation).encode(arc_letters(t, alg, arc))
    return _HostView(tuple(codes), crossing_word(t, arc),
                     isinstance(arc, ClosedCurveClass))


def hom_dim_geometric(t: Tiling, alg: TilingAlgebra, arc_v, arc_w) -> int:
    """Count pairs of homotopic admissible segments: an anticlockwise
    admissible segment of arc_v against a clockwise admissible segment
    of arc_w with the same crossing subword.

    An arc spells the same letter word as its string, so anticlockwise
    segments are the factor windows and clockwise segments the sub
    windows of `homs`, and both readings share its matcher.  Segments
    without a transit are keyed by the arc they cross, and closed
    curves are read in their periodic unrolling."""
    return len(_match(_arc_view(t, alg, arc_v), _arc_view(t, alg, arc_w)))


# -- formatting ------------------------------------------------------------


def format_arc(t: Tiling, arc) -> str:
    """Stable one-line arc literal, e.g.
    ``arc-word t1.c2.r1(p2,w0) : x @p1 y : t3.c0.r1(p4,w0)``."""
    if isinstance(arc, TrivialArc):
        return "arc-word trivial"
    pts = pivot_points(t, arc)
    if isinstance(arc, ClosedCurveClass):
        inner = " ".join(f"{t.label[d]} @{pts[i]}" for i, d in enumerate(arc.darts))
        return f"closed-curve ( {inner} ) ^{arc.exponent}"
    chunks = []
    for i, d in enumerate(arc.darts):
        chunks.append(t.label[d])
        if i < len(pts):
            chunks.append(f"@{pts[i]}")

    def endtxt(desc):
        tile = t.tiles[desc.tile]
        name = t.tile_names[desc.tile]
        pt = t.corner_point(tile, desc.corner)
        return f"{name}.c{desc.corner}.r{desc.route}({pt},w{desc.winding(len(tile.walk))})"

    return f"arc-word {endtxt(arc.start)} : {' '.join(chunks)} : {endtxt(arc.end)}"
