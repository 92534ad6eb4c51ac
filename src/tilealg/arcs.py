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
The transit table of an algebra records which corner realizes which
letter code (of the letter table of `strings`), read both ways: from a
crossing dart and a direction to the exit dart, corner and code, and
from a code back to its entry dart, exit dart and pivot.  `_chain` looks
up the transits of the codes `strings._operand` reads for
`string_to_arc` and `band_to_closed_curve`; letters of a tiling algebra
that form a string always chain up, as a relation is exactly an
end-slot mismatch.

An arc gives a module exactly when it is permissible, and `_verdict` is
the one check of that: None, or the reason the arc is refused.  In
order, it checks that every crossing is of an arc side, that the ends
pass (3)(a) and cannot slide off, and that each crossing pair cuts a
corner holding an arrow ((3)(b)).  Minimal position needs no check: the
codes of that walk spell a string, as consecutive transits meet at one
slot and twin darts hold different slots.  The walk gives the codes that
`arc_to_string`, `closed_curve_to_band` (through `strings._band`, the
one band builder), the geometric Hom and the cohook move read.  The
first two checks are of the tiling alone: the functions that take no
algebra run only those, and refuse an arc with ArcRejection and the
reason `check_permissible` gives.  Every other function checks through
`_own` that an algebra it is given is built on its tiling, reads the
arcs it is given through the arcs store of that algebra (`_seen`), kept
by `strings._kept` as Hom operands are, and raises ArcRejection with the
arc's verdict before any other work.  The arc records check their shape
when built, so `_arc` reads an arc on its first use for membership in
the tiling only, and it is kept under its identity.  An arc's entry
(`_ArcEntry`) is its `strings._Entry` as a Hom operand and holds what
else the algebra learns of it: its verdict and view, computed when it is
read, and its pivot moves, which read no ends, so it moves as its
gamma_{s,t} form does.  The arcs the library makes (by `string_to_arc`,
`band_to_closed_curve`, a pivot or a tau move) are kept unread, judged
when they are made and checked by a permissibility assertion, so a
repeated move returns the same object and a tau move reuses the pivot
moves already made.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .algebra import InputError, Rejection, _Checked, _given, _int_arg
from .strings import (Band, StringWord, _band, _cyclic_form, _Entry, _inverse, _kept,
                      _letter_table, _operand, _string_word, detect_band)
from .surface import Tiling, TilingAlgebra


class ArcRejection(Rejection):
    """An arc that is not permissible; the message is its verdict."""


class EndDescriptor(_Checked, namedtuple("EndDescriptor", "tile corner route")):
    """Ints: the tile index, the walk corner index (corner i sits before
    walk dart i) and the signed side steps from it to the landing side."""

    __slots__ = ()

    def __new__(cls, tile, corner, route):
        return super().__new__(cls, *map(_int_arg, (tile, corner, route), cls._fields))

    def winding(self, tile_size: int) -> int:
        return abs(self.route) // tile_size


class TrivialArc(NamedTuple):
    """A permissible arc with intersection number zero (zero string).
    A record without fields: it equals the empty tuple and is falsy."""


_NOT_AN_END = "arc {} {!r} is not an EndDescriptor of ints on a tile of the tiling"


def _crossings(darts, pivots, closed: bool):
    """InputError naming the field unless the darts are a nonempty tuple of
    ints and the pivots a tuple of (int, bool) pairs, one per crossing pair."""
    for name, xs in (("darts", darts), ("pivots", pivots)):
        if not isinstance(xs, tuple):
            raise InputError(f"arc {name} {xs!r} are not a tuple")
    if not darts:
        raise InputError("arc has no darts; the arc without crossings is TrivialArc()")
    for d in darts:
        if type(d) is not int:
            raise InputError(f"arc dart {d!r} is not a dart of the tiling")
    for x in pivots:
        if not isinstance(x, tuple) or len(x) != 2 or type(x[0]) is not int or \
                type(x[1]) is not bool:
            raise InputError(f"arc pivot {x!r} is not a (corner, inverse) pair")
    if len(pivots) != len(darts) - (not closed):
        raise InputError(f"arc of {len(darts)} darts has {len(pivots)} pivots, "
                         f"not {len(darts) - (not closed)}")


class PermissibleArc(_Checked, namedtuple("PermissibleArc", "darts pivots start end")):
    """Crossing darts, each in the tile being left, the pivot (corner index
    in the transit tile, inverse flag) of each pair, and two ends."""

    __slots__ = ()

    def __new__(cls, darts, pivots, start, end):
        _crossings(darts, pivots, False)
        for name, x in (("start", start), ("end", end)):
            if not isinstance(x, EndDescriptor):
                raise InputError(_NOT_AN_END.format(name, x))
        return super().__new__(cls, darts, pivots, start, end)


class ClosedCurveClass(_Checked, namedtuple("ClosedCurveClass",
                                            "darts pivots primitive_length exponent")):
    """Cyclic crossing darts and the pivot of each pair (i, i+1 mod k),
    which repeat their first primitive_length entries exponent times."""

    __slots__ = ()

    def __new__(cls, darts, pivots, primitive_length, exponent):
        _crossings(darts, pivots, True)
        k, n = primitive_length, exponent
        for name, x in (("primitive_length", k), ("exponent", n)):
            if _int_arg(x, name) < 1:
                raise InputError(f"closed curve {name} must be >= 1, got {x}")
        if k * n != len(darts):
            raise InputError(f"closed curve primitive_length {k} times exponent {n} "
                             f"is not its {len(darts)} darts")
        for name, xs in (("darts", darts), ("pivots", pivots)):
            if xs != xs[:k] * n:
                raise InputError(f"closed curve {name} are not their first {k} "
                                 f"repeated {n} times")
        return super().__new__(cls, darts, pivots, k, n)


def _arc(t: Tiling, arc):
    """`arc` if it is an arc record whose darts and end tiles are those of t,
    else InputError naming the tiling, the record or the field."""
    _given(t, Tiling)
    if isinstance(arc, TrivialArc):
        return arc
    if not isinstance(arc, (PermissibleArc, ClosedCurveClass)):
        raise InputError(f"arc {arc!r} is not a TrivialArc, PermissibleArc or "
                         "ClosedCurveClass")
    for d in arc.darts:
        if d not in range(len(t.tail)):
            raise InputError(f"arc dart {d!r} is not a dart of the tiling")
    if isinstance(arc, PermissibleArc):
        for name, x in (("start", arc.start), ("end", arc.end)):
            if x.tile not in range(len(t.tiles)):
                raise InputError(_NOT_AN_END.format(name, x))
    return arc


def _own(t: Tiling, alg):
    """`alg` if it is an algebra built on t itself, as `tiling_algebra(t)`
    is; else InputError."""
    if not isinstance(alg, TilingAlgebra) or alg.tiling is not t:
        raise InputError("the algebra is not built on this tiling; "
                         "pass tiling_algebra(t) with t")
    return alg


class _ArcEntry(_Entry):
    """What an algebra knows of one arc: its `strings._Entry` as a Hom
    operand, whose view is (codes, crossed arcs, closed), its verdict
    (the reason it is refused, with the view None, or None), both as
    `_verdict` gives them when the entry is made, and the entries of its
    pivot moves by end, empty until used."""

    __slots__ = ("verdict", "moves")

    def __init__(self, arc, verdict=None, view=None):
        super().__init__(arc, view)
        self.verdict, self.moves = verdict, {}


def _seen(alg: TilingAlgebra, arc) -> _ArcEntry:
    """The entry of an arc given to a function of alg, kept in the arcs
    store of alg by `strings._kept`: read through `_arc` and judged on its
    first use and returned while that same object is given again."""
    return _kept(alg._arcs, arc, _read_arc, alg)


def _read_arc(alg: TilingAlgebra, arc) -> _ArcEntry:
    """The entry of an arc given to a function, read through `_arc`."""
    return _ArcEntry(arc, *_verdict(alg.tiling, _arc(alg.tiling, arc), alg))


def _made(alg: TilingAlgebra, arc) -> _ArcEntry:
    """The entry of a permissible arc the library made, which `_kept` keeps
    unread; its permissibility assertion checks its verdict."""
    entry = _ArcEntry(arc, *_verdict(alg.tiling, arc, alg))
    assert entry.verdict is None, entry.verdict
    return entry


def _tiled(t: Tiling, arc):
    """An arc record that `_arc` reads and whose sides and ends the tiling
    accepts, else ArcRejection with the reason of `_verdict`."""
    err = _verdict(t, _arc(t, arc))[0]
    if err is not None:
        raise ArcRejection(err)
    return arc


def crossing_word(t: Tiling, arc) -> tuple:
    if isinstance(_tiled(t, arc), TrivialArc):
        return ()
    return tuple(t.label[d] for d in arc.darts)


def intersection_vector(t: Tiling, arc):
    word = crossing_word(t, arc)
    counts = {a: 0 for a in sorted(t.arcs)}
    for a in word:
        counts[a] += 1
    return counts


def intersection_number(t: Tiling, arc) -> int:
    return 0 if isinstance(_tiled(t, arc), TrivialArc) else len(arc.darts)


# -- transit geometry ----------------------------------------------------


def _transit_table(alg: TilingAlgebra) -> dict:
    """The transits of the tiling of `alg`, built on first use and kept
    on the algebra.  A curve entering a tile through the twin e of
    crossing dart d cuts one corner next to e: for (d, False) the corner
    after e, realizing the direct arrow arc(e) -> arc(next side), for
    (d, True) the corner before it, realizing the arrow arc(previous
    side) -> arc(e) as an inverse letter.  Only arc sides d are keys, as
    no curve enters a tile through its boundary.  Each key maps to (the
    only dart the curve can leave by, the tile size, the corner index,
    the letter's code c in the letter table of `alg` or None when no
    arrow joins the two slots, those (leave, enter) slots), and the key c
    maps back to (d, the dart it leaves by, its pivot (corner, inverse
    flag))."""
    table = alg._transits
    if table is None:
        t, by_slots = alg.tiling, alg.arrow_by_slots
        code = _letter_table(alg.presentation).code
        table = alg._transits = {}

        def entry(d, inverse, d_out, m, corner, slots):
            name = by_slots.get(slots)
            c = None if name is None else code[name, inverse]
            table[d, inverse] = (d_out, m, corner, c, slots)
            if c is not None:
                table[c] = (d, d_out, (corner, inverse))

        for tile in t.tiles:
            walk, m = tile.walk, len(tile.walk)
            for pos, e in enumerate(walk):
                if t.kind[e] != "arc":
                    continue
                d, nxt, prev = e ^ 1, walk[(pos + 1) % m], walk[pos - 1]
                # walk pair (e, nxt): the direct arrow arc(e) -> arc(nxt)
                entry(d, False, nxt, m, (pos + 1) % m, (t.slot[d], t.slot[nxt]))
                # walk pair (prev, e): the arrow arc(prev) -> arc(e), read inverse
                entry(d, True, prev, m, pos, (t.slot[prev ^ 1], t.slot[e]))
    return table


def pivot_points(t: Tiling, arc) -> tuple:
    """The marked point shared by each consecutive crossing pair."""
    if isinstance(_tiled(t, arc), TrivialArc):
        return ()
    walks = (t.tiles[t.face_of[d ^ 1][0]].walk for d in arc.darts)
    return tuple(t.tail[w[corner % len(w)]] for w, (corner, _) in zip(walks, arc.pivots))


# -- permissibility ------------------------------------------------------


def _end_valid(t: Tiling, desc: EndDescriptor, dart: int):
    tile = t.tiles[desc.tile]
    m = len(tile.walk)
    if not 0 <= desc.corner < m:
        return "malformed descriptor"
    landing = (desc.corner + desc.route) % m
    if tile.walk[landing] != dart:
        return "descriptor does not land on the crossed side"
    if tile.unmarked is None:
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
    return _seen(_own(t, alg), arc).verdict


def _verdict(t: Tiling, arc, alg: TilingAlgebra | None = None) -> tuple:
    """(reason, view) of a read arc: the reason it is refused, or None
    with its Hom view, (the letter codes of its crossing walk, the arcs
    it crosses, whether it is closed).  The checks run in order:
    every crossing is of an arc side, the ends pass `_end_valid`, and
    each crossing pair cuts the corner its pivot names and a corner
    holding an arrow ((3)(b)); the codes of such a walk spell a string
    (see the module docstring).  The first two are of the tiling alone;
    without alg only they run, and view is None."""
    if isinstance(arc, TrivialArc):
        return None, ((), (), False)
    darts = arc.darts
    for i, d in enumerate(darts):
        if t.kind[d] != "arc":
            return f"malformed: crossing {i} is not an arc side", None
    cyclic = isinstance(arc, ClosedCurveClass)
    if not cyclic:
        for name, desc, dart in (("start", arc.start, darts[0]),
                                 ("end", arc.end, darts[-1] ^ 1)):
            err = _end_valid(t, desc, dart)
            if err:
                return f"{name} {err}", None
    if alg is None:
        return None, None
    table, codes, n = _transit_table(alg), [], len(darts)
    for i, (corner, inverse) in enumerate(arc.pivots):   # one per crossing pair
        d_out, m, cut, code, slots = table[darts[i], inverse]
        if d_out != darts[(i + 1) % n] or corner % m != cut:
            return f"(3)(b) violation at crossings {i},{i + 1}", None
        if code is None:
            return f"(3)(b) violation: no fan adjacency for slots {slots[0]} {slots[1]}", None
        codes.append(code)
    return None, (tuple(codes), tuple(map(t.label.__getitem__, darts)), cyclic)


def _accepted(entry: _ArcEntry) -> tuple:
    """The codes of the arc of an entry, or ArcRejection with its verdict."""
    if entry.verdict is not None:
        raise ArcRejection(entry.verdict)
    return entry.view[0]


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
    return d if _dart_sign(t, alg, d) == sign else d ^ 1


# -- arc <-> string ------------------------------------------------------


def _gamma(t: Tiling, darts, pivots) -> PermissibleArc:
    """The arc gamma_{s,t} with these crossings: each end starts one side
    behind the side it lands on, with route +1."""
    ends = [EndDescriptor._trusted((f, (i - 1) % len(t.tiles[f].walk), 1))
            for f, i in (t.face_of[darts[0]], t.face_of[darts[-1] ^ 1])]
    return PermissibleArc._trusted((tuple(darts), tuple(pivots), *ends))


def normalize(t: Tiling, arc):
    """The gamma_{s,t} representative of the arc's equivalence class."""
    if isinstance(_tiled(t, arc), (TrivialArc, ClosedCurveClass)):
        return arc
    return _gamma(t, arc.darts, arc.pivots)


def _chain(alg: TilingAlgebra, codes):
    """(darts, pivots) of the transits of letter codes, off the transit
    table: the first entry dart, then each exit dart, where the next enters."""
    table = _transit_table(alg)
    if not all(c in table for c in codes):   # e.g. a collapsed algebra's arrow
        raise InputError("an arrow of the algebra cuts no corner of its tiling")
    darts, pivots = [table[codes[0]][0]], []
    for c in codes:
        _, d_out, pivot = table[c]
        darts.append(d_out)
        pivots.append(pivot)
    return darts, pivots


def string_to_arc(t: Tiling, alg: TilingAlgebra, w: StringWord):
    """The canonical permissible arc gamma_{s,t} of a string of alg."""
    _own(t, alg)
    if isinstance(w, StringWord) and w.is_zero:
        return TrivialArc()
    codes, _, cyclic = _operand(alg.presentation, w)
    if cyclic:
        raise InputError("a band gives a closed curve; see band_to_closed_curve")
    if not codes:
        arc = _gamma(t, (_trivial_dart(t, alg, w.vertex, w.sign),), ())
    else:
        arc = _gamma(t, *_chain(alg, codes))
    return _kept(alg._arcs, arc, _made, alg).host


def arc_to_string(t: Tiling, alg: TilingAlgebra, arc) -> StringWord:
    """The string of the crossing walk; single crossings give trivial
    strings whose sign is read off the entry side of the arc.
    ArcRejection with `check_permissible`'s reason for an arc it refuses."""
    entry = _seen(_own(t, alg), arc)
    if isinstance(arc, TrivialArc):
        return _string_word(alg.presentation, None)
    if isinstance(arc, ClosedCurveClass):
        raise InputError("closed curves correspond to bands, not strings")
    codes, d = _accepted(entry), arc.darts[0]   # one crossing spells no codes
    trivial = () if codes else (t.label[d], _dart_sign(t, alg, d))
    return _string_word(alg.presentation, (codes, trivial))


def reverse_arc(t: Tiling, arc):
    """The arc traversed backwards.  Note that a self-dual dart sequence
    (e.g. the loop-letter arc through a type I tile) coincides with its
    reverse except for the pivot direction flags."""
    return _reverse(_tiled(t, arc))


def _reverse(arc):
    """`reverse_arc` of a read arc."""
    if isinstance(arc, TrivialArc):
        return arc
    darts = tuple(d ^ 1 for d in reversed(arc.darts))
    if isinstance(arc, ClosedCurveClass):   # the wrap pair stays last
        pivots = tuple((c, not inv) for c, inv in arc.pivots[-2::-1] + arc.pivots[-1:])
        return ClosedCurveClass._trusted((darts, pivots, arc.primitive_length, arc.exponent))
    pivots = tuple([(c, not inv) for c, inv in reversed(arc.pivots)])
    return PermissibleArc._trusted((darts, pivots, arc.end, arc.start))


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
    entry = _seen(_own(t, alg), arc)
    if isinstance(arc, (TrivialArc, ClosedCurveClass)):
        raise InputError("pivot moves require an arc with at least one crossing")
    _accepted(entry)
    return _pivot(t, alg, entry, end).host


def _pivot(t: Tiling, alg: TilingAlgebra, entry: _ArcEntry, end: str) -> _ArcEntry:
    """The entry of `pivot_move` of an accepted open arc of an entry, made
    once and kept in its moves; it reads the arc's darts, pivots and codes,
    never its ends, so the arc moves as its normal form gamma_{s,t} does."""
    moved = entry.moves.get(end)
    if moved is None:
        arc, codes = entry.host, _accepted(entry)
        if end == "s":
            out = _pivot_start(t, arc, codes)
        else:   # the reversed arc spells the inverse codes
            out = _reverse(_pivot_start(t, _reverse(arc), _inverse(codes)))
        moved = entry.moves[end] = (_ArcEntry(out) if isinstance(out, TrivialArc)
                                    else _kept(alg._arcs, out, _made, alg))
    return moved


def _pivot_start(t: Tiling, arc: PermissibleArc, codes):
    face, j = t.face_of[arc.darts[0]]
    walk = t.tiles[face].walk
    p_prev = walk[(j - 1) % len(walk)]
    if t.kind[p_prev] == "arc":
        # hook: the new end sweeps the fan at tail(p_prev) from p_prev
        # onward, crossing it in reverse order, then enters the old
        # start tile at its corner
        fan = t.fans[t.tail[p_prev]]
        sweep = fan[fan.index(t.slot[p_prev]):]
        darts = [t._slot_dart[s] ^ 1 for s in reversed(sweep)]
        pivots = [(t.face_of[d ^ 1][1], True) for d in darts[:-1]]
        return _gamma(t, tuple(darts) + arc.darts,
                      tuple(pivots) + ((j, False),) + arc.pivots)
    # cohook: the maximal direct prefix and the following inverse
    # crossing (the first odd code) slide off the moved endpoint
    drop = next((i for i, c in enumerate(codes) if c & 1), None)
    if drop is None:
        return TrivialArc()
    return _gamma(t, arc.darts[drop + 1:], arc.pivots[drop + 1:])


def tau_inverse_arc(t: Tiling, alg: TilingAlgebra, arc):
    """Counterclockwise rotation of both endpoints of gamma_{s,t}; None
    when the string module is injective (the rotated arc has
    intersection number zero)."""
    entry = _seen(_own(t, alg), arc)
    if isinstance(arc, (TrivialArc, ClosedCurveClass)):
        raise InputError("tau applies to arcs with at least one crossing")
    _accepted(entry)
    for first, second in (("t", "s"), ("s", "t")):
        moved = _pivot(t, alg, entry, first)
        if not isinstance(moved.host, TrivialArc):
            moved = _pivot(t, alg, moved, second).host
            return None if isinstance(moved, TrivialArc) else moved
    return None


# -- closed curves and bands ----------------------------------------------


def band_to_closed_curve(t: Tiling, alg: TilingAlgebra, band: Band,
                         exponent: int = 1) -> ClosedCurveClass:
    _own(t, alg)
    if _int_arg(exponent, "exponent") < 1:
        raise InputError("exponent must be >= 1")
    codes, _, cyclic = _operand(alg.presentation, band)
    if not cyclic:
        raise InputError("a string gives an arc; see string_to_arc")
    darts, pivots = _chain(alg, codes)
    darts = darts[:-1]      # the walk closes up: the last exit is the first entry
    curve = ClosedCurveClass._trusted((tuple(darts) * exponent, tuple(pivots) * exponent,
                                       len(darts), exponent))
    return _kept(alg._arcs, curve, _made, alg).host


def closed_curve_to_band(t: Tiling, alg: TilingAlgebra, curve: ClosedCurveClass):
    """(band, exponent) for a permissible closed curve, whose cyclic
    crossing walk is a band power; ArcRejection with `check_permissible`'s
    reason for a curve it refuses."""
    entry = _seen(_own(t, alg), curve)
    if not isinstance(curve, ClosedCurveClass):
        raise InputError("arcs correspond to strings, not bands")
    codes = _accepted(entry)
    period = _cyclic_form(codes)[1]
    return _band(alg.presentation, codes[:period]), len(codes) // period


def rep_type_geometric(t: Tiling, alg: TilingAlgebra):
    """('finite', None) or ('infinite', witness closed curve)."""
    band = detect_band(_own(t, alg).presentation)
    if band is None:
        return ("finite", None)
    return ("infinite", band_to_closed_curve(t, alg, band, 1))


# -- reading morphisms from curves ----------------------------------------


def _viewed(alg: TilingAlgebra, arc) -> _ArcEntry:
    """The entry of an accepted arc with crossings, whose view is the
    (codes, vertices, cyclic) `homs` operand it spells."""
    entry = _seen(alg, arc)
    if isinstance(arc, TrivialArc):
        raise InputError("trivial arcs carry the zero module")
    _accepted(entry)
    return entry


def hom_dim_geometric(t: Tiling, alg: TilingAlgebra, arc_v, arc_w) -> int:
    """Count pairs of homotopic admissible segments: an anticlockwise
    admissible segment of arc_v against a clockwise admissible segment
    of arc_w with the same crossing subword.

    An arc spells the same letter word as its string, so anticlockwise
    segments are the factor windows and clockwise segments the sub
    windows of `homs`, and both readings share its run matcher, in
    O(n m) time and O(n + m) memory for arcs of n and m letters.  An arc's
    entry in the arcs store of `alg` is its Hom operand entry, so its view
    and the factor or sub part of its match index are built once, as a
    string's are.  Segments without a transit match by the arc they
    cross, and closed curves are read in their periodic unrolling.  An
    arc's codes and trivial windows sit on the arcs it crosses, so arcs
    that cross no common arc share no match key: `_match` has no pair.
    ArcRejection with `check_permissible`'s reason for an arc it refuses."""
    from .homs import _match   # only Hom loads homs
    _own(t, alg)
    return sum(1 for _ in _match(_viewed(alg, arc_v), _viewed(alg, arc_w)))


# -- formatting ------------------------------------------------------------


def format_arc(t: Tiling, arc) -> str:
    """Stable one-line arc literal, e.g.
    ``arc-word t1.c2.r1(p2,w0) : x @p1 y : t3.c0.r1(p4,w0)``."""
    pts = pivot_points(t, arc)
    if isinstance(arc, TrivialArc):
        return "arc-word trivial"
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
        pt = t.tail[tile.walk[desc.corner % len(tile.walk)]]
        return f"{name}.c{desc.corner}.r{desc.route}({pt},w{desc.winding(len(tile.walk))})"

    return f"arc-word {endtxt(arc.start)} : {' '.join(chunks)} : {endtxt(arc.end)}"
