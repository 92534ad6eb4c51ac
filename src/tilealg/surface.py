"""Combinatorial marked surfaces with partial triangulations.

The surface is stored as a combinatorial map.  Every arc contributes two
darts (one departing from each end slot), every boundary segment two
darts (forward along the declared clockwise order, and reversed),
numbered next to each other, so the twin of dart d is d ^ 1.  At a
marked point the full rotation is

    (toward previous point, declared fan slots..., toward next point)

and tiles are the inner orbits of  d -> rotation-successor(d ^ 1),
walked with the tile on the right.  The rotation is a permutation that
takes the forward boundary dart leaving a point to the reversed one
leaving it, so the reversed boundary darts close up among themselves,
one discarded outer orbit per marked boundary component.  Unmarked
boundary components are not map vertices: they are placed inside a
declared monogon (type I) or digon (type II) tile, found through one
index from the sorted arcs of each all-arc monogon and digon to its
one face (two on the same arcs would leave a rotation cycle without
its point's boundary darts).  The surface is connected when every dart
is reached from one through twins and rotation successors.

One class, `Tiling`, holds a tiling: its description, the map built
from it and its tiles.  Completion to a triangulation grows a copy in
place, piercing each unmarked component and splitting m-gons, splices
the faces each step makes out of the walk it cuts, and classifies the
grown copy as the triangulation.

Tiling description files:

    tiling
    boundary <id> marked <p1> <p2> ...      # clockwise
    boundary <id> unmarked inside <arc> [<arc>]
    arc <id> <p> <q>
    fan <p> : <arc.end> <arc.end> ...       # clockwise, e.g. x.1 y.1
    end
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from typing import NamedTuple

from .algebra import (GentlePresentation, InputError, Rejection, _Checked, _given, _name, _record,
                      _records)


class TilingRejection(Rejection):
    """The described map is not a tiling of the supported kind."""


class Tile(NamedTuple):
    index: int
    walk: tuple            # dart ids, cyclic
    kind: str              # "m-gon" | "type-I" | "type-II"
    unmarked: str | None   # enclosed unmarked component, types I/II


class Tiling:
    """A tiling description and its combinatorial map: the dart lists
    `tail`, `kind` ("arc" | "seg" | "rseg"), `label` (arc id or segment
    tuple), `slot` (departing slot of arc darts), `key` and `rot_next`,
    the `tiles` (the inner faces; the module docstring says why no walk
    needs a guard), `face_of` (dart -> (tile index, position)) and
    `tile_names` (tile index -> "t<k>").  The twin of dart d is d ^ 1.
    Build one with `parse` or `from_data`.

    `key` (kind, label text, slot text) is the one dart order: each tile
    walk starts at its least-key dart and tiles go in the order of those
    keys.  Like `_build`'s dart numbers, it puts arc darts first, by arc
    id and end.  `_pierce` and `_split` grow the map of a `_copy` in
    place and keep its description in step."""

    __slots__ = ("marked", "unmarked", "arcs", "fans", "tail", "kind", "label", "slot",
                 "key", "rot_next", "_slot_dart", "tiles", "face_of", "tile_names")

    def __init__(self, marked: dict, unmarked: dict, arcs: dict, fans: dict):
        """A copy of the description, without a map or tiles."""
        self.marked = {k: list(v) for k, v in marked.items()}       # comp -> points, clockwise
        self.unmarked = {k: tuple(v) for k, v in unmarked.items()}  # comp -> placement arcs
        self.arcs = dict(arcs)                                      # arc -> (p, q) ends 1, 2
        self.fans = {k: list(v) for k, v in fans.items()}           # point -> slots (arc, end)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Tiling":
        marked, unmarked, arcs, fans = {}, {}, {}, {}
        seen_header = False
        for lineno, parts in _records(text, "tiling text {!r} is not a str"):
            kw = parts[0]
            if kw == "tiling":
                seen_header = True
            elif kw == "boundary":
                if len(parts) > 1 and (parts[1] in marked or parts[1] in unmarked):
                    raise InputError(f"line {lineno}: duplicate boundary {parts[1]!r}")
                if len(parts) >= 3 and parts[2] == "marked":
                    if len(parts) < 4:
                        raise InputError(f"line {lineno}: marked boundary needs points")
                    marked[parts[1]] = parts[3:]
                elif len(parts) >= 4 and parts[2] == "unmarked" and parts[3] == "inside":
                    if len(parts) not in (5, 6):
                        raise InputError(f"line {lineno}: unmarked placement needs 1 or 2 arcs")
                    unmarked[parts[1]] = tuple(sorted(parts[4:]))
                else:
                    raise InputError(f"line {lineno}: malformed boundary line")
            elif kw == "arc":
                if len(parts) != 4:
                    raise InputError(f"line {lineno}: arc syntax: arc <id> <p> <q>")
                if parts[1] in arcs:
                    raise InputError(f"line {lineno}: duplicate arc {parts[1]!r}")
                arcs[parts[1]] = (parts[2], parts[3])
            elif kw == "fan":
                if len(parts) < 3 or parts[2] != ":":
                    raise InputError(f"line {lineno}: fan syntax: fan <p> : <arc.end> ...")
                if parts[1] in fans:
                    raise InputError(f"line {lineno}: duplicate fan {parts[1]!r}")
                slots = []
                for tok in parts[3:]:
                    arc, dot, end = tok.rpartition(".")
                    if not dot or end not in ("1", "2"):
                        raise InputError(f"line {lineno}: bad slot {tok!r}")
                    slots.append((arc, 1 if end == "1" else 2))
                fans[parts[1]] = slots
            else:
                raise InputError(f"line {lineno}: unknown keyword {kw!r}")
        if not seen_header:
            raise InputError("missing 'tiling' header line")
        return cls(marked, unmarked, arcs, fans)._made()   # tokens are names already

    @classmethod
    def from_data(cls, marked, unmarked, arcs, fans) -> "Tiling":
        """The tiling of four dicts keyed by names: boundary -> marked points and
        point -> fan slots (arc, end), clockwise; unmarked -> arcs; arc -> ends."""
        maps = []
        for records, owner, items, size in (
                (marked, "marked boundary", "points", None), (arcs, "arc", "ends", 2),
                (unmarked, "unmarked", "placement", None), (fans, "fan at", "slots", None)):
            if not isinstance(records, dict):
                raise InputError(f"{owner} records {records!r} are not a dict")
            has, slots = f"{owner} {{1}} has {items} ", items == "slots"
            shape = has + "{0!r}, not " + ("two points" if size else "a sequence")
            each = has + "{2!r}: {0!r} is not " + ("(arc, end)" if slots else "a name")
            maps.append({_name(k, owner + " {!r} is not a name"): tuple(
                _record(x, 2, each, k, v) if slots else _name(x, each, k, v)
                for x in _record(v, size, shape, k)) for k, v in records.items()})
        marked, arcs, unmarked, fans = maps
        return cls(marked, {k: sorted(v) for k, v in unmarked.items()}, arcs, fans)._made()

    def _made(self) -> "Tiling":
        """This tiling, its description checked, its map built, its tiles classified."""
        self._check_input()
        self._build()
        self._classify(self._faces())
        return self

    # ------------------------------------------------------------------
    @property
    def points(self):
        return sorted(p for pts in self.marked.values() for p in pts)

    def arc_ids(self):
        return sorted(self.arcs)

    def text(self) -> str:
        lines = ["tiling"]
        for comp in sorted(self.marked):
            lines.append(f"boundary {comp} marked " + " ".join(self.marked[comp]))
        for comp in sorted(self.unmarked):
            lines.append(f"boundary {comp} unmarked inside "
                         + " ".join(self.unmarked[comp]))
        for arc in sorted(self.arcs):
            p, q = self.arcs[arc]
            lines.append(f"arc {arc} {p} {q}")
        for pt in sorted(self.fans):
            if self.fans[pt]:
                slots = " ".join(f"{a}.{e}" for a, e in self.fans[pt])
                lines.append(f"fan {pt} : {slots}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    # -- map construction ----------------------------------------------

    def _check_input(self):
        listed = [p for pts in self.marked.values() for p in pts]
        pts = set(listed)
        if len(listed) != len(pts):
            raise InputError("marked point listed twice")
        if not pts:
            raise InputError("a tiling needs at least one marked point")
        for comp, comp_pts in self.marked.items():
            if not comp_pts:
                raise InputError(f"marked boundary {comp} has no points")
        end_slots = []
        for arc, (p, q) in self.arcs.items():
            if p not in pts or q not in pts:
                raise InputError(f"arc {arc} ends at an unknown point")
            end_slots += (arc, 1), (arc, 2)
        declared = [s for slots in self.fans.values() for s in slots]
        # end_slots holds no slot twice, so equal sets of as many slots match
        if any(type(a) is not str or type(e) is not int for a, e in declared) \
                or len(declared) != len(end_slots) or set(declared) != set(end_slots):
            raise InputError("fans must list every arc end exactly once")
        for pt, slots in self.fans.items():
            if pt not in pts:
                raise InputError(f"fan at unknown point {pt}")
            for arc, end in slots:
                if self.arcs[arc][end - 1] != pt:
                    raise InputError(f"slot {arc}.{end} does not sit at {pt}")
        for comp, placement in self.unmarked.items():
            if comp in self.marked:
                raise InputError(f"boundary {comp} both marked and unmarked")
            if len(placement) not in (1, 2):
                raise InputError(f"unmarked {comp} must name 1 or 2 arcs")
            for a in placement:
                if a not in self.arcs:
                    raise InputError(f"unmarked {comp} placed inside unknown arc {a}")

    def _build(self):
        """The map of the description; see the module docstring."""
        self.tail, self.kind, self.label, self.slot, self.key = [], [], [], [], []
        self.rot_next, self._slot_dart = [], {}
        for arc in sorted(self.arcs):
            self._pair(("arc", "arc"), arc, *self.arcs[arc], ((arc, 1), (arc, 2)))
        toward_prev, toward_next = {}, {}
        for comp in sorted(self.marked):
            pts = self.marked[comp]
            for i, p in enumerate(pts):
                q = pts[(i + 1) % len(pts)]
                toward_next[p], toward_prev[q] = self._pair(("seg", "rseg"), (comp, i), p, q)
        for p, d in toward_next.items():
            self._rotate([toward_prev[p], *map(self._slot_dart.get, self.fans.get(p, ())), d])

    def _copy(self) -> "Tiling":
        """The description and the map, copied to be grown in place."""
        c = Tiling(self.marked, self.unmarked, self.arcs, self.fans)
        c.tail, c.kind, c.label, c.slot, c.key, c.rot_next = map(list, (
            self.tail, self.kind, self.label, self.slot, self.key, self.rot_next))
        c._slot_dart = dict(self._slot_dart)
        return c

    def _pair(self, kinds, label, p, q, slots=(None, None)):
        """Two new twin darts, d and d ^ 1 (d even), from p and from q.
        Their keys hold the texts `str` gives their label and slots: a
        boundary segment's label is (component, index), an arc's label its
        id and its slots (arc, 1) and (arc, 2)."""
        d = len(self.tail)
        self.tail += (p, q)
        self.kind += kinds
        self.label += (label, label)
        self.slot += slots
        self.rot_next += (None, None)
        if slots[0] is None:
            text = f"({label[0]!r}, {label[1]})"
            self.key += ((kinds[0], text, "None"), (kinds[1], text, "None"))
        else:
            text = repr(label)
            self.key += (("arc", label, f"({text}, 1)"), ("arc", label, f"({text}, 2)"))
            self._slot_dart[slots[0]], self._slot_dart[slots[1]] = d, d + 1
        return d, d + 1

    def _rotate(self, cycle):
        for d, e in zip(cycle, cycle[1:] + cycle[:1]):
            self.rot_next[d] = e

    def _faces(self):
        """The inner faces of the map as `_build` made it: the orbits of
        d -> rot_next(d ^ 1) from darts other than the reversed boundary
        darts, each walked from its least dart, its least-key dart too:
        an arc dart, or segment 0 of the component an arc-free face rounds."""
        rot, seen, walks = self.rot_next, [False] * len(self.tail), []
        for d0, kind in enumerate(self.kind):
            if not seen[d0] and kind != "rseg":
                walk, d = [d0], rot[d0 ^ 1]
                while d != d0:
                    walk.append(d)
                    seen[d] = True
                    d = rot[d ^ 1]
                walks.append(walk)
        return walks

    def _connected(self) -> bool:
        """Whether every dart is reached from dart 0 through twin and
        rot_next, i.e. the surface is connected."""
        rot, seen, todo = self.rot_next, [False] * len(self.rot_next), [0]
        seen[0] = True
        for d in todo:
            for e in (d ^ 1, rot[d]):
                if not seen[e]:
                    seen[e] = True
                    todo.append(e)
        return len(todo) == len(rot)

    def _classify(self, walks):
        """Tiles from the inner face walks, in the order of their first keys."""
        key, kinds, label = self.key, self.kind, self.label
        walks = sorted(walks, key=lambda walk: key[walk[0]])
        small = {}   # sorted arcs of an all-arc monogon or digon -> its one face
        for idx, walk in enumerate(walks):
            if len(walk) <= 2 and all(kinds[d] == "arc" for d in walk):
                small[tuple(sorted(label[d] for d in walk))] = idx
        held = {}   # face index -> the unmarked component it holds
        for comp in sorted(self.unmarked):
            arcs = self.unmarked[comp]
            idx = small.get(arcs)
            if idx is None:
                raise TilingRejection(
                    f"no monogon/digon tile bounded by {' '.join(arcs)} "
                    f"for unmarked component {comp}")
            if idx in held:
                raise TilingRejection("two unmarked components in one tile")
            held[idx] = comp

        tiles, face_of = [], {}
        for idx, walk in enumerate(walks):
            comp = held.get(idx)
            if comp is not None:
                kind = "type-I" if len(walk) == 1 else "type-II"
            elif len(walk) <= 2:
                desc = " ".join(map(self.side, walk))
                shape = "monogon" if len(walk) == 1 else "digon"
                raise TilingRejection(f"tile ({desc}) is a {shape} without an "
                                      "unmarked component")
            else:
                kind = "m-gon"
            tiles.append(Tile(idx, tuple(walk), kind, comp))
            for pos, d in enumerate(walk):
                face_of[d] = (idx, pos)
        self.tiles, self.face_of = tiles, face_of
        self.tile_names = {t.index: f"t{t.index + 1}" for t in tiles}

        self._check_topology()

    def _euler(self):
        """(chi, boundary components) of the tiled surface; each unmarked
        boundary component removes a disc from the tile around it.  Each
        marked point starts one boundary segment, so the two cancel in chi."""
        U = len(self.unmarked)
        return len(self.tiles) - len(self.arcs) - U, len(self.marked) + U

    def _check_topology(self):
        """A connected map has chi = 2 - 2g - b with g >= 0, so the Euler
        count needs no check of its own; (chi, b) = (1, 1) is a disc."""
        if not self._connected():
            raise TilingRejection("surface is disconnected")
        if self._euler() == (1, 1) and sum(map(len, self.marked.values())) < 4:
            raise TilingRejection("a disc needs at least four marked points")

    def side(self, d) -> str:
        """The text of tile side d: its arc id, or `boundary` for a
        boundary segment."""
        return self.label[d] if self.kind[d] == "arc" else "boundary"

    def genus(self) -> int:
        chi, b_total = self._euler()
        return (2 - b_total - chi) // 2

    # -- growth by completion --------------------------------------------

    def _enter(self, walk, c, d):
        """Put the new arc dart d at corner c of `walk` (between walk
        darts c-1 and c): in the rotation right after the twin of the dart
        arriving there, and its slot in the fan's sector before dart c."""
        nxt = walk[c]
        fan = self.fans.setdefault(self.tail[d], [])
        # before the outgoing boundary dart means at the end of the fan
        fan.insert(fan.index(self.slot[nxt]) if self.kind[nxt] == "arc" else len(fan),
                   self.slot[d])
        self.rot_next[walk[c - 1] ^ 1] = d
        self.rot_next[d] = nxt

    def _split(self, walk, arc):
        """Cut the m-gon `walk` (m >= 4) by the diagonal `arc` from its
        least corner to the corner two steps further along the walk;
        returns the two new faces, spliced from the walk: with W started
        at that corner, the rest (d1, W[2], ..., W[-1]) and the triangle
        (d2, W[0], W[1])."""
        w = _started(walk, self.tail)
        d1, d2 = self._arc(arc, self.tail[w[0]], self.tail[w[2]])
        self._enter(w, 0, d1)
        self._enter(w, 2, d2)
        return [_started((d1, *w[2:]), self.key), _started((d2, w[0], w[1]), self.key)]

    def _pierce(self, walk, comp, pt, arc):
        """Mark the point `pt` on the unmarked component `comp` inside the
        face `walk` and join it by `arc` to the face's least corner;
        returns the new face, an m-gon spliced from the walk: with W
        started at that corner, (d1, fwd, d2, W[0], ..., W[-1]), where fwd
        is the component's one boundary segment."""
        w = _started(walk, self.tail)
        d1, d2 = self._arc(arc, self.tail[w[0]], pt)
        self._enter(w, 0, d1)
        del self.unmarked[comp]
        self.marked[comp] = [pt]
        self.fans[pt] = [(arc, 2)]
        fwd, rev = self._pair(("seg", "rseg"), (comp, 0), pt, pt)
        self._rotate([rev, d2, fwd])
        return _started((d1, fwd, d2, *w), self.key)

    def _arc(self, arc, p, q):
        self.arcs[arc] = (p, q)
        return self._pair(("arc", "arc"), arc, p, q, ((arc, 1), (arc, 2)))


def _started(walk, order):
    """`walk` rotated to start at its least dart by `order`: by `tail` at
    its least corner, by `key` at its least-key dart, an arc dart, the one
    `_build` numbers first, so a map grown in place and one rebuilt agree."""
    i = walk.index(min(walk, key=order.__getitem__))
    return walk[i:] + walk[:i]


# -- the tiling algebra -------------------------------------------------


class TilingArrow(_Checked, namedtuple("TilingArrow",
                                       "name source target point leave_slot enter_slot")):
    """An arrow from the source to the target arc at their shared marked
    point p_a; its constructor checks that the point is a name and each
    slot an (arc, end) pair."""

    __slots__ = ()

    def __new__(cls, name, source, target, point, leave_slot, enter_slot):
        if type(point) is not str or not point:
            raise InputError(f"arrow {name} point {point!r} is not a name")
        for slot in (leave_slot, enter_slot):
            if type(slot) is not tuple or tuple(map(type, slot)) != (str, int):
                raise InputError(f"arrow {name} slot {slot!r} is not an (arc, end) pair")
        return super().__new__(cls, name, source, target, point, leave_slot, enter_slot)


class TilingAlgebra:
    """The gentle presentation on `vertices`, arcs of `tiling`, with the
    given TilingArrows (name -> arrow), which decide its relations: xy is
    one exactly when x enters its target arc at another end slot than the
    one y leaves.  InputError for a tiling that is not a `Tiling`, arrows
    that are not a dict of `TilingArrow`s each under its own name, an
    arrow off the arcs of its slots, two arrows that leave or enter one
    slot, a vertex that is not an arc of the tiling or an arrow whose
    slots are not at its point."""

    __slots__ = ("tiling", "presentation", "arrows", "arrow_by_slots", "_transits", "_arcs")

    def __init__(self, tiling: Tiling, vertices, arrows: dict):
        _given(tiling, Tiling)
        leaving, records, by_slots, taken = {}, [], {}, {}
        for key, y in _given(arrows, dict).items():
            if not isinstance(y, TilingArrow):
                _given(y, TilingArrow)
            name, source, target, _, leave, enter = y
            if name != key:
                raise InputError(f"arrow {name!r} is given under the key {key!r}")
            if source != leave[0] or target != enter[0]:
                raise InputError(f"arrow {name} does not join the arcs of its end slots "
                                 f"{leave} {enter}")
            for way, slot in (("leaves", leave), ("enters", enter)):
                other = taken.setdefault((way, slot), name)
                if other != name:
                    raise InputError(f"arrow {name} {way} the slot {slot} that {other} {way}")
            leaving.setdefault(source, []).append(y)
            records.append((name, source, target))
            by_slots[leave, enter] = name
        relations = [(x.name, y.name) for x in arrows.values()
                     for y in leaving.get(x.target, ()) if x.enter_slot != y.leave_slot]
        self.tiling = tiling
        self.presentation = GentlePresentation.from_data(vertices, records, relations)
        stray = self.presentation.quiver.vertices - tiling.arcs.keys()
        if stray:
            raise InputError(f"vertex {min(stray)!r} is not an arc of the tiling")
        for y in arrows.values():
            for slot in (y.leave_slot, y.enter_slot):
                d = tiling._slot_dart.get(slot)
                if d is None or tiling.tail[d] != y.point:
                    raise InputError(f"arrow {y.name} slot {slot} is not at its point {y.point}")
        self.arrows = arrows   # name -> TilingArrow
        self.arrow_by_slots = by_slots
        # the transit table, derived on first use by arcs._transit_table
        self._transits = None
        # the arcs store of arcs._seen, kept by strings._kept: id(arc) -> its entry
        self._arcs = {}


def tiling_algebra(t: Tiling) -> TilingAlgebra:
    """Vertices = arcs, one arrow per adjacent fan pair; a composition ab
    survives exactly when a enters the same end slot that b leaves
    (different marked points, and loops entered and left at different
    slots, give relations)."""
    _given(t, Tiling)
    arrows = {}
    for pt in sorted(t.fans):
        fan = t.fans[pt]
        for leave, enter in zip(fan, fan[1:]):
            name = f"a{len(arrows) + 1}"
            arrows[name] = TilingArrow._trusted((name, leave[0], enter[0], pt, leave, enter))
    return TilingAlgebra(t, sorted(t.arcs), arrows)


# -- completion to a triangulation ---------------------------------------


def _fresh(prefix, taken):
    """Names prefix1, prefix2, ... not in `taken` when they are drawn."""
    return (f"{prefix}{i}" for i in itertools.count(1) if f"{prefix}{i}" not in taken)


class Completion(NamedTuple):
    tiling: Tiling
    added_points: tuple
    added_arcs: tuple


def complete_to_triangulation(t: Tiling) -> Completion:
    """Deterministically complete a tiling to a triangulation: one new
    marked point per unmarked component, then repeated diagonal splits of
    the m-gon (m >= 4) whose walk starts at the least dart key.  Piercings
    and splits grow one copy of t in place and splice the faces each step
    makes out of the walk it cuts; the copy, with the triangles the splits
    left, is then classified as the triangulation, its description kept
    valid by each step, which puts each new arc end into one fan."""
    work = _given(t, Tiling)._copy()
    points, names = _fresh("m", set(t.points)), _fresh("z", work.arcs)
    around = {x.unmarked: x.walk for x in t.tiles if x.unmarked is not None}
    faces = [work._pierce(around[comp], comp, next(points), next(names))
             for comp in sorted(around)]
    faces += [x.walk for x in t.tiles if x.unmarked is None]
    heap = [(work.key[f[0]], f) for f in faces if len(f) > 3]
    current = t
    if heap:
        triangles = [f for f in faces if len(f) == 3]
        heapq.heapify(heap)  # dart keys are unique: walks never compared
        while heap:   # each split makes faces of m - 1 and 3 darts, so it ends
            _, walk = heapq.heappop(heap)
            for face in work._split(walk, next(names)):
                if len(face) > 3:
                    heapq.heappush(heap, (work.key[face[0]], face))
                else:
                    triangles.append(face)
        work._classify(triangles)
        current = work
    added_points = tuple(sorted(set(current.points) - set(t.points)))
    added_arcs = tuple(sorted(set(current.arcs) - set(t.arcs)))
    return Completion(current, added_points, added_arcs)


# -- collapse of a triangulation onto a subset of arcs --------------------


def collapse_presentation(alg_t: TilingAlgebra, keep) -> TilingAlgebra:
    """The algebra A_{P,T}: vertices are the kept arcs, arrows are the
    maximal direct strings of A_T running through dropped arcs only, and
    a composition is zero exactly when the junction pair is zero in A_T
    (equivalently: mismatched end slots)."""
    _given(alg_t, TilingAlgebra)
    keep = {_name(a, "keep set names {!r}, not an arc") for a in
            _record(keep, None, "keep set {!r} is not a collection of arcs")}
    unknown = keep - set(alg_t.tiling.arcs)
    if unknown:
        raise InputError(f"keep set names unknown arcs: {sorted(unknown)}")
    arrows = alg_t.arrows
    leaving = {(b.source, b.leave_slot): b for b in arrows.values()}

    collapsed = {}
    for name in sorted(arrows):
        first = last = arrows[name]
        if first.source not in keep:
            continue
        for _ in arrows:   # a walk from a kept arc meets no arrow twice
            if last is None or last.target in keep:
                break
            last = leaving.get((last.target, last.enter_slot))
        if last is not None and last.target in keep:
            cname = f"a{len(collapsed) + 1}"
            collapsed[cname] = TilingArrow._trusted((cname, first.source, last.target, first.point,
                                                     first.leave_slot, last.enter_slot))
    return TilingAlgebra(alg_t.tiling, sorted(keep), collapsed)


def _shape(alg: TilingAlgebra):
    """(vertex set, arrow keys, relations as pairs of keys) of an algebra,
    an arrow's key being (source, target, point, end slots), which no two
    of its arrows share, as they leave distinct slots."""
    key = {name: (x.source, x.target, x.point, x.leave_slot, x.enter_slot)
           for name, x in alg.arrows.items()}
    return (set(alg.presentation.quiver.vertices), set(key.values()),
            {(key[x], key[y]) for x, y in alg.presentation.relations})


def presentations_isomorphic(a: TilingAlgebra, b: TilingAlgebra) -> bool:
    """Isomorphism over the identity on vertices: arrows are matched by
    (source, target, point, end slots); no search is needed because the
    vertices are shared arcs."""
    _given(a, TilingAlgebra)
    _given(b, TilingAlgebra)
    return _shape(a) == _shape(b)
