"""Combinatorial marked surfaces with partial triangulations.

The surface is stored as a combinatorial map.  Every arc contributes two
darts (one departing from each end slot), every boundary segment two
darts (forward along the declared clockwise order, and reversed).  At a
marked point the full rotation is

    (toward previous point, declared fan slots..., toward next point)

and tiles are the orbits of  d -> rotation-successor(twin(d)),  walked
with the tile on the right; the reversed boundary darts form one
discarded outer orbit per marked boundary component.  Unmarked boundary
components are not map vertices: they are placed inside a declared
monogon (type I) or digon (type II) tile.  The surface is connected when
every dart is reached from one through twins and rotation successors.

One class, `_DartMap`, builds and walks the map.  A `Tiling` keeps the
map built from its description; completion to a triangulation copies it,
pierces each unmarked component and splits m-gons in place, retracing
only the faces each step creates.

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
from dataclasses import dataclass, field

from .algebra import (GentlePresentation, InputError, Rejection, _records,
                      _relation_free_cycle)


class TilingRejection(Rejection):
    """The described map is not a tiling of the supported kind."""


@dataclass(frozen=True)
class Tile:
    index: int
    walk: tuple            # dart ids, cyclic
    kind: str              # "m-gon" | "type-I" | "type-II"
    unmarked: str | None   # enclosed unmarked component, types I/II

    def __len__(self):
        return len(self.walk)


class _DartMap:
    """The combinatorial map of a tiling description (marked boundary
    components, arcs and fans; see the module docstring), grown in place
    by diagonal splits and piercings, which keep the description in step.
    It holds the description dicts it is given, so a Tiling's own map is
    grown only as a copy().

    Darts are numbered in the order __init__ builds them: arc darts by
    arc id and end, then per marked component and segment the forward
    and the reversed boundary dart."""

    def __init__(self, marked, arcs, fans):
        self.marked, self.arcs, self.fans = marked, arcs, fans
        self.tail, self.twin, self.kind, self.label, self.slot = [], [], [], [], []
        self.rot_next, self.slot_dart = [], {}
        for arc in sorted(arcs):
            self._pair(("arc", "arc"), arc, *arcs[arc], ((arc, 1), (arc, 2)))
        toward_prev, toward_next = {}, {}
        for comp in sorted(marked):
            pts = marked[comp]
            for i, p in enumerate(pts):
                q = pts[(i + 1) % len(pts)]
                toward_next[p], toward_prev[q] = self._pair(("seg", "rseg"), (comp, i), p, q)
        for p, d in toward_next.items():
            self._rotate([toward_prev[p], *map(self.slot_dart.get, fans.get(p, ())), d])

    def copy(self) -> "_DartMap":
        c = _DartMap.__new__(_DartMap)
        c.tail, c.twin, c.kind, c.label, c.slot, c.rot_next = map(list, (
            self.tail, self.twin, self.kind, self.label, self.slot, self.rot_next))
        c.slot_dart, c.marked, c.arcs = (dict(self.slot_dart), dict(self.marked),
                                         dict(self.arcs))
        c.fans = {k: list(v) for k, v in self.fans.items()}
        return c

    def _pair(self, kinds, label, p, q, slots=(None, None)):
        """Two new twin darts, departing from p and from q."""
        d = len(self.tail)
        self.tail += (p, q)
        self.twin += (d + 1, d)
        self.kind += kinds
        self.label += (label, label)
        self.slot += slots
        self.rot_next += (None, None)
        if slots[0] is not None:
            self.slot_dart[slots[0]], self.slot_dart[slots[1]] = d, d + 1
        return d, d + 1

    def _rotate(self, cycle):
        for d, e in zip(cycle, cycle[1:] + cycle[:1]):
            self.rot_next[d] = e

    def _orbit(self, d0):
        """The orbit of d -> rot_next(twin(d)) from d0."""
        twin, rot, kind = self.twin, self.rot_next, self.kind
        outer = kind[d0] == "rseg"
        walk, d = [d0], rot[twin[d0]]
        while d != d0:
            if (kind[d] == "rseg") != outer:
                raise TilingRejection("outer boundary orbit mixes interior darts" if outer
                                      else "face traversal escaped through the boundary; "
                                      "inconsistent rotation data")
            if len(walk) == len(twin):
                raise TilingRejection("face traversal did not close up")
            walk.append(d)
            d = rot[twin[d]]
        return walk

    def face(self, d0):
        """The inner face through d0, started at its dart __init__ would
        number first, so that a map grown in place and one rebuilt from
        its description agree."""
        walk = self._orbit(d0)

        def build_rank(d):
            if self.kind[d] == "arc":
                return (0, self.label[d], self.slot[d][1])
            return (1,) + self.label[d]

        i = min(range(len(walk)), key=lambda j: build_rank(walk[j]))
        return walk[i:] + walk[:i]

    def faces(self):
        """The inner faces of the map as __init__ built it, in tile-key
        order; the reversed boundary darts form the outer orbits, which
        are dropped.  Each orbit is walked from its least dart, which is
        where `face` starts it."""
        seen = [False] * len(self.tail)
        walks = []
        for d0 in range(len(self.tail)):
            if not seen[d0]:
                walk = self._orbit(d0)
                for d in walk:
                    seen[d] = True
                if self.kind[d0] != "rseg":
                    walks.append(walk)
        walks.sort(key=self.tile_key)
        return walks

    def tile_key(self, walk):
        """Canonical rotation of a walk's (kind, label, slot) dart keys.
        The darts of a walk are distinct, so it starts at the least key."""
        keys = [(self.kind[d], str(self.label[d]), str(self.slot[d])) for d in walk]
        i = keys.index(min(keys))
        return tuple(keys[i:] + keys[:i])

    def connected(self) -> bool:
        """Whether every dart is reached from dart 0 through twin and
        rot_next, i.e. the surface is connected."""
        twin, rot, seen = self.twin, self.rot_next, {0}
        todo = [0]
        for d in todo:
            for e in (twin[d], rot[d]):
                if e not in seen:
                    seen.add(e)
                    todo.append(e)
        return len(seen) == len(twin)

    def _least_corner(self, walk):
        return min(range(len(walk)), key=lambda i: (self.tail[walk[i]], i))

    def _enter(self, walk, c, d):
        """Put the new arc dart d at corner c of `walk` (between walk
        darts c-1 and c): in the rotation right after the twin of the dart
        arriving there, and its slot in the fan's sector before dart c."""
        nxt = walk[c]
        fan = self.fans.setdefault(self.tail[d], [])
        # before the outgoing boundary dart means at the end of the fan
        fan.insert(fan.index(self.slot[nxt]) if self.kind[nxt] == "arc" else len(fan),
                   self.slot[d])
        self.rot_next[self.twin[walk[c - 1]]] = d
        self.rot_next[d] = nxt

    def split(self, walk, arc):
        """Cut the m-gon `walk` (m >= 4) by the diagonal `arc` from its
        least corner to the corner two steps further along the walk;
        returns the two new faces."""
        c1 = self._least_corner(walk)
        c2 = (c1 + 2) % len(walk)
        d1, d2 = self._arc(arc, self.tail[walk[c1]], self.tail[walk[c2]])
        self._enter(walk, c1, d1)
        self._enter(walk, c2, d2)
        return [self.face(d1), self.face(d2)]

    def pierce(self, walk, comp, pt, arc):
        """Mark the point `pt` on the unmarked component `comp` inside the
        face `walk` and join it by `arc` to the face's least corner;
        returns the new face, an m-gon."""
        c = self._least_corner(walk)
        d1, d2 = self._arc(arc, self.tail[walk[c]], pt)
        self._enter(walk, c, d1)
        self.marked[comp] = [pt]
        self.fans[pt] = [(arc, 2)]
        fwd, rev = self._pair(("seg", "rseg"), (comp, 0), pt, pt)
        self._rotate([rev, d2, fwd])
        return self.face(d1)

    def _arc(self, arc, p, q):
        self.arcs[arc] = (p, q)
        return self._pair(("arc", "arc"), arc, p, q, ((arc, 1), (arc, 2)))


@dataclass
class Tiling:
    """A tiling description and the combinatorial map built from it:
    `_build` sets the dart lists `tail`, `twin`, `kind` ("arc" | "seg" |
    "rseg"), `label` (arc id or segment tuple) and `slot` (departing
    slot of arc darts) of its `_DartMap`, the `tiles`, `face_of` (dart ->
    (tile index, position)) and `tile_names` (tile index -> "t<k>")."""

    marked: dict                  # component id -> list of points (cyclic, clockwise)
    unmarked: dict                # component id -> tuple of arc ids (placement)
    arcs: dict                    # arc id -> (p, q) endpoints of ends 1, 2
    fans: dict                    # point -> list of slots (arc id, end)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Tiling":
        marked, unmarked, arcs, fans = {}, {}, {}, {}
        seen_header = False
        for lineno, parts in _records(text):
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
                    try:
                        arc, end = tok.rsplit(".", 1)
                        slots.append((arc, int(end)))
                    except ValueError:
                        raise InputError(f"line {lineno}: bad slot {tok!r}") from None
                fans[parts[1]] = slots
            else:
                raise InputError(f"line {lineno}: unknown keyword {kw!r}")
        if not seen_header:
            raise InputError("missing 'tiling' header line")
        return cls.from_data(marked, unmarked, arcs, fans)

    @classmethod
    def from_data(cls, marked, unmarked, arcs, fans) -> "Tiling":
        t = cls({k: list(v) for k, v in marked.items()},
                {k: tuple(v) for k, v in unmarked.items()},
                dict(arcs), {k: list(v) for k, v in fans.items()})
        t._build()
        return t

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
        pts = [p for pts in self.marked.values() for p in pts]
        if len(pts) != len(set(pts)):
            raise InputError("marked point listed twice")
        pts = set(pts)
        if not pts:
            raise InputError("a tiling needs at least one marked point")
        end_slots = []
        for arc, (p, q) in self.arcs.items():
            if p not in pts or q not in pts:
                raise InputError(f"arc {arc} ends at an unknown point")
            end_slots.append((arc, 1))
            end_slots.append((arc, 2))
        declared = [s for pt in self.fans for s in self.fans[pt]]
        if sorted(declared) != sorted(end_slots):
            raise InputError("fans must list every arc end exactly once")
        for pt, slots in self.fans.items():
            if pt not in pts:
                raise InputError(f"fan at unknown point {pt}")
            for arc, end in slots:
                if arc not in self.arcs or end not in (1, 2):
                    raise InputError(f"fan at {pt} names unknown slot {arc}.{end}")
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
        self._check_input()
        m = self._map = _DartMap(self.marked, self.arcs, self.fans)
        self.tail, self.twin, self.kind, self.label, self.slot = (
            m.tail, m.twin, m.kind, m.label, m.slot)
        self._slot_dart = m.slot_dart
        self._classify(m.faces())

    def _classify(self, walks):
        placement_of = {}
        for comp in sorted(self.unmarked):
            arcs = self.unmarked[comp]
            matches = []
            for idx, walk in enumerate(walks):
                if len(walk) != len(arcs):
                    continue
                if all(self.kind[d] == "arc" for d in walk) and \
                        tuple(sorted(self.label[d] for d in walk)) == arcs:
                    matches.append(idx)
            if not matches:
                raise TilingRejection(
                    f"no monogon/digon tile bounded by {' '.join(arcs)} "
                    f"for unmarked component {comp}")
            if len(matches) > 1:
                raise TilingRejection(
                    f"placement of unmarked component {comp} is ambiguous")
            if matches[0] in placement_of.values():
                raise TilingRejection("two unmarked components in one tile")
            placement_of[comp] = matches[0]

        tiles = []
        for idx, walk in enumerate(walks):
            comp = next((c for c, i in placement_of.items() if i == idx), None)
            desc = " ".join(str(self.label[d]) if self.kind[d] != "arc"
                            else self.label[d] for d in walk)
            if comp is not None:
                kind = "type-I" if len(walk) == 1 else "type-II"
            else:
                if len(walk) == 1:
                    raise TilingRejection(f"tile ({desc}) is a monogon without an "
                                          "unmarked component")
                if len(walk) == 2:
                    raise TilingRejection(f"tile ({desc}) is a digon without an "
                                          "unmarked component")
                kind = "m-gon"
            tiles.append(Tile(idx, tuple(walk), kind, comp))
        self.tiles = tiles
        self.face_of = {}
        for tile in tiles:
            for pos, d in enumerate(tile.walk):
                self.face_of[d] = (tile.index, pos)
        self.tile_names = {t.index: f"t{t.index + 1}" for t in tiles}

        self._check_topology()

    def _euler(self):
        """(chi, boundary components) of the tiled surface; each unmarked
        boundary component removes a disc from the tile around it."""
        V = len(self.points)
        E = len(self.arcs) + sum(len(pts) for pts in self.marked.values())
        U = len(self.unmarked)
        return V - E + len(self.tiles) - U, len(self.marked) + U

    def _check_topology(self):
        chi, b_total = self._euler()
        genus2 = 2 - b_total - chi
        if genus2 < 0 or genus2 % 2:
            raise TilingRejection(f"Euler count inconsistent: chi={chi}, "
                                  f"boundaries={b_total}")
        if not self._map.connected():
            raise TilingRejection("surface is disconnected")
        if b_total == 1 and genus2 == 0 and len(self.points) < 4:
            raise TilingRejection("a disc needs at least four marked points")

    # -- accessors used by the arcs module -------------------------------

    def corner_point(self, tile: Tile, i: int):
        """Corner i sits between walk darts i-1 and i."""
        return self.tail[tile.walk[i % len(tile.walk)]]

    def is_annular(self, tile: Tile) -> bool:
        return tile.unmarked is not None

    def genus(self) -> int:
        chi, b_total = self._euler()
        return (2 - b_total - chi) // 2


def validate_tiling(text_or_tiling):
    """Parse/validate; returns the Tiling (tiles computed) or raises."""
    if isinstance(text_or_tiling, Tiling):
        return text_or_tiling
    return Tiling.parse(text_or_tiling)


# -- the tiling algebra -------------------------------------------------


@dataclass(frozen=True)
class TilingArrow:
    name: str
    source: str          # arc id
    target: str          # arc id
    point: str           # the shared marked point p_a
    leave_slot: tuple    # slot of the source arc
    enter_slot: tuple    # slot of the target arc


@dataclass(frozen=True)
class TilingAlgebra:
    tiling: Tiling = field(hash=False)
    presentation: GentlePresentation
    arrows: dict = field(hash=False)          # name -> TilingArrow
    arrow_by_slots: dict = field(hash=False)  # (leave, enter) -> name


def tiling_algebra(t: Tiling) -> TilingAlgebra:
    """Vertices = arcs, one arrow per adjacent fan pair; a composition ab
    survives exactly when a enters the same end slot that b leaves
    (different marked points, and loops entered and left at different
    slots, give relations)."""
    arrows = {}
    counter = 1
    for pt in sorted(t.fans):
        fan = t.fans[pt]
        for i in range(len(fan) - 1):
            leave, enter = fan[i], fan[i + 1]
            name = f"a{counter}"
            counter += 1
            arrows[name] = TilingArrow(name, leave[0], enter[0], pt, leave, enter)
    return _slot_algebra(t, sorted(t.arcs), arrows)


def _slot_algebra(t: Tiling, vertices, arrows) -> TilingAlgebra:
    """The algebra on `vertices` with the given TilingArrows (name ->
    arrow): xy is a relation exactly when x enters its target arc at
    another end slot than the one y leaves."""
    leaving = {}
    for y in arrows.values():
        leaving.setdefault(y.source, []).append(y)
    relations = [(x.name, y.name) for x in arrows.values()
                 for y in leaving.get(x.target, ()) if x.enter_slot != y.leave_slot]
    pres = GentlePresentation.from_data(
        vertices,
        [(a.name, a.source, a.target) for a in arrows.values()],
        relations,
    )
    by_slots = {(a.leave_slot, a.enter_slot): a.name for a in arrows.values()}
    return TilingAlgebra(t, pres, arrows, by_slots)


def oriented_cycles_have_relations(alg: TilingAlgebra) -> bool:
    """Every oriented cycle of length >= 2 contains a relation; checked
    through acyclicity of the relation-free composition graph plus the
    loop-square rule."""
    p = alg.presentation
    if _relation_free_cycle(p.quiver, p.relations) is not None:
        return False
    for a in p.arrows:
        if p.s(a) == p.t(a) and (a, a) not in p.relations:
            return False
    return True


# -- completion to a triangulation ---------------------------------------


def _fresh(prefix, taken):
    """Names prefix1, prefix2, ... not in `taken` when they are drawn."""
    return (f"{prefix}{i}" for i in itertools.count(1) if f"{prefix}{i}" not in taken)


@dataclass(frozen=True)
class Completion:
    tiling: Tiling
    added_points: tuple
    added_arcs: tuple


def complete_to_triangulation(t: Tiling) -> Completion:
    """Deterministically complete a tiling to a triangulation: one new
    marked point per unmarked component, then repeated diagonal splits of
    the m-gon (m >= 4) with the least tile key.  Piercings and splits run
    on one copy of the tiling's _DartMap, which retraces only the faces
    each step creates; only the result is built and validated as a
    Tiling."""
    work = t._map.copy()
    points, names = _fresh("m", set(t.points)), _fresh("z", work.arcs)
    around = {x.unmarked: x.walk for x in t.tiles if x.unmarked is not None}
    faces = [work.pierce(around[comp], comp, next(points), next(names))
             for comp in sorted(around)]
    faces += [x.walk for x in t.tiles if x.unmarked is None]
    heap = [(work.tile_key(f), f) for f in faces if len(f) > 3]
    current = t
    if heap:
        heapq.heapify(heap)  # tile keys are unique: walks never compared
        guard = 0
        while heap:
            _, walk = heapq.heappop(heap)
            for face in work.split(walk, next(names)):
                if len(face) > 3:
                    heapq.heappush(heap, (work.tile_key(face), face))
            guard += 1
            if guard > 4 * (len(work.arcs) + 8):
                raise AssertionError("triangulation completion did not terminate")
        current = Tiling.from_data(work.marked, {}, work.arcs, work.fans)
    added_points = tuple(sorted(set(current.points) - set(t.points)))
    added_arcs = tuple(sorted(set(current.arcs) - set(t.arcs)))
    assert all(len(x.walk) == 3 for x in current.tiles)
    return Completion(current, added_points, added_arcs)


# -- collapse of a triangulation onto a subset of arcs --------------------


def collapse_presentation(alg_t: TilingAlgebra, keep) -> TilingAlgebra:
    """The algebra A_{P,T}: vertices are the kept arcs, arrows are the
    maximal direct strings of A_T running through dropped arcs only, and
    a composition is zero exactly when the junction pair is zero in A_T
    (equivalently: mismatched end slots)."""
    keep = set(keep)
    unknown = keep - set(alg_t.tiling.arcs)
    if unknown:
        raise InputError(f"keep set names unknown arcs: {sorted(unknown)}")
    arrows_t = alg_t.arrows
    leaving = {}
    for b in arrows_t.values():
        leaving.setdefault((b.source, b.leave_slot), []).append(b)

    collapsed = {}
    counter = 1
    for name in sorted(arrows_t):
        a = arrows_t[name]
        if a.source not in keep:
            continue
        path = [a]
        ok = True
        while path[-1].target not in keep:
            last = path[-1]
            nxt = leaving.get((last.target, last.enter_slot), [])
            if not nxt:
                ok = False
                break
            assert len(nxt) == 1
            path.append(nxt[0])
            if len(path) > len(arrows_t):
                ok = False  # cycle through dropped arcs cannot reach keep
                break
        if not ok:
            continue
        pts = {x.point for x in path}
        assert len(pts) == 1, "relation-free direct path left its fan"
        cname = f"a{counter}"
        counter += 1
        collapsed[cname] = TilingArrow(cname, path[0].source, path[-1].target,
                                       path[0].point, path[0].leave_slot,
                                       path[-1].enter_slot)
    return _slot_algebra(alg_t.tiling, sorted(keep), collapsed)


def presentations_isomorphic(a: TilingAlgebra, b: TilingAlgebra) -> bool:
    """Isomorphism over the identity on vertices: arrows are matched by
    (source, target, point, end slots); no search is needed because the
    vertices are shared arcs."""
    if set(a.presentation.quiver.vertices) != set(b.presentation.quiver.vertices):
        return False

    def key(arrow: TilingArrow):
        return (arrow.source, arrow.target, arrow.point,
                arrow.leave_slot, arrow.enter_slot)

    map_a = {key(x): name for name, x in a.arrows.items()}
    map_b = {key(x): name for name, x in b.arrows.items()}
    if len(map_a) != len(a.arrows) or len(map_b) != len(b.arrows):
        return False
    if set(map_a) != set(map_b):
        return False
    rename = {map_a[k]: map_b[k] for k in map_a}
    rels_a = {(rename[x], rename[y]) for x, y in a.presentation.relations}
    return rels_a == set(b.presentation.relations)
