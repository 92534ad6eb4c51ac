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
monogon (type I) or digon (type II) tile.

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


@dataclass
class Tiling:
    marked: dict                  # component id -> list of points (cyclic, clockwise)
    unmarked: dict                # component id -> tuple of arc ids (placement)
    arcs: dict                    # arc id -> (p, q) endpoints of ends 1, 2
    fans: dict                    # point -> list of slots (arc id, end)

    # derived combinatorial map (filled by _build)
    tail: list = field(default_factory=list)
    twin: list = field(default_factory=list)
    kind: list = field(default_factory=list)      # "arc" | "seg" | "rseg"
    label: list = field(default_factory=list)     # arc id or segment tuple
    slot: list = field(default_factory=list)      # departing slot for arc darts
    tiles: list = field(default_factory=list)
    face_of: dict = field(default_factory=dict)   # dart -> (tile index, position)
    tile_names: dict = field(default_factory=dict)  # tile index -> "t<k>"

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
        t = cls(marked, unmarked, arcs, fans)
        t._build()
        return t

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
        self.tail, self.twin = [], []
        self.kind, self.label, self.slot = [], [], []

        def new_dart(tail, kind, label, slot=None):
            self.tail.append(tail)
            self.kind.append(kind)
            self.label.append(label)
            self.slot.append(slot)
            self.twin.append(None)
            return len(self.tail) - 1

        slot_dart = {}
        for arc in sorted(self.arcs):
            p, q = self.arcs[arc]
            d1 = new_dart(p, "arc", arc, (arc, 1))
            d2 = new_dart(q, "arc", arc, (arc, 2))
            self.twin[d1] = d2
            self.twin[d2] = d1
            slot_dart[(arc, 1)] = d1
            slot_dart[(arc, 2)] = d2
        self._slot_dart = slot_dart

        toward_prev, toward_next = {}, {}
        for comp in sorted(self.marked):
            pts = self.marked[comp]
            k = len(pts)
            for i, p in enumerate(pts):
                fwd = new_dart(p, "seg", (comp, i))
                rev = new_dart(pts[(i + 1) % k], "rseg", (comp, i))
                self.twin[fwd] = rev
                self.twin[rev] = fwd
                toward_next[(comp, i)] = fwd
                toward_prev[(comp, (i + 1) % k)] = rev

        self._rot_next = {}
        for comp in sorted(self.marked):
            pts = self.marked[comp]
            for i, p in enumerate(pts):
                fan = [slot_dart[s] for s in self.fans.get(p, [])]
                rot = [toward_prev[(comp, i)]] + fan + [toward_next[(comp, i)]]
                for j, d in enumerate(rot):
                    self._rot_next[d] = rot[(j + 1) % len(rot)]

        self._trace_faces()
        self._classify()

    def face_next(self, d: int) -> int:
        return self._rot_next[self.twin[d]]

    def _trace_faces(self):
        seen = set()
        walks = []
        for d0 in range(len(self.tail)):
            if d0 in seen or self.kind[d0] == "rseg":
                continue
            walk = []
            d = d0
            while d not in seen:
                seen.add(d)
                walk.append(d)
                d = self.face_next(d)
                if self.kind[d] == "rseg":
                    raise TilingRejection("face traversal escaped through the boundary; "
                                          "inconsistent rotation data")
            if d != d0:
                raise TilingRejection("face traversal did not close up")
            walks.append(walk)
        # the reversed boundary darts must form exactly the outer orbits
        for d0 in range(len(self.tail)):
            if self.kind[d0] != "rseg" or d0 in seen:
                continue
            d = d0
            while d not in seen:
                seen.add(d)
                d = self.face_next(d)
                if self.kind[d] != "rseg":
                    raise TilingRejection("outer boundary orbit mixes interior darts")
        # deterministic tile order: by canonical rotation of the walk key
        walks.sort(key=lambda walk: _tile_key(self, walk))
        self._walks = walks

    def _classify(self):
        placement_of = {}
        for comp in sorted(self.unmarked):
            arcs = self.unmarked[comp]
            matches = []
            for idx, walk in enumerate(self._walks):
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
        for idx, walk in enumerate(self._walks):
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
        # connectivity of the marked 1-skeleton
        pts = self.points
        parent = {p: p for p in pts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        for comp_pts in self.marked.values():
            for a, b in zip(comp_pts, comp_pts[1:]):
                union(a, b)
        for p, q in self.arcs.values():
            union(p, q)
        if len({find(p) for p in pts}) > 1:
            raise TilingRejection("surface is disconnected")
        if b_total == 1 and genus2 == 0 and len(pts) < 4:
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


def _tile_key(m, walk):
    """Canonical rotation of a walk's (kind, label, slot) dart keys.  The
    darts of a walk are distinct, so it starts at the least key.  `m` is
    a Tiling or a _DartMap."""
    keys = [(m.kind[d], str(m.label[d]), str(m.slot[d])) for d in walk]
    i = keys.index(min(keys))
    return tuple(keys[i:] + keys[:i])


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
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def _insert_slot_at_corner(m, fans, walk, corner: int, slot):
    """Register `slot` in the fan at the tile corner `corner` of `walk`:
    it lands in the rotation sector just before the walk dart at that
    position.  Returns the corner's point."""
    d = walk[corner % len(walk)]
    pt = m.tail[d]
    fan = fans.setdefault(pt, [])
    if m.kind[d] == "arc":
        idx = fan.index(m.slot[d])
    else:
        idx = len(fan)  # the sector before the outgoing boundary dart
    fan.insert(idx, slot)
    return pt


def _least_corner(m, walk):
    return min(range(len(walk)), key=lambda i: (m.tail[walk[i]], i))


def _pierce(t: Tiling, comp: str) -> Tiling:
    """Add a marked point on the unmarked component `comp` and join it to
    the least corner of its tile; the tile becomes an m-gon."""
    tile = next(x for x in t.tiles if x.unmarked == comp)
    marked = {k: list(v) for k, v in t.marked.items()}
    unmarked = {k: v for k, v in t.unmarked.items() if k != comp}
    arcs = dict(t.arcs)
    fans = {k: list(v) for k, v in t.fans.items()}

    new_pt = _fresh("m", set(t.points))
    marked[comp] = [new_pt]
    new_arc = _fresh("z", set(arcs))
    c = _least_corner(t, tile.walk)
    outer_pt = _insert_slot_at_corner(t, fans, tile.walk, c, (new_arc, 1))
    arcs[new_arc] = (outer_pt, new_pt)
    fans[new_pt] = [(new_arc, 2)]
    return Tiling.from_data(marked, unmarked, arcs, fans)


class _DartMap:
    """The dart map of a tiling without unmarked components, cut by
    diagonal splits in place: Tiling's dart lists and rotation successor,
    plus the arcs and fans that describe the current state."""

    def __init__(self, t: Tiling):
        self.tail, self.twin = list(t.tail), list(t.twin)
        self.kind, self.label, self.slot = list(t.kind), list(t.label), list(t.slot)
        self._rot_next = dict(t._rot_next)
        self.arcs = dict(t.arcs)
        self.fans = {k: list(v) for k, v in t.fans.items()}

    face_next = Tiling.face_next

    def split(self, walk, arc):
        """Cut the m-gon `walk` (m >= 4) by the diagonal `arc` from its
        least corner to the corner two steps further along the walk;
        returns the two new faces."""
        c1 = _least_corner(self, walk)
        c2 = (c1 + 2) % len(walk)
        p1 = _insert_slot_at_corner(self, self.fans, walk, c1, (arc, 1))
        p2 = _insert_slot_at_corner(self, self.fans, walk, c2, (arc, 2))
        self.arcs[arc] = (p1, p2)
        d1, d2 = len(self.tail), len(self.tail) + 1
        self.tail += [p1, p2]
        self.twin += [d2, d1]
        self.kind += ["arc", "arc"]
        self.label += [arc, arc]
        self.slot += [(arc, 1), (arc, 2)]
        # the new dart enters the rotation just before the walk dart at
        # its corner, i.e. right after the twin of the dart arriving there
        for d, c in ((d1, c1), (d2, c2)):
            self._rot_next[self.twin[walk[c - 1]]] = d
            self._rot_next[d] = walk[c]
        return [self._face(d1), self._face(d2)]

    def _face(self, d0):
        """The face walk through d0, started where Tiling._trace_faces
        starts it: at the dart Tiling._build numbers first (arc darts by
        arc id and end, then boundary darts by component and index)."""
        walk, d = [d0], self.face_next(d0)
        while d != d0:
            walk.append(d)
            d = self.face_next(d)

        def build_rank(d):
            if self.kind[d] == "arc":
                return (0, self.label[d], self.slot[d][1])
            return (1,) + self.label[d]

        i = min(range(len(walk)), key=lambda j: build_rank(walk[j]))
        return walk[i:] + walk[:i]


@dataclass(frozen=True)
class Completion:
    tiling: Tiling
    added_points: tuple
    added_arcs: tuple


def complete_to_triangulation(t: Tiling) -> Completion:
    """Deterministically complete a tiling to a triangulation: one new
    marked point per unmarked component, then repeated diagonal splits of
    the m-gon (m >= 4) with the least tile key.  Each piercing yields a
    validated Tiling; the splits then run on one _DartMap, which retraces
    only the two faces each split creates, and only the result is built
    and validated as a Tiling again."""
    current = t
    for comp in sorted(t.unmarked):
        current = _pierce(current, comp)
    heap = [(_tile_key(current, x.walk), list(x.walk))
            for x in current.tiles if len(x.walk) > 3]
    if heap:
        heapq.heapify(heap)  # tile keys are unique: walks never compared
        work = _DartMap(current)
        names = (f"z{i}" for i in itertools.count(1) if f"z{i}" not in work.arcs)
        guard = 0
        while heap:
            _, walk = heapq.heappop(heap)
            for face in work.split(walk, next(names)):
                if len(face) > 3:
                    heapq.heappush(heap, (_tile_key(work, face), face))
            guard += 1
            if guard > 4 * (len(work.arcs) + 8):
                raise AssertionError("triangulation completion did not terminate")
        current = Tiling.from_data(current.marked, current.unmarked,
                                   work.arcs, work.fans)
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
