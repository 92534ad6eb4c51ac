"""Named example presentations and tilings used across tests and scripts."""

from __future__ import annotations

import random

from .algebra import GentlePresentation
from .strings import Letter, all_letters, valid_pair
from .surface import Tiling


def a2() -> GentlePresentation:
    """Linear A2: a single arrow a: 1 -> 2."""
    return GentlePresentation.from_data(["1", "2"], [("a", "1", "2")], [])


def fix_a() -> GentlePresentation:
    """1 <-> 2 -> 3 with a loop at 3; I = <ab, ba, d^2>."""
    return GentlePresentation.from_data(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("d", "3", "3")],
        [("a", "b"), ("b", "a"), ("d", "d")],
    )


def fix_b() -> GentlePresentation:
    """Four vertices, arrows a: 3->1, b: 1->2, c: 2->3, d: 3->4, I = <ca, ab>."""
    return GentlePresentation.from_data(
        ["1", "2", "3", "4"],
        [("a", "3", "1"), ("b", "1", "2"), ("c", "2", "3"), ("d", "3", "4")],
        [("c", "a"), ("a", "b")],
    )


def loop_algebra() -> GentlePresentation:
    """One vertex, one loop d with d^2 = 0 (the algebra of FIX-LOOP)."""
    return GentlePresentation.from_data(["v"], [("d", "v", "v")], [("d", "d")])


def kronecker() -> GentlePresentation:
    """Two parallel arrows 1 -> 2, no relations."""
    return GentlePresentation.from_data(
        ["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])


def kronecker_chain(k: int) -> GentlePresentation:
    """k Kronecker pairs a<i>, b<i>: i -> i+1; a<i> b<i+1> and b<i> a<i+1>
    are zero, so the chain is gentle and has a band per pair."""
    vertices = [str(i) for i in range(k + 1)]
    arrows = [(f"{x}{i}", str(i), str(i + 1)) for i in range(k) for x in "ab"]
    relations = [(f"{x}{i}", f"{y}{i + 1}") for i in range(k - 1)
                 for x, y in (("a", "b"), ("b", "a"))]
    return GentlePresentation.from_data(vertices, arrows, relations)


def double_kronecker() -> GentlePresentation:
    """1 => 2 => 3: arrows a, b: 1 -> 2 and c, d: 2 -> 3; ac and bd are zero."""
    return GentlePresentation.from_data(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
        [("a", "c"), ("b", "d")])


def repeated_band(k: int) -> str:
    """The text of the band (a b-)^k a d c- b- of `double_kronecker`, which
    is its canonical form: 2k + 4 letters, whose least code, a's, starts
    k + 1 rotations."""
    return "a b- " * k + "a d c- b-"


def zigzag(length: int, cyclic: bool = False) -> GentlePresentation:
    """`length` arrows a<k> between vertices k and k+1 (mod `length` if
    cyclic; then `length` is even), pointing up at even k and down at odd
    k, so nothing composes.  The walk a0 a1- a2 a3- ... runs along it:
    the path's longest string, or the cycle's band."""
    n = length if cyclic else length + 1
    arrows = []
    for k in range(length):
        ends = (str(k), str((k + 1) % n))
        arrows.append((f"a{k}", *(ends if k % 2 == 0 else ends[::-1])))
    return GentlePresentation.from_data([str(v) for v in range(n)], arrows, [])


def zigzag_walk(p: GentlePresentation, start: int, length: int):
    """The letters a<start> a<start+1>- ... of a walk of `length` letters
    along the arrows of a `zigzag` p, read mod the cycle's length."""
    n = len(p.arrows)
    return [Letter(f"a{k % n}", k % 2 == 1) for k in range(start, start + length)]


def random_walk(rng: random.Random, p: GentlePresentation, length: int):
    """The letters of a random walk on p: a random letter extended by
    random `valid_pair` successors to `length` letters, or until none is
    left."""
    letters = all_letters(p)
    word = [rng.choice(letters)]
    while len(word) < length:
        after = [l for l in letters if valid_pair(p, word[-1], l) is None]
        if not after:
            break
        word.append(rng.choice(after))
    return word


# -- tilings ------------------------------------------------------------

PENT_TILING = """\
tiling
boundary b1 marked p1 p5 p4 p3 p2
arc x p1 p3
arc y p1 p4
fan p1 : x.1 y.1
fan p3 : x.2
fan p4 : y.2
end
"""

LOOP_TILING = """\
tiling
boundary b1 marked p q
boundary b2 unmarked inside x
arc x p p
fan p : x.1 x.2
end
"""

# The annulus needs two extra outer points so that no tile degenerates
# to a plain digon; the algebra is still x <=> y with both compositions
# zero, the arrows sitting at the two shared endpoints of x and y.
DIGON_TILING = """\
tiling
boundary b1 marked p m q r
boundary b2 unmarked inside x y
arc x p q
arc y p q
fan p : x.1 y.1
fan q : y.2 x.2
end
"""

KRON_TILING = """\
tiling
boundary b1 marked p
boundary b2 marked q
arc x p q
arc y p q
fan p : x.1 y.1
fan q : x.2 y.2
end
"""

# A pair of pants realizing the three-vertex algebra of fix_a: arcs
# x, y between the outer points P, Q with one unmarked component between
# them, and a loop z at P around the other.  The fan at P chains
# x -> y -> z -> z, the fan at Q gives the backwards arrow y -> x.
PANTS_TILING = """\
tiling
boundary b1 marked P M Q R
boundary b2 unmarked inside z
boundary b3 unmarked inside x y
arc x P Q
arc y P Q
arc z P P
fan P : x.1 y.1 z.1 z.2
fan Q : y.2 x.2
end
"""


def pent_tiling() -> Tiling:
    """Disc with five marked points and two chords; algebra A2 (x -> y)."""
    return Tiling.parse(PENT_TILING)


def loop_tiling() -> Tiling:
    """Annulus, loop around the unmarked component: type I tile."""
    return Tiling.parse(LOOP_TILING)


def digon_tiling() -> Tiling:
    """Annulus, two arcs flanking the unmarked component: type II tile."""
    return Tiling.parse(DIGON_TILING)


def kron_tiling() -> Tiling:
    """Annulus with one marked point per boundary; Kronecker algebra."""
    return Tiling.parse(KRON_TILING)


def pants_tiling() -> Tiling:
    """Pair of pants whose tiling algebra is fix_a up to arrow names."""
    return Tiling.parse(PANTS_TILING)


def many_holes_text(n: int) -> str:
    """The text of the mixed-hole disc of n groups: one marked boundary b0
    with the points a<i> b<i> c<i> d<i> e<i>, group after group.  Group i
    adds the loop x<i> at a<i> around the unmarked component u<i>, a type I
    tile, and the arcs y<i>, z<i> from c<i> to e<i> around v<i>, a type II
    tile.  Its algebra has 3n arrows and 3n relations: each loop squared
    and each two-cycle of y<i>, z<i> both ways."""
    groups = range(1, n + 1)
    lines = ["tiling", "boundary b0 marked " + " ".join(
        f"{x}{i}" for i in groups for x in "abcde")]
    for i in groups:
        lines += [f"boundary u{i} unmarked inside x{i}",
                  f"boundary v{i} unmarked inside y{i} z{i}",
                  f"arc x{i} a{i} a{i}", f"arc y{i} c{i} e{i}", f"arc z{i} c{i} e{i}",
                  f"fan a{i} : x{i}.1 x{i}.2", f"fan c{i} : y{i}.1 z{i}.1",
                  f"fan e{i} : z{i}.2 y{i}.2"]
    return "\n".join(lines + ["end"]) + "\n"


def tiled_fixtures():
    return {
        "pent": pent_tiling(),
        "loop": loop_tiling(),
        "digon": digon_tiling(),
        "kron": kron_tiling(),
        "pants": pants_tiling(),
    }


def algebra_fixtures():
    return {
        "a2": a2(),
        "fix_a": fix_a(),
        "fix_b": fix_b(),
        "loop": loop_algebra(),
        "kronecker": kronecker(),
    }


# -- randomized tilings --------------------------------------------------


def _random_polygon_triangulation(rng: random.Random, n: int):
    """Diagonals of a uniform-ish recursive triangulation of an n-gon
    with vertices 0..n-1."""
    diagonals = []

    def split(lo_hi):
        outline = lo_hi
        if len(outline) <= 3:
            return
        apexes = outline[1:-1]
        apex = rng.choice(apexes)
        a, b = outline[0], outline[-1]
        i = outline.index(apex)
        if apex != outline[1]:
            diagonals.append((a, apex))
        if apex != outline[-2]:
            diagonals.append((apex, b))
        split(outline[:i + 1])
        split(outline[i:])

    split(list(range(n)))
    return diagonals


def random_disc_tiling(rng: random.Random, min_points=4, max_points=12) -> Tiling:
    """A random disc: random triangulation, each diagonal kept with
    probability 1/2 (dropping diagonals keeps every tile an m-gon)."""
    n = rng.randint(min_points, max_points)
    diagonals = _random_polygon_triangulation(rng, n)
    kept = [d for d in diagonals if rng.random() < 0.5]
    rng.shuffle(kept)
    names = {d: f"x{i}" for i, d in enumerate(sorted(kept))}

    points = [f"p{i}" for i in range(n)]
    lines = ["tiling", "boundary b1 marked " + " ".join(points)]
    for (i, j), name in sorted(names.items()):
        lines.append(f"arc {name} p{i} p{j}")
    # fan at vertex v: incident arc ends ordered by how far the other
    # endpoint sits going backward around the polygon (v-2, v-3, ...)
    for v in range(n):
        slots = []
        for (i, j), name in names.items():
            if v == i:
                slots.append((j, f"{name}.1"))
            elif v == j:
                slots.append((i, f"{name}.2"))
        if not slots:
            continue
        order = {u: (v - u) % n for u, _ in slots}
        slots.sort(key=lambda t: order[t[0]])
        lines.append(f"fan p{v} : " + " ".join(s for _, s in slots))
    lines.append("end")
    return Tiling.parse("\n".join(lines))


def random_loop_annulus(rng: random.Random) -> Tiling:
    """Annulus with k outer points and a loop around the inner hole."""
    k = rng.randint(2, 8)
    at = rng.randrange(k)
    points = " ".join(f"p{i}" for i in range(k))
    text = (
        "tiling\n"
        f"boundary b1 marked {points}\n"
        "boundary b2 unmarked inside x\n"
        f"arc x p{at} p{at}\n"
        f"fan p{at} : x.1 x.2\n"
        "end\n"
    )
    return Tiling.parse(text)


def random_digon_annulus(rng: random.Random) -> Tiling:
    """Annulus with k >= 4 outer points, two arcs flanking the hole."""
    k = rng.randint(4, 9)
    i = rng.randrange(k)
    j = (i + rng.randint(2, k - 2)) % k
    points = " ".join(f"p{t}" for t in range(k))
    text = (
        "tiling\n"
        f"boundary b1 marked {points}\n"
        "boundary b2 unmarked inside x y\n"
        f"arc x p{i} p{j}\n"
        f"arc y p{i} p{j}\n"
        f"fan p{i} : x.1 y.1\n"
        f"fan p{j} : y.2 x.2\n"
        "end\n"
    )
    return Tiling.parse(text)


def random_kron_annulus(rng: random.Random) -> Tiling:
    """The Kronecker annulus of kron_tiling(); it takes no draws from
    `rng`, which is accepted so that all random makers share one call."""
    return kron_tiling()


def random_tilings(seed: int, count: int):
    """A mixed batch of valid random tilings (discs and annuli)."""
    rng = random.Random(seed)
    makers = [random_disc_tiling] * 5 + [random_loop_annulus,
                                         random_digon_annulus,
                                         random_kron_annulus]
    out = []
    for _ in range(count):
        maker = rng.choice(makers)
        out.append(maker(rng))
    return out
