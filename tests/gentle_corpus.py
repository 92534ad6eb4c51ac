"""A fixed corpus of gentle presentations for the pinned-digest tests.

It mixes the named fixtures, tiling algebras with their completions,
Kronecker chains, and a seeded rejection sample of small gentle quivers
with loops and parallel arrows.  The sample is drawn here, in the test
suite, so that it does not change with the library's own generators.
"""

import functools
import random

from tilealg import samples
from tilealg.algebra import GentlePresentation, Quiver, check_gentle
from tilealg.surface import complete_to_triangulation, tiling_algebra

SAMPLE_SEED = 20261018
SAMPLE_SIZE = 400


def _random_gentle_data(rng):
    """(vertices, arrows, relations) of a gentle quiver with at most six
    vertices and eight arrows, drawn until the draw is gentle.

    The sizes are drawn first, with more vertices than half the arrows:
    if every vertex had two arrows in and two out, the relation-free
    continuations would close a cycle.  Arrow ends are drawn only at
    vertices with fewer than two such ends.  At each vertex the relations
    are one of the parity matchings between its in- and out-arrows, which
    meet (G2) and (G3); only relation-free cycles are left to reject."""
    m = rng.randint(1, 8)
    vertices = [f"v{i}" for i in range(rng.randint(m // 2 + 1, 6))]
    while True:
        arrows, outs, ins = [], [], []
        for i in range(m):
            outs.append(rng.choice([v for v in vertices if outs.count(v) < 2]))
            ins.append(rng.choice([v for v in vertices if ins.count(v) < 2]))
            arrows.append((f"a{i}", outs[-1], ins[-1]))
        relations = []
        for v in vertices:
            flip = rng.randint(0, 1)
            into = [a for a, _, t in arrows if t == v]
            out = [b for b, s, _ in arrows if s == v]
            relations += [(a, b) for i, a in enumerate(into)
                          for j, b in enumerate(out) if (i + j + flip) % 2 == 0]
        if check_gentle(Quiver.from_arrows(vertices, arrows), relations):
            return vertices, arrows, relations


@functools.cache
def presentations():
    """The corpus, in a fixed order; built once per test session."""
    out = list(samples.algebra_fixtures().values())
    for t in list(samples.tiled_fixtures().values()) + samples.random_tilings(7, 40):
        out.append(tiling_algebra(t).presentation)
        out.append(tiling_algebra(complete_to_triangulation(t).tiling).presentation)
    out += [samples.kronecker_chain(k) for k in range(1, 7)]
    rng = random.Random(SAMPLE_SEED)
    out += [GentlePresentation.from_data(*_random_gentle_data(rng))
            for _ in range(SAMPLE_SIZE)]
    return tuple(out)
