#!/usr/bin/env python3
"""Audit a batch of random tilings: gentleness, cycle relations, and the
collapse lemma, with a small summary of the tile statistics.

    python3 scripts/random_tiling_audit.py [count] [seed]

count is a positive integer (default 100), seed an integer.  Exit codes:
0 no failures, 1 some tiling failed an audit, 2 malformed arguments.
"""

import sys
from collections import Counter

from tilealg import samples
from tilealg.algebra import check_gentle
from tilealg.surface import (collapse_presentation, complete_to_triangulation,
                             oriented_cycles_have_relations,
                             presentations_isomorphic, tiling_algebra)


def main(argv):
    try:
        count = int(argv[1]) if len(argv) > 1 else 100
        seed = int(argv[2]) if len(argv) > 2 else 20260810
        if count < 1 or len(argv) > 3:
            raise ValueError
    except ValueError:
        print(__doc__)
        return 2
    kinds = Counter()
    failures = 0
    for i, t in enumerate(samples.random_tilings(seed, count)):
        alg = tiling_algebra(t)
        kinds.update(x.kind for x in t.tiles)
        ok = check_gentle(alg.presentation.quiver, alg.presentation.relations)
        cyc = oriented_cycles_have_relations(alg)
        comp = complete_to_triangulation(t)
        collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
        iso = presentations_isomorphic(collapsed, alg)
        if not (ok and cyc and iso):
            failures += 1
            print(f"tiling {i}: gentle={bool(ok)} cycles={cyc} collapse={iso}")
            print(t.text())
    print(f"audited {count} random tilings (seed {seed}); failures: {failures}")
    print("tile kinds:", dict(sorted(kinds.items())))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
