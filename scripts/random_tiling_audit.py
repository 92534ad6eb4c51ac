#!/usr/bin/env python3
"""Audit a batch of random tilings: gentleness of the tiling algebra
(its finite-dimension axiom is the check that every oriented cycle
carries a relation) and the collapse lemma, with a small summary of the
tile statistics.  A tiling whose algebra is rejected is reported with
the reason and counted as a failure.

    python3 scripts/random_tiling_audit.py [count] [seed]

count is a positive integer (default 100), seed an integer.  Exit codes:
0 no failures, 1 some tiling failed an audit, 2 malformed arguments.
"""

import sys
from collections import Counter

from tilealg import samples
from tilealg.algebra import GentlenessError
from tilealg.surface import (TilingRejection, collapse_presentation,
                             complete_to_triangulation, presentations_isomorphic,
                             tiling_algebra)


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
        kinds.update(x.kind for x in t.tiles)
        try:
            alg = tiling_algebra(t)   # built only on a gentle presentation
        except (GentlenessError, TilingRejection) as exc:
            failure = f"gentle=False ({exc})"
        else:
            comp = complete_to_triangulation(t)
            collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
            iso = presentations_isomorphic(collapsed, alg)
            failure = None if iso else "gentle=True collapse=False"
        if failure:
            failures += 1
            print(f"tiling {i}: {failure}")
            print(t.text())
    print(f"audited {count} random tilings (seed {seed}); failures: {failures}")
    print("tile kinds:", dict(sorted(kinds.items())))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
