#!/usr/bin/env python3
"""Audit a batch of random tilings against every route agreement of
scripts/agreements.py, at each agreement's own bound: the arcs side on
each tiling, the algebra side on each distinct tiling algebra.  Building
the tiling algebra checks its gentleness, whose finite-dimension axiom is
the check that every oriented cycle carries a relation.  A tiling whose
algebra is rejected, or on which an agreement fails, is reported with the
reason and its text and counted as a failure.  A summary of the tile
kinds and each agreement's check count follow.

    python3 scripts/random_tiling_audit.py [count] [seed]

count is a positive integer (default 100), seed an integer.  Exit codes:
0 no failures, 1 some tiling failed an audit, 2 malformed arguments.
"""

import sys
from collections import Counter

from agreements import AGREEMENTS, check
from tilealg import samples
from tilealg.algebra import GentlenessError
from tilealg.surface import TilingRejection, tiling_algebra


def main(argv):
    try:
        count = int(argv[1]) if len(argv) > 1 else 100
        seed = int(argv[2]) if len(argv) > 2 else 20260810
        if count < 1 or len(argv) > 3:
            raise ValueError
    except ValueError:
        print(__doc__)
        return 2
    kinds, checks, seen = Counter(), Counter(), set()
    failures = 0
    for i, t in enumerate(samples.random_tilings(seed, count)):
        kinds.update(x.kind for x in t.tiles)
        try:
            alg = tiling_algebra(t)   # built only on a gentle presentation
        except (GentlenessError, TilingRejection) as exc:
            failure = f"gentle=False ({exc})"
        else:
            failure = _audit(t, alg, checks, seen)
        if failure:
            failures += 1
            print(f"tiling {i}: {failure}")
            print(t.text())
    print(f"audited {count} random tilings (seed {seed}); failures: {failures}")
    print("tile kinds:", dict(sorted(kinds.items())))
    for name in AGREEMENTS:
        print(f"{name}: {checks[name]} checks")
    return 1 if failures else 0


def _audit(t, alg, checks, seen):
    """The reason of the first agreement that fails on t, else None; the
    algebra side runs only on a presentation whose repr is not in `seen`.
    Each agreement's checks are added to `checks`."""
    p, key = alg.presentation, repr(alg.presentation)
    fresh = key not in seen
    seen.add(key)
    for a in AGREEMENTS.values():
        if a.side == "arcs" or fresh:
            n, reason = check(a.name, *((t, alg) if a.side == "arcs" else (p,)))
            checks[a.name] += n
            if reason:
                return reason
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv))
