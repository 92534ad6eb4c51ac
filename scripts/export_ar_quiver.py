#!/usr/bin/env python3
"""Export the AR quiver of a quiver/tiling file (or a named sample) as DOT.

    python3 scripts/export_ar_quiver.py fix_b ar.dot
    python3 scripts/export_ar_quiver.py path/to/file.quiver ar.dot

Exit codes as for the CLI: 0 written, 1 rejected (not gentle, not a
tiling), 2 malformed input or a destination that cannot be written.
"""

import sys

from tilealg import samples
from tilealg.algebra import InputError, Rejection
from tilealg.artheory import ar_quiver_dot, build_ar_quiver
from tilealg.cli import _load_any, _write


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    source, dest = argv[1], argv[2]
    named = samples.algebra_fixtures()
    try:
        if source in named:
            pres = named[source]
        else:
            pres, _, _ = _load_any(source)
        ar = build_ar_quiver(pres)
        _write(dest, ar_quiver_dot(ar))
    except Rejection as exc:
        print(f"rejected: {exc}")
        return 1
    except InputError as exc:
        print(f"input error: {exc}")
        return 2
    print(f"{len(ar.nodes)} nodes, {len(ar.edges)} edges, "
          f"{len(ar.tau_pairs)} tau pairs -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
