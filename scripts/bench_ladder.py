#!/usr/bin/env python3
"""Size ladder of self-Hom on long operands, written as JSON.

    python3 scripts/bench_ladder.py [--out BENCH_ladder.json] [--max-size 3200]

Two families, each on `samples.zigzag` presentations (arrows of
alternating orientation, so every code of the operand occurs once): the
path's longest string and the cycle's band.  Rungs double from length
50 up to --max-size.  Each rung records the best of 3 timed `hom_dim`
calls in seconds, the `tracemalloc` peak of one more call in MB, and
the exponent fitted to the time between it and the rung before.  A
family stops after its first rung over 0.5 s or 50 MB, so a matcher
that blows up is cut short instead of exhausting memory.  Timings are
wall clock on the machine that runs the script; compare two ladders
only from the same machine.  Exit codes: 0 written, 2 malformed
arguments or an unwritable --out.
"""

import argparse
import json
import math
import platform
import sys
import time
import tracemalloc

from tilealg import samples
from tilealg.homs import hom_dim
from tilealg.strings import Band, validate_string

STOP_S = 0.5
STOP_MB = 50.0


def _operand(length, cyclic):
    p = samples.zigzag(length, cyclic)
    letters = samples.zigzag_walk(p, 0, length)
    return p, Band.from_letters(p, letters) if cyclic else validate_string(p, letters)


def _rung(length, cyclic):
    p, x = _operand(length, cyclic)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        hom_dim(p, x, x)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        hom_dim(p, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"size": length, "best_s": round(best, 6), "peak_mb": round(peak / 2**20, 3)}


def ladder(max_size):
    families = {}
    for name, cyclic in (("hom zigzag string", False), ("hom zigzag band", True)):
        rungs = []
        length = 50
        while length <= max_size:
            rung = _rung(length, cyclic)
            prev = rungs[-1] if rungs else None
            rung["exponent"] = (round(math.log(rung["best_s"] / prev["best_s"]) /
                                      math.log(length / prev["size"]), 2)
                                if prev and prev["best_s"] > 0 else None)
            rungs.append(rung)
            if rung["best_s"] > STOP_S or rung["peak_mb"] > STOP_MB:
                break
            length *= 2
        families[name] = rungs
    return {"python": platform.python_version(), "machine": platform.machine(),
            "stop_after": {"best_s": STOP_S, "peak_mb": STOP_MB}, "families": families}


def main(argv):
    parser = argparse.ArgumentParser(prog="bench_ladder.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_ladder.json")
    parser.add_argument("--max-size", type=int, default=3200)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code else 0
    report = ladder(args.max_size)
    try:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc.strerror}")
        return 2
    for name, rungs in report["families"].items():
        for r in rungs:
            print(f"{name:18} {r['size']:5} {r['best_s']:9.4f} s {r['peak_mb']:8.2f} MB"
                  f"  exponent {r['exponent']}")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
