#!/usr/bin/env python3
"""Size ladder of self-Hom on long operands, of surface completion, of
reading a presentation, of the AR quiver, of arcs, of string
enumeration and of the oracle, written as JSON.

    python3 scripts/bench_ladder.py [--out BENCH_ladder.json] [--max-size 3200]

Fourteen families.  Two run self-Hom on `samples.zigzag` presentations
(arrows of alternating orientation, so every code of the operand occurs
once): the path's longest string and the cycle's band.  One runs
self-Hom on `samples.random_walk(random.Random(n), p, n)`, a random walk
of n letters on p = `samples.kronecker_chain(3)`, which has 12 letters,
so codes repeat and the pairs grow with the walk.  Two run
`Tiling.parse`, then `tiling_algebra`, then `complete_to_triangulation`
on the text of a disc with n marked points: the bare n-gon without arcs,
and `samples.random_disc_tiling(random.Random(n), n, n)`, a random
triangulation with about half its diagonals kept.  One runs
`Tiling.parse`, then `tiling_algebra`, on `samples.many_holes_text(n)`,
a disc of n groups, each with a loop around an unmarked component and
two arcs around another (2n unmarked components, 3n arrows).  One runs
`GentlePresentation.from_data` on the vertices, arrows and relations of
`samples.kronecker_chain(n // 2)`, which has n arrows.  One runs
`build_ar_quiver` on the linearly oriented path quiver A_n, of
n (n + 1) / 2 nodes.  One runs `string_to_arc` on the full direct string
of the path A_{n-3} without relations, the algebra of the n-gon with all
n - 3 diagonals from one point, then `pivot_move` at both ends of the
arc; one more runs `tau_inverse_arc` and the geometric self-Hom
`hom_dim_geometric` of the arc after those, on the same algebra.  Two
run on the band `samples.repeated_band(k)` of
`samples.double_kronecker`, (a b-)^k a d c- b-, whose least code starts
k + 1 rotations: `parse_band` on its text, which finds its canonical
form, and self-Hom.  One runs `enumerate_strings` on the path quiver
A_n, whose n (n + 1) / 2 strings it lists.  One runs `hom_dim_oracle`
on the `realize_string_module` module of the Kronecker random walk
above against itself.  Operands, modules, tiling texts, tilings and
presentations are built outside the timing, afresh before each run, so
that no run reads what an earlier one has read and kept.  Rungs double
from size 50 (from 8 up to 64 for the AR quiver and the enumeration,
from 25 up to 400 for the oracle) up to --max-size.  Each rung records
the best of 3 timed runs in seconds, the peak memory of one more run in
MB, and the exponent fitted to the time between it and the rung before.
The memory run is made in a forked child (so the script needs
`os.fork`), and its peak is how far the child's peak resident set
(`ru_maxrss`, KiB on Linux) grew during the run: it costs about one
timed run, where tracing every allocation cost up to 80 of them, but it
is page-grained and misses memory the run reuses from the heap it
inherits.  A family stops after its first rung over 0.5 s or 50 MB, so a
routine that blows up is cut short instead of exhausting memory.
Timings are wall clock on the machine that runs the script; compare two
ladders only from the same machine.
Exit codes: 0 written, 2 malformed arguments or an unwritable --out.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time

from tilealg import samples
from tilealg.algebra import GentlePresentation
from tilealg.arcs import hom_dim_geometric, pivot_move, string_to_arc, tau_inverse_arc
from tilealg.artheory import build_ar_quiver
from tilealg.homs import hom_dim
from tilealg.oracle import hom_dim_oracle, realize_string_module
from tilealg.strings import Band, enumerate_strings, parse_band, validate_string
from tilealg.surface import Tiling, complete_to_triangulation, tiling_algebra

STOP_S = 0.5
STOP_MB = 50.0


def _hom(cyclic):
    """The self-Hom run on the zigzag operand of a length."""
    def prepare(length):
        p = samples.zigzag(length, cyclic)
        letters = samples.zigzag_walk(p, 0, length)
        x = Band.from_letters(p, letters) if cyclic else validate_string(p, letters)
        return lambda: hom_dim(p, x, x)
    return prepare


def _kronecker_walk(length):
    """The self-Hom run on the random walk of a length."""
    p = samples.kronecker_chain(3)
    x = validate_string(p, samples.random_walk(random.Random(length), p, length))
    return lambda: hom_dim(p, x, x)


def _oracle_walk(length):
    """The oracle self-Hom run on the module of the random walk of a length."""
    p = samples.kronecker_chain(3)
    m = realize_string_module(p, validate_string(
        p, samples.random_walk(random.Random(length), p, length)))
    return lambda: hom_dim_oracle(p, m, m)


def _surface(tiling_text):
    """The parse, algebra and completion run on the tiling text of a size."""
    def prepare(n):
        text = tiling_text(n)

        def run():
            t = Tiling.parse(text)
            tiling_algebra(t)
            complete_to_triangulation(t)
        return run
    return prepare


def _many_holes(n):
    """The parse and algebra run on the mixed-hole disc of n groups."""
    text = samples.many_holes_text(n)
    return lambda: tiling_algebra(Tiling.parse(text))


def _from_data(n):
    """The from_data run on the data of the Kronecker chain with n arrows."""
    p = samples.kronecker_chain(n // 2)
    data = (p.vertices, [(a, p.s(a), p.t(a)) for a in p.arrows], sorted(p.relations))
    return lambda: GentlePresentation.from_data(*data)


def _path(n):
    """The linearly oriented path quiver A_n."""
    return GentlePresentation.from_data([str(i) for i in range(n)],
                                        [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)], [])


def _ar_quiver(n):
    """The AR quiver run on the path quiver A_n."""
    p = _path(n)
    return lambda: build_ar_quiver(p)


def _enumerate_path(n):
    """The string enumeration run on the path quiver A_n."""
    p = _path(n)
    return lambda: enumerate_strings(p)


def _fan_path(tau):
    """The arc and pivot run on the n-gon with the diagonals x2 ... x(n-2)
    from p0, whose algebra is a path: its full direct string; with tau
    also its tau move and geometric self-Hom."""
    def prepare(n):
        diagonals = range(2, n - 1)
        t = Tiling.parse("\n".join(
            ["tiling", "boundary b1 marked " + " ".join(f"p{i}" for i in range(n))]
            + [f"arc x{k} p0 p{k}" for k in diagonals]
            + ["fan p0 : " + " ".join(f"x{k}.1" for k in reversed(diagonals))]
            + [f"fan p{k} : x{k}.2" for k in diagonals] + ["end"]))
        alg = tiling_algebra(t)
        p = alg.presentation
        leaving = {p.s(a): a for a in p.arrows}
        v = (set(p.vertices) - {p.t(a) for a in p.arrows}).pop()
        path = []
        while v in leaving:
            path.append((leaving[v], False))
            v = p.t(leaving[v])
        w = validate_string(p, path)

        def run():
            arc = string_to_arc(t, alg, w)
            pivot_move(t, alg, arc, "s")
            pivot_move(t, alg, arc, "t")
            if tau:
                tau_inverse_arc(t, alg, arc)
                hom_dim_geometric(t, alg, arc, arc)
        return run
    return prepare


def _repeated_band(hom):
    """The parse or self-Hom run on the repeated band of a k."""
    def prepare(k):
        p, text = samples.double_kronecker(), samples.repeated_band(k)
        if not hom:
            return lambda: parse_band(p, text)
        b = parse_band(p, text)
        return lambda: hom_dim(p, b, b)
    return prepare


# name -> (first size, last size, the run's preparation)
FAMILIES = {
    "hom zigzag string": (50, math.inf, _hom(False)),
    "hom zigzag band": (50, math.inf, _hom(True)),
    "hom kronecker walk": (50, math.inf, _kronecker_walk),
    "surface bare polygon": (50, math.inf, _surface(
        lambda n: "tiling\nboundary b1 marked " + " ".join(f"p{i}" for i in range(n))
        + "\nend\n")),
    "surface half-kept disc": (50, math.inf, _surface(
        lambda n: samples.random_disc_tiling(random.Random(n), n, n).text())),
    "surface many holes": (50, math.inf, _many_holes),
    "from_data kronecker": (50, math.inf, _from_data),
    "ar_quiver path": (8, 64, _ar_quiver),
    "arcs fan path": (50, math.inf, _fan_path(False)),
    "arcs tau fan path": (50, math.inf, _fan_path(True)),
    "band canonical form": (50, math.inf, _repeated_band(False)),
    "hom repeated band": (50, math.inf, _repeated_band(True)),
    "enumerate_strings path": (8, 64, _enumerate_path),
    "oracle kronecker walk": (25, 400, _oracle_walk),
}


def _peak_mb(run):
    """How far the peak resident set grows over one run, in MB: the run is
    made in a forked child, which sends the growth of its `ru_maxrss` back
    through a pipe; RuntimeError if the child fails."""
    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        status = 1
        try:
            os.close(read)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            run()
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            os.write(write, str(grown).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        grown = fh.read()
    if os.waitpid(pid, 0)[1] or not grown:
        raise RuntimeError("the memory run of a rung failed")
    return int(grown) / 1024


def _rung(size, prepare):
    best = math.inf
    for _ in range(3):
        run = prepare(size)
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    peak = _peak_mb(prepare(size))
    return {"size": size, "best_s": round(best, 6), "peak_mb": round(peak, 3)}


def ladder(max_size):
    families = {}
    for name, (size, last, prepare) in FAMILIES.items():
        rungs = []
        while size <= min(max_size, last):
            rung = _rung(size, prepare)
            prev = rungs[-1] if rungs else None
            rung["exponent"] = (round(math.log(rung["best_s"] / prev["best_s"]) /
                                      math.log(size / prev["size"]), 2)
                                if prev and prev["best_s"] > 0 else None)
            rungs.append(rung)
            if rung["best_s"] > STOP_S or rung["peak_mb"] > STOP_MB:
                break
            size *= 2
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
            print(f"{name:22} {r['size']:5} {r['best_s']:9.4f} s {r['peak_mb']:8.2f} MB"
                  f"  exponent {r['exponent']}")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
