"""Command-line frontend.

Exit codes: 0 success, 1 domain rejection (reported with a reason),
2 malformed input or parse error.  All reports are plain text, one
record per line, in a stable order; identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys

# Each subcommand imports the layers it runs, so a CLI process loads and
# compiles only those.
from .algebra import (GentlenessError, InputError, Rejection, _read_text, _records,
                      parse_quiver)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_any(path):
    """(presentation, tiling-or-None, tiling_algebra-or-None) of a
    description file: a file whose first keyword is 'tiling' is a tiling
    file, and any other file is read as a quiver file.  The keyword is
    that of the first record `_records` reads, as both parsers read."""
    text = _read_text(path)
    first = next((parts[0] for _, parts in _records(text, "{!r} is not a str")), "")
    if first != "tiling":
        return parse_quiver(text), None, None
    from .surface import Tiling, tiling_algebra
    alg = tiling_algebra(Tiling.parse(text))
    return alg.presentation, alg.tiling, alg


def _need_tiling(path):
    """(tiling, tiling algebra) of a tiling file."""
    _, t, alg = _load_any(path)
    if t is None:
        raise InputError(f"{path}: this command needs a tiling file")
    return t, alg


def _parse_operand(pres, text):
    from .strings import parse_band, parse_string
    if text.startswith("band "):
        return parse_band(pres, text[5:])
    return parse_string(pres, text)


def _string_arc(args):
    """(tiling, tiling algebra, arc) of the string argument on the tiling
    file argument."""
    from .arcs import string_to_arc
    from .strings import parse_string
    t, alg = _need_tiling(args.file)
    return t, alg, string_to_arc(t, alg, parse_string(alg.presentation, args.string))


def _print_moved(t, alg, moved, out):
    from .arcs import arc_to_string, format_arc
    print(format_arc(t, moved), file=out)
    print(f"string {arc_to_string(t, alg, moved).text()}", file=out)
    return 0


def cmd_check(args, out):
    try:
        _load_any(args.file)
    except GentlenessError as exc:
        for v in exc.violations:
            print(f"violation {v.axiom}: {v.message}", file=out)
        return 1
    print("gentle", file=out)
    return 0


def cmd_strings(args, out):
    from .strings import detect_band, enumerate_strings
    pres, _, _ = _load_any(args.file)
    words = enumerate_strings(pres, max_len=args.max_len)
    for w in words:
        print(w.text(), file=out)
    band = detect_band(pres)
    print(f"count {len(words)}", file=out)
    print(f"band {band.text() if band else 'none'}", file=out)
    return 0


def cmd_ar_quiver(args, out):
    from .artheory import ar_quiver_dot, build_ar_quiver
    pres, _, _ = _load_any(args.file)
    ar = build_ar_quiver(pres)
    if args.dot:
        _write(args.dot, ar_quiver_dot(ar))
    for w in ar.nodes:
        print(f"node {w.text()}", file=out)
    for a, b in ar.edges:
        print(f"edge {a.text()} -> {b.text()}", file=out)
    for a, b in ar.tau_pairs:
        print(f"tau {a.text()} .. {b.text()}", file=out)
    if args.dot:
        print(f"dot written to {args.dot}", file=out)
    return 0


def cmd_hom(args, out):
    for flag, value in (("--prime", args.prime), ("--lam", args.lam)):
        if value is not None and not args.oracle:
            raise InputError(f"{flag} needs --oracle")
    from .homs import hom_dim_detailed
    pres, _, _ = _load_any(args.file)
    v = _parse_operand(pres, args.v)
    w = _parse_operand(pres, args.w)
    comp = hom_dim_detailed(pres, v, w)
    if args.oracle:
        # both operands are realized before anything is printed, so a bad
        # --prime or --lam leaves only the error line
        from .oracle import (DEFAULT_PRIME, BandModuleSpec, hom_dim_oracle,
                             realize_band_module, realize_string_module)
        from .strings import Band
        prime = DEFAULT_PRIME if args.prime is None else args.prime
        lam = 1 if args.lam is None else args.lam

        def realize(x):
            if isinstance(x, Band):
                return realize_band_module(pres, BandModuleSpec(x, 1, lam),
                                           prime=prime)
            return realize_string_module(pres, x, prime=prime)
        oracle = hom_dim_oracle(pres, realize(v), realize(w))
    print(f"hom {comp.dim}", file=out)
    if args.oracle:
        print(f"oracle {oracle}", file=out)
        if oracle != comp.dim:
            print("MISMATCH between combinatorial and oracle dimensions", file=out)
            return 1
    return 0


def cmd_tiling_algebra(args, out):
    t, alg = _need_tiling(args.file)
    for tile in t.tiles:
        sides = " ".join(map(t.side, tile.walk))
        extra = f" around {tile.unmarked}" if tile.unmarked else ""
        print(f"tile {t.tile_names[tile.index]} {tile.kind} ({sides}){extra}",
              file=out)
    for v in alg.presentation.vertices:
        print(f"vertex {v}", file=out)
    for a in alg.arrows.values():   # a1, a2, ... as tiling_algebra made them
        print(f"arrow {a.name} {a.source} -> {a.target} at {a.point}", file=out)
    for x, y in sorted(alg.presentation.relations):
        print(f"relation {x} {y}", file=out)
    return 0


def cmd_arcs(args, out):
    from .arcs import TrivialArc, format_arc, intersection_vector
    t, _, arc = _string_arc(args)
    print(format_arc(t, arc), file=out)
    if not isinstance(arc, TrivialArc):
        vec = intersection_vector(t, arc)
        print("intersections " + " ".join(f"{k}:{v}" for k, v in sorted(vec.items())),
              file=out)
    return 0


def cmd_pivot(args, out):
    from .arcs import pivot_move
    t, alg, arc = _string_arc(args)
    return _print_moved(t, alg, pivot_move(t, alg, arc, args.end), out)


def cmd_tau(args, out):
    from .arcs import tau_inverse_arc
    t, alg, arc = _string_arc(args)
    moved = tau_inverse_arc(t, alg, arc)
    if moved is None:
        print("injective", file=out)
        return 0
    return _print_moved(t, alg, moved, out)


def cmd_rep_type(args, out):
    from .arcs import crossing_word, rep_type_geometric
    t, alg = _need_tiling(args.file)
    kind, witness = rep_type_geometric(t, alg)
    if kind == "finite":
        print("finite", file=out)
    else:
        word = " ".join(crossing_word(t, witness))
        print(f"infinite; witness closed curve: {word}", file=out)
    return 0


def cmd_complete(args, out):
    from .surface import (collapse_presentation, complete_to_triangulation,
                          presentations_isomorphic, tiling_algebra)
    t, alg = _need_tiling(args.file)
    comp = complete_to_triangulation(t)
    print(f"added points: {' '.join(comp.added_points) or '-'}", file=out)
    print(f"added arcs: {' '.join(comp.added_arcs) or '-'}", file=out)
    print(f"triangles: {len(comp.tiling.tiles)}", file=out)
    collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
    ok = presentations_isomorphic(collapsed, alg)
    print(f"collapse isomorphic to tiling algebra: {'yes' if ok else 'NO'}", file=out)
    return 0 if ok else 1


_STRING = ("string", {})

# (name, handler, help, the arguments after `file` with their
# add_argument keywords) of each subcommand, in help order
_SUBCOMMANDS = (
    ("check", cmd_check, "verify gentleness axioms", ()),
    ("strings", cmd_strings, "enumerate strings up to inversion",
     (("--max-len", dict(type=int)),)),
    ("ar-quiver", cmd_ar_quiver, "Auslander-Reiten quiver of string modules",
     (("--dot", {}),)),
    ("hom", cmd_hom, "Hom dimension between string/band modules",
     (("v", {}), ("w", {}), ("--oracle", dict(action="store_true")),
      ("--prime", dict(type=int)),
      ("--lam", dict(type=int,
                     help="band parameter lambda for oracle band modules (default 1)")))),
    ("tiling-algebra", cmd_tiling_algebra, "tiles and the tiling algebra", ()),
    ("arcs", cmd_arcs, "canonical permissible arc of a string", (_STRING,)),
    ("pivot", cmd_pivot, "pivot elementary move of the arc of a string",
     (_STRING, ("--end", dict(choices=("s", "t"), required=True)))),
    ("tau", cmd_tau, "inverse AR translate via arc rotation", (_STRING,)),
    ("rep-type", cmd_rep_type, "representation type from the surface", ()),
    ("complete", cmd_complete, "complete to a triangulation and verify collapse", ()),
)


def build_parser():
    ap = argparse.ArgumentParser(prog="tilealg",
                                 description="gentle algebras as tiling algebras")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, summary, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        for arg, keywords in arguments:
            p.add_argument(arg, **keywords)
        p.set_defaults(func=func)
    return ap


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except Rejection as exc:
        print(f"rejected: {exc}", file=out)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
