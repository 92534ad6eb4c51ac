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
from .algebra import (InputError, Quiver, Rejection, _read_text, check_gentle,
                      parse_quiver, parse_quiver_raw)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _sniff(path):
    """(text, first keyword) of a description file; the keyword is
    'quiver' or 'tiling' for well-formed files."""
    text = _read_text(path)
    first = next((words[0] for l in text.splitlines()
                  if (words := l.split("#", 1)[0].split())), "")
    return text, first


def _load_any(path):
    """(presentation, tiling-or-None, tiling_algebra-or-None)."""
    text, first = _sniff(path)
    if first == "tiling":
        from .surface import Tiling, tiling_algebra
        t = Tiling.parse(text)
        alg = tiling_algebra(t)
        return alg.presentation, t, alg
    if first == "quiver":
        return parse_quiver(text), None, None
    raise InputError(f"{path}: expected a 'quiver' or 'tiling' file")


def _need_tiling(path):
    pres, t, alg = _load_any(path)
    if t is None:
        raise InputError(f"{path}: this command needs a tiling file")
    return pres, t, alg


def _parse_operand(pres, text):
    from .strings import parse_band, parse_string
    if text.startswith("band "):
        return parse_band(pres, text[5:])
    return parse_string(pres, text)


def cmd_check(args, out):
    text, first = _sniff(args.file)
    if first == "tiling":
        from .surface import Tiling, tiling_algebra
        # the tiling algebra is built only on a gentle presentation
        tiling_algebra(Tiling.parse(text))
        print("gentle", file=out)
        return 0
    vertices, arrows, relations = parse_quiver_raw(text)
    verdict = check_gentle(Quiver.from_arrows(vertices, arrows), relations)
    if verdict.gentle:
        print("gentle", file=out)
        return 0
    for v in verdict.violations:
        print(f"violation {v.axiom}: {v.message}", file=out)
    return 1


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
    _, t, alg = _need_tiling(args.file)
    for tile in t.tiles:
        sides = " ".join(map(t.side, tile.walk))
        extra = f" around {tile.unmarked}" if tile.unmarked else ""
        print(f"tile {t.tile_names[tile.index]} {tile.kind} ({sides}){extra}",
              file=out)
    for v in alg.presentation.vertices:
        print(f"vertex {v}", file=out)
    for name in sorted(alg.arrows, key=lambda n: int(n[1:])):
        a = alg.arrows[name]
        print(f"arrow {a.name} {a.source} -> {a.target} at {a.point}", file=out)
    for x, y in sorted(alg.presentation.relations):
        print(f"relation {x} {y}", file=out)
    return 0


def cmd_arcs(args, out):
    from .arcs import TrivialArc, format_arc, intersection_vector, string_to_arc
    from .strings import parse_string
    pres, t, alg = _need_tiling(args.file)
    w = parse_string(pres, args.string)
    arc = string_to_arc(t, alg, w)
    print(format_arc(t, arc), file=out)
    if not isinstance(arc, TrivialArc):
        vec = intersection_vector(t, arc)
        print("intersections " + " ".join(f"{k}:{v}" for k, v in sorted(vec.items())),
              file=out)
    return 0


def cmd_pivot(args, out):
    from .arcs import arc_to_string, format_arc, pivot_move, string_to_arc
    from .strings import parse_string
    pres, t, alg = _need_tiling(args.file)
    w = parse_string(pres, args.string)
    arc = string_to_arc(t, alg, w)
    moved = pivot_move(t, alg, arc, args.end)
    print(format_arc(t, moved), file=out)
    print(f"string {arc_to_string(t, alg, moved).text()}", file=out)
    return 0


def cmd_tau(args, out):
    from .arcs import arc_to_string, format_arc, string_to_arc, tau_inverse_arc
    from .strings import parse_string
    pres, t, alg = _need_tiling(args.file)
    w = parse_string(pres, args.string)
    arc = string_to_arc(t, alg, w)
    moved = tau_inverse_arc(t, alg, arc)
    if moved is None:
        print("injective", file=out)
        return 0
    print(format_arc(t, moved), file=out)
    print(f"string {arc_to_string(t, alg, moved).text()}", file=out)
    return 0


def cmd_rep_type(args, out):
    from .arcs import crossing_word, rep_type_geometric
    _, t, alg = _need_tiling(args.file)
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
    _, t, alg = _need_tiling(args.file)
    comp = complete_to_triangulation(t)
    print(f"added points: {' '.join(comp.added_points) or '-'}", file=out)
    print(f"added arcs: {' '.join(comp.added_arcs) or '-'}", file=out)
    print(f"triangles: {len(comp.tiling.tiles)}", file=out)
    collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
    ok = presentations_isomorphic(collapsed, alg)
    print(f"collapse isomorphic to tiling algebra: {'yes' if ok else 'NO'}", file=out)
    return 0 if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="tilealg",
                                 description="gentle algebras as tiling algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify gentleness axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("strings", help="enumerate strings up to inversion")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(func=cmd_strings)

    p = sub.add_parser("ar-quiver", help="Auslander-Reiten quiver of string modules")
    p.add_argument("file")
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_ar_quiver)

    p = sub.add_parser("hom", help="Hom dimension between string/band modules")
    p.add_argument("file")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--lam", type=int, default=None,
                   help="band parameter lambda for oracle band modules (default 1)")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("tiling-algebra", help="tiles and the tiling algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_tiling_algebra)

    p = sub.add_parser("arcs", help="canonical permissible arc of a string")
    p.add_argument("file")
    p.add_argument("string")
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("pivot", help="pivot elementary move of the arc of a string")
    p.add_argument("file")
    p.add_argument("string")
    p.add_argument("--end", choices=("s", "t"), required=True)
    p.set_defaults(func=cmd_pivot)

    p = sub.add_parser("tau", help="inverse AR translate via arc rotation")
    p.add_argument("file")
    p.add_argument("string")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("rep-type", help="representation type from the surface")
    p.add_argument("file")
    p.set_defaults(func=cmd_rep_type)

    p = sub.add_parser("complete", help="complete to a triangulation and verify collapse")
    p.add_argument("file")
    p.set_defaults(func=cmd_complete)
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
