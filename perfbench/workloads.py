"""The benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one op
per input in `op`, renders an op's output as text for the run digest in
`render`, and checks an output against an independent route in `check`.
No module of tilealg is imported before `setup` runs, so that setup
time includes the import.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import time


# -- input generators ------------------------------------------------------


def chain_quiver(rng, n, relations, random_orientation):
    """A path of n arrows (a tree, so band-free) in which `relations`
    randomly chosen composable pairs of neighbouring arrows (or all of
    them, if there are fewer) are relations."""
    vertices = [f"v{i}" for i in range(n + 1)]
    arrows = []
    for i in range(n):
        forward = rng.random() < 0.5 if random_orientation else True
        s, t = (i, i + 1) if forward else (i + 1, i)
        arrows.append((f"a{i}", vertices[s], vertices[t]))
    composable = []
    for (a, s, t), (b, s2, t2) in zip(arrows, arrows[1:]):
        if t == s2:
            composable.append((a, b))
        elif t2 == s:
            composable.append((b, a))
    chosen = rng.sample(composable, min(relations, len(composable)))
    return vertices, arrows, sorted(chosen, key=composable.index)


def kronecker_chain(rng, k):
    """k Kronecker pairs in a row; at each junction either the parallel
    or the crossed compositions are relations.  Every pair carries a
    band."""
    vertices = [f"v{i}" for i in range(k + 1)]
    arrows = [(f"{x}{i}", vertices[i], vertices[i + 1])
              for i in range(k) for x in "ab"]
    relations = []
    for i in range(k - 1):
        if rng.random() < 0.5:
            relations += [(f"a{i}", f"a{i + 1}"), (f"b{i}", f"b{i + 1}")]
        else:
            relations += [(f"a{i}", f"b{i + 1}"), (f"b{i}", f"a{i + 1}")]
    return vertices, arrows, relations


def quiver_text(vertices, arrows, relations):
    lines = ["quiver"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a} {s} {t}" for a, s, t in arrows]
    lines += [f"relation {a} {b}" for a, b in relations]
    lines.append("end")
    return "\n".join(lines) + "\n"


def half_kept_disc(rng, n):
    """Of four discs from samples.random_disc_tiling with n points, the one
    that keeps closest to half of its triangulation's n - 3 diagonals."""
    from tilealg import samples

    drawn = [samples.random_disc_tiling(rng, n, n) for _ in range(4)]
    return min(drawn, key=lambda t: abs(2 * len(t.arcs) - (n - 3)))


def random_strings(rng, p, count, max_len):
    """Up to `count` distinct strings of p: two trivial ones, the rest
    random walks of up to max_len letters."""
    from tilealg.strings import StringWord, all_letters, valid_pair

    letters = all_letters(p)
    found = {}
    for v in rng.sample(p.vertices, min(2, len(p.vertices))):
        w = StringWord.trivial(v, rng.choice((1, -1)))
        found[w.text()] = w
    for _ in range(20 * count):
        if len(found) >= count or not letters:
            break
        word = [rng.choice(letters)]
        target = rng.randint(1, max_len)
        while len(word) < target:
            nxt = [l for l in letters if valid_pair(p, word[-1], l) is None]
            if not nxt:
                break
            word.append(rng.choice(nxt))
        w = StringWord.word(word)
        found.setdefault(w.text(), w)
    return list(found.values())


def closed_string_bands(p, strings):
    """The distinct bands among the closed strings, via Band.from_letters."""
    from tilealg import Band, InputError, StringRejection

    bands = set()
    for w in strings:
        if w.kind == "word" and len(w) >= 2 and w.source(p) == w.target(p):
            try:
                bands.add(Band.from_letters(p, w.letters))
            except (StringRejection, InputError):
                pass
    return sorted(bands, key=lambda b: tuple((l.arrow, l.inverse) for l in b.letters))


def operand_text(x):
    from tilealg import Band
    return f"band {x.text()}" if isinstance(x, Band) else x.text()


def _of_length(rng, words, length):
    """A random word of the given length, or of the nearest length present."""
    best = min(abs(len(w) - length) for w in words)
    return rng.choice([w for w in words if abs(len(w) - length) == best])


def _scaled(n, scale, least):
    return max(least, round(n * scale))


# -- workloads ---------------------------------------------------------------


class Workload:
    def __init__(self, root):
        self.root = root
        self.items = []
        self.shape = {}

    def op_traced(self, item, tracer, op_id):
        tracer.op = op_id
        return self.op(item)

    def layer_extras(self):
        """Layer metrics measured outside the spans; only cli_session
        runs the CLI, the other workloads report 0."""
        return {"cli.bare_ms": 0.0, "cli.import_ms": 0.0, "cli.inproc_ms": 0.0}


class HomMatrix(Workload):
    """Op: one hom_dim_detailed(p, v, w) query.  One band-free and one
    band-positive algebra; operands are strings up to a length bound and
    the bands found among them.  Same-band pairs are left out: they take
    the experimental path (see perfbench/README.md)."""

    # On the banded algebra, of every BAND_SHARE pairs one has a band on
    # the left, one on the right and one on both sides (two distinct bands).
    BAND_SHARE = 5

    def setup(self, seed, scale):
        from tilealg import GentlePresentation, enumerate_strings

        rng = random.Random(seed)
        algebras = [
            ("chain", chain_quiver(rng, _scaled(24, scale, 4), 4, False), 8),
            ("kronecker_chain", kronecker_chain(rng, _scaled(4, scale, 2)), 6),
        ]
        pairs_each = _scaled(300, scale, 20)
        shape = {"arrows": [], "strings": [], "bands": []}
        for name, data, bound in algebras:
            p = GentlePresentation.from_data(*data)
            strings = enumerate_strings(p, max_len=bound)
            bands = closed_string_bands(p, strings)
            shape["arrows"].append(len(p.arrows))
            shape["strings"].append(len(strings))
            shape["bands"].append(len(bands))
            # Operand lengths follow a fixed schedule, so that the cost of
            # a pass depends on the seed as little as possible.
            grid = [(a, b) for a in range(bound + 1) for b in range(bound + 1)]
            for j in range(pairs_each):
                a, b = grid[j % len(grid)]
                v, w = _of_length(rng, strings, a), _of_length(rng, strings, b)
                slot = j % self.BAND_SHARE
                if bands and slot < 3:
                    band = _of_length(rng, bands, 2 + 2 * (j // self.BAND_SHARE % 3))
                    if slot == 0:
                        v = band
                    elif slot == 1:
                        w = band
                    elif len(bands) > 1:
                        v, w = band, rng.choice([x for x in bands if x != band])
                self.items.append((name, p, v, w))
        rng.shuffle(self.items)
        self.checked = set(rng.sample(range(len(self.items)),
                                      min(40, len(self.items))))
        shape["ops_per_pass"] = len(self.items)
        shape["oracle_checked"] = len(self.checked)
        self.shape = shape

    def op(self, item):
        from tilealg.homs import hom_dim_detailed
        _, p, v, w = item
        return hom_dim_detailed(p, v, w)

    def render(self, item, out):
        name, _, v, w = item
        pairs = ";".join(f"{a.factor.window.start},{a.factor.window.length}/"
                         f"{a.sub.window.start},{a.sub.window.length}/{a.orientation}"
                         for a in out.pairs)
        return f"{name} [{operand_text(v)}] -> [{operand_text(w)}] {out.dim} {pairs}"

    def check(self, index, item, out):
        if index not in self.checked:
            return True
        from tilealg import (Band, BandModuleSpec, hom_dim_oracle,
                             realize_band_module, realize_string_module)
        _, p, v, w = item

        def realize(x):
            if isinstance(x, Band):
                return realize_band_module(p, BandModuleSpec(x, 1, 1))
            return realize_string_module(p, x)

        return hom_dim_oracle(p, realize(v), realize(w)) == out.dim


class SurfaceAtlas(Workload):
    """Op: process one tiling text -- parse, tiling algebra, completion
    and collapse, representation type, arcs of sampled strings with
    pivots and tau^-1, and geometric Hom on sampled arc pairs."""

    # Marked points of the discs.  Every disc keeps half of its
    # triangulation's diagonals, so that a pass costs about the same on
    # every seed; with the nine annuli the 29 ops put six like discs at
    # the median and three at the 90th percentile.  A pass stays near
    # one second, so that every input is timed many times in a run.
    DISC_POINTS = (12, 16, 24, 24, 24, 24, 24, 24, 28, 32, 36, 40, 44,
                   48, 52, 56, 64, 64, 64, 96)
    ANNULI = 3        # of each kind: loop, digon, Kronecker
    STRINGS = 12
    PAIRS = 16

    def setup(self, seed, scale):
        from tilealg import samples, tiling_algebra

        rng = random.Random(seed)
        tilings = [half_kept_disc(rng, _scaled(n, scale, 6)) for n in self.DISC_POINTS]
        for _ in range(self.ANNULI):
            tilings += [samples.random_loop_annulus(rng),
                        samples.random_digon_annulus(rng),
                        samples.random_kron_annulus(rng)]
        strings_each = _scaled(self.STRINGS, scale, 3)
        pairs_each = _scaled(self.PAIRS, scale, 3)
        shape = {"points": [], "tiles": [], "strings": 0, "pairs": 0}
        for t in tilings:
            p = tiling_algebra(t).presentation
            words = [w.text() for w in random_strings(rng, p, strings_each, 5)]
            pairs = [(rng.randrange(len(words)), rng.randrange(len(words)))
                     for _ in range(pairs_each)]
            self.items.append((t.text(), tuple(words), tuple(pairs)))
            shape["points"].append(len(t.points))
            shape["tiles"].append(len(t.tiles))
            shape["strings"] += len(words)
            shape["pairs"] += len(pairs)
        rng.shuffle(self.items)
        shape["ops_per_pass"] = len(self.items)
        self.shape = shape

    def op(self, item):
        from tilealg import (Tiling, collapse_presentation,
                             complete_to_triangulation, presentations_isomorphic,
                             tiling_algebra)
        from tilealg.arcs import (arc_to_string, hom_dim_geometric, pivot_move,
                                  rep_type_geometric, string_to_arc,
                                  tau_inverse_arc)
        from tilealg.strings import parse_string
        text, words, pairs = item
        t = Tiling.parse(text)
        alg = tiling_algebra(t)
        comp = complete_to_triangulation(t)
        collapsed = collapse_presentation(tiling_algebra(comp.tiling), t.arc_ids())
        iso = presentations_isomorphic(collapsed, alg)
        kind, witness = rep_type_geometric(t, alg)
        rows, arcs = [], []
        for text_w in words:
            w = parse_string(alg.presentation, text_w)
            arc = string_to_arc(t, alg, w)
            rows.append((w, arc, arc_to_string(t, alg, arc),
                         pivot_move(t, alg, arc, "s"), pivot_move(t, alg, arc, "t"),
                         tau_inverse_arc(t, alg, arc)))
            arcs.append(arc)
        homs = tuple(hom_dim_geometric(t, alg, arcs[i], arcs[j]) for i, j in pairs)
        return (len(comp.tiling.tiles), comp.added_arcs, iso, kind, witness,
                tuple(rows), homs)

    def _context(self, item):
        from tilealg import Tiling, tiling_algebra
        t = Tiling.parse(item[0])
        return t, tiling_algebra(t)

    def render(self, item, out):
        from tilealg.arcs import format_arc
        t, _ = self._context(item)
        triangles, added, iso, kind, witness, rows, homs = out
        lines = [f"triangles {triangles} added {' '.join(added)} iso {iso} "
                 f"type {kind} {format_arc(t, witness) if witness else '-'}"]
        for w, arc, back, ps, pt, ta in rows:
            lines.append(" | ".join([w.text(), format_arc(t, arc), back.text(),
                                     format_arc(t, ps), format_arc(t, pt),
                                     format_arc(t, ta) if ta else "injective"]))
        lines.append("hom " + " ".join(map(str, homs)))
        return "\n".join(lines)

    def check(self, index, item, out):
        from tilealg import StringWord, canonicalize, hom_dim, hooks, tau_inverse
        from tilealg.arcs import TrivialArc, arc_to_string
        t, alg = self._context(item)
        p = alg.presentation
        _, _, iso, _, _, rows, homs = out
        if not iso:
            return False
        for w, arc, back, ps, pt, ta in rows:
            if back != w:
                return False
            h = hooks(p, w)
            for moved, want in ((ps, h.w_left), (pt, h.w_right)):
                got = StringWord.zero() if isinstance(moved, TrivialArc) \
                    else arc_to_string(t, alg, moved)
                if got != want:
                    return False
            tw = tau_inverse(p, w)
            if (ta is None) != (tw is None):
                return False
            if ta is not None and canonicalize(arc_to_string(t, alg, ta)) != canonicalize(tw):
                return False
        words = [r[0] for r in rows]
        return all(hom_dim(p, words[i], words[j]) == d
                   for (i, j), d in zip(item[2], homs))


class CLISession(Workload):
    """Op: one `python -m tilealg.cli` child process, one at a time,
    over all ten subcommands on generated quiver and tiling files."""

    def setup(self, seed, scale):
        from tilealg import (GentlePresentation, detect_band, enumerate_strings,
                             samples, tiling_algebra)

        rng = random.Random(seed)
        folder = os.path.join(".perfbench_out", f"cli-seed{seed}")
        os.makedirs(os.path.join(self.root, folder), exist_ok=True)
        files = {}

        def put(name, text):
            path = os.path.join(folder, name)
            with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
                fh.write(text)
            files[name] = path
            return path

        chain = chain_quiver(rng, _scaled(10, scale, 3), 2, True)
        kchain = kronecker_chain(rng, 3)
        put("chain.quiver", quiver_text(*chain))
        put("kchain.quiver", quiver_text(*kchain))
        tilings = {"disc": half_kept_disc(rng, _scaled(20, scale, 8)),
                   "loop": samples.random_loop_annulus(rng),
                   "digon": samples.random_digon_annulus(rng),
                   "kron": samples.random_kron_annulus(rng)}
        for name, t in tilings.items():
            put(f"{name}.tiling", t.text())

        def pick(p, n):
            return [w.text() for w in rng.sample(random_strings(rng, p, 8, 4), n)]

        p_chain = GentlePresentation.from_data(*chain)
        p_k = GentlePresentation.from_data(*kchain)
        v, w = pick(p_chain, 2)
        band = detect_band(p_k)
        (kw,) = [x.text() for x in rng.sample(enumerate_strings(p_k, max_len=3), 1)]
        disc = tiling_algebra(tilings["disc"]).presentation
        d1, d2, d3 = pick(disc, 3)
        (lw,) = pick(tiling_algebra(tilings["loop"]).presentation, 1)
        (gw,) = pick(tiling_algebra(tilings["digon"]).presentation, 1)
        f = files
        self.items = [
            ("check", f["chain.quiver"]),
            ("check", f["disc.tiling"]),
            ("strings", f["chain.quiver"]),
            ("strings", f["kchain.quiver"], "--max-len", "3"),
            ("ar-quiver", f["chain.quiver"]),
            ("hom", f["chain.quiver"], v, w, "--oracle"),
            ("hom", f["kchain.quiver"], f"band {band.text()}", kw, "--oracle"),
            ("tiling-algebra", f["disc.tiling"]),
            ("arcs", f["disc.tiling"], d1),
            ("pivot", f["disc.tiling"], d2, "--end", "s"),
            ("pivot", f["loop.tiling"], lw, "--end", "t"),
            ("tau", f["disc.tiling"], d3),
            ("tau", f["digon.tiling"], gw),
            ("rep-type", f["kron.tiling"]),
            ("complete", f["disc.tiling"]),
        ]
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.inproc_s = []
        self.shape = {"files": sorted(files), "subcommands": len({i[0] for i in self.items}),
                      "ops_per_pass": len(self.items)}

    def _child(self, argv):
        proc = subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def op(self, item):
        return self._child([sys.executable, "-m", "tilealg.cli", *item])

    def op_traced(self, item, tracer, op_id):
        import json
        span_file = os.path.join(self.root, ".perfbench_out", f"cli-span-{os.getpid()}.json")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        out = self._child([sys.executable, child, span_file, str(op_id), *item])
        with open(span_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(span_file)
        tracer.merge(doc["summary"])
        tracer.children.append(doc["spans"])
        return out

    def render(self, item, out):
        code, stdout = out
        return f"$ {' '.join(item)}\nexit {code}\n" + stdout.decode("utf-8", "replace")

    def check(self, index, item, out):
        from tilealg import cli
        buf = io.StringIO()
        start = time.perf_counter()
        code = cli.main(list(item), out=buf)
        self.inproc_s.append(time.perf_counter() - start)
        rc, stdout = out
        return (rc == code == 0 and stdout == buf.getvalue().encode("utf-8")
                and b"MISMATCH" not in stdout)

    def layer_extras(self):
        def median_ms(argv, k=5):
            times = []
            for _ in range(k):
                start = time.perf_counter()
                subprocess.run(argv, cwd=self.root, env=self.env, check=True,
                               capture_output=True, timeout=120)
                times.append(time.perf_counter() - start)
            return 1000 * sorted(times)[k // 2]

        bare = median_ms([sys.executable, "-c", "pass"])
        imported = median_ms([sys.executable, "-c", "import tilealg.cli"])
        inproc = sorted(self.inproc_s)
        return {"cli.bare_ms": bare, "cli.import_ms": imported - bare,
                "cli.inproc_ms": 1000 * inproc[len(inproc) // 2] if inproc else 0.0}


WORKLOADS = {
    "hom_matrix": HomMatrix,
    "surface_atlas": SurfaceAtlas,
    "cli_session": CLISession,
}
