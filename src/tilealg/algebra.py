"""Quivers with length-2 relations, gentleness checking, sign functions.

Conventions used throughout the package:

* paths are read left to right, so a relation pair ``(a, b)`` means the
  path "first a, then b" is zero and requires ``t(a) == s(b)``;
* vertex and arrow identifiers are opaque strings, canonical orders are
  lexicographic on identifiers;
* the sign functions sigma/epsilon take values in {-1, +1} and satisfy

    - sigma(b1) == -sigma(b2)   for b1 != b2 with s(b1) == s(b2),
    - epsilon(a1) == -epsilon(a2) for a1 != a2 with t(a1) == t(a2),
    - sigma(b) == -epsilon(a)   whenever ab is composable and not in I.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class InputError(ValueError):
    """Malformed input (non-composable relation, unknown identifier, ...)."""


class Rejection(ValueError):
    """Well-formed input that the model rejects, with a reason (CLI exit 1)."""


class GentlenessError(Rejection):
    """Raised when a presentation required to be gentle is not."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"({v.axiom}) {v.message}" for v in self.violations)
        super().__init__(f"not a gentle presentation: {lines}")


@dataclass(frozen=True)
class Violation:
    axiom: str      # "G1".."G4" or "FD"
    message: str
    witnesses: tuple


@dataclass(frozen=True)
class Quiver:
    vertices: frozenset
    sources: dict = field(hash=False)   # arrow id -> source vertex
    targets: dict = field(hash=False)   # arrow id -> target vertex
    # derived once in __post_init__: sorted arrows, out/in lists per vertex
    _arrows: tuple = field(init=False, repr=False, compare=False, hash=False)
    _out: dict = field(init=False, repr=False, compare=False, hash=False)
    _in: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        arrows = tuple(sorted(self.sources))
        out, into = {}, {}
        for a in arrows:
            out.setdefault(self.sources[a], []).append(a)
            into.setdefault(self.targets[a], []).append(a)
        object.__setattr__(self, "_arrows", arrows)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)

    @classmethod
    def from_arrows(cls, vertices, arrows):
        """arrows: iterable of (id, source, target) triples."""
        vertices = frozenset(vertices)
        sources, targets = {}, {}
        for a, s, t in arrows:
            if a in sources:
                raise InputError(f"duplicate arrow id {a!r}")
            if s not in vertices or t not in vertices:
                raise InputError(f"arrow {a!r} uses undeclared vertex")
            sources[a] = s
            targets[a] = t
        return cls(vertices, sources, targets)

    @property
    def arrows(self):
        return list(self._arrows)

    def s(self, a):
        return self.sources[a]

    def t(self, a):
        return self.targets[a]

    def arrows_from(self, v):
        return list(self._out.get(v, ()))

    def arrows_into(self, v):
        return list(self._in.get(v, ()))


def _check_relations_composable(q: Quiver, relations):
    for a, b in relations:
        if a not in q.sources or b not in q.sources:
            raise InputError(f"relation ({a},{b}) references unknown arrow")
        if q.t(a) != q.s(b):
            raise InputError(f"relation ({a},{b}) is not composable")


@dataclass(frozen=True)
class GentleCheck:
    gentle: bool
    violations: tuple

    def __bool__(self):
        return self.gentle


def check_gentle(q: Quiver, relations) -> GentleCheck:
    """Verify axioms (G1)-(G4) plus finite-dimensionality.

    (G4) is structural here (relations are stored as composable pairs), so
    it can only fail through malformed input, which raises InputError.
    The extra axiom "FD" rejects relation-free oriented cycles; without it
    the path algebra is infinite dimensional and maximal direct strings
    (hence hooks) do not exist.
    """
    relations = frozenset(tuple(r) for r in relations)
    _check_relations_composable(q, relations)
    bad = []
    outs = {v: q.arrows_from(v) for v in q.vertices}
    ins = {v: q.arrows_into(v) for v in q.vertices}

    for v in sorted(q.vertices):
        if len(outs[v]) > 2:
            bad.append(Violation("G1", f"vertex {v} is the source of {len(outs[v])} arrows",
                                 (v, tuple(outs[v]))))
        if len(ins[v]) > 2:
            bad.append(Violation("G1", f"vertex {v} is the target of {len(ins[v])} arrows",
                                 (v, tuple(ins[v]))))

    for a in q.arrows:
        succ_free = [b for b in outs[q.t(a)] if (a, b) not in relations]
        if len(succ_free) > 1:
            bad.append(Violation("G2", f"arrow {a} has {len(succ_free)} non-relation successors",
                                 (a, tuple(succ_free))))
        pred_free = [c for c in ins[q.s(a)] if (c, a) not in relations]
        if len(pred_free) > 1:
            bad.append(Violation("G2", f"arrow {a} has {len(pred_free)} non-relation predecessors",
                                 (a, tuple(pred_free))))
        succ_rel = [b for b in outs[q.t(a)] if (a, b) in relations]
        if len(succ_rel) > 1:
            bad.append(Violation("G3", f"arrow {a} lies in {len(succ_rel)} relations on the right",
                                 (a, tuple(succ_rel))))
        pred_rel = [c for c in ins[q.s(a)] if (c, a) in relations]
        if len(pred_rel) > 1:
            bad.append(Violation("G3", f"arrow {a} lies in {len(pred_rel)} relations on the left",
                                 (a, tuple(pred_rel))))

    cycle = _relation_free_cycle(q, relations)
    if cycle is not None:
        bad.append(Violation("FD", "relation-free oriented cycle "
                             f"{' '.join(cycle)} (algebra infinite dimensional)",
                             tuple(cycle)))

    return GentleCheck(not bad, tuple(bad))


def _relation_free_cycle(q: Quiver, relations):
    """A directed cycle in the graph (arrows, a->b iff ab composable not in I)."""
    succ = {a: [b for b in q.arrows_from(q.t(a)) if (a, b) not in relations]
            for a in q.arrows}
    return _find_cycle(q.arrows, succ)


def _find_cycle(order, succ):
    """A directed cycle of the graph node -> succ[node], as a node list,
    or None.  Iterative DFS started from the nodes in `order`, following
    successors in list order; the first back edge closes the cycle."""
    state = {}  # 0 = on stack, 1 = done
    for start in order:
        if start in state:
            continue
        stack = [(start, iter(succ[start]))]
        path = [start]
        state[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(succ[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
                if state[nxt] == 0:
                    return path[path.index(nxt):]
            if not advanced:
                state[node] = 1
                stack.pop()
                path.pop()
    return None


def assign_signs(q: Quiver, relations):
    """Deterministic sigma/epsilon assignment, chosen vertex by vertex.

    Besides the three required conditions, compositions that lie in I get
    sigma(b) == +epsilon(a).  This sharper convention (consistent for
    gentle presentations) makes "vw defined iff sigma(w) == -epsilon(v)"
    exact and pins down the orientation of trivial-string arcs in the
    surface model.  Every condition links two arrow ends at one vertex,
    and at a vertex they link all of its ends, so each vertex is solved
    on its own.  Tie-break: the least in-arrow a0 gets epsilon = +1 and
    the other in-arrow -1; then each out-arrow b gets sigma(b) = +1 if
    a0 b is in I, else -1.  At a vertex without in-arrows the least
    out-arrow gets sigma = +1 and the other -1.  Returns (sigma, epsilon)
    as dicts arrow -> +-1 in sorted arrow order; AssertionError when the
    conditions cannot hold (the quiver is not gentle).
    """
    relations = frozenset(tuple(r) for r in relations)
    sigma, epsilon = {}, {}
    for v in q.vertices:
        ins = q.arrows_into(v)
        for i, a in enumerate(ins):
            epsilon[a] = 1 if i == 0 else -1
        for i, b in enumerate(q.arrows_from(v)):
            if ins:
                sigma[b] = 1 if (ins[0], b) in relations else -1
            else:
                sigma[b] = 1 if i == 0 else -1
    _verify_signs(q, relations, sigma, epsilon)
    return {a: sigma[a] for a in q.arrows}, {a: epsilon[a] for a in q.arrows}


def _verify_signs(q, relations, sigma, epsilon):
    for v in q.vertices:
        outs, ins = q.arrows_from(v), q.arrows_into(v)
        for b1, b2 in itertools.combinations(outs, 2):
            assert sigma[b1] == -sigma[b2], (b1, b2)
        for a1, a2 in itertools.combinations(ins, 2):
            assert epsilon[a1] == -epsilon[a2], (a1, a2)
        for a, b in itertools.product(ins, outs):
            rel = 1 if (a, b) in relations else -1
            assert sigma[b] == rel * epsilon[a], (a, b)


@dataclass(frozen=True)
class GentlePresentation:
    """A gentle presentation kQ/I with fixed sign functions."""

    quiver: Quiver
    relations: frozenset          # of (a, b) arrow-id pairs, meaning ab in I
    sigma: dict = field(hash=False)
    epsilon: dict = field(hash=False)
    # the compiled letter table, derived on first use by strings._letter_table
    _letters: object = field(default=None, init=False, repr=False,
                             compare=False, hash=False)

    @classmethod
    def from_data(cls, vertices, arrows, relations):
        q = Quiver.from_arrows(vertices, arrows)
        relations = frozenset(tuple(r) for r in relations)
        verdict = check_gentle(q, relations)
        if not verdict:
            raise GentlenessError(verdict.violations)
        sigma, epsilon = assign_signs(q, relations)
        return cls(q, relations, sigma, epsilon)

    # -- convenience -------------------------------------------------

    @property
    def vertices(self):
        return sorted(self.quiver.vertices)

    @property
    def arrows(self):
        return self.quiver.arrows

    def s(self, a):
        return self.quiver.s(a)

    def t(self, a):
        return self.quiver.t(a)

    def arrows_from(self, v):
        return self.quiver.arrows_from(v)

    def arrows_into(self, v):
        return self.quiver.arrows_into(v)


def is_zero_path(p: GentlePresentation, path) -> bool:
    """True iff some adjacent pair of the direct path lies in I."""
    path = list(path)
    for a in path:
        if a not in p.quiver.sources:
            raise InputError(f"unknown arrow {a!r}")
    for a, b in zip(path, path[1:]):
        if p.t(a) != p.s(b):
            raise InputError(f"path not composable at {a} {b}")
    return any((a, b) in p.relations for a, b in zip(path, path[1:]))


# -- quiver description files ----------------------------------------
#
#   quiver
#   vertex <id>
#   arrow <id> <src> <tgt>
#   relation <id1> <id2>
#   end

def _records(text: str):
    """(line number, tokens) of each line of a description file that is
    not blank or a comment, up to the 'end' line; any later content is
    malformed input."""
    ended = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if ended:
            raise InputError(f"line {lineno}: content after 'end'")
        if parts[0] == "end":
            ended = True
        else:
            yield lineno, parts


def parse_quiver_raw(text: str):
    """(vertices, arrows, relations) from a quiver description file."""
    vertices, arrows, relations = [], [], []
    declared = set()
    seen_header = False
    for lineno, parts in _records(text):
        kw = parts[0]
        if kw not in ("quiver", "vertex", "arrow", "relation"):
            raise InputError(f"line {lineno}: unknown keyword {kw!r}")
        try:
            if kw == "quiver":
                seen_header = True
            elif kw == "vertex":
                (v,) = parts[1:]
                vertices.append(v)
            elif kw == "arrow":
                a, s, t = parts[1:]
                arrows.append((a, s, t))
            else:
                a, b = parts[1:]
                relations.append((a, b))
        except ValueError:
            raise InputError(f"line {lineno}: malformed {kw!r} line") from None
        if kw == "vertex":   # checked here: the handler above would mask it
            if v in declared:
                raise InputError(f"line {lineno}: duplicate vertex {v!r}")
            declared.add(v)
    if not seen_header:
        raise InputError("missing 'quiver' header line")
    return vertices, arrows, relations


def parse_quiver(text: str) -> GentlePresentation:
    return GentlePresentation.from_data(*parse_quiver_raw(text))


def _read_text(path) -> str:
    """The UTF-8 text of a description file; an unreadable or undecodable
    file is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_quiver(path) -> GentlePresentation:
    return parse_quiver(_read_text(path))
