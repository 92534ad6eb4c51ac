"""Quivers with length-2 relations, gentleness checking, sign functions.

Conventions used throughout the package:

* paths are read left to right, so a relation pair ``(a, b)`` means the
  path "first a, then b" is zero and requires ``t(a) == s(b)``;
* vertex and arrow identifiers are names, non-empty strs; canonical
  orders are lexicographic on them.  Each input record is read once, where
  it enters, by `_record`, `_name` or `_int_arg`, or named in an InputError;
* the sign functions sigma/epsilon, derived from the quiver and the
  relations, take values in {-1, +1} and satisfy

    - sigma(b1) == -sigma(b2)   for b1 != b2 with s(b1) == s(b2),
    - epsilon(a1) == -epsilon(a2) for a1 != a2 with t(a1) == t(a2),
    - sigma(b) == -epsilon(a)   whenever ab is composable and not in I,
    - sigma(b) == +epsilon(a)   whenever ab is in I.
"""

from __future__ import annotations

import os
from typing import NamedTuple


class InputError(ValueError):
    """Malformed input (non-composable relation, unknown identifier, ...)."""


class Rejection(ValueError):
    """Well-formed input that the model rejects, with a reason (CLI exit 1)."""


def _int_arg(value, name):
    """`value` if it is an int and not a bool, else InputError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an int, got {value!r}")
    return value


def _record(x, size, what, *keys):
    """The items of `x`, any iterable but a str, as a tuple of `size` items
    unless size is None; else InputError(what.format(x, *keys))."""
    if not isinstance(x, str):
        try:
            items = tuple(x)
            if size is None or len(items) == size:
                return items
        except TypeError:
            pass
    raise InputError(what.format(x, *keys))


class _Checked:
    """Base of the namedtuple records whose constructor checks their fields:
    `_make` and `_replace` build through it; `_trusted(fields)`, for the
    records the library builds from checked fields, skips it."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))
    _trusted = classmethod(tuple.__new__)


def _set_repr(items) -> str:
    """The repr of a frozenset with its items in the order of their reprs,
    so that it does not depend on the hash seed."""
    return f"frozenset({{{', '.join(sorted(map(repr, items)))}}})" if items else "frozenset()"


def _name(x, what, *keys):
    """`x` if it is a non-empty str, else InputError(what.format(x, *keys)).
    Hot loops test `type(x) is str and x` inline and call it on failure."""
    if type(x) is str and x:
        return x
    raise InputError(what.format(x, *keys))


def _given(x, cls):
    """`x` if it is a `cls`, else InputError naming the type expected."""
    if isinstance(x, cls):
        return x
    a = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise InputError(f"expected {a} {cls.__name__}, got {type(x).__name__}")


def _text(x, what):
    """`x` if it is a str, else InputError(what.format(x))."""
    if isinstance(x, str):
        return x
    raise InputError(what.format(x))


class GentlenessError(Rejection):
    """Raised when a presentation required to be gentle is not."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"({v.axiom}) {v.message}" for v in self.violations)
        super().__init__(f"not a gentle presentation: {lines}")


class Violation(NamedTuple):
    axiom: str      # "G1".."G4" or "FD"
    message: str
    witnesses: tuple


class Quiver:
    """Vertices and arrows.  Equality, hash and repr read the three
    given fields only; the sorted arrows and the out/in lists per vertex
    are derived once, here."""

    __slots__ = ("vertices", "sources", "targets", "_arrows", "_out", "_in")

    def __init__(self, vertices: frozenset, sources: dict, targets: dict):
        self.vertices = vertices
        self.sources = sources   # arrow id -> source vertex
        self.targets = targets   # arrow id -> target vertex
        arrows = self._arrows = tuple(sorted(sources))
        out, into = self._out, self._in = {}, {}
        for a in arrows:
            out.setdefault(sources[a], []).append(a)
            into.setdefault(targets[a], []).append(a)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vertices, self.sources, self.targets)
                == (other.vertices, other.sources, other.targets))

    def __hash__(self):
        return hash((self.vertices,))

    def __repr__(self):
        return (f"Quiver(vertices={_set_repr(self.vertices)}, sources={self.sources!r}, "
                f"targets={self.targets!r})")

    @classmethod
    def from_arrows(cls, vertices, arrows):
        """vertices: names; arrows: (id, source, target) triples of names."""
        names = set()
        for v in _record(vertices, None, "vertices {!r} are not a collection"):
            if type(v) is not str or not v or v in names:
                _name(v, "vertex {!r} is not a name")
                raise InputError(f"duplicate vertex {v!r}")
            names.add(v)
        sources, targets = {}, {}
        for arrow in _record(arrows, None, "arrows {!r} are not a collection"):
            a, s, t = arrow if type(arrow) is tuple and len(arrow) == 3 else _record(
                arrow, 3, "arrow {!r} is not (id, source, target)")
            if type(a) is not str or not a or a in sources:
                _name(a, "arrow {1!r} has id {0!r}, not a name", arrow)
                raise InputError(f"duplicate arrow id {a!r}")
            if type(s) is not str or type(t) is not str or s not in names \
                    or t not in names:
                raise InputError(f"arrow {a!r} uses undeclared vertex")
            sources[a] = s
            targets[a] = t
        return cls(frozenset(names), sources, targets)

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


def _relation_set(relations) -> dict:
    """The relations as (arrow, arrow) pairs of names, the keys of a dict in
    the order read, so checks report them in input order; InputError
    naming the first record that is not one, or the first repeated one."""
    what, pairs = "relation {1!r} is not a pair of arrows", {}
    for r in _record(relations, None, "relations {!r} are not a collection"):
        a, b = pair = r if type(r) is tuple and len(r) == 2 else _record(r, 2, what, r)
        if type(a) is not str or type(b) is not str:
            _name(a, what, r), _name(b, what, r)
        if pair in pairs:
            raise InputError(f"duplicate relation ({a},{b})")
        pairs[pair] = None
    return pairs


class GentleCheck(NamedTuple):
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
    return _check_gentle(_given(q, Quiver), _relation_set(relations))


def _check_gentle(q: Quiver, relations: dict) -> GentleCheck:
    """The verdict of `check_gentle`.  Each arrow reads the ends at its two
    vertices once and counts its relations on each side, tallied while the
    relations are checked; a witness tuple is built only for a count over
    its limit."""
    sources, targets, outs, ins = q.sources, q.targets, q._out, q._in
    right, left = {}, {}   # arrow a -> how many relations ab / ca it lies in
    for a, b in relations:
        if a not in sources or b not in sources:
            raise InputError(f"relation ({a},{b}) references unknown arrow")
        if targets[a] != sources[b]:
            raise InputError(f"relation ({a},{b}) is not composable")
        right[a] = right.get(a, 0) + 1
        left[b] = left.get(b, 0) + 1
    bad = []
    for v in sorted({v for ends in (outs, ins) for v, x in ends.items() if len(x) > 2}):
        out, into = outs.get(v, ()), ins.get(v, ())
        if len(out) > 2:
            bad.append(Violation("G1", f"vertex {v} is the source of {len(out)} arrows",
                                 (v, tuple(out))))
        if len(into) > 2:
            bad.append(Violation("G1", f"vertex {v} is the target of {len(into)} arrows",
                                 (v, tuple(into))))

    free = {}  # arrow -> its relation-free successors: the graph FD searches
    for a in q._arrows:
        succ, pred = outs.get(targets[a], ()), ins.get(sources[a], ())
        n_right, n_left = right.get(a, 0), left.get(a, 0)
        free[a] = [b for b in succ if (a, b) not in relations] if n_right else succ
        if len(succ) - n_right > 1:
            bad.append(Violation("G2", f"arrow {a} has {len(succ) - n_right} "
                                 "non-relation successors", (a, tuple(free[a]))))
        if len(pred) - n_left > 1:
            bad.append(Violation("G2", f"arrow {a} has {len(pred) - n_left} "
                                 "non-relation predecessors",
                                 (a, tuple(c for c in pred if (c, a) not in relations))))
        if n_right > 1:
            bad.append(Violation("G3", f"arrow {a} lies in {n_right} relations on the right",
                                 (a, tuple(b for b in succ if (a, b) in relations))))
        if n_left > 1:
            bad.append(Violation("G3", f"arrow {a} lies in {n_left} relations on the left",
                                 (a, tuple(c for c in pred if (c, a) in relations))))

    cycle = _find_cycle(q._arrows, free)
    if cycle is not None:
        bad.append(Violation("FD", "relation-free oriented cycle "
                             f"{' '.join(cycle)} (algebra infinite dimensional)",
                             tuple(cycle)))

    return GentleCheck(not bad, tuple(bad))


def _find_cycle(order, succ):
    """A directed cycle of the graph node -> succ[node], as a node list,
    or None.  Iterative DFS started from the nodes in `order`, following
    successors in list order; the first back edge closes the cycle."""
    on_path = {}  # node -> True while on the DFS path, False once done
    for start in order:
        if start in on_path:
            continue
        on_path[start] = True
        path, stack = [start], [iter(succ[start])]
        while stack:
            for nxt in stack[-1]:
                seen = on_path.get(nxt)
                if seen is None:
                    on_path[nxt] = True
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
                if seen:
                    return path[path.index(nxt):]
            else:
                on_path[path.pop()] = False
                stack.pop()
    return None


def _assign_signs(q: Quiver, relations: dict):
    """Deterministic sigma/epsilon assignment, chosen vertex by vertex.

    Besides the three required conditions, compositions that lie in I get
    sigma(b) == +epsilon(a).  This sharper convention makes "vw defined
    iff sigma(w) == -epsilon(v)" exact and pins down the orientation of
    trivial-string arcs in the surface model.  Every condition links two
    arrow ends at one vertex, and at a vertex they link all of its ends,
    so each vertex is solved on its own.  Tie-break: the least in-arrow
    a0 gets epsilon = +1 and the other in-arrow -1; then each out-arrow b
    gets sigma(b) = +1 if a0 b is in I, else -1.  At a vertex without
    in-arrows the least out-arrow gets sigma = +1 and the other -1.  For
    a presentation `_check_gentle` passes, (G2) and (G3) make every
    condition hold.  Returns (sigma, epsilon) as dicts arrow -> +-1 in
    sorted arrow order, filled in one pass over the sorted arrows.
    """
    sigma, epsilon, outs, ins = {}, {}, q._out, q._in
    for a in q._arrows:
        v = q.sources[a]
        into = ins.get(v)
        if into:
            sigma[a] = 1 if (into[0], a) in relations else -1
        else:
            sigma[a] = 1 if outs[v][0] == a else -1
        epsilon[a] = 1 if ins[q.targets[a]][0] == a else -1
    return sigma, epsilon


class GentlePresentation:
    """A gentle presentation kQ/I of vertex names, (id, source, target)
    arrows and (arrow, arrow) relations, checked (GentlenessError), with
    the sign functions they decide.  Equality and hash read the quiver
    and the relations."""

    __slots__ = ("quiver", "relations", "sigma", "epsilon", "_letters")

    def __init__(self, vertices, arrows, relations):
        q = self.quiver = Quiver.from_arrows(vertices, arrows)
        relations = _relation_set(relations)
        verdict = _check_gentle(q, relations)
        if not verdict:
            raise GentlenessError(verdict.violations)
        self.relations = frozenset(relations)   # of (a, b) arrow-id pairs, meaning ab in I
        self.sigma, self.epsilon = _assign_signs(q, relations)
        self._letters = None   # the letter table, derived by strings._letter_table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.quiver, self.relations) == (other.quiver, other.relations)

    def __hash__(self):
        return hash((self.quiver, self.relations))

    def __repr__(self):
        return (f"GentlePresentation(quiver={self.quiver!r}, "
                f"relations={_set_repr(self.relations)}, sigma={self.sigma!r}, "
                f"epsilon={self.epsilon!r})")

    @classmethod
    def from_data(cls, vertices, arrows, relations):
        """The presentation of these records, as the constructor builds it."""
        return cls(vertices, arrows, relations)

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


# -- quiver description files ----------------------------------------
#
#   quiver
#   vertex <id>
#   arrow <id> <src> <tgt>
#   relation <id1> <id2>
#   end

def _records(text: str, what: str):
    """(line number, tokens) of each line of a description file that is
    not blank or a comment, up to the 'end' line; any later content is
    malformed input, and so is a text that is not a str (`what`)."""
    ended = False
    for lineno, raw in enumerate(_text(text, what).splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if ended:
            raise InputError(f"line {lineno}: content after 'end'")
        if parts[0] == "end":
            ended = True
        else:
            yield lineno, parts


def parse_quiver(text: str) -> GentlePresentation:
    """The presentation of a quiver description file."""
    vertices, arrows, relations = [], [], []
    declared = set()
    seen_header = False
    for lineno, parts in _records(text, "quiver text {!r} is not a str"):
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
    return GentlePresentation.from_data(vertices, arrows, relations)


def _read_text(path) -> str:
    """The UTF-8 text of a description file; an unreadable or undecodable
    file, or a path that is not a str or PathLike, is malformed input."""
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"expected a str or PathLike path, got {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_quiver(path) -> GentlePresentation:
    return parse_quiver(_read_text(path))
