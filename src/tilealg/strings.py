"""Strings and bands of a gentle algebra.

A string is a reduced, relation-avoiding walk: a sequence of letters,
each letter an arrow traversed forward ("direct") or backward
("inverse").  Trivial strings 1_v^+ and 1_v^- sit at a vertex v and are
swapped by formal inversion; the zero string is the empty one.

Text syntax (CLI and tests): letters separated by spaces, inverse
letters carry a trailing '-', e.g. ``b- c d c- b``; trivial strings are
written ``triv <vertex> <+|->`` and the zero string ``zero``.

One rule decides every validity question: l1 l2 is a string
(`valid_pair`).  Each presentation is compiled once, on first use, into
a letter table (`_letter_table`): letter l gets the code 2*i + l.inverse,
i the index of its arrow among the sorted arrows, so code order is
(arrow, inverse) order and c ^ 1 is the inverse letter.  The table holds
the source and target vertex of each code and its `valid_pair`
successors, a tuple of at most two codes in code order.  That one
successor table serves every walk: `_word_error` encodes a word through
it and checks it pair by pair (strings, bands, Hom operands, the walks
induced by arcs), band detection looks for a cycle in it, enumeration
extends code tuples along it, and the hooks of `artheory` read their
runs off it.  `Letter`s are built only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GentlePresentation, InputError, Rejection, _find_cycle


@dataclass(frozen=True, order=True)
class Letter:
    arrow: str
    inverse: bool = False

    def inv(self) -> "Letter":
        return Letter(self.arrow, not self.inverse)

    def text(self) -> str:
        return self.arrow + ("-" if self.inverse else "")


def letter_source(p: GentlePresentation, l: Letter):
    return p.t(l.arrow) if l.inverse else p.s(l.arrow)


def letter_target(p: GentlePresentation, l: Letter):
    return p.s(l.arrow) if l.inverse else p.t(l.arrow)


def valid_pair(p: GentlePresentation, l1: Letter, l2: Letter) -> str | None:
    """None if l1 l2 is a valid length-2 string, else the reason."""
    if letter_target(p, l1) != letter_source(p, l2):
        return "non-composable"
    if l2 == l1.inv():
        return "not-reduced"
    if not l1.inverse and not l2.inverse and (l1.arrow, l2.arrow) in p.relations:
        return "relation"
    if l1.inverse and l2.inverse and (l2.arrow, l1.arrow) in p.relations:
        return "relation"
    return None


class StringRejection(Rejection):
    def __init__(self, position, reason):
        self.position = position
        self.reason = reason
        super().__init__(f"invalid string at position {position}: {reason}")


def _check_letters(letters):
    if not all(isinstance(l, Letter) for l in letters):
        raise InputError("letter words and bands take Letter items; "
                         "validate_string and Band.from_letters read "
                         "(arrow, inverse) pairs")


@dataclass(frozen=True)
class StringWord:
    """Zero, trivial, or a letter word.  Use the module constructors."""

    kind: str                 # "zero" | "trivial" | "word"
    vertex: str | None = None  # trivial only
    sign: int | None = None    # trivial only, +1 or -1
    letters: tuple = ()        # word only

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "StringWord":
        return StringWord("zero")

    @staticmethod
    def trivial(vertex, sign=1) -> "StringWord":
        if sign not in (1, -1):
            raise InputError("trivial string sign must be +1 or -1")
        return StringWord("trivial", vertex=vertex, sign=sign)

    @staticmethod
    def word(letters) -> "StringWord":
        letters = tuple(letters)
        if not letters:
            raise InputError("a letter word must be nonempty; use trivial/zero")
        _check_letters(letters)
        return StringWord("word", letters=letters)

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self):
        return self.kind == "zero"

    @property
    def is_trivial(self):
        return self.kind == "trivial"

    def __len__(self):
        return len(self.letters)

    def inv(self) -> "StringWord":
        if self.is_zero:
            return self
        if self.is_trivial:
            return StringWord.trivial(self.vertex, -self.sign)
        return StringWord.word(tuple(l.inv() for l in reversed(self.letters)))

    def source(self, p: GentlePresentation):
        if self.is_zero:
            raise InputError("zero string has no endpoints")
        if self.is_trivial:
            return self.vertex
        return letter_source(p, self.letters[0])

    def target(self, p: GentlePresentation):
        if self.is_zero:
            raise InputError("zero string has no endpoints")
        if self.is_trivial:
            return self.vertex
        return letter_target(p, self.letters[-1])

    def walk_vertices(self, p: GentlePresentation):
        """Vertices visited, in order (length + 1 of them)."""
        if self.is_zero:
            return []
        if self.is_trivial:
            return [self.vertex]
        verts = [letter_source(p, self.letters[0])]
        verts.extend(letter_target(p, l) for l in self.letters)
        return verts

    def is_direct(self):
        return self.is_trivial or (self.kind == "word"
                                   and all(not l.inverse for l in self.letters))

    def text(self) -> str:
        if self.is_zero:
            return "zero"
        if self.is_trivial:
            return f"triv {self.vertex} {'+' if self.sign > 0 else '-'}"
        return " ".join(l.text() for l in self.letters)

    def __repr__(self):
        return f"<{self.text()}>"

    def _key(self):
        if self.is_zero:
            return (0,)
        if self.is_trivial:
            return (1, self.vertex, -self.sign)
        return (2,) + tuple((l.arrow, l.inverse) for l in self.letters)


def sigma_of(p: GentlePresentation, w: StringWord) -> int:
    if w.is_zero:
        raise InputError("zero string has no sign data")
    if w.is_trivial:
        return -w.sign
    l = w.letters[0]
    return p.epsilon[l.arrow] if l.inverse else p.sigma[l.arrow]


def epsilon_of(p: GentlePresentation, w: StringWord) -> int:
    if w.is_zero:
        raise InputError("zero string has no sign data")
    if w.is_trivial:
        return w.sign
    l = w.letters[-1]
    return p.sigma[l.arrow] if l.inverse else p.epsilon[l.arrow]


def validate_string(p: GentlePresentation, letters) -> StringWord:
    """Build a StringWord from letters, rejecting invalid walks.

    The rejection records the first offending position (0-based index of
    the second letter of the bad pair) and a reason among
    non-composable / not-reduced / relation.
    """
    letters = [l if isinstance(l, Letter) else Letter(*l) for l in letters]
    _, err = _word_error(p, letters, False)
    if err is not None:
        i, reason = err
        if reason is None:
            raise InputError(f"unknown arrow {letters[i].arrow!r} at position {i}")
        raise StringRejection(i, reason)
    return StringWord.word(letters)


def is_valid_string(p: GentlePresentation, w: StringWord) -> bool:
    if w.is_zero or w.is_trivial:
        return w.is_zero or w.vertex in p.quiver.vertices
    return _word_error(p, w.letters, False)[1] is None


def _word_error(p: GentlePresentation, letters, cyclic: bool):
    """(codes, None) if the letters spell a string (cyclic: also across
    the wrap), else (None, (position, reason)) of the first offence: a
    letter outside the table with reason None, or else the second letter
    of the first bad pair with its `valid_pair` reason; the wrap pair has
    position 0."""
    table = _letter_table(p)
    try:
        codes = table.encode(letters)
    except (KeyError, AttributeError):
        code = table.code
        return None, next((i, None) for i, l in enumerate(letters)
                          if not isinstance(l, Letter)
                          or (l.arrow, l.inverse) not in code)
    succ = table.succ
    n = len(codes)
    for i in range(1, n + 1 if cyclic else n):
        if codes[i % n] not in succ[codes[i - 1]]:
            return None, (i % n, valid_pair(p, letters[i - 1], letters[i % n]))
    return codes, None


def compose(p: GentlePresentation, v: StringWord, w: StringWord):
    """Composition vw, or None when undefined.

    For two letter words vw is defined iff the concatenation is a
    string; compositions with trivial strings follow the sigma/epsilon
    endpoint-and-sign rule.
    """
    if v.is_zero or w.is_zero:
        raise InputError("cannot compose zero strings")
    if v.is_trivial and w.is_trivial:
        if v.vertex == w.vertex and v.sign == w.sign:
            return v
        return None
    if v.is_trivial:
        if w.source(p) == v.vertex and sigma_of(p, w) == -v.sign:
            return w
        return None
    if w.is_trivial:
        if v.target(p) == w.vertex and epsilon_of(p, v) == w.sign:
            return v
        return None
    if v.target(p) != w.source(p):
        return None
    if valid_pair(p, v.letters[-1], w.letters[0]) is not None:
        return None
    return StringWord.word(v.letters + w.letters)


def canonicalize(w: StringWord) -> StringWord:
    """The representative of {w, w^-1}: trivial strings get sign +, words
    the lexicographically smaller letter sequence."""
    if w.is_zero:
        return w
    if w.is_trivial:
        return StringWord.trivial(w.vertex, 1)
    inv = w.inv()
    return w if w._key() <= inv._key() else inv


# -- bands -------------------------------------------------------------


@dataclass(frozen=True)
class Band:
    """Primitive cyclic string, canonical under rotation and inversion."""

    letters: tuple

    def __post_init__(self):
        _check_letters(self.letters)

    @staticmethod
    def from_letters(p: GentlePresentation, letters) -> "Band":
        letters = tuple(l if isinstance(l, Letter) else Letter(*l) for l in letters)
        if not letters:
            raise InputError("a band needs at least one letter")
        codes, err = _word_error(p, letters, True)
        if err is not None:
            i, reason = err
            if reason is None:
                raise InputError(f"unknown arrow {letters[i].arrow!r}")
            raise StringRejection(i, f"cyclic word invalid: {reason}")
        if len(_primitive_root(codes)) < len(codes):
            raise StringRejection(0, "not primitive (proper power)")
        if len({c & 1 for c in codes}) == 1:
            raise StringRejection(0, "cyclic word has no direction change "
                                     "(algebra would be infinite dimensional)")
        # the least rotation of the word or of its inverse, in code order
        inv = [c ^ 1 for c in reversed(codes)]
        least = min(w[i:] + w[:i] for w in (codes, inv) for i in range(len(w)))
        return Band(tuple(map(_letter_table(p).letters.__getitem__, least)))

    def __len__(self):
        return len(self.letters)

    def text(self) -> str:
        return " ".join(l.text() for l in self.letters)

    def __repr__(self):
        return f"<band {self.text()}>"


def _primitive_root(letters):
    """The shortest prefix of which the word is a power."""
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters == letters[:d] * (n // d):
            return letters[:d]
    return letters


def all_letters(p: GentlePresentation):
    out = []
    for a in p.arrows:
        out.append(Letter(a, False))
        out.append(Letter(a, True))
    return out


class _LetterTable:
    """The letters of one presentation, compiled: `letters[c]` is the
    letter of code c, in `all_letters` order, and `code` maps each
    (arrow, inverse) pair back to its code.  `succ[c]` holds the codes d,
    in code order, for which letters[c] letters[d] is a string; the
    candidates are only the letters starting where letters[c] ends, each
    decided by `valid_pair`."""

    __slots__ = ("letters", "code", "source", "target", "succ")

    def __init__(self, p: GentlePresentation):
        letters = tuple(all_letters(p))
        self.letters = letters
        self.code = {(l.arrow, l.inverse): c for c, l in enumerate(letters)}
        self.source = tuple(letter_source(p, l) for l in letters)
        self.target = tuple(letter_target(p, l) for l in letters)
        starting = {}
        for c, v in enumerate(self.source):
            starting.setdefault(v, []).append(c)
        self.succ = tuple(tuple(c for c in starting.get(v, ())
                                if valid_pair(p, l1, letters[c]) is None)
                          for l1, v in zip(letters, self.target))

    def encode(self, letters):
        """The codes of the letters; KeyError (AttributeError for a
        non-letter) on one outside the table."""
        code = self.code
        return [code[l.arrow, l.inverse] for l in letters]


def _letter_table(p: GentlePresentation) -> _LetterTable:
    """The letter table of p, derived on first use and kept on the
    presentation."""
    if p._letters is None:
        object.__setattr__(p, "_letters", _LetterTable(p))
    return p._letters


def detect_band(p: GentlePresentation):
    """A witness Band if one exists, else None.

    Exact decision: bands exist iff the successor table has a directed
    cycle.  Any simple cycle yields a primitive cyclic string, and since
    gentle presentations here are finite dimensional every such cycle
    mixes direct and inverse letters.
    """
    table = _letter_table(p)
    cycle = _find_cycle(range(len(table.succ)), table.succ)
    return None if cycle is None else Band.from_letters(
        p, map(table.letters.__getitem__, cycle))


def enumerate_strings(p: GentlePresentation, max_len: int | None = None):
    """All strings up to inversion, one canonical representative each:
    the trivial strings by vertex, then the words by length and letters.

    Without a bound this is only allowed for band-free presentations,
    where the enumeration stabilizes on its own.
    """
    if max_len is not None and max_len < 0:
        raise InputError(f"max_len must be >= 0, got {max_len}")
    band = detect_band(p)
    if band is not None and max_len is None:
        raise InputError("presentation has a band; enumeration needs max_len")

    table = _letter_table(p)
    found = set()
    frontier = [(c,) for c in range(len(table.succ))]
    length = 1
    while frontier and (max_len is None or length <= max_len):
        found.update(min(w, tuple([c ^ 1 for c in reversed(w)])) for w in frontier)
        frontier = [w + (d,) for w in frontier for d in table.succ[w[-1]]]
        length += 1
    return ([StringWord.trivial(v) for v in p.vertices]
            + [StringWord.word(map(table.letters.__getitem__, w))
               for w in sorted(found, key=lambda w: (len(w), w))])


# -- text parsing -------------------------------------------------------


def parse_string(p: GentlePresentation, text: str) -> StringWord:
    """Parse the CLI string syntax against a presentation."""
    parts = text.split()
    if not parts:
        raise InputError("empty string literal")
    if parts[0] == "zero":
        return StringWord.zero()
    if parts[0] == "triv":
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise InputError("trivial string syntax: triv <vertex> <+|->")
        if parts[1] not in p.quiver.vertices:
            raise InputError(f"unknown vertex {parts[1]!r}")
        return StringWord.trivial(parts[1], 1 if parts[2] == "+" else -1)
    letters = []
    for tok in parts:
        if tok.endswith("-"):
            letters.append(Letter(tok[:-1], True))
        else:
            letters.append(Letter(tok, False))
    return validate_string(p, letters)


def parse_band(p: GentlePresentation, text: str) -> Band:
    parts = text.split()
    letters = [Letter(t[:-1], True) if t.endswith("-") else Letter(t, False)
               for t in parts]
    return Band.from_letters(p, letters)
