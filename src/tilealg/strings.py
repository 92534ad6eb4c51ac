"""Strings and bands of a gentle algebra.

A string is a reduced, relation-avoiding walk: a sequence of letters,
each letter an arrow traversed forward ("direct") or backward
("inverse").  Trivial strings 1_v^+ and 1_v^- sit at a vertex v and are
swapped by formal inversion; the zero string is the empty one.

Text syntax (CLI and tests): letters separated by spaces, inverse
letters carry a trailing '-', e.g. ``b- c d c- b``; trivial strings are
written ``triv <vertex> <+|->`` and the zero string ``zero``.

One rule decides every validity question: l1 l2 is a string when l2
starts where l1 ends, is not its inverse and does not spell a relation
with it.  `valid_pair` states it for one pair of letters.  Each
presentation is compiled once, on first use, into a letter table
(`_letter_table`), in one pass over its sorted arrows and one over its
relations: letter l gets the code 2*i + l.inverse, i the index of its
arrow among the sorted arrows, so code order is (arrow, inverse) order
and c ^ 1 is the inverse letter.  The table holds the source and target
vertex of each code and its successors by that rule, a tuple of at
most two codes in code order.  That one successor table serves every
walk: `_walk_error`, the one check of a code word against it, pair by
pair, serves `_word_error`; band detection looks for a cycle in it,
enumeration extends code tuples along it, and the hooks of `artheory`
read their runs off it.  `Letter`s are built only
at the API boundary, where `_letter` checks each one.
`_inverse` is the one spelling of the inverse of a code word, and
`_cyclic_form`, one linear pass, the one canonical form of a cyclic one:
the least rotation of it or of its inverse, with its period.  `_operand`
is the one check of the string and band operands of Hom, hooks and arcs
(a band is in its cyclic form, of period its length), and `_band` the
one builder of a canonical band, for `Band.from_letters`, band
detection and the closed curves of `arcs`.

`_operand` reads each operand object once per presentation, into one
`_Entry`: the host, its view, and the factor and sub parts of its match
index, which `homs` builds from the view on the operand's first Hom use
in each role, so they are kept, bounded and dropped with the view;
`_entries` gives the two entries of one Hom call from one read of the
store.  The entries of `arcs` extend it, so an arc is a Hom operand the
same way.
`_kept` is the one keep rule of the two operand stores, the letter
table's and a tiling algebra's, keyed by the identity of the host, so an
equal record of another type is read, and refused, afresh.  `StringWord`
and `Band` check their shape when built and keep their letters as a
tuple, so `_read_operand` checks only membership in p.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .algebra import (GentlePresentation, InputError, Rejection, _Checked, _find_cycle,
                      _given, _int_arg, _record, _text)


class Letter(NamedTuple):
    arrow: str
    inverse: bool = False

    def inv(self) -> "Letter":
        return Letter(self.arrow, not self.inverse)

    def text(self) -> str:
        return f"{self.arrow}{'-' if self.inverse else ''}"


def _letter(l, what="letter {!r} is not a Letter"):
    """`l` if it is a Letter of a nonempty str arrow and a bool inverse,
    else InputError: what, or one naming the letter."""
    if not isinstance(l, Letter):
        raise InputError(what.format(l))
    if type(l.arrow) is not str or not l.arrow or type(l.inverse) is not bool:
        raise InputError(f"letter {l!r} needs a nonempty str arrow and a bool inverse")
    return l


def _letter_end(p: GentlePresentation, l: Letter, end: bool):
    """The vertex where l starts, or ends when `end`, off the arrows of p,
    not the letter table it serves to build.  A read that finds the arrow
    has checked it; else `_given`, `_letter` or this names the fault."""
    try:
        if type(l.inverse) is bool and isinstance(l, Letter):
            return (p.quiver.targets if l.inverse != end else p.quiver.sources)[l.arrow]
    except (AttributeError, KeyError, TypeError):
        pass
    _given(p, GentlePresentation)
    raise InputError(f"unknown arrow {_letter(l).arrow!r}")


def letter_source(p: GentlePresentation, l: Letter):
    return _letter_end(p, l, False)


def letter_target(p: GentlePresentation, l: Letter):
    return _letter_end(p, l, True)


def valid_pair(p: GentlePresentation, l1: Letter, l2: Letter) -> str | None:
    """None if l1 l2 is a valid length-2 string, else the reason; the
    letters and p are checked by `_letter_end`."""
    if _letter_end(p, l1, True) != _letter_end(p, l2, False):
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


def _read_letters(letters, pairs=False, empty="a letter word must be nonempty; use trivial/zero"):
    """The letters of a word or band as a tuple of Letters, given as such
    or, with `pairs`, also as (arrow, inverse) pairs; InputError(empty)
    when there are none, unless empty is None.  Each letter passes
    `_letter`, however it is given."""
    letters = _record(letters, None, "letters {!r} are not a collection")
    if empty is not None and not letters:
        raise InputError(empty)
    if pairs:
        letters = tuple(l if isinstance(l, Letter) else Letter(*_record(
            l, 2, "letter {!r} is not an (arrow, inverse) pair")) for l in letters)
    for l in letters:
        _letter(l, "letter words and bands take Letter items; validate_string "
                   "and Band.from_letters read (arrow, inverse) pairs")
    return letters


class StringWord(_Checked, namedtuple("StringWord", "kind vertex sign letters")):
    """Zero, trivial (a str vertex, sign +1 or -1) or a word (nonempty
    Letter letters, kept as a tuple), the other fields unset, as its
    constructor checks.  `len` counts the letters and the repr is the
    string literal; use the module constructors."""

    __slots__ = ()

    def __new__(cls, kind, vertex=None, sign=None, letters=()):
        if kind == "word":
            letters = _read_letters(letters)
        elif kind not in ("zero", "trivial"):
            raise InputError(f"unknown string kind {kind!r}")
        elif letters != ():
            raise InputError(f"a {kind} string has no letters, got {letters!r}")
        if kind == "trivial":
            if type(vertex) is not str:
                raise InputError(f"trivial string vertex {vertex!r} is not a name")
            if sign not in (1, -1):
                raise InputError("trivial string sign must be +1 or -1")
        elif vertex is not None or sign is not None:
            raise InputError(f"a {kind} string has no vertex or sign, got {vertex!r} and {sign!r}")
        return super().__new__(cls, kind, vertex, sign, letters)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "StringWord":
        return StringWord("zero")

    @staticmethod
    def trivial(vertex, sign=1) -> "StringWord":
        return StringWord("trivial", vertex, sign)

    @staticmethod
    def word(letters) -> "StringWord":
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
        sign = self.sign and -self.sign     # None but for a trivial string
        return StringWord._trusted((self.kind, self.vertex, sign,
                                    tuple([l.inv() for l in reversed(self.letters)])))

    def source(self, p: GentlePresentation):
        if self.is_zero:
            raise InputError("zero string has no endpoints")
        return self.vertex if self.is_trivial else letter_source(p, self.letters[0])

    def target(self, p: GentlePresentation):
        if self.is_zero:
            raise InputError("zero string has no endpoints")
        return self.vertex if self.is_trivial else letter_target(p, self.letters[-1])

    def text(self) -> str:
        if self.is_zero:
            return "zero"
        if self.is_trivial:
            return f"triv {self.vertex} {'+' if self.sign > 0 else '-'}"
        return " ".join(l.text() for l in self.letters)

    def __repr__(self):
        return f"<{self.text()}>"


def validate_string(p: GentlePresentation, letters) -> StringWord:
    """Build a StringWord from letters, rejecting invalid walks.

    The rejection records the first offending position (0-based index of
    the second letter of the bad pair) and a reason among
    non-composable / not-reduced / relation.
    """
    letters = _read_letters(letters, True)
    codes, err = _word_error(p, letters, False)
    if err is not None:
        i, reason = err
        if reason is None:
            raise InputError(f"unknown arrow {letters[i].arrow!r} at position {i}")
        raise StringRejection(i, reason)
    return _string_word(p, (codes, ()))


def is_valid_string(p: GentlePresentation, w: StringWord) -> bool:
    """Whether w is a string of p."""
    vertices = _letter_table(p).vertices
    if _given(w, StringWord).kind == "word":
        return _word_error(p, w.letters, False)[1] is None
    return w.is_zero or w.vertex in vertices


def _word_error(p: GentlePresentation, letters, cyclic: bool):
    """(codes, None), the codes a tuple, if the letters spell a string
    (cyclic: also across the wrap), else (None, (position, reason)) of the
    first offence: a letter outside the table with reason None, or else
    the second letter of the first bad pair (found by `_walk_error` on the
    encoded word) with its `valid_pair` reason; the wrap pair has
    position 0."""
    code, codes = _letter_table(p).code, []
    try:
        for l in letters:
            codes.append(code[l.arrow, l.inverse])
    except (KeyError, AttributeError, TypeError):   # not a letter of the table
        return None, (len(codes), None)
    i = _walk_error(p, codes, cyclic)
    if i is not None:
        return None, (i, valid_pair(p, letters[i - 1], letters[i]))
    return tuple(codes), None


def _walk_error(p: GentlePresentation, codes, cyclic: bool):
    """None if the letter codes of p spell a string (cyclic: also across
    the wrap), else the position of the second code of the first pair
    outside the successor table; the wrap pair has position 0."""
    succ = _letter_table(p).succ
    n = len(codes)
    for i in range(1, n + 1 if cyclic else n):
        if codes[i % n] not in succ[codes[i - 1]]:
            return i % n
    return None


def canonicalize(w: StringWord) -> StringWord:
    """The representative of {w, w^-1}: trivial strings get sign +, words
    the lexicographically smaller letter sequence."""
    inv = _given(w, StringWord).inv()
    return inv if w.sign == -1 or w.letters > inv.letters else w


# -- bands -------------------------------------------------------------


class Band(_Checked, namedtuple("Band", "letters")):
    """Primitive cyclic string, canonical under rotation and inversion.
    A tuple (letters,) whose constructor keeps its Letter items as a
    tuple; `len` counts the letters and the repr is the band literal."""

    __slots__ = ()

    def __new__(cls, letters: tuple):
        return super().__new__(cls, _read_letters(letters, empty=None))

    @staticmethod
    def from_letters(p: GentlePresentation, letters) -> "Band":
        letters = _read_letters(letters, True, "a band needs at least one letter")
        codes, err = _word_error(p, letters, True)
        if err is not None:
            i, reason = err
            if reason is None:
                raise InputError(f"unknown arrow {letters[i].arrow!r}")
            raise StringRejection(i, f"cyclic word invalid: {reason}")
        return _band(p, codes)

    def __len__(self):
        return len(self.letters)

    def text(self) -> str:
        return " ".join(l.text() for l in self.letters)

    def __repr__(self):
        return f"<band {self.text()}>"


def _band(p: GentlePresentation, codes) -> Band:
    """The Band of the codes of a cyclic string of p, in its cyclic form;
    StringRejection for a power (FD refuses cycles of one direction)."""
    form, period = _cyclic_form(codes)
    if period < len(codes):
        raise StringRejection(0, "not primitive (proper power)")
    return Band._trusted((tuple(map(_letter_table(p).letters.__getitem__, form)),))


def _inverse(codes) -> tuple:
    """The code word of the inverse walk: the codes reversed, each c ^ 1."""
    return tuple([c ^ 1 for c in reversed(codes)])


def _cyclic_form(codes):
    """(form, period): the least rotation of a nonempty cyclic code word of
    n codes or of its inverse, and its least period.  Duval's Lyndon
    factorization (J. Algorithms 4, 1983) of each spelling read twice
    round, up to the first factor whose run of n codes is a power of it:
    that run is least, and the factor's length is the period.  An inverse
    whose least code exceeds form[0] is skipped."""
    n = len(codes)
    form = None
    for w in (tuple(codes), _inverse(codes)):
        if form is not None and form[0] < min(w):
            break
        w, i = w + w, 0
        while True:
            k, j = i, i + 1
            while (j - i != n or n % (j - k)) and j < 2 * n and w[k] <= w[j]:
                k = i if w[k] < w[j] else k + 1
                j += 1
            if j - i == n and not n % (j - k):
                break
            while i <= k:
                i += j - k
        if form is None or w[i:j] < form:
            form = w[i:j]
    return form, j - k


_VIEWS = 4096   # entries kept per operand store; a store is cleared when full


class _Entry:
    """What is kept of one operand: the host object, its view (the
    `_operand` triple) and the factor and sub parts of its match index,
    which `homs` builds from the view on the operand's first Hom use in
    that role (None until then)."""

    __slots__ = ("host", "view", "factor", "sub")

    def __init__(self, host, view=None):
        self.host, self.view, self.factor, self.sub = host, view, None, None


def _kept(store, host, read, owner):
    """The entry of an operand in an operand store, by the one keep rule of
    both stores (the `views` of a letter table and the arcs store of a
    tiling algebra): the entry kept under id(host) when its host is that
    same object, else the entry read(owner, host) makes, which is kept.
    A refusal raises, so it is never kept, and the store is cleared whole
    once it holds `_VIEWS` entries."""
    entry = store.get(id(host))
    if entry is None or entry.host is not host:
        entry = read(owner, host)
        if len(store) >= _VIEWS:
            store.clear()
        store[id(host)] = entry
    return entry


def _operand(p: GentlePresentation, host):
    """(codes, vertices, cyclic) of a Hom, hook or arc operand of p: its
    letter codes, the vertices its walk visits and whether it is a band,
    the view of its `_entry`, kept with its match index."""
    return _entry(p, host).view


def _entry(p: GentlePresentation, host) -> _Entry:
    """The `_Entry` of an operand of p, kept in the operand store of its
    letter table by `_kept`."""
    return _kept(_letter_table(p).views, host, _read_operand, p)


def _entries(p: GentlePresentation, v, w):
    """The `_Entry`s of two operands of p, as `_entry` gives them, from one
    read of the operand store."""
    views = _letter_table(p).views
    return _kept(views, v, _read_operand, p), _kept(views, w, _read_operand, p)


def _read_operand(p: GentlePresentation, host) -> _Entry:
    """The `_Entry` of an operand, read afresh: InputError unless it is a
    nonzero StringWord of p or a Band of p in the canonical form of
    `Band.from_letters`.  Its constructor has checked its shape."""
    table = _letter_table(p)
    if isinstance(host, Band):
        codes, err = _word_error(p, host.letters, True)
        if not codes or err is not None:
            raise InputError(f"not a band of this presentation: {host!r}")
        if _cyclic_form(codes) != (codes, len(codes)):
            raise InputError(f"not a band of this presentation: {host!r} is not "
                             "in the canonical form of Band.from_letters")
        view = codes, tuple(map(table.source.__getitem__, codes)), True
    elif not isinstance(host, StringWord):
        raise InputError(f"expected StringWord or Band, got {type(host).__name__}")
    elif host.kind == "word":
        codes, err = _word_error(p, host.letters, False)
        if err is not None:
            raise InputError(f"not a string of this presentation: {host!r}")
        view = codes, (table.source[codes[0]], *map(table.target.__getitem__, codes)), False
    elif host.is_zero:
        raise InputError("zero string has no module")
    elif host.vertex in table.vertices:
        view = (), (host.vertex,), False
    else:
        raise InputError(f"not a string of this presentation: {host!r}")
    return _Entry(host, view)


def all_letters(p: GentlePresentation):
    return [Letter(a, inverse) for a in _given(p, GentlePresentation).arrows
            for inverse in (False, True)]


class _LetterTable:
    """The letters of one presentation, compiled in one pass over its
    sorted arrows: `letters[c]` is the letter of code c, in `all_letters`
    order, and `code` maps each (arrow, inverse) pair back to its code.
    `succ[c]` holds the codes d, in code order, for which letters[c]
    letters[d] is a string: the letters starting where letters[c] ends,
    but its inverse and the pairs a b and b- a- of each relation ab, the
    rule `valid_pair` states per letter.  `vertices` are those of p;
    `views` is the operand store of `_entry`: id(host) -> the `_Entry`
    of that host."""

    __slots__ = ("vertices", "letters", "code", "source", "target", "succ", "views")

    def __init__(self, p: GentlePresentation):
        q, new = p.quiver, tuple.__new__
        letters, source, target, starting = [], [], [], {}   # vertex -> codes, in order
        for c, a in enumerate(q._arrows):
            s, t = q.sources[a], q.targets[a]
            letters += new(Letter, (a, False)), new(Letter, (a, True))
            source += s, t
            target += t, s
            starting.setdefault(s, []).append(2 * c)
            starting.setdefault(t, []).append(2 * c + 1)
        code = self.code = dict(zip(letters, range(len(letters))))
        banned = set()   # the code pairs (a, b) and (b-, a-) of each relation ab
        for a, b in p.relations:
            x, y = code[a, False], code[b, False]
            banned.update(((x, y), (y + 1, x + 1)))
        self.succ = tuple([tuple([d for d in starting[v] if d != c ^ 1 and (c, d) not in banned])
                           for c, v in enumerate(target)])
        self.vertices = q.vertices
        self.letters, self.source, self.target = tuple(letters), tuple(source), tuple(target)
        self.views = {}


def _letter_table(p: GentlePresentation) -> _LetterTable:
    """The letter table of p, derived on first use and kept on the
    presentation.  Every string function but the per-letter ones that
    build the table reads p here first, so a p of another type is refused
    here, off the AttributeError of the read."""
    try:
        table = p._letters
    except AttributeError:
        _given(p, GentlePresentation)
        raise
    if table is None:
        table = p._letters = _LetterTable(p)
    return table


def detect_band(p: GentlePresentation):
    """A witness Band if one exists, else None.

    Exact decision: bands exist iff the successor table has a directed
    cycle.  Any simple cycle yields a primitive cyclic string, and since
    gentle presentations here are finite dimensional every such cycle
    mixes direct and inverse letters.
    """
    table = _letter_table(p)
    cycle = _find_cycle(range(len(table.succ)), table.succ)
    return None if cycle is None else _band(p, cycle)


def enumerate_strings(p: GentlePresentation, max_len: int | None = None):
    """All strings up to inversion, one canonical representative each:
    the trivial strings by vertex, then the words by length and letters.

    Without a bound this is only allowed for band-free presentations,
    where the enumeration stabilizes on its own.
    """
    if max_len is not None and _int_arg(max_len, "max_len") < 0:
        raise InputError(f"max_len must be >= 0, got {max_len}")
    if detect_band(p) is not None and max_len is None:
        raise InputError("presentation has a band; enumeration needs max_len")

    return [_string_word(p, x) for x in _code_strings(p, max_len)]


def _code_strings(p: GentlePresentation, max_len):
    """The code strings of `enumerate_strings`: the trivial strings with
    sign +, then the lesser of the code words of w and w^-1."""
    succ = _letter_table(p).succ
    found = set()
    frontier = [(c,) for c in range(len(succ))]
    length = 1
    while frontier and (max_len is None or length <= max_len):
        found.update(min(w, _inverse(w)) for w in frontier)
        frontier = [w + (d,) for w in frontier for d in succ[w[-1]]]
        length += 1
    return ([((), (v, 1)) for v in p.vertices]
            + [(w, ()) for w in sorted(found, key=lambda w: (len(w), w))])


def _string_word(p: GentlePresentation, x) -> StringWord:
    """The string of a code string (codes, trivial): letter codes and (),
    or () and the (vertex, sign) of a trivial string; None is zero."""
    if x is None:
        return StringWord._trusted(("zero", None, None, ()))
    codes, trivial = x
    if trivial:
        return StringWord._trusted(("trivial", *trivial, ()))
    return StringWord._trusted(("word", None, None,
                                tuple(map(_letter_table(p).letters.__getitem__, codes))))


# -- text parsing -------------------------------------------------------


def parse_string(p: GentlePresentation, text: str) -> StringWord:
    """Parse the CLI string syntax against a presentation."""
    vertices = _letter_table(p).vertices
    parts = _text(text, "string literal {!r} is not a str").split()
    if not parts:
        raise InputError("empty string literal")
    if parts[0] == "zero":
        return _string_word(p, None)
    if parts[0] == "triv":
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise InputError("trivial string syntax: triv <vertex> <+|->")
        if parts[1] not in vertices:
            raise InputError(f"unknown vertex {parts[1]!r}")
        return _string_word(p, ((), (parts[1], 1 if parts[2] == "+" else -1)))
    return validate_string(p, _letters(parts))


def parse_band(p: GentlePresentation, text: str) -> Band:
    text = _text(text, "band literal {!r} is not a str")
    return Band.from_letters(p, _letters(text.split()))


def _letters(tokens):   # an arrow name, with a trailing '-' when inverse
    return [Letter(t[:-1], True) if t.endswith("-") else Letter(t, False)
            for t in tokens]
