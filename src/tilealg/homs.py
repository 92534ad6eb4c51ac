"""Hom dimensions between string and quasi-simple band modules.

dim Hom(M(v), M(w)) counts admissible pairs: a factor decomposition
v = v1 a^-1 e b v2 of v together with a sub decomposition
w = w1 c f d^-1 w2 of w whose middles agree, f = e or f = e^-1.

Flanks may be absent at word ends (without this, trivial strings would
have no endomorphisms).  Band operands are read in their periodic
unrolling: a window may start at any rotation and may be arbitrarily
long (crossing the cut, even several full turns), and its flanking
letters are the unrolled neighbours.  Windows of length m - 1 (m the
band length) die automatically because both flanks would be the same
letter.  When two hosts are compared the window length is capped by the
other side's length, which keeps the match count finite; the finite-
field oracle confirms that these wrapped windows are exactly the ones
carrying maps between band and string modules.

The geometric reading (admissible segments of permissible arcs, see
`arcs.hom_dim_geometric`) uses the same matcher: an arc spells the same
letter word as its string, anticlockwise segments are factor windows
and clockwise segments are sub windows.

Windows are matched through a key that identifies e with e^-1.  Each
operand is spelled once per comparison as a tuple of (arrow, inverse)
pairs, a band unrolled as far as its longest window reaches, together
with the inverse of that spelling.  A window's key is the lesser of its
forward slice and the matching slice of the inverse spelling, and the
orientation of a matched pair compares the two forward slices.
Trivial windows are keyed by their vertex.  Windows are plain tuples
until a `Window` is returned.

For two operands on the same band the pair count misses the
delta_{lambda=mu} min(n, m) term, and the result is flagged experimental.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .algebra import GentlePresentation, InputError
from .strings import (Band, StringWord, _word_error, is_valid_string,
                      letter_source, valid_pair)


@dataclass(frozen=True)
class _HostView:
    """Uniform read access to a string or band as an indexed letter word."""

    letters: tuple
    vertices: tuple     # linear: len+1 entries; cyclic: len entries
    cyclic: bool

    def __len__(self):
        return len(self.letters)

    def vertex(self, i):
        return self.vertices[i % len(self.vertices)] if self.cyclic else self.vertices[i]


def _view(p: GentlePresentation, host) -> _HostView:
    if isinstance(host, Band):
        letters = host.letters
        if not letters or _word_error(p, letters, True) is not None:
            raise InputError(f"not a band of this presentation: {host!r}")
        verts = tuple(letter_source(p, l) for l in letters)
        return _HostView(letters, verts, True)
    if isinstance(host, StringWord):
        if host.is_zero:
            raise InputError("zero string has no module")
        if not is_valid_string(p, host):
            raise InputError(f"not a string of this presentation: {host!r}")
        return _HostView(host.letters, tuple(host.walk_vertices(p)), False)
    raise InputError(f"expected StringWord or Band, got {type(host).__name__}")


@dataclass(frozen=True)
class Window:
    """A window of the host word: `start` and `length` in letters; the
    empty window at position k sits on the vertex between letters."""

    start: int
    length: int
    left_flank: int | None      # letter index, None at a word end
    right_flank: int | None


@dataclass(frozen=True)
class FactorDecomposition:
    host: object
    window: Window


@dataclass(frozen=True)
class SubDecomposition:
    host: object
    window: Window


def _windows(view: _HostView, left_inverse: bool, max_length: int | None = None):
    """All windows whose left flank is inverse (factor) or direct (sub),
    with the dual condition on the right flank, as (start, length, left
    flank, right flank) tuples in the fields' order of `Window`.  For
    cyclic hosts the windows live in the periodic unrolling, up to
    max_length letters (default: one full turn)."""
    n = len(view)
    inverse = [l.inverse for l in view.letters]
    out = []
    if not view.cyclic:
        for start in range(n + 1):
            left = start - 1 if start > 0 else None
            if left is not None and inverse[left] != left_inverse:
                continue
            for end in range(start, n):
                if inverse[end] != left_inverse:
                    out.append((start, end - start, left, end))
            out.append((start, n - start, left, None))
        return out
    cap = n if max_length is None else max(max_length, n)
    for start in range(n):
        left = (start - 1) % n
        if inverse[left] != left_inverse:
            continue
        for length in range(cap + 1):
            right = (start + length) % n
            if inverse[right] != left_inverse:
                out.append((start, length, left, right))
    return out


def factor_strings(p: GentlePresentation, host, max_length: int | None = None):
    """Complete set of factor decompositions of a string or band (for
    bands: unrolled windows of up to max_length letters, default one
    full turn)."""
    view = _view(p, host)
    return [FactorDecomposition(host, Window(*w))
            for w in _windows(view, True, max_length)]


def substrings(p: GentlePresentation, host, max_length: int | None = None):
    """Complete set of sub decompositions of a string or band."""
    view = _view(p, host)
    return [SubDecomposition(host, Window(*w))
            for w in _windows(view, False, max_length)]


def _keyed(view: _HostView, windows):
    """(key, letters) of each window: the letters are the window's slice
    of the host spelled as (arrow, inverse) pairs, the key the lesser of
    that slice and its inverse, read off the reversed inverse spelling.
    A cyclic host is unrolled as far as its windows reach."""
    fwd = tuple((l.arrow, l.inverse) for l in view.letters)
    if view.cyclic and fwd:
        reach = max((w[0] + w[1] for w in windows), default=0)
        fwd *= -(-reach // len(fwd))
    rev = tuple((arrow, not inverse) for arrow, inverse in reversed(fwd))
    total = len(fwd)
    out = []
    for w in windows:
        start, stop = w[0], w[0] + w[1]
        if start == stop:
            out.append((("triv", view.vertex(start)), ()))
            continue
        letters = fwd[start:stop]
        flipped = rev[total - stop:total - start]
        out.append((("word",) + min(letters, flipped), letters))
    return out


def window_key(p: GentlePresentation, host, w: Window):
    """Canonical key of the window word, identifying e with e^-1.
    Trivial windows carry their vertex; the sign drops out because a
    match may use either orientation."""
    return _keyed(_view(p, host), ((w.start, w.length),))[0][0]


@dataclass(frozen=True)
class AdmissiblePair:
    factor: FactorDecomposition
    sub: SubDecomposition
    orientation: str     # "equal" (f = e) or "inverse" (f = e^-1)


@dataclass(frozen=True)
class HomComputation:
    dim: int
    pairs: tuple      # AdmissiblePair matches
    experimental: bool


def _match(fv: _HostView, sv: _HostView):
    """Admissible pairs (factor window of fv, sub window of sv, same
    orientation), factor-major with subs in enumeration order.  Wrapped
    windows on either side are capped by the other side's length."""
    subs = {}
    windows = _windows(sv, False, len(fv))
    for s, (key, letters) in zip(windows, _keyed(sv, windows)):
        subs.setdefault(key, []).append((s, letters))
    out = []
    windows = _windows(fv, True, len(sv))
    for f, (key, letters) in zip(windows, _keyed(fv, windows)):
        for s, sub_letters in subs.get(key, ()):
            out.append((f, s, letters == sub_letters))
    return out


def hom_dim_detailed(p: GentlePresentation, v, w) -> HomComputation:
    fv, sv = _view(p, v), _view(p, w)
    pairs = [AdmissiblePair(FactorDecomposition(v, Window(*f)),
                            SubDecomposition(w, Window(*s)),
                            "equal" if same else "inverse")
             for f, s, same in _match(fv, sv)]
    experimental = isinstance(v, Band) and isinstance(w, Band) and v == w
    if experimental:
        warnings.warn("hom between modules over the same band omits the "
                      "phi-dependent correction; result is experimental",
                      stacklevel=2)
    return HomComputation(len(pairs), tuple(pairs), experimental)


def hom_dim(p: GentlePresentation, v, w) -> int:
    return hom_dim_detailed(p, v, w).dim


# -- independent brute-force window counts (self-test route) -----------


def _count_windows_bruteforce(p: GentlePresentation, host, left_inverse: bool,
                              max_length: int | None = None) -> int:
    """Count windows by scanning every index pair and revalidating the
    decomposition from scratch, without the flank shortcuts.  Windows
    are checked pair by pair with `valid_pair`, not through the letter
    graph; the host itself is taken as given."""
    letters = host.letters
    n = len(letters)

    def is_string(word):
        return all(valid_pair(p, l1, l2) is None for l1, l2 in zip(word, word[1:]))

    count = 0
    if not isinstance(host, Band):
        for start in range(n + 1):
            for end in range(start, n + 1):
                ok = True
                if start > 0:
                    piece = letters[start - 1]
                    ok = ok and piece.inverse == left_inverse
                if end < n:
                    piece = letters[end]
                    ok = ok and piece.inverse != left_inverse
                # window plus flank letters must reassemble into the host
                if ok and start < end:
                    ok = is_string(letters[start:end])
                if ok:
                    count += 1
        return count
    cap = n if max_length is None else max(max_length, n)
    for start in range(n):
        for length in range(cap + 1):
            left = letters[(start - 1) % n]
            right = letters[(start + length) % n]
            if left.inverse != left_inverse:
                continue
            if right.inverse == left_inverse:
                continue
            if length:
                word = tuple(letters[(start + i) % n] for i in range(length))
                if not is_string(word):
                    continue
            count += 1
    return count


def factor_count_bruteforce(p: GentlePresentation, host,
                            max_length: int | None = None) -> int:
    return _count_windows_bruteforce(p, host, True, max_length)


def sub_count_bruteforce(p: GentlePresentation, host,
                         max_length: int | None = None) -> int:
    return _count_windows_bruteforce(p, host, False, max_length)
