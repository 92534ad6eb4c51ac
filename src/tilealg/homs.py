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
operand is spelled once per comparison as a tuple of the integer letter
codes of the presentation's letter table (see `strings`), a band
unrolled as far as its longest window reaches, together with the
inverse of that spelling (codes reversed, each c ^ 1).  A window's key
is the lesser of its forward slice and the matching slice of the
inverse spelling; code order is (arrow, inverse) order, so this picks
the same orientation as comparing letters.  The orientation of a
matched pair compares the two forward slices.  Trivial windows are
keyed by their vertex.  One pass enumerates the windows and keys them
together; windows are plain tuples until a `Window` is returned.

For two operands on the same band the pair count misses the
delta_{lambda=mu} min(n, m) term, and the result is flagged experimental.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .algebra import GentlePresentation, InputError
from .strings import Band, StringWord, _letter_table, _word_error, valid_pair


class _HostView:
    """Uniform read access to a string or band as a word of letter codes."""

    __slots__ = ("codes", "vertices", "cyclic")

    def __init__(self, codes: tuple, vertices: tuple, cyclic: bool):
        self.codes = codes
        self.vertices = vertices    # linear: len+1 entries; cyclic: len entries
        self.cyclic = cyclic


def _view(p: GentlePresentation, host) -> _HostView:
    if isinstance(host, Band):
        codes, err = _word_error(p, host.letters, True)
        if not codes or err is not None:
            raise InputError(f"not a band of this presentation: {host!r}")
        source = _letter_table(p).source
        return _HostView(tuple(codes), tuple(map(source.__getitem__, codes)), True)
    if isinstance(host, StringWord):
        if host.kind == "zero":
            raise InputError("zero string has no module")
        if host.kind == "trivial":
            if host.vertex not in p.quiver.vertices:
                raise InputError(f"not a string of this presentation: {host!r}")
            return _HostView((), (host.vertex,), False)
        codes, err = _word_error(p, host.letters, False)
        if err is not None:
            raise InputError(f"not a string of this presentation: {host!r}")
        table = _letter_table(p)
        return _HostView(tuple(codes), (table.source[codes[0]],
                                        *map(table.target.__getitem__, codes)), False)
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


def _spelling(view: _HostView, reach: int):
    """The host's codes, a cyclic host unrolled to at least `reach`
    letters, and the inverse of that spelling."""
    fwd = view.codes
    if view.cyclic:
        fwd *= -(-reach // len(fwd))
    return fwd, tuple([c ^ 1 for c in reversed(fwd)])


def _keyed_windows(view: _HostView, left_inverse: bool, max_length: int | None = None):
    """All windows whose left flank is inverse (factor) or direct (sub),
    with the dual condition on the right flank, keyed in the same pass:
    a list of (key, window, codes), the window a (start, length, left
    flank, right flank) tuple in the fields' order of `Window` and the
    codes its slice of the host.  For cyclic hosts the windows live in
    the periodic unrolling, up to max_length letters (default: one full
    turn)."""
    codes, verts = view.codes, view.vertices
    n = len(codes)
    parity = int(left_inverse)  # of a left flank's code; inverse letters are odd
    # (start, left flank) and (stop, right flank) of the windows' ends
    if view.cyclic:
        span = n if max_length is None else max(max_length, n)
        starts = [(i, (i - 1) % n) for i in range(n) if codes[i - 1] & 1 == parity]
        stops = [(i, i % n) for i in range(n + span) if codes[i % n] & 1 != parity]
    else:
        span = n
        starts = [(0, None)] + [(i, i - 1) for i in range(1, n + 1)
                                if codes[i - 1] & 1 == parity]
        stops = [(i, i) for i in range(n) if codes[i] & 1 != parity] + [(n, None)]
    fwd, rev = _spelling(view, n - 1 + span)
    total = len(fwd)
    out = []
    for start, left in starts:
        for stop, right in stops:
            if stop < start:
                continue
            if stop > start + span:
                break
            word = fwd[start:stop]
            if start == stop:
                key = ("triv", verts[start])
            else:
                flipped = rev[total - stop:total - start]
                key = word if word <= flipped else flipped
            out.append((key, (start, stop - start, left, right), word))
    return out


def factor_strings(p: GentlePresentation, host):
    """Complete set of factor decompositions of a string or band (for
    bands: unrolled windows of up to one full turn)."""
    return [FactorDecomposition(host, Window(*w))
            for _, w, _ in _keyed_windows(_view(p, host), True)]


def substrings(p: GentlePresentation, host):
    """Complete set of sub decompositions of a string or band."""
    return [SubDecomposition(host, Window(*w))
            for _, w, _ in _keyed_windows(_view(p, host), False)]


def window_key(p: GentlePresentation, host, w: Window):
    """Canonical key of the window word, identifying e with e^-1, as
    ("word", (arrow, inverse), ...).  Trivial windows carry their vertex;
    the sign drops out because a match may use either orientation."""
    view = _view(p, host)
    start, stop = w.start, w.start + w.length
    if start == stop:
        verts = view.vertices
        return ("triv", verts[start % len(verts)] if view.cyclic else verts[start])
    fwd, rev = _spelling(view, stop)
    total = len(fwd)
    letters = _letter_table(p).letters
    key = min(fwd[start:stop], rev[total - stop:total - start])
    return ("word",) + tuple((letters[c].arrow, letters[c].inverse) for c in key)


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
    for key, s, codes in _keyed_windows(sv, False, len(fv.codes)):
        subs.setdefault(key, []).append((s, codes))
    out = []
    for key, f, codes in _keyed_windows(fv, True, len(sv.codes)):
        for s, sub_codes in subs.get(key, ()):
            out.append((f, s, codes == sub_codes))
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


def _count_windows_bruteforce(p: GentlePresentation, host, left_inverse: bool) -> int:
    """Count windows by scanning every index pair and revalidating the
    decomposition from scratch, without the flank shortcuts.  Windows
    are checked pair by pair with `valid_pair`, not through the letter
    table; the host itself is taken as given."""
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
    for start in range(n):
        for length in range(n + 1):
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


def factor_count_bruteforce(p: GentlePresentation, host) -> int:
    return _count_windows_bruteforce(p, host, True)


def sub_count_bruteforce(p: GentlePresentation, host) -> int:
    return _count_windows_bruteforce(p, host, False)
