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
operand is read by `strings._operand`, the one operand check, as a
tuple of the integer letter codes of the presentation's letter table,
and spelled once per comparison: a band unrolled as far as its longest
window reaches, together with the inverse of that spelling (codes
reversed, each c ^ 1).  A window's key is the lesser of its forward
slice and the matching slice of the inverse spelling; code order is
(arrow, inverse) order, so this picks the same orientation as comparing
letters.  The orientation of a matched pair compares the two forward
slices.  Trivial windows are keyed by their vertex.  One pass
enumerates the windows and keys them together; windows are plain
tuples until a `Window` is returned.

Band operands are the quasi-simple modules M(b, 1, lambda), both with
the same lambda.  Between two of them on the same band the dimension is
the pair count plus one: the term delta_{b=c} delta_{lambda=mu} min(n, m)
of Krause's formula for dim Hom(M(b,n,lambda), M(c,m,mu)) at n = m = 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import GentlePresentation
from .strings import Band, _letter_table, _operand, valid_pair


class Window(NamedTuple):
    """A window of the host word: `start` and `length` in letters; the
    empty window at position k sits on the vertex between letters."""

    start: int
    length: int
    left_flank: int | None      # letter index, None at a word end
    right_flank: int | None


class FactorDecomposition(NamedTuple):
    """A factor window of a host.  Like every record it is a tuple, so
    it compares equal to the SubDecomposition of the same host and
    window; no caller mixes the two."""

    host: object
    window: Window


class SubDecomposition(NamedTuple):
    """A sub window of a host; see FactorDecomposition."""

    host: object
    window: Window


def _spelling(view, reach: int):
    """The host's codes, a cyclic host unrolled to at least `reach`
    letters, and the inverse of that spelling."""
    fwd, _, cyclic = view
    if cyclic:
        fwd *= -(-reach // len(fwd))
    return fwd, tuple([c ^ 1 for c in reversed(fwd)])


def _keyed_windows(view, left_inverse: bool, max_length: int | None = None):
    """All windows whose left flank is inverse (factor) or direct (sub),
    with the dual condition on the right flank, keyed in the same pass:
    a list of (key, window, codes), the window a (start, length, left
    flank, right flank) tuple in the fields' order of `Window` and the
    codes its slice of the host.  For cyclic hosts the windows live in
    the periodic unrolling, up to max_length letters (default: one full
    turn)."""
    codes, verts, cyclic = view
    n = len(codes)
    parity = int(left_inverse)  # of a left flank's code; inverse letters are odd
    # (start, left flank) and (stop, right flank) of the windows' ends
    if cyclic:
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
            for _, w, _ in _keyed_windows(_operand(p, host), True)]


def substrings(p: GentlePresentation, host):
    """Complete set of sub decompositions of a string or band."""
    return [SubDecomposition(host, Window(*w))
            for _, w, _ in _keyed_windows(_operand(p, host), False)]


def window_key(p: GentlePresentation, host, w: Window):
    """Canonical key of the window word, identifying e with e^-1, as
    ("word", (arrow, inverse), ...).  Trivial windows carry their vertex;
    the sign drops out because a match may use either orientation."""
    _, verts, cyclic = view = _operand(p, host)
    start, stop = w.start, w.start + w.length
    if start == stop:
        return ("triv", verts[start % len(verts)] if cyclic else verts[start])
    fwd, rev = _spelling(view, stop)
    total = len(fwd)
    letters = _letter_table(p).letters
    key = min(fwd[start:stop], rev[total - stop:total - start])
    return ("word",) + tuple((letters[c].arrow, letters[c].inverse) for c in key)


class AdmissiblePair(NamedTuple):
    factor: FactorDecomposition
    sub: SubDecomposition
    orientation: str     # "equal" (f = e) or "inverse" (f = e^-1)


class HomComputation(NamedTuple):
    dim: int
    pairs: tuple      # AdmissiblePair matches


def _match(fv, sv):
    """Admissible pairs (factor window of fv, sub window of sv, same
    orientation), factor-major with subs in enumeration order.  Wrapped
    windows on either side are capped by the other side's length."""
    subs = {}
    for key, s, codes in _keyed_windows(sv, False, len(fv[0])):
        subs.setdefault(key, []).append((s, codes))
    out = []
    for key, f, codes in _keyed_windows(fv, True, len(sv[0])):
        for s, sub_codes in subs.get(key, ()):
            out.append((f, s, codes == sub_codes))
    return out


def hom_dim_detailed(p: GentlePresentation, v, w) -> HomComputation:
    fv, sv = _operand(p, v), _operand(p, w)
    pairs = [AdmissiblePair(FactorDecomposition(v, Window(*f)),
                            SubDecomposition(w, Window(*s)),
                            "equal" if same else "inverse")
             for f, s, same in _match(fv, sv)]
    return HomComputation(len(pairs) + (isinstance(v, Band) and v == w), tuple(pairs))


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
