"""Hom dimensions between string and quasi-simple band modules.

dim Hom(M(v), M(w)) counts admissible pairs: a factor decomposition
v = v1 a^-1 e b v2 of v together with a sub decomposition
w = w1 c f d^-1 w2 of w whose middles agree, f = e or f = e^-1.

Flanks may be absent at word ends (without this, trivial strings would
have no endomorphisms).  Band operands are read in their periodic
unrolling: a window starts in the first period, may cross the cut, even
several full turns, and its flanks are the unrolled neighbours.  When
two hosts are compared the window length is capped by the longer host's
length, which keeps the match count finite; the finite-field oracle
confirms that these wrapped windows are exactly the ones carrying maps
between band and string modules.

The geometric reading (admissible segments of permissible arcs, see
`arcs.hom_dim_geometric`) uses the same matcher: an arc spells the same
letter word as its string, anticlockwise segments are factor windows
and clockwise segments are sub windows.

Each operand is read by `strings._operand`, the one operand check, as a
tuple of the integer letter codes of the presentation's letter table;
c ^ 1 is the inverse of code c, odd codes are inverse letters, and
`strings._inverse` spells the inverse of a code word.  A factor
window's left flank is inverse and a sub window's is direct, so the
two differ, and likewise on the right: a matching pair is exactly
the maximal run of equal codes from its start pair along one alignment
diagonal.  `_runs` walks one run per valid start pair, against w and
against w's inverse spelling (whose sub windows are the inverses of
w's), a band side unrolled to O(n + m) codes, and yields the runs
unsorted, each as one flat tuple (factor start, length, sub start, same
orientation); a window's flanks are not part of it, as its part's flank
lists give them at (start, length).  Runs on one diagonal are disjoint,
so `hom_dim` counts them in O(n m) time and O(n + m) memory;
`hom_dim_detailed` sorts them, which orders them as their records would,
and hands out their records.  Trivial windows match by vertex.

The work is split in two.  Once per operand object, the operand is read
into its entry (`strings._Entry`, kept by `strings._kept`: per
presentation for strings and bands, per tiling algebra for the arcs of
`arcs.hom_dim_geometric`).  On the operand's first Hom use as v,
`_factor` builds the factor part of its match index from the entry's
view (the `_ends` flanks, where factor windows start, the positions of
the trivial factor windows); on its first use as w, `_sub` builds the
sub part (the flanks, the positions of the trivial sub windows by
vertex, and for the operand and its inverse spelling where sub windows
start, keyed by code).  Each part also holds the window records
`hom_dim_detailed` has handed out in its role, keyed by (start,
length): a `FactorDecomposition` or a `SubDecomposition` is built from
the part's flank lists on its window's first match and reused on every
later one.  The records are built with `tuple.__new__`, the C tuple
constructor; these `typing.NamedTuple`s check nothing, and their
`_make` is a Python wrapper around it.  The two roles keep
separate records, as the two record types compare equal as tuples.  Both
parts are kept in the entry, under its store's bound, so an operand
that never serves Hom has neither.  Per call, `strings._entries` reads
the letter table's operand store once for both operands, `_match` reads
the factor part of v's entry and the sub part of w's, and `_runs`
unrolls band sides to the pair's length cap and walks the runs.

Each index part also holds its match keys: the codes where a window of
its role starts (for a sub part, on either spelling) and the vertices
of its trivial windows; codes are ints and vertices are names, so one
set holds both.  Operands whose keys are disjoint have no pair: `_match`
returns () for them, after both operands have been read, checked and
indexed, and `hom_dim_detailed` returns one shared empty
`HomComputation` (with the identity term for a band against itself,
which may be key-disjoint from itself).  The check is exact: a nonempty
pair starts at a start pair of equal codes, and a trivial pair needs
one vertex with a trivial window in each role.  It subsumes the vertex
test: a code's ends and a trivial window's vertex lie on its operand's
walk, so operands whose walks share no vertex are key-disjoint.

Band operands are the quasi-simple modules M(b, 1, lambda), both with
the same lambda.  Between two of them on the same band the dimension is
the pair count plus one: the term delta_{b=c} delta_{lambda=mu} min(n, m)
of Krause's formula for dim Hom(M(b,n,lambda), M(c,m,mu)) at n = m = 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import GentlePresentation, InputError, _int_arg, _record
from .strings import Band, StringWord, _entries, _inverse, _letter_table, _operand, valid_pair


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


def _ends(codes, cyclic: bool, parity: int):
    """Per position k of a host (read mod its length n when cyclic): the
    left flank of a window starting at k and the right flank of one
    stopping at k, as letter indices (None at a word end), or -1 where
    no window starts or stops.  `parity` is that of a left flank's code:
    1 for factor windows (inverse letters are odd), 0 for sub windows."""
    lefts = [k if c & 1 == parity else -1 for k, c in enumerate(codes)]
    rights = [k if c & 1 != parity else -1 for k, c in enumerate(codes)]
    if cyclic:
        return lefts[-1:] + lefts[:-1], rights
    return [None] + lefts, rights + [None]


def _windows(view, parity: int):
    """All windows of a host as (start, length, left flank, right flank)
    tuples in (start, length) order; a cyclic host's start in its first
    period and its windows up to one full turn long."""
    codes, _, cyclic = view
    lefts, rights = _ends(codes, cyclic, parity)
    k = len(rights)
    return [(i, stop - i, left, rights[stop % k]) for i, left in enumerate(lefts)
            if left != -1 for stop in range(i, i * cyclic + len(codes) + 1)
            if rights[stop % k] != -1]


def factor_strings(p: GentlePresentation, host):
    """Complete set of factor decompositions of a string or band (for
    bands: unrolled windows of up to one full turn)."""
    return [FactorDecomposition(host, Window(*w)) for w in _windows(_operand(p, host), 1)]


def substrings(p: GentlePresentation, host):
    """Complete set of sub decompositions of a string or band."""
    return [SubDecomposition(host, Window(*w)) for w in _windows(_operand(p, host), 0)]


def window_key(p: GentlePresentation, host, w: Window):
    """Canonical key of the window word, identifying e with e^-1, as
    ("word", (arrow, inverse), ...); a trivial window's key holds its vertex,
    as a match may use either sign.  A band window may wrap from its start."""
    codes, verts, cyclic = _operand(p, host)
    n = len(codes)
    start, length, _, _ = _record(w, 4, "window {!r} is not a Window")
    start, length = _int_arg(start, "window start"), _int_arg(length, "window length")
    if not (0 <= start < n and length >= 0 if cyclic else 0 <= start <= start + length <= n):
        raise InputError(f"window {start}+{length} is not a window of {host!r}")
    if not length:
        return ("triv", verts[start])
    word = tuple([codes[(start + k) % n] for k in range(length)])
    letters = _letter_table(p).letters
    return ("word",) + tuple((letters[c].arrow, letters[c].inverse)
                             for c in min(word, _inverse(word)))


class AdmissiblePair(NamedTuple):
    factor: FactorDecomposition
    sub: SubDecomposition
    orientation: str     # "equal" (f = e) or "inverse" (f = e^-1)


class HomComputation(NamedTuple):
    dim: int
    pairs: tuple      # AdmissiblePair matches


def _factor(entry):
    """The factor part of an operand's match index, built from the view of
    its entry and kept there: its match keys (the codes where a factor
    window starts and the vertices of its trivial factor windows), codes,
    cyclic flag, factor flanks, the positions where a factor window
    starts, the positions of its trivial factor windows with their
    vertices, and the records of the factor windows `hom_dim_detailed`
    has handed out, by (start, length)."""
    codes, verts, cyclic = entry.view
    fl, fr = _ends(codes, cyclic, 1)
    starts = [i for i in range(len(codes)) if fl[i] != -1]
    trivial = [(i, verts[i]) for i, left in enumerate(fl) if left != -1 and fr[i] != -1]
    keys = frozenset([codes[i] for i in starts] + [v for _, v in trivial])
    entry.factor = keys, codes, cyclic, fl, fr, starts, trivial, {}
    return entry.factor


def _sub(entry):
    """The sub part of an operand's match index, built from the view of its
    entry and kept there: its match keys (the codes where a sub window
    starts, on either spelling, and the vertices of its trivial sub
    windows), codes, cyclic flag, sub flanks, the positions of its trivial
    sub windows by vertex, for the operand and its inverse spelling the
    positions where a sub window starts, keyed by code, and the records of
    the sub windows `hom_dim_detailed` has handed out, by (start, length)."""
    codes, verts, cyclic = entry.view
    m = len(codes)
    sl, sr = _ends(codes, cyclic, 0)
    sk = len(sr)
    trivial = {}
    for j, left in enumerate(sl):
        if left != -1 and sr[j] != -1:
            trivial.setdefault(verts[j], []).append(j)
    keys = set(trivial)
    spellings = []
    for same, spell in ((True, codes), (False, _inverse(codes))):
        # the inverse spelling's sub window at j is the inverse of the
        # operand's at m - j - length, so it starts where that one stops
        starts = {}
        for j in range(m):
            if (sl[j] if same else sr[(m - j) % sk]) != -1:
                starts.setdefault(spell[j], []).append(j)
        keys.update(starts)
        spellings.append((same, spell, starts))
    entry.sub = frozenset(keys), codes, cyclic, sl, sr, trivial, spellings, {}
    return entry.sub


def _match(f, s):
    """Admissible pairs (factor window of one operand, sub window of the
    other, same orientation) from the factor part of the match index of
    the one's entry f and the sub part of the other's entry s, each built
    here on its first use in that role: () when the two parts share no
    match key, else the lazy generator `_runs` of them."""
    fx, sx = f.factor or _factor(f), s.sub or _sub(s)
    return () if fx[0].isdisjoint(sx[0]) else _runs(fx, sx)


def _runs(fx, sx):
    """The admissible pairs of a factor part fx and a sub part sx, yielded
    unsorted, one at a time, as flat (factor start, length, sub start,
    same orientation) tuples; a trivial pair is (i, 0, j, True).  A
    nonempty pair is the maximal run of equal codes from a valid start
    pair on one alignment diagonal of the one operand against the other
    or its inverse spelling, kept if both right flanks are valid; runs
    longer than both hosts drop out.  The flanks are not yielded: a
    window's are read off its part's flank lists at (start, length)."""
    _, fcodes, fcyc, _, fr, f_starts, f_trivial, _ = fx
    _, scodes, scyc, sl, sr, trivial, spellings, _ = sx
    n, m = len(fcodes), len(scodes)
    cap = max(n, m)
    fk, sk = len(fr), len(sr)
    for i, v in f_trivial:
        for j in trivial.get(v, ()):
            yield i, 0, j, True
    f_run = fcodes * (2 + cap // n) if fcyc else fcodes
    f_len = len(f_run)
    for same, spell, starts in spellings:
        s_run = spell * (2 + cap // m) if scyc else spell
        s_len = len(s_run)
        get = starts.get
        for i in f_starts:
            js = get(fcodes[i])
            if js is None:
                continue
            f_stop = min(f_len - i, cap + 1)
            for j in js:
                stop = min(f_stop, s_len - j)
                length = 1
                while length < stop and f_run[i + length] == s_run[j + length]:
                    length += 1
                if length > cap:
                    continue
                c = j if same else (m - j - length) % m
                if fr[(i + length) % fk] != -1 and sr[(c + length) % sk] != -1 and sl[c] != -1:
                    yield i, length, c, same


_NO_PAIRS = HomComputation(0, ())


def hom_dim_detailed(p: GentlePresentation, v, w) -> HomComputation:
    """The dimension and the admissible pairs behind it, sorted.  The runs
    sort as their records would, since a window's flanks follow from its
    start and length.  A pair's factor and sub records are built from
    their part's flank lists on their window's first match and then kept
    with the operand's match index, by (start, length), so calls on kept
    operands share them."""
    f, s = _entries(p, v, w)
    runs = _match(f, s)
    if not runs:
        return HomComputation(1, ()) if isinstance(v, Band) and v == w else _NO_PAIRS
    _, _, _, fl, fr, _, _, factors = f.factor
    _, _, _, sl, sr, _, _, subs = s.sub
    fk, sk = len(fr), len(sr)
    new = tuple.__new__
    pairs = []
    for i, length, c, same in sorted(runs):
        factor = factors.get((i, length))
        if factor is None:
            factor = factors[i, length] = new(FactorDecomposition, (v, new(Window, (
                i, length, fl[i], fr[(i + length) % fk]))))
        sub = subs.get((c, length))
        if sub is None:
            sub = subs[c, length] = new(SubDecomposition, (w, new(Window, (
                c, length, sl[c], sr[(c + length) % sk]))))
        pairs.append(new(AdmissiblePair, (factor, sub, "equal" if same else "inverse")))
    return new(HomComputation, (len(pairs) + (isinstance(v, Band) and v == w), tuple(pairs)))


def hom_dim(p: GentlePresentation, v, w) -> int:
    """The dimension of hom_dim_detailed, from a count of the runs."""
    return sum(1 for _ in _match(*_entries(p, v, w))) + (isinstance(v, Band) and v == w)


# -- independent brute-force window counts (self-test route) -----------


def _count_windows_bruteforce(p: GentlePresentation, host, left_inverse: bool) -> int:
    """Count windows by scanning every index pair and revalidating the
    decomposition from scratch, without the flank shortcuts.  Windows
    are checked pair by pair with `valid_pair`, not through the letter
    table; the host itself is taken as given once it is an operand."""
    if not isinstance(host, (StringWord, Band)):
        raise InputError(f"expected StringWord or Band, got {type(host).__name__}")
    letters = host.letters
    n = len(letters)

    def is_string(word):
        return all(valid_pair(p, l1, l2) is None for l1, l2 in zip(word, word[1:]))

    count = 0
    if not isinstance(host, Band):
        for start in range(n + 1):
            for end in range(start, n + 1):
                # window plus flank letters must reassemble into the host
                count += ((start == 0 or letters[start - 1].inverse == left_inverse)
                          and (end == n or letters[end].inverse != left_inverse)
                          and is_string(letters[start:end]))
        return count
    for start in range(n):
        for length in range(n + 1):
            count += (letters[(start - 1) % n].inverse == left_inverse
                      and letters[(start + length) % n].inverse != left_inverse
                      and is_string([letters[(start + i) % n] for i in range(length)]))
    return count


def factor_count_bruteforce(p: GentlePresentation, host) -> int:
    return _count_windows_bruteforce(p, host, True)


def sub_count_bruteforce(p: GentlePresentation, host) -> int:
    return _count_windows_bruteforce(p, host, False)
