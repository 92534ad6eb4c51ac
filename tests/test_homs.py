import hashlib
import random
import warnings

import pytest

import gentle_corpus
from tilealg import samples
from tilealg.algebra import InputError
from tilealg.homs import (Window, factor_count_bruteforce, factor_strings,
                          hom_dim, hom_dim_detailed, sub_count_bruteforce,
                          substrings, window_key)
from tilealg.strings import (Band, Letter, StringRejection, StringWord,
                             canonicalize, detect_band, enumerate_strings,
                             letter_source, parse_band, parse_string)
from tilealg.surface import tiling_algebra


@pytest.fixture(scope="module")
def fix_a():
    return samples.fix_a()


@pytest.fixture(scope="module")
def paper_w(fix_a):
    return parse_string(fix_a, "b- c d c- b")


def test_factor_strings_of_trivial():
    p = samples.a2()
    fac = factor_strings(p, StringWord.trivial("1"))
    assert len(fac) == 1
    assert fac[0].window.length == 0


def test_factor_strings_of_single_arrow():
    p = samples.a2()
    a = parse_string(p, "a")
    fac = factor_strings(p, a)
    keys = sorted(window_key(p, a, f.window) for f in fac)
    assert keys == [("triv", "1"), ("word", ("a", False))]
    sub = substrings(p, a)
    keys = sorted(window_key(p, a, s.window) for s in sub)
    assert keys == [("triv", "2"), ("word", ("a", False))]


def test_paper_factor_windows(fix_a, paper_w):
    keys = {window_key(fix_a, paper_w, f.window) for f in factor_strings(fix_a, paper_w)}
    whole = window_key(fix_a, paper_w, factor_strings(fix_a, paper_w)[0].window)
    # e = w itself and e = b^- c are among the factor middles
    full = ("word",) + tuple((l.arrow, l.inverse) for l in paper_w.letters)
    assert full in keys
    bc = ("word", ("b", True), ("c", False))
    assert bc in keys


def test_paper_sub_windows(fix_a, paper_w):
    keys = {window_key(fix_a, paper_w, s.window) for s in substrings(fix_a, paper_w)}
    # the (b^-1 c) d e^-1 decomposition has middle e = b^- c read backwards
    bc = ("word", ("b", True), ("c", False))
    assert bc in keys  # canonical key identifies e with e^-1


def test_hom_dim_paper_value(fix_a, paper_w):
    comp = hom_dim_detailed(fix_a, paper_w, paper_w)
    assert comp.dim == 2
    # one pair matches on the full middle e = w, the other on e = b^- c
    full = ("word",) + tuple((l.arrow, l.inverse) for l in paper_w.letters)
    bc = ("word", ("b", True), ("c", False))
    got = sorted(window_key(fix_a, paper_w, pr.factor.window) for pr in comp.pairs)
    assert got == sorted([full, bc])
    # the e = b^-1 c pair is the paper's (e d (c^-1 b), (b^-1 c) d e^-1):
    # factor window at the start flanked by d, sub window at the end
    pair_bc = next(pr for pr in comp.pairs
                   if window_key(fix_a, paper_w, pr.factor.window) == bc)
    f, s = pair_bc.factor, pair_bc.sub
    assert f.window.start == 0 and f.window.length == 2
    assert paper_w.letters[f.window.right_flank] == Letter("d")
    assert s.window.start == 3 and s.window.length == 2
    assert paper_w.letters[s.window.left_flank] == Letter("d")
    assert pair_bc.orientation == "inverse"  # f = e^-1 in the paper's pair
    pair_full = next(pr for pr in comp.pairs
                     if window_key(fix_a, paper_w, pr.factor.window) == full)
    assert pair_full.orientation == "equal"


def test_identity_endomorphism_of_simples():
    for p in samples.algebra_fixtures().values():
        for v in p.vertices:
            t = StringWord.trivial(v)
            assert hom_dim(p, t, t) == 1


def test_hom_a2_arrow_to_simple():
    p = samples.a2()
    a = parse_string(p, "a")
    assert hom_dim(p, a, StringWord.trivial("1")) == 1
    assert hom_dim(p, StringWord.trivial("1"), a) == 0
    assert hom_dim(p, a, StringWord.trivial("2")) == 0
    assert hom_dim(p, StringWord.trivial("2"), a) == 1


def test_self_hom_at_least_one():
    for p in samples.algebra_fixtures().values():
        bound = 6 if detect_band(p) is not None else None
        for w in enumerate_strings(p, max_len=bound):
            assert hom_dim(p, w, w) >= 1


def test_window_counts_match_bruteforce():
    for p in samples.algebra_fixtures().values():
        bound = 8 if detect_band(p) is not None else None
        for w in enumerate_strings(p, max_len=bound):
            assert len(factor_strings(p, w)) == factor_count_bruteforce(p, w)
            assert len(substrings(p, w)) == sub_count_bruteforce(p, w)


def test_band_windows_and_counts():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    assert len(factor_strings(p, band)) == factor_count_bruteforce(p, band)
    assert len(substrings(p, band)) == sub_count_bruteforce(p, band)
    # quasi-simple band module against strings
    assert hom_dim(p, StringWord.trivial("2"), band) == 1
    assert hom_dim(p, band, StringWord.trivial("2")) == 0
    assert hom_dim(p, band, StringWord.trivial("1")) == 1
    assert hom_dim(p, StringWord.trivial("1"), band) == 0
    assert hom_dim(p, parse_string(p, "a"), band) == 0
    assert hom_dim(p, band, parse_string(p, "a")) == 0


def test_same_band_pair_flagged_experimental():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    with pytest.warns(UserWarning):
        comp = hom_dim_detailed(p, band, band)
    assert comp.experimental


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40)
@given(st.sampled_from(["a2", "fix_a", "fix_b", "loop", "kronecker"]), st.data())
def test_hom_invariant_under_inversion(name, data):
    # M(w) and M(w^-1) are isomorphic modules, so every hom dimension is
    # invariant under inverting either argument
    p = samples.algebra_fixtures()[name]
    words = enumerate_strings(p, max_len=4)
    v = data.draw(st.sampled_from(words))
    w = data.draw(st.sampled_from(words))
    base = hom_dim(p, v, w)
    assert base == hom_dim(p, v.inv(), w) == hom_dim(p, v, w.inv()) \
        == hom_dim(p, v.inv(), w.inv())


# -- operand validation ---------------------------------------------------


def test_trivial_operand_at_unknown_vertex_is_rejected(fix_a, paper_w):
    ghost = StringWord.trivial("zzz")
    for v, w in ((ghost, ghost), (ghost, paper_w), (paper_w, ghost)):
        with pytest.raises(InputError, match="not a string of this presentation"):
            hom_dim(fix_a, v, w)
    with pytest.raises(InputError, match="not a string of this presentation"):
        factor_strings(fix_a, ghost)


@pytest.mark.parametrize("make, letters", [
    (samples.fix_a, (Letter("zz"), Letter("yy", True))),     # unknown arrows
    (samples.fix_a, (Letter("a"), Letter("zz", True))),
    (samples.kronecker, (Letter("a"), Letter("b"))),          # non-composable
    (samples.kronecker, (Letter("a"), Letter("a", True))),    # not reduced
    (samples.fix_a, (Letter("a"), Letter("b"))),              # relation ab
    (samples.kronecker, ()),
])
def test_band_operand_outside_the_presentation_is_rejected(make, letters):
    p = make()
    bad = Band(letters)
    trivial = StringWord.trivial(p.vertices[0])
    for v, w in ((bad, trivial), (trivial, bad)):
        with pytest.raises(InputError, match="not a band of this presentation"):
            hom_dim(p, v, w)
    for decompositions in (factor_strings, substrings):
        with pytest.raises(InputError, match="not a band of this presentation"):
            decompositions(p, bad)


# -- matcher output pinned on generated families ---------------------------


def _families():
    fams = {name: [p] for name, p in samples.algebra_fixtures().items()}
    fams["random_tilings(7, 40)"] = [tiling_algebra(t).presentation
                                     for t in samples.random_tilings(7, 40)]
    fams["kronecker_chain(4)"] = [samples.kronecker_chain(4)]
    fams["corpus band lengths 2-10"] = _corpus_band_family()
    return fams


def _corpus_band_family():
    """For each length of a detect_band witness in the gentle corpus
    (2 to 10, odd ones included), the first presentation with one."""
    first = {}
    for p in gentle_corpus.presentations():
        band = detect_band(p)
        if band is not None:
            first.setdefault(len(band), p)
    return [first[n] for n in sorted(first)]


def _operands(p):
    """Strings up to length 4, then the bands: detect_band's witness and
    Band.from_letters on the closed strings."""
    strings = enumerate_strings(p, max_len=4)
    bands = {detect_band(p)} - {None}
    for w in strings:
        if w.kind == "word" and len(w) >= 2 and w.source(p) == w.target(p):
            try:
                bands.add(Band.from_letters(p, w.letters))
            except (StringRejection, InputError):
                pass
    return strings + sorted(bands, key=lambda b: [(l.arrow, l.inverse)
                                                  for l in b.letters])


def _text(x):
    return f"band {x.text()}" if isinstance(x, Band) else x.text()


def _window_text(w):
    return f"{w.start}+{w.length}({w.left_flank},{w.right_flank})"


def _pairs_digest(ps):
    h = hashlib.sha256()
    for p in ps:
        ops = _operands(p)
        for v in ops:
            for w in ops:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # same-band pairs
                    comp = hom_dim_detailed(p, v, w)
                pairs = " ".join(f"{_window_text(a.factor.window)}/"
                                 f"{_window_text(a.sub.window)}/{a.orientation}"
                                 for a in comp.pairs)
                h.update(f"[{_text(v)}] [{_text(w)}] {comp.dim} {pairs}\n".encode())
    return h.hexdigest()[:16]


# sha256 prefixes of every rendered pair, recorded before window keys
# were read off slices of one spelling per operand
PAIRS_DIGESTS = {
    "a2": "bec451d6652c3c98",
    "fix_a": "f2ae64a1ad53b0cf",
    "fix_b": "ad6f11a957e32086",
    "loop": "d8ce715831254c07",
    "kronecker": "1b7d5394cb9442a1",
    "random_tilings(7, 40)": "2eb04424e1e506e7",
    "kronecker_chain(4)": "decf80d07348f542",
    # recorded before the matcher read integer letter codes
    "corpus band lengths 2-10": "e6bed048fbe74df9",
}


@pytest.mark.parametrize("family", sorted(PAIRS_DIGESTS))
def test_matcher_pairs_are_pinned(family):
    assert _pairs_digest(_families()[family]) == PAIRS_DIGESTS[family]


def _geometric_digest():
    from tilealg.arcs import (band_to_closed_curve, hom_dim_geometric,
                              string_to_arc)
    rng = random.Random(7)
    h = hashlib.sha256()
    for t in samples.random_tilings(7, 40):
        alg = tiling_algebra(t)
        p = alg.presentation
        arcs = [string_to_arc(t, alg, w) for w in enumerate_strings(p, max_len=4)]
        band = detect_band(p)
        if band is not None:
            arcs += [band_to_closed_curve(t, alg, band, n) for n in (1, 2)]
        for _ in range(20 if arcs else 0):
            i, j = rng.randrange(len(arcs)), rng.randrange(len(arcs))
            h.update(f"{i} {j} {hom_dim_geometric(t, alg, arcs[i], arcs[j])}\n".encode())
    return h.hexdigest()[:16]


def test_geometric_hom_is_pinned():
    assert _geometric_digest() == "8f02e0e7fc8f670d"


def _window_key_reference(p, host, w):
    """The key built as before: canonicalize the window's word."""
    letters = host.letters
    if w.length == 0:
        if isinstance(host, Band):
            return ("triv", letter_source(p, letters[w.start % len(letters)]))
        return ("triv", host.walk_vertices(p)[w.start])
    word = canonicalize(StringWord.word(
        letters[(w.start + i) % len(letters)] for i in range(w.length)))
    return ("word",) + tuple((l.arrow, l.inverse) for l in word.letters)


def test_window_key_matches_canonicalized_window_word():
    for ps in _families().values():
        for p in ps:
            ops = _operands(p)
            # every window; band windows wrap several turns
            reach = 2 * max((len(x) for x in ops), default=0) + 1
            for x in ops:
                n = len(x)
                spans = ([(i, k) for i in range(n) for k in range(reach + 1)]
                         if isinstance(x, Band) else
                         [(i, k) for i in range(n + 1) for k in range(n + 1 - i)])
                for start, length in spans:
                    w = Window(start, length, None, None)
                    assert window_key(p, x, w) == _window_key_reference(p, x, w), \
                        (_text(x), w)
