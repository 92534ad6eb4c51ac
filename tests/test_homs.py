import hashlib
import random
import tracemalloc

import pytest

import gentle_corpus
from agreements import agree
from tilealg import homs, samples
from tilealg.algebra import InputError
from tilealg.artheory import ar_sequence, hook_left, hook_right, hooks, tau_inverse
from tilealg.homs import (FactorDecomposition, SubDecomposition, Window,
                          factor_count_bruteforce, factor_strings, hom_dim,
                          hom_dim_detailed, sub_count_bruteforce, substrings,
                          window_key)
from tilealg.oracle import (BandModuleSpec, hom_dim_oracle, realize_band_module,
                            realize_string_module)
from tilealg.strings import (Band, Letter, StringRejection, StringWord, _entry,
                             all_letters, canonicalize, detect_band, enumerate_strings,
                             is_valid_string, letter_source, letter_target, parse_band,
                             parse_string, valid_pair, validate_string)
from tilealg.surface import TilingAlgebra, tiling_algebra


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
        agree("windows", p, bound=8)


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


def test_same_band_hom_counts_the_identity():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    comp = hom_dim_detailed(p, band, band)
    assert comp.dim == len(comp.pairs) + 1


def test_same_band_hom_matches_oracle_on_corpus():
    """Krause's band term at n = m = 1: dim Hom(M(b,1,lam), M(b,1,mu)) is
    the pair count plus delta_{lam=mu}, on every band among the closed
    strings of length <= 6 of the gentle corpus."""
    cases = 0
    for p in gentle_corpus.presentations():
        strings = enumerate_strings(p, max_len=6)
        for band in _sorted_bands(_closed_string_bands(p, strings)):
            comp = hom_dim_detailed(p, band, band)
            assert comp.dim == len(comp.pairs) + 1
            reps = {lam: realize_band_module(p, BandModuleSpec(band, 1, lam))
                    for lam in (1, 2)}
            for lam, mu in ((1, 1), (2, 2), (1, 2)):
                assert hom_dim_oracle(p, reps[lam], reps[mu]) == \
                    len(comp.pairs) + (lam == mu), (band.text(), lam, mu)
                cases += 1
    assert cases == 3 * 552


def test_string_hom_matches_oracle_on_corpus():
    """hom_dim against the oracle on a seeded sample of ordered pairs of
    strings of at most 3 letters, 12 per presentation of the corpus that
    has a vertex (498 of its 501)."""
    rng, pairs = random.Random(2018), 0
    for p in gentle_corpus.presentations():
        strings = enumerate_strings(p, max_len=3)
        for _ in range(12 if strings else 0):
            v, w = rng.choice(strings), rng.choice(strings)
            assert hom_dim(p, v, w) == hom_dim_oracle(
                p, realize_string_module(p, v), realize_string_module(p, w)), \
                (p, v.text(), w.text())
            pairs += 1
    assert pairs == 5976


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
    # it shares no vertex with paper_w, and is still read and rejected
    ghost = StringWord.trivial("zzz")
    for v, w in ((ghost, ghost), (ghost, paper_w), (paper_w, ghost)):
        with pytest.raises(InputError) as err:
            hom_dim(fix_a, v, w)
        assert str(err.value) == "not a string of this presentation: <triv zzz +>"
    with pytest.raises(InputError, match="not a string of this presentation"):
        factor_strings(fix_a, ghost)


def _operand_entry_points(p):
    """Every call of homs and artheory that reads one string or band
    operand, as a function of the operand alone."""
    good = StringWord.trivial(p.vertices[0])
    return [lambda x: hom_dim(p, x, good), lambda x: hom_dim(p, good, x),
            lambda x: factor_strings(p, x), lambda x: substrings(p, x),
            lambda x: window_key(p, x, Window(0, 0, None, None)),
            *(lambda x, f=f: f(p, x) for f in (hook_left, hook_right, hooks,
                                               tau_inverse, ar_sequence))]


@pytest.mark.parametrize("make, letters", [
    (samples.fix_a, (Letter("zz"), Letter("yy", True))),     # unknown arrows
    (samples.fix_a, (Letter("a"), Letter("zz", True))),
    (samples.kronecker, (Letter("a"), Letter("b"))),          # non-composable
    (samples.kronecker, (Letter("a"), Letter("a", True))),    # not reduced
    (samples.fix_a, (Letter("a"), Letter("b"))),              # relation ab
    (samples.kronecker, ()),
    # not canonical, on vertices 1 and 2: off the trivial string at 0
    (lambda: samples.kronecker_chain(2), (Letter("b1", True), Letter("a1"))),
    (lambda: samples.kronecker_chain(2), (Letter("a1"), Letter("b1", True)) * 2),
])
def test_band_operand_outside_the_presentation_is_rejected(make, letters):
    p = make()
    messages = set()
    for call in _operand_entry_points(p):
        with pytest.raises(InputError, match="not a band of this presentation") as err:
            call(Band(letters))
        messages.add(str(err.value))
    assert len(messages) == 1


# Operands that are no string or band of the algebra of the kron tiling
# (vertices x, y; arrows a1, a2: x -> y; its band is a1 a2-), each given
# by the call that builds it.  Every operand entry point rejects each of
# them, those of homs and artheory here and the arc and closed-curve
# bijections in test_arcs; the hand-built ones and the unhashable vertex
# are refused where they are built, before any entry point reads them.
KRON_BAD_OPERANDS = {
    "unknown vertex": lambda: StringWord.trivial("z"),
    "unknown arrow": lambda: StringWord.word([Letter("a1"), Letter("zz", True)]),
    "not reduced": lambda: StringWord.word([Letter("a1"), Letter("a1", True)]),
    "non-composable": lambda: StringWord.word([Letter("a1"), Letter("a2")]),
    "hand-built word without letters": lambda: StringWord("word"),
    "hand-built unknown kind": lambda: StringWord("bogus"),
    "hand-built trivial sign 0": lambda: StringWord("trivial", vertex="x", sign=0),
    "hand-built tuple letters": lambda: StringWord("word", letters=(("a1", False),)),
    "band with an unknown arrow": lambda: Band((Letter("a1"), Letter("zz", True))),
    "band rotated": lambda: Band((Letter("a2", True), Letter("a1"))),
    "band inverted": lambda: Band((Letter("a2"), Letter("a1", True))),
    "band squared": lambda: Band((Letter("a1"), Letter("a2", True)) * 2),
    "not an operand": lambda: ("a1", "a2-"),
    "unhashable vertex": lambda: StringWord("trivial", vertex=["x"], sign=1),
    "unhashable arrow": lambda: StringWord.word([Letter(["a1"])]),
    "band with an unhashable arrow": lambda: Band((Letter(["a1"]), Letter("a2", True))),
}


@pytest.fixture(scope="module")
def kron_algebra():
    return tiling_algebra(samples.tiled_fixtures()["kron"]).presentation


@pytest.mark.parametrize("name", sorted(KRON_BAD_OPERANDS))
def test_operand_entry_points_reject_bad_operands(kron_algebra, name):
    for call in _operand_entry_points(kron_algebra):
        with pytest.raises(InputError):
            call(KRON_BAD_OPERANDS[name]())


@pytest.mark.parametrize("operand, message", [
    (StringWord._trusted(("word", None, None, (Letter("a"), Letter(["b"])))),
     "not a string of this presentation: <a ['b']>"),
    (StringWord._trusted(("word", None, None, (Letter(["a"]),))),
     "not a string of this presentation: <['a']>"),
    (Band._trusted(((Letter(["a"]), Letter("b", True)),)),
     "not a band of this presentation: <band ['a'] b->"),
])
def test_unhashable_operand_fields_are_input_errors(operand, message):
    """An unhashable arrow or vertex is refused where its record is built
    (`test_records_refuse_malformed_fields_when_built`, and the unhashable
    rows of KRON_BAD_OPERANDS); a word or band record built around that
    check, as `_trusted` builds, is still an InputError where an entry
    point reads it."""
    p = samples.kronecker()
    for call in _operand_entry_points(p):
        with pytest.raises(InputError) as err:
            call(operand)
        assert str(err.value) == message


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


def _closed_string_bands(p, strings):
    """Band.from_letters on the closed strings among `strings`."""
    bands = set()
    for w in strings:
        if w.kind == "word" and len(w) >= 2 and w.source(p) == w.target(p):
            try:
                bands.add(Band.from_letters(p, w.letters))
            except (StringRejection, InputError):
                pass
    return bands


def _sorted_bands(bands):
    return sorted(bands, key=lambda b: [(l.arrow, l.inverse) for l in b.letters])


def _operands(p):
    """Strings up to length 4, then the bands: detect_band's witness and
    Band.from_letters on the closed strings."""
    strings = enumerate_strings(p, max_len=4)
    return strings + _sorted_bands(_closed_string_bands(p, strings)
                                   | ({detect_band(p)} - {None}))


def _text(x):
    return f"band {x.text()}" if isinstance(x, Band) else x.text()


def _window_text(w):
    return f"{w.start}+{w.length}({w.left_flank},{w.right_flank})"


def _zigzag_walk(p, start, length):
    """samples.zigzag_walk as a string."""
    return validate_string(p, samples.zigzag_walk(p, start, length))


def _zigzag_operands(p):
    """Trivial strings at vertices 0 and 1, walks from a0 and from a1- of
    several lengths up to 61 (on the cycle some wrap), the inverses of
    the walks from a1- and the cycle's band."""
    n = len(p.arrows)
    cyclic = len(p.vertices) == n
    ops = [StringWord.trivial("0"), StringWord.trivial("1")]
    for start in (0, 1):
        for k in sorted({1, n // 2, n - 1, n, n + 1, 2 * n + 1}):
            if 0 < k <= 61 and (cyclic or start + k <= n):
                walk = _zigzag_walk(p, start, k)
                ops += [walk, walk.inv()] if start else [walk]
    if cyclic:
        ops.append(Band.from_letters(p, _zigzag_walk(p, 0, n).letters))
    return ops


ZIGZAG_FAMILY = "zigzag lengths 2-60"


def _family_operands(family):
    """(presentation, operands) for each presentation of a pinned family."""
    if family == ZIGZAG_FAMILY:
        return [(p, _zigzag_operands(p)) for n in (2, 4, 8, 16, 30, 60)
                for p in (samples.zigzag(n), samples.zigzag(n, True))]
    return [(p, _operands(p)) for p in _families()[family]]


def _pairs_digest(items):
    h = hashlib.sha256()
    for p, ops in items:
        for v in ops:
            for w in ops:
                comp = hom_dim_detailed(p, v, w)
                pairs = " ".join(f"{_window_text(a.factor.window)}/"
                                 f"{_window_text(a.sub.window)}/{a.orientation}"
                                 for a in comp.pairs)
                h.update(f"[{_text(v)}] [{_text(w)}] {len(comp.pairs)} {pairs}\n".encode())
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
    # recorded with the keyed matcher, before pairs were read off runs
    ZIGZAG_FAMILY: "5fc9af49f9f0c807",
}


@pytest.mark.parametrize("family", sorted(PAIRS_DIGESTS))
def test_matcher_pairs_are_pinned(family):
    assert _pairs_digest(_family_operands(family)) == PAIRS_DIGESTS[family]


# -- operands without a common vertex ------------------------------------------


def _support(p, x):
    """The vertices the walk of a string or band visits, read off its
    letters."""
    if isinstance(x, StringWord) and x.is_trivial:
        return {x.vertex}
    return {v for l in x.letters for v in (letter_source(p, l), letter_target(p, l))}


def _module(p, x):
    if isinstance(x, Band):
        return realize_band_module(p, BandModuleSpec(x, 1, 1))
    return realize_string_module(p, x)


def test_operands_without_a_common_vertex_have_no_pairs():
    """Every ordered pair of strings of at most 3 letters and bands with
    disjoint supports on the first 100 corpus presentations has no
    admissible pair; the oracle confirms a seeded sample of them."""
    rng = random.Random(20)
    cases, sample = 0, []
    for p in gentle_corpus.presentations()[:100]:
        strings = enumerate_strings(p, max_len=3)
        ops = strings + _sorted_bands(_closed_string_bands(p, strings)
                                      | ({detect_band(p)} - {None}))
        supports = [_support(p, x) for x in ops]
        for v, sv in zip(ops, supports):
            for w, sw in zip(ops, supports):
                if sv.isdisjoint(sw):
                    assert hom_dim_detailed(p, v, w) == (0, ()), (_text(v), _text(w))
                    cases += 1
                    if rng.random() < 0.04:
                        sample.append((p, v, w))
    assert cases == 12330 and len(sample) > 400
    for p, v, w in sample:
        assert hom_dim_oracle(p, _module(p, v), _module(p, w)) == 0, (_text(v), _text(w))


def test_disjoint_match_keys_have_no_pairs():
    """On the operands of the test above, for every ordered pair: operands
    without a common vertex have disjoint match keys, and operands with
    disjoint match keys give the run walk nothing to yield.  The oracle
    confirms a seeded sample of the key-disjoint pairs that share a vertex:
    1 for a band against itself, else 0."""
    rng = random.Random(21)
    vertex_disjoint, key_disjoint, sample = 0, 0, []
    for p in gentle_corpus.presentations()[:100]:
        strings = enumerate_strings(p, max_len=3)
        ops = strings + _sorted_bands(_closed_string_bands(p, strings)
                                      | ({detect_band(p)} - {None}))
        supports = [_support(p, x) for x in ops]
        entries = [_entry(p, x) for x in ops]
        parts = [(e.factor or homs._factor(e), e.sub or homs._sub(e)) for e in entries]
        for v, sv, (fx, _) in zip(ops, supports, parts):
            for w, sw, (_, sx) in zip(ops, supports, parts):
                disjoint = fx[0].isdisjoint(sx[0])
                if sv.isdisjoint(sw):
                    assert disjoint, (_text(v), _text(w))
                    vertex_disjoint += 1
                if disjoint:
                    assert next(homs._runs(fx, sx), None) is None, (_text(v), _text(w))
                    key_disjoint += 1
                    if not sv.isdisjoint(sw) and rng.random() < 0.02:
                        sample.append((p, v, w))
    assert (vertex_disjoint, key_disjoint) == (12330, 24049)
    assert len(sample) > 200
    for p, v, w in sample:
        assert hom_dim_oracle(p, _module(p, v), _module(p, w)) == (
            isinstance(v, Band) and v == w), (_text(v), _text(w))


def test_key_disjoint_operands_enter_no_walk(monkeypatch):
    """hom_dim_detailed on every ordered pair of strings of at most 3
    letters and bands of kronecker_chain(3) enters the run walk exactly
    for the 655 of 1521 pairs whose match keys meet; a fall back to the
    vertex test would enter it 1303 times, and no test 1521 times."""
    p = samples.kronecker_chain(3)
    strings = enumerate_strings(p, max_len=3)
    ops = strings + _sorted_bands(_closed_string_bands(p, strings) | {detect_band(p)})
    walks = []
    runs = homs._runs

    def counted(fx, sx):
        walks.append(1)
        return runs(fx, sx)

    monkeypatch.setattr(homs, "_runs", counted)
    dims = [hom_dim_detailed(p, v, w).dim for v in ops for w in ops]
    assert (len(dims), len(walks), sum(dims)) == (1521, 655, 825)


# -- long operands ------------------------------------------------------------


def _random_walk(rng, p, length):
    """samples.random_walk as a string."""
    return validate_string(p, samples.random_walk(rng, p, length))


def _long_operand_cases():
    """(presentation, operands): zigzag walks of up to 200 letters and
    zigzag bands of 50 and 100, then random walks of up to 200 letters and
    the detect_band witness on three algebras with bands."""
    p = samples.zigzag(200)
    cases = [(p, [_zigzag_walk(p, 0, 200), _zigzag_walk(p, 1, 199), _zigzag_walk(p, 0, 57),
                  _zigzag_walk(p, 3, 120).inv(), StringWord.trivial("0")])]
    for n in (50, 100):
        p = samples.zigzag(n, True)
        cases.append((p, [Band.from_letters(p, _zigzag_walk(p, 0, n).letters),
                          _zigzag_walk(p, 0, 2 * n - 1), _zigzag_walk(p, 1, n + 1),
                          _zigzag_walk(p, 5, n // 2).inv(), StringWord.trivial("1")]))
    rng = random.Random(2024)
    for p in (samples.kronecker(), samples.kronecker_chain(3), samples.zigzag(6, True)):
        cases.append((p, [_random_walk(rng, p, k) for k in (200, 150, 90, 40)]
                      + [detect_band(p)]))
    return cases


def test_long_operands_match_oracle():
    for p, ops in _long_operand_cases():
        reps = [realize_band_module(p, BandModuleSpec(x, 1, 1)) if isinstance(x, Band)
                else realize_string_module(p, x) for x in ops]
        for v, rv in zip(ops, reps):
            for w, rw in zip(ops, reps):
                assert hom_dim(p, v, w) == hom_dim_oracle(p, rv, rw), (_text(v), _text(w))


def test_long_band_self_hom_memory_is_linear():
    """One self-Hom of the zigzag band of length 400 peaks at about 0.1 MB
    under tracemalloc; matching windows by keys built from their code
    slices peaked at 221 MB.  A bound on allocations, not on time."""
    p = samples.zigzag(400, True)
    band = Band.from_letters(p, _zigzag_walk(p, 0, 400).letters)
    tracemalloc.start()
    try:
        assert hom_dim(p, band, band) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
        if host.is_trivial:
            return ("triv", host.vertex)
        if w.start == len(letters):
            return ("triv", letter_target(p, letters[-1]))
        return ("triv", letter_source(p, letters[w.start]))
    word = canonicalize(StringWord.word(
        letters[(w.start + i) % len(letters)] for i in range(w.length)))
    return ("word",) + tuple((l.arrow, l.inverse) for l in word.letters)


@pytest.mark.parametrize("make, host, start, length", [
    (samples.fix_a, "b- c d c- b", 0, 50), (samples.fix_a, "b- c d c- b", -2, 1),
    (samples.fix_a, "b- c d c- b", 7, 0), (samples.fix_a, "b- c d c- b", 5, 1),
    (samples.fix_a, "b- c d c- b", 0, -1), (samples.kronecker, "band a b-", 2, 0),
    (samples.kronecker, "band a b-", -1, 2), (samples.kronecker, "band a b-", 0, -1),
    (samples.fix_a, "b- c d c- b", "0", 1), (samples.fix_a, "b- c d c- b", None, 1),
    (samples.fix_a, "b- c d c- b", 0.5, 1), (samples.fix_a, "b- c d c- b", True, 1),
    (samples.fix_a, "b- c d c- b", 0, True),
])
def test_window_key_rejects_windows_outside_the_host(make, host, start, length):
    """A string window lies in 0 <= start <= start + length <= n, a band
    window has 0 <= start < n and may wrap any number of turns.  Start
    and length are ints; a bool is not taken for one."""
    p = make()
    x = parse_band(p, host[5:]) if host.startswith("band ") else parse_string(p, host)
    if type(start) is not int:
        message = f"window start must be an int, got {start!r}"
    elif type(length) is not int:
        message = f"window length must be an int, got {length!r}"
    else:
        message = f"window {start}+{length} is not a window of {x!r}"
    with pytest.raises(InputError) as err:
        window_key(p, x, Window(start, length, None, None))
    assert str(err.value) == message


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


# -- operand views kept per presentation ----------------------------------------


@pytest.mark.parametrize("make, bands", [
    (lambda: samples.kronecker_chain(2), ()), (lambda: samples.kronecker_chain(3), ()),
    (lambda: samples.zigzag(8), ()), (lambda: samples.zigzag(8, True), ()),
    (samples.double_kronecker, (samples.repeated_band(2),))],
    ids=["kronecker_chain(2)", "kronecker_chain(3)", "zigzag(8)", "zigzag(8, cyclic)",
         "repeated_band(2)"])
def test_kept_operand_views_give_the_pairs_of_a_fresh_presentation(make, bands):
    """On a second pass over the same operand objects, whose views and
    match indexes the presentation keeps, the pairs equal those on a
    fresh presentation of copies read for the first time, and no index is
    built again; a seeded sample matches the oracle."""
    p, fresh = make(), make()
    ops = enumerate_strings(p, max_len=3)
    ops += _sorted_bands(_closed_string_bands(p, ops) | ({detect_band(p)} - {None}))
    ops += [parse_band(p, text) for text in bands]
    first = [hom_dim_detailed(p, v, w) for v in ops for w in ops]
    kept = [(_entry(p, x).factor, _entry(p, x).sub) for x in ops]
    warm = [hom_dim_detailed(p, v, w) for v in ops for w in ops]
    assert all(f is not None and s is not None for f, s in kept)
    assert all(_entry(p, x).factor is f and _entry(p, x).sub is s
               for x, (f, s) in zip(ops, kept))
    cold = [hom_dim_detailed(fresh, type(v)(*v), type(w)(*w)) for v in ops for w in ops]
    assert warm == first == cold
    assert [hom_dim(p, v, w) for v in ops for w in ops] == [h.dim for h in warm]
    rng = random.Random(27)
    for v, w in [(rng.choice(ops), rng.choice(ops)) for _ in range(15)]:
        assert hom_dim(p, v, w) == hom_dim_oracle(p, _module(p, v), _module(p, w)), (v, w)


# -- records kept with the match index -----------------------------------------


@pytest.mark.parametrize("family", sorted(PAIRS_DIGESTS))
def test_self_hom_records_keep_their_roles(family):
    """With v is w one entry serves both roles; every pair's factor is a
    FactorDecomposition and its sub a SubDecomposition, on the first call,
    which builds the records, and on a second, which reuses them and
    returns an equal result."""
    for p, ops in _family_operands(family):
        for x in ops:
            first = hom_dim_detailed(p, x, x)
            second = hom_dim_detailed(p, x, x)
            assert second == first
            for comp in (first, second):
                assert all(type(a.factor) is FactorDecomposition
                           and type(a.sub) is SubDecomposition
                           and type(a.factor.window) is Window is type(a.sub.window)
                           for a in comp.pairs), _text(x)


def test_repeated_calls_return_equal_computations():
    """A second pass over every ordered pair of kept operands gives equal
    results, whose records are the ones the first pass handed out."""
    p = samples.kronecker_chain(3)
    ops = enumerate_strings(p, max_len=4)
    ops += _sorted_bands(_closed_string_bands(p, ops))
    first = [hom_dim_detailed(p, v, w) for v in ops for w in ops]
    second = [hom_dim_detailed(p, v, w) for v in ops for w in ops]
    assert second == first and sum(c.dim for c in first) > 0
    assert all(a.factor is b.factor and a.sub is b.sub
               for c, d in zip(first, second) for a, b in zip(c.pairs, d.pairs))


def test_lazily_built_windows_are_windows_of_their_hosts():
    """Every pair hom_dim_detailed hands out, its records built from a
    run's (start, length), has a factor window among factor_strings of v
    and a sub window among substrings of w, which `_windows` enumerates
    apart from `_runs`: 3090 pairs between the strings of at most 4
    letters of kronecker_chain(3), and 7961 between those of each of the
    first 40 corpus presentations."""
    counts = []
    for p in [samples.kronecker_chain(3), *gentle_corpus.presentations()[:40]]:
        ops = [(x, set(factor_strings(p, x)), set(substrings(p, x)))
               for x in enumerate_strings(p, max_len=4)]
        pairs = 0
        for v, factors, _ in ops:
            for w, _, subs in ops:
                for a in hom_dim_detailed(p, v, w).pairs:
                    assert a.factor in factors and a.sub in subs, (_text(v), _text(w), a)
                    pairs += 1
        counts.append(pairs)
    assert counts[0] == 3090 and sum(counts[1:]) == 7961


def test_counting_self_hom_stays_lazy():
    """hom_dim counts the runs from a stream: on a random walk of 800
    letters, with 18826 pairs, its tracemalloc peak stays below a tenth
    of that of hom_dim_detailed, which holds every pair.  The match index
    is built before either is measured."""
    p = samples.kronecker_chain(3)
    x = validate_string(p, samples.random_walk(random.Random(800), p, 800))
    assert hom_dim(p, x, x) == 18826
    peaks = []
    for f in (hom_dim, hom_dim_detailed):
        tracemalloc.start()
        try:
            f(p, x, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] * 10 < peaks[1]


NOT_A_PRESENTATION = "expected a GentlePresentation, got int"


@pytest.mark.parametrize("call, answer", [
    (lambda: is_valid_string(samples.fix_a(), StringWord.zero()), True),
    (lambda: is_valid_string(samples.fix_a(), StringWord.trivial("1", -1)), True),
    (lambda: is_valid_string(samples.fix_a(), StringWord.trivial("9")), False),
    (lambda: TilingAlgebra(samples.pent_tiling(), ["x", "y"], {"a": 5}),
     "expected a TilingArrow, got int"),
    (lambda: TilingAlgebra(5, ["x", "y"], {}), "expected a Tiling, got int"),
    (lambda: TilingAlgebra(samples.pent_tiling(), ["x", "y"], [5]),
     "expected a dict, got list"),
    (lambda: valid_pair(5, Letter("a"), Letter("b")), NOT_A_PRESENTATION),
    (lambda: letter_source(5, Letter("a")), NOT_A_PRESENTATION),
    (lambda: letter_target(5, Letter("a", True)), NOT_A_PRESENTATION),
    (lambda: all_letters(5), NOT_A_PRESENTATION),
    (lambda: parse_string(5, "zero"), NOT_A_PRESENTATION),
    (lambda: parse_string(samples.fix_a(), "zero"), StringWord.zero()),
], ids=["zero", "trivial", "trivial_elsewhere",
        "arrow_int", "tiling_int", "arrows_list", "valid_pair", "letter_source",
        "letter_target", "all_letters", "parse_zero", "parse_zero_of_p"])
def test_unread_arguments_are_refused(call, answer):
    """A tiling algebra of a foreign tiling or arrow, and a presentation of
    another type given to the per-letter functions or to parse_string are
    refused with an InputError; zero and trivial strings keep their
    answers.  A string of unknown kind is refused where it is built
    (`test_records_refuse_malformed_fields_when_built`)."""
    if isinstance(answer, str):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == answer
    else:
        assert call() == answer
