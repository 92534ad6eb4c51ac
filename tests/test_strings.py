import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import gentle_corpus
from tilealg import samples
from tilealg.algebra import GentlePresentation, InputError
from tilealg.artheory import hooks
from tilealg.arcs import check_permissible, hom_dim_geometric, string_to_arc
from tilealg.homs import factor_strings, hom_dim, window_key
from tilealg.strings import (_VIEWS, Band, Letter, StringRejection, StringWord,
                             _cyclic_form, _entry, _letter_table, _operand, _walk_error,
                             all_letters, canonicalize, detect_band, enumerate_strings,
                             is_valid_string, letter_source,
                             letter_target, parse_band, parse_string,
                             valid_pair, validate_string)
from tilealg.surface import tiling_algebra


@pytest.fixture(scope="module")
def fix_a():
    return samples.fix_a()


@pytest.fixture(scope="module")
def fix_b():
    return samples.fix_b()


def test_validate_paper_string(fix_a):
    w = validate_string(fix_a, [Letter("b", True), Letter("c"), Letter("d"),
                                Letter("c", True), Letter("b")])
    assert w.text() == "b- c d c- b"
    assert _operand(fix_a, w)[1] == ("1", "2", "3", "3", "2", "1")


def test_relation_rejected_with_position(fix_a):
    with pytest.raises(StringRejection) as exc:
        validate_string(fix_a, [Letter("a"), Letter("b")])
    assert exc.value.position == 1
    assert exc.value.reason == "relation"


def test_not_reduced_rejected(fix_a):
    with pytest.raises(StringRejection) as exc:
        validate_string(fix_a, [Letter("a"), Letter("a", True)])
    assert exc.value.reason == "not-reduced"


def test_non_composable_rejected(fix_a):
    with pytest.raises(StringRejection) as exc:
        validate_string(fix_a, [Letter("a"), Letter("d")])
    assert exc.value.reason == "non-composable"


def test_walk_error_positions(fix_a):
    """The one successor walk on codes: the second position of the first
    pair outside the table, the wrap pair at position 0."""
    code = _letter_table(fix_a).code
    a, b, d, d_inv = code["a", False], code["b", False], code["d", False], code["d", True]
    assert _walk_error(fix_a, [a, b], False) == 1              # relation ab
    assert _walk_error(fix_a, [code["c", False], d, d_inv], False) == 2   # d d- not reduced
    assert _walk_error(fix_a, [d], False) is None
    assert _walk_error(fix_a, [d], True) == 0                  # wrap pair d d: relation
    paper = [code[l.arrow, l.inverse] for l in parse_string(fix_a, "b- c d c- b").letters]
    assert _walk_error(fix_a, paper, False) is None
    assert _walk_error(fix_a, paper, True) == 0                # wrap pair b b- not reduced
    assert _walk_error(fix_a, [], True) is None


def test_inverse_relation_rejected(fix_a):
    # (b a)^-1 = a^-1 b^-1 must also be forbidden
    with pytest.raises(StringRejection):
        validate_string(fix_a, [Letter("a", True), Letter("b", True)])


def test_canonicalize_involution_pair(fix_a):
    w = parse_string(fix_a, "b- c d c- b")
    assert canonicalize(w) == canonicalize(w.inv())
    assert canonicalize(canonicalize(w)) == canonicalize(w)
    t_plus = StringWord.trivial("2", 1)
    t_minus = StringWord.trivial("2", -1)
    assert canonicalize(t_plus) == canonicalize(t_minus)


def test_paper_string_is_palindromic_up_to_inversion(fix_a):
    w = parse_string(fix_a, "b- c d c- b")
    assert w.inv().text() == "b- c d- c- b"
    assert canonicalize(w) in (w, w.inv())


def test_enumerate_a2():
    p = samples.a2()
    got = {w.text() for w in enumerate_strings(p)}
    assert got == {"triv 1 +", "triv 2 +", "a"}


FIX_B_EXPECTED = {
    "triv 1 +", "triv 2 +", "triv 3 +", "triv 4 +",
    "a", "b", "c", "d", "b c", "c d", "a- d", "b c d",
}


def test_enumerate_fix_b_reproduces_the_twelve_labels(fix_b):
    got = {w.text() for w in enumerate_strings(fix_b)}
    assert got == FIX_B_EXPECTED


def test_enumerate_loop_algebra():
    p = samples.loop_algebra()
    got = {w.text() for w in enumerate_strings(p)}
    assert got == {"triv v +", "d"}


def test_enumerate_monotone_and_stabilizes(fix_a):
    sizes = [len(enumerate_strings(fix_a, max_len=k)) for k in range(8)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == sizes[-2] == len(enumerate_strings(fix_a))


def test_enumerate_band_positive_needs_bound():
    p = samples.kronecker()
    with pytest.raises(InputError):
        enumerate_strings(p)
    assert len(enumerate_strings(p, max_len=4)) > 0


def test_detect_band_kronecker():
    p = samples.kronecker()
    band = detect_band(p)
    assert band is not None
    assert band == Band.from_letters(p, [Letter("a"), Letter("b", True)])
    # every rotation pair of the witness is a valid string
    n = len(band.letters)
    for i in range(n):
        assert is_valid_string(
            p, StringWord.word((band.letters[i], band.letters[(i + 1) % n])))
    assert any(l.inverse for l in band.letters)
    assert any(not l.inverse for l in band.letters)


def test_detect_band_negative_cases(fix_a, fix_b):
    assert detect_band(fix_b) is None
    assert detect_band(fix_a) is None
    assert detect_band(samples.loop_algebra()) is None


def _double_kronecker():
    return GentlePresentation.from_data(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
        [("a", "c"), ("b", "d")])


def _affine_a3():
    return GentlePresentation.from_data(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "4"), ("d", "4", "3")], [])


# samples.kronecker() is pinned by test_detect_band_kronecker
@pytest.mark.parametrize("make, witness", [
    (lambda: tiling_algebra(samples.kron_tiling()).presentation, "a1 a2-"),
    (_double_kronecker, "a b-"),
    (_affine_a3, "a b d- c-"),
])
def test_detect_band_witness_is_pinned(make, witness):
    assert detect_band(make()).text() == witness


def test_detect_band_witnesses_on_random_tilings_are_pinned():
    found = []
    for i, t in enumerate(samples.random_tilings(7, 40)):
        band = detect_band(tiling_algebra(t).presentation)
        if band is not None:
            found.append((i, band.text()))
    assert found == [(i, "a1 a2-") for i in (7, 11, 12, 15, 22, 23, 24, 26, 29, 32, 36)]


def test_band_rejects_proper_power():
    p = samples.kronecker()
    with pytest.raises(StringRejection):
        Band.from_letters(p, [Letter("a"), Letter("b", True),
                              Letter("a"), Letter("b", True)])


def test_parse_band():
    p = samples.kronecker()
    assert parse_band(p, "a b-").text() == "a b-"


@pytest.fixture(scope="module")
def all_fixture_strings():
    out = []
    for name, p in samples.algebra_fixtures().items():
        bound = 8 if detect_band(p) is not None else None
        for w in enumerate_strings(p, max_len=bound):
            out.append((p, w))
    return out


def test_every_window_of_a_string_is_a_string(all_fixture_strings):
    for p, w in all_fixture_strings:
        if w.kind != "word":
            continue
        n = len(w.letters)
        for i in range(n):
            for j in range(i + 1, n + 1):
                assert is_valid_string(p, StringWord.word(w.letters[i:j]))


@settings(max_examples=60)
@given(st.sampled_from(["a2", "fix_a", "fix_b", "loop", "kronecker"]),
       st.data())
def test_random_letter_words_validate_consistently(name, data):
    p = samples.algebra_fixtures()[name]
    letters = [Letter(a, inv)
               for a in p.arrows for inv in (False, True)]
    word = data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=6))
    try:
        w = validate_string(p, word)
    except StringRejection:
        return
    # validation accepted: every prefix must also be a string and the
    # inverse must validate too
    assert is_valid_string(p, w.inv())
    for k in range(1, len(word)):
        assert is_valid_string(p, StringWord.word(word[:k]))


# -- every validity route against the pair rule ----------------------------


def _pair_rule_error(p, word, cyclic):
    """(position, reason) of the first offence, read pair by pair with
    `valid_pair`: an unknown arrow first (reason None), then the second
    letter of the first bad adjacent pair, the wrap pair last."""
    for i, l in enumerate(word):
        if l.arrow not in p.quiver.sources:
            return i, None
    n = len(word)
    pairs = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if cyclic else [])
    for i, j in pairs:
        reason = valid_pair(p, word[i], word[j])
        if reason is not None:
            return j, reason
    return None


def _validity_words(p, rng):
    letters = all_letters(p)
    words = [list(w) for k in (1, 2, 3) for w in itertools.product(letters, repeat=k)]
    for _ in range(60):
        word = [rng.choice(letters)]
        for _ in range(rng.randint(1, 5)):
            good = [l for l in letters if valid_pair(p, word[-1], l) is None]
            word.append(rng.choice(good if good and rng.random() < 0.9 else letters))
        words.append(word)
        bad = list(word)
        bad[rng.randrange(len(bad))] = Letter("unknown", rng.random() < 0.5)
        words.append(bad)
    return words


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return exc
    return None


def test_every_validity_route_agrees_with_the_pair_rule():
    algebras = list(samples.algebra_fixtures().values())
    algebras += [tiling_algebra(t).presentation for t in samples.random_tilings(7, 40)]
    algebras.append(samples.kronecker_chain(3))
    rng = random.Random(6)
    checked = 0
    for p in algebras:
        if not p.arrows:
            continue
        other = StringWord.trivial(p.vertices[0])
        for word in _validity_words(p, rng):
            checked += 1
            err = _pair_rule_error(p, word, False)
            exc = _raised(lambda: validate_string(p, word))
            if err is None:
                assert exc is None
            elif err[1] is None:
                assert type(exc) is InputError
                assert str(exc) == f"unknown arrow {word[err[0]].arrow!r} at position {err[0]}"
            else:
                assert type(exc) is StringRejection
                assert (exc.position, exc.reason) == err
                assert str(exc) == f"invalid string at position {err[0]}: {err[1]}"
            assert is_valid_string(p, StringWord.word(word)) == (err is None)
            exc = _raised(lambda: hom_dim(p, StringWord.word(word), other))
            assert (exc is None) == (err is None)
            assert err is None or type(exc) is InputError

            err = _pair_rule_error(p, word, True)
            exc = _raised(lambda: Band.from_letters(p, word))
            if err is None:
                n = len(word)
                power = any(n % d == 0 and word == word[:d] * (n // d) for d in range(1, n))
                one_way = len({l.inverse for l in word}) == 1
                assert (exc is None) == (not power and not one_way)
                assert exc is None or (type(exc) is StringRejection and exc.position == 0)
            elif err[1] is None:
                assert type(exc) is InputError
                assert str(exc) == f"unknown arrow {word[err[0]].arrow!r}"
            else:
                assert type(exc) is StringRejection
                assert (exc.position, exc.reason) == (err[0], f"cyclic word invalid: {err[1]}")
                assert str(exc) == f"invalid string at position {err[0]}: cyclic word invalid: {err[1]}"
            # Hom takes a band only in the canonical form from_letters gives
            canonical = exc is None and Band.from_letters(p, word).letters == tuple(word)
            exc = _raised(lambda: hom_dim(p, Band(tuple(word)), other))
            assert (exc is None) == canonical
            assert canonical or type(exc) is InputError
    assert checked > 5000


def test_tuple_built_operands_are_rejected_when_built():
    p = samples.kronecker()
    with pytest.raises(InputError, match="take Letter items"):
        hom_dim(p, StringWord.word([("a", False)]), StringWord.trivial("1"))
    with pytest.raises(InputError, match="take Letter items"):
        hom_dim(p, Band((("a", False), ("b", True))), StringWord.trivial("1"))
    with pytest.raises(InputError, match="take Letter items"):
        canonicalize(StringWord.word([Letter("a"), ("b", True)]))
    # the builders that validate against a presentation read pairs
    assert validate_string(p, [("a", False)]) == StringWord.word([Letter("a")])
    assert Band.from_letters(p, [("a", False), ("b", True)]) == Band(
        (Letter("a"), Letter("b", True)))


def _least_rotation(word, inv=Letter.inv):
    """The least rotation of the cyclic word or of its inverse (its items
    reversed, each through `inv`) and its least period, by brute force over
    every rotation."""
    word = tuple(word)
    inverse = tuple(inv(x) for x in reversed(word))
    n = len(word)
    period = next(d for d in range(1, n + 1) if word[d:] + word[:d] == word)
    return min(w[i:] + w[:i] for w in (word, inverse) for i in range(n)), period


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=9), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_cyclic_form_is_the_least_rotation_and_period(root, power, self_inverse, as_list):
    """On code words, proper powers and words that are a rotation of their
    own inverse among them, the one linear pass agrees with brute force."""
    if self_inverse:
        root = root + [c ^ 1 for c in reversed(root)]
    codes = root * power
    form, period = _cyclic_form(codes if as_list else tuple(codes))
    assert (form, period) == _least_rotation(codes, lambda c: c ^ 1)
    assert type(form) is tuple and len(codes) % period == 0


def test_cyclic_form_on_long_repetitive_words():
    """Words whose least code starts many rotations, the case that made a
    rotation-by-rotation search quadratic."""
    rng = random.Random(11)
    for _ in range(60):
        blocks = [(0, rng.randrange(1, 6)), (0, 3), (0, 2, 3), (1, 0)]
        codes = [c for _ in range(rng.randrange(1, 40)) for c in rng.choice(blocks)]
        codes = codes * rng.choice((1, 1, 2, 3))
        assert _cyclic_form(codes) == _least_rotation(codes, lambda c: c ^ 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_band_operands_outside_the_canonical_form_are_refused(k):
    """Of the rotations of the band (a b-)^k a d c- b-, of its inverse and
    of its powers, only the band itself is a band operand; each other one,
    a rotation that starts at a, the least code, too, is refused with the
    canonical-form message."""
    p = samples.double_kronecker()
    band = parse_band(p, samples.repeated_band(k))
    assert band.text() == samples.repeated_band(k)
    letters = band.letters
    inverse = tuple(l.inv() for l in reversed(letters))
    words = {w[i:] + w[:i] for e in (1, 2, 3) for w in (letters * e, inverse * e)
             for i in range(len(w))}
    assert len(words) == 6 * len(letters)
    for word in words:
        host = Band(word)
        if word == letters:
            assert _operand(p, host)[2] is True
            continue
        message = (f"not a band of this presentation: {host!r} is not in the canonical "
                   "form of Band.from_letters")
        for call in (lambda: _operand(p, host), lambda: hom_dim(p, host, band)):
            with pytest.raises(InputError) as exc:
                call()
            assert str(exc.value) == message


def test_band_canonical_form_is_the_least_rotation_on_the_corpus():
    checked = 0
    for p in gentle_corpus.presentations():
        if detect_band(p) is None:
            continue
        for w in enumerate_strings(p, 6):
            try:
                band = Band.from_letters(p, w.letters)
            except ValueError:
                continue
            checked += 1
            least = _least_rotation(w.letters)[0]
            assert band.letters == least
            inverse = w.inv().letters
            assert Band.from_letters(p, inverse[1:] + inverse[:1]) == band
    assert checked > 500


def test_letter_graph_is_derived_once():
    p, fresh = samples.fix_a(), samples.fix_a()
    table = _letter_table(p)
    assert _letter_table(p) is table
    detect_band(p)
    enumerate_strings(p)
    is_valid_string(p, parse_string(p, "b- c d c- b"))
    hooks(p, parse_string(p, "b- c d c- b"))
    assert _letter_table(p) is table
    assert p == fresh
    assert hash(p) == hash(fresh)
    assert repr(p) == repr(fresh)


def test_letter_table_codes_and_successors_on_the_corpus():
    for p in gentle_corpus.presentations():
        table = _letter_table(p)
        letters = table.letters
        assert list(letters) == all_letters(p)
        pairs = [(l.arrow, l.inverse) for l in letters]
        assert pairs == sorted(pairs)       # code order is (arrow, inverse) order
        for c, l in enumerate(letters):
            assert table.code[l.arrow, l.inverse] == c
            assert letters[c ^ 1] == l.inv()
            assert (table.source[c], table.target[c]) == (letter_source(p, l),
                                                          letter_target(p, l))
            # the valid_pair successors, in code order
            assert [letters[d] for d in table.succ[c]] == [
                m for m in letters if valid_pair(p, l, m) is None]


def test_letter_table_is_stored_once():
    p, fresh = samples.fix_a(), samples.fix_a()
    table = _letter_table(p)
    w = parse_string(p, "b- c d c- b")
    hom_dim(p, w, w)
    window_key(p, w, factor_strings(p, w)[0].window)
    assert _letter_table(p) is table
    assert (p, hash(p), repr(p)) == (fresh, hash(fresh), repr(fresh))

    t = samples.kron_tiling()
    alg = tiling_algebra(t)
    table = _letter_table(alg.presentation)
    arcs = [string_to_arc(t, alg, x) for x in enumerate_strings(alg.presentation, 2)]
    for arc in arcs:
        assert check_permissible(t, alg, arc) is None
        hom_dim_geometric(t, alg, arc, arcs[-1])
    assert _letter_table(alg.presentation) is table


# -- the operand views kept per presentation ------------------------------------


def test_stored_view_does_not_admit_an_equal_ill_typed_record():
    """A record equal to a stored string, but of (arrow, inverse) pairs,
    is refused where it is built, with the constructor's message, and a
    plain tuple equal to it is refused as no operand.  A record built from
    a list of letters keeps them as a tuple, so a later change to the
    list reaches neither the record nor its stored view."""
    p = samples.fix_a()
    good = validate_string(p, [("a", False)])
    assert _operand(p, good) is _operand(p, good)
    with pytest.raises(InputError) as err:
        StringWord("word", None, None, (("a", False),))
    assert str(err.value) == ("letter words and bands take Letter items; "
                              "validate_string and Band.from_letters read "
                              "(arrow, inverse) pairs")
    for call in (lambda: hom_dim(p, tuple(good), good), lambda: hooks(p, tuple(good))):
        with pytest.raises(InputError, match="^expected StringWord or Band, got tuple$"):
            call()
    letters = [Letter("a")]
    listed = StringWord("word", None, None, letters)
    view = _operand(p, listed)
    letters.append(Letter("b"))     # a b is a relation of fix_a
    assert listed == good and type(listed.letters) is tuple
    assert _operand(p, listed) is view == _operand(p, good)


def test_stored_view_is_kept_per_presentation():
    """A string of p that is no string of q is refused on q after p has
    kept its view; so is a band."""
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    p = GentlePresentation.from_data(["1", "2", "3"], arrows, [])
    q = GentlePresentation.from_data(["1", "2", "3"], arrows, [("a", "b")])
    w = parse_string(p, "a b")
    assert _operand(p, w)[1] == ("1", "2", "3")
    assert hom_dim(p, w, w) == 1
    with pytest.raises(InputError) as err:
        hom_dim(q, w, w)
    assert str(err.value) == "not a string of this presentation: <a b>"
    kron, chain = samples.kronecker(), samples.kronecker_chain(1)
    band = parse_band(kron, "a b-")
    assert hom_dim(kron, band, band) == 1
    with pytest.raises(InputError, match="not a band of this presentation"):
        hom_dim(chain, band, band)


def test_operand_store_stays_within_its_bound():
    """Reading three times the bound of fresh operands, by Hom so that each
    entry holds both parts of its match index, keeps the store at or
    below the bound, and every read gives the same view; the parts are
    dropped with their entry, so the operand read first gets new ones
    after the store is cleared."""
    p = samples.kronecker()
    views = _letter_table(p).views
    first = StringWord.trivial("1")
    assert hom_dim(p, first, first) == 1
    entry = _entry(p, first)
    parts = entry.factor, entry.sub
    sizes = set()
    for _ in range(3 * _VIEWS):
        x = StringWord.trivial("1")
        assert hom_dim(p, x, x) == 1 and _operand(p, x) == ((), ("1",), False)
        sizes.add(len(views))
        if len(views) == _VIEWS:
            assert all(e.factor is not None and e.sub is not None for e in views.values())
    assert max(sizes) == _VIEWS and min(sizes) == 1
    assert all(e.factor is not parts[0] and e.sub is not parts[1] for e in views.values())
    assert hom_dim(p, first, first) == 1
    again = _entry(p, first)
    assert again is not entry and again.factor is not parts[0]
    assert (again.factor, again.sub) == parts
