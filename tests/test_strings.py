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
from tilealg.strings import (Band, Letter, StringRejection, StringWord,
                             _letter_table, all_letters, canonicalize, compose,
                             detect_band, enumerate_strings, epsilon_of,
                             is_valid_string, letter_source,
                             letter_target, parse_band, parse_string, sigma_of,
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
    assert w.walk_vertices(fix_a) == ["1", "2", "3", "3", "2", "1"]


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


def test_inverse_relation_rejected(fix_a):
    # (b a)^-1 = a^-1 b^-1 must also be forbidden
    with pytest.raises(StringRejection):
        validate_string(fix_a, [Letter("a", True), Letter("b", True)])


def test_compose_examples(fix_a):
    c = parse_string(fix_a, "c")
    d = parse_string(fix_a, "d")
    assert compose(fix_a, c, d).text() == "c d"
    a = parse_string(fix_a, "a")
    b = parse_string(fix_a, "b")
    assert compose(fix_a, a, b) is None
    # composing with the matching trivial string is the identity
    w = parse_string(fix_a, "b- c d c- b")
    triv = StringWord.trivial(w.target(fix_a), epsilon_of(fix_a, w))
    assert compose(fix_a, w, triv) == w
    triv2 = StringWord.trivial(w.source(fix_a), -sigma_of(fix_a, w))
    assert compose(fix_a, triv2, w) == w


def test_compose_zero_is_input_error(fix_a):
    with pytest.raises(InputError):
        compose(fix_a, StringWord.zero(), parse_string(fix_a, "c"))


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


def test_compose_results_validate(all_fixture_strings):
    for p, v in all_fixture_strings:
        for q, w in all_fixture_strings:
            if p is not q:
                continue
            c = compose(p, v, w)
            if c is not None and c.kind == "word":
                assert is_valid_string(p, c)


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
            exc = _raised(lambda: hom_dim(p, Band(tuple(word)), other))
            assert (exc is None) == (err is None)
            assert err is None or type(exc) is InputError
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


def _least_rotation(letters):
    inverse = tuple(l.inv() for l in reversed(letters))
    return min(w[i:] + w[:i] for w in (letters, inverse) for i in range(len(w)))


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
            least = _least_rotation(w.letters)
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
