import hashlib

import pytest

import gentle_corpus
from tilealg import samples
from tilealg.algebra import InputError
from tilealg.artheory import (COHOOK_REMOVED, HOOK_ADDED, ZERO, ar_quiver_dot,
                              ar_sequence, build_ar_quiver,
                              dimension_additivity_holds, dimension_vector,
                              hook_left, hook_right, hooks,
                              is_injective_string, tau_inverse)
from tilealg.strings import (Letter, StringWord, canonicalize, detect_band,
                             enumerate_strings, parse_string)


def all_strings(p, bound=None):
    if bound is None and detect_band(p) is not None:
        bound = 8
    return enumerate_strings(p, max_len=bound)


def test_hook_left_a2_maximal_direct_is_zero():
    p = samples.a2()
    side = hook_left(p, parse_string(p, "a"))
    assert side.string.is_zero
    assert side.tag == ZERO


def test_hook_left_fix_a_trivial_at_3():
    p = samples.fix_a()
    # the sign admitting c . w is epsilon(c)
    w = StringWord.trivial("3", p.epsilon["c"])
    side = hook_left(p, w)
    assert side.tag == HOOK_ADDED
    assert side.string == parse_string(p, "b- c")


def test_hook_left_loop_algebra_trivial():
    p = samples.loop_algebra()
    w = StringWord.trivial("v", p.epsilon["d"])
    side = hook_left(p, w)
    assert side.tag == HOOK_ADDED
    assert side.string == parse_string(p, "d")


def test_hook_right_a2_simple_socle():
    # no arrow leaves vertex 2, so the epsilon(a)-signed trivial string
    # has w_r = 0 (its mirror carries the hook as w_r = a^{-1} instead)
    p = samples.a2()
    side = hook_right(p, StringWord.trivial("2", p.epsilon["a"]))
    assert side.string.is_zero
    mirror = hook_right(p, StringWord.trivial("2", -p.epsilon["a"]))
    assert mirror.string.text() == "a-"


def test_hook_right_loop_d_is_trivial():
    p = samples.loop_algebra()
    side = hook_right(p, parse_string(p, "d"))
    assert side.tag == COHOOK_REMOVED
    assert side.string == StringWord.trivial("v", -p.sigma["d"])


def test_hooks_reject_zero_string():
    p = samples.a2()
    with pytest.raises(InputError):
        hook_left(p, StringWord.zero())


def test_hook_operands_are_checked_against_the_presentation():
    p = samples.kronecker()
    operands = [StringWord.trivial("9"), StringWord.word([Letter("z")]),
                StringWord.word([Letter("a"), Letter("a", True)])]
    for w in operands:
        for query in (hook_left, hook_right, hooks, tau_inverse, ar_sequence,
                      is_injective_string):
            with pytest.raises(InputError, match="not a string of this presentation"):
                query(p, w)


def test_ar_sequence_a2():
    p = samples.a2()
    w = StringWord.trivial("2", p.epsilon["a"])
    seq = ar_sequence(p, w)
    assert seq is not None
    assert [m.text() for m in seq.middle] == ["a"]
    assert canonicalize(seq.right).text() == "triv 1 +"


def test_ar_sequence_loop_simple():
    p = samples.loop_algebra()
    w = StringWord.trivial("v", p.epsilon["d"])
    seq = ar_sequence(p, w)
    assert [m.text() for m in seq.middle] == ["d"]
    assert canonicalize(seq.right).text() == "triv v +"


def test_loop_d_is_injective():
    p = samples.loop_algebra()
    d = parse_string(p, "d")
    assert is_injective_string(p, d)
    assert tau_inverse(p, d) is None
    assert ar_sequence(p, d) is None


def test_tau_inverse_matches_ar_sequence_everywhere():
    for p in samples.algebra_fixtures().values():
        for w in all_strings(p, bound=6):
            seq = ar_sequence(p, w)
            got = tau_inverse(p, w)
            if seq is None:
                assert got is None
            else:
                assert got == seq.right


def test_two_sided_hook_agrees_both_ways():
    for p in samples.algebra_fixtures().values():
        for w in all_strings(p, bound=6):
            h = hooks(p, w)
            if not h.w_left.is_zero and not h.w_right.is_zero:
                assert hook_right(p, h.w_left).string == hook_left(p, h.w_right).string


def test_dimension_additivity_all_non_injectives():
    for p in samples.algebra_fixtures().values():
        for w in all_strings(p, bound=6):
            if not is_injective_string(p, w):
                assert dimension_additivity_holds(p, w)


def test_injectivity_count_matches_vertex_count():
    # a gentle algebra has exactly |Q_0| indecomposable injectives
    for p in [samples.a2(), samples.fix_a(), samples.fix_b(),
              samples.loop_algebra()]:
        inj = [w for w in enumerate_strings(p) if is_injective_string(p, w)]
        assert len(inj) == len(p.vertices)


def test_build_ar_quiver_a2():
    p = samples.a2()
    ar = build_ar_quiver(p)
    texts = [w.text() for w in ar.nodes]
    assert texts == ["triv 1 +", "triv 2 +", "a"]
    assert {(a.text(), b.text()) for a, b in ar.edges} == {
        ("triv 2 +", "a"), ("a", "triv 1 +")}
    assert [(a.text(), b.text()) for a, b in ar.tau_pairs] == [
        ("triv 2 +", "triv 1 +")]


def test_build_ar_quiver_loop():
    p = samples.loop_algebra()
    ar = build_ar_quiver(p)
    assert [w.text() for w in ar.nodes] == ["triv v +", "d"]
    assert {(a.text(), b.text()) for a, b in ar.edges} == {
        ("triv v +", "d"), ("d", "triv v +")}
    assert [(a.text(), b.text()) for a, b in ar.tau_pairs] == [
        ("triv v +", "triv v +")]


def test_build_ar_quiver_fix_b_matches_display():
    p = samples.fix_b()
    ar = build_ar_quiver(p)
    assert len(ar.nodes) == 12
    assert len(ar.edges) == 16
    assert len(ar.tau_pairs) == 8
    # the AR translate, verified independently through Tr(D(-)) and the
    # matrix oracle; projectives P1..P4 = bcd, cd, a^-d, 1_4 never occur
    # as translates
    tau = {a.text(): b.text() for a, b in ar.tau_pairs}
    assert tau == {
        "triv 1 +": "d",
        "triv 2 +": "triv 1 +",
        "triv 3 +": "triv 2 +",
        "triv 4 +": "a",
        "a- d": "triv 3 +",
        "c": "b",
        "d": "c",
        "c d": "b c",
    }
    projectives = {"b c d", "c d", "a- d", "triv 4 +"}
    assert projectives.isdisjoint(tau.values())


def test_build_ar_quiver_rejects_bands():
    with pytest.raises(InputError):
        build_ar_quiver(samples.kronecker())


def test_dot_export_shape():
    ar = build_ar_quiver(samples.a2())
    dot = ar_quiver_dot(ar)
    assert dot.startswith("digraph")
    assert '"triv 2 +" -> "a"' in dot
    assert "style=dashed" in dot


def test_dimension_vector_counts_visits():
    p = samples.fix_a()
    w = parse_string(p, "b- c d c- b")
    assert dimension_vector(p, w) == {"1": 2, "2": 2, "3": 2}


def _hooks_digest():
    h = hashlib.sha256()
    for p in gentle_corpus.presentations():
        for w0 in enumerate_strings(p, max_len=4):
            for w in (w0, w0.inv()):
                left, right = hook_left(p, w), hook_right(p, w)
                h.update(f"{left.tag} {left.string.text()} | "
                         f"{right.tag} {right.string.text()}\n".encode())
    return h.hexdigest()[:16]


def test_hooks_are_pinned():
    # recorded while the hook arrow and the maximal direct string came
    # from scans of the arrows at a vertex
    assert _hooks_digest() == "17c11c0dae220311"
