import hashlib
import itertools
import re

import pytest
from hypothesis import given, strategies as st

import gentle_corpus
from tilealg import samples
from tilealg.algebra import (GentlePresentation, GentlenessError, InputError,
                             Quiver, assign_signs, check_gentle, is_zero_path,
                             load_quiver, parse_quiver)


def test_fix_a_is_gentle():
    q = Quiver.from_arrows(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("d", "3", "3")])
    verdict = check_gentle(q, [("a", "b"), ("b", "a"), ("d", "d")])
    assert verdict.gentle
    assert verdict.violations == ()


def test_linear_a3_gentle():
    q = Quiver.from_arrows(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert check_gentle(q, [])


def test_three_outgoing_arrows_violates_g1():
    q = Quiver.from_arrows(
        ["v", "w"], [("a", "v", "w"), ("b", "v", "w"), ("c", "v", "w")])
    verdict = check_gentle(q, [])
    assert not verdict.gentle
    assert any(v.axiom == "G1" for v in verdict.violations)


def test_g2_violation_two_nonrelation_successors():
    q = Quiver.from_arrows(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")])
    verdict = check_gentle(q, [])
    assert any(v.axiom == "G2" for v in verdict.violations)
    # one relation restores gentleness
    assert check_gentle(q, [("a", "b")]).gentle


def test_g3_violation_two_relations():
    q = Quiver.from_arrows(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")])
    verdict = check_gentle(q, [("a", "b"), ("a", "c")])
    assert any(v.axiom == "G3" for v in verdict.violations)


def test_relation_free_loop_is_infinite_dimensional():
    q = Quiver.from_arrows(["v"], [("d", "v", "v")])
    verdict = check_gentle(q, [])
    assert any(v.axiom == "FD" for v in verdict.violations)
    assert check_gentle(q, [("d", "d")]).gentle


def test_non_composable_relation_is_input_error():
    q = Quiver.from_arrows(["1", "2"], [("a", "1", "2")])
    with pytest.raises(InputError):
        check_gentle(q, [("a", "a")])


def test_relabeling_stability():
    base = [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3"), ("d", "3", "3")]
    rels = [("a", "b"), ("b", "a"), ("d", "d")]
    for perm in itertools.permutations(["1", "2", "3"]):
        m = dict(zip(["1", "2", "3"], perm))
        q = Quiver.from_arrows(perm, [(a, m[s], m[t]) for a, s, t in base])
        assert check_gentle(q, rels).gentle


def _sign_conditions_hold(p):
    q = p.quiver
    for v in q.vertices:
        outs = q.arrows_from(v)
        for b1, b2 in itertools.combinations(outs, 2):
            assert p.sigma[b1] == -p.sigma[b2]
        ins = q.arrows_into(v)
        for a1, a2 in itertools.combinations(ins, 2):
            assert p.epsilon[a1] == -p.epsilon[a2]
    for a in q.arrows:
        for b in q.arrows_from(q.t(a)):
            if (a, b) not in p.relations:
                assert p.sigma[b] == -p.epsilon[a]
    return True


@pytest.mark.parametrize("make", [samples.a2, samples.fix_a, samples.fix_b,
                                  samples.loop_algebra, samples.kronecker])
def test_assigned_signs_satisfy_the_conditions(make):
    assert _sign_conditions_hold(make())


def test_assign_signs_deterministic():
    p = samples.fix_a()
    s2, e2 = assign_signs(p.quiver, p.relations)
    assert s2 == p.sigma and e2 == p.epsilon


def _signs_digest():
    h = hashlib.sha256()
    for p in gentle_corpus.presentations():
        h.update(f"{sorted(p.sigma.items())} {sorted(p.epsilon.items())}\n".encode())
    return h.hexdigest()[:16]


def test_signs_are_pinned():
    # recorded while the signs came from a signed union-find
    assert _signs_digest() == "b67ed28ede42d982"


def test_assign_signs_rejects_three_arrows_out_of_a_vertex():
    q = Quiver.from_arrows(
        ["v", "w"], [("a", "v", "w"), ("b", "v", "w"), ("c", "v", "w")])
    with pytest.raises(AssertionError):
        assign_signs(q, [])


def test_fix_a_sign_relations():
    p = samples.fix_a()
    assert p.sigma["b"] == -p.sigma["c"]
    assert p.epsilon["c"] == -p.epsilon["d"]
    assert p.sigma["c"] == -p.epsilon["a"]
    assert p.sigma["d"] == -p.epsilon["c"]


def test_non_gentle_input_rejected_at_construction():
    with pytest.raises(GentlenessError):
        GentlePresentation.from_data(
            ["v", "w"], [("a", "v", "w"), ("b", "v", "w"), ("c", "v", "w")], [])


def test_is_zero_path():
    p = samples.fix_a()
    assert is_zero_path(p, ["a", "b"])
    assert not is_zero_path(p, ["c", "d"])
    assert not is_zero_path(p, [])
    with pytest.raises(InputError):
        is_zero_path(p, ["a", "d"])


def test_parse_quiver_roundtrip():
    text = """
    quiver
    vertex 1
    vertex 2
    arrow a 1 2   # the only arrow
    end
    """
    p = parse_quiver(text)
    assert p.vertices == ["1", "2"]
    assert p.arrows == ["a"]


@given(st.integers(2, 6), st.data())
def test_random_linear_quivers_gentle(n, data):
    # orientations of an A_n quiver are always gentle with no relations
    verts = [str(i) for i in range(n)]
    arrows = []
    for i in range(n - 1):
        flip = data.draw(st.booleans())
        arrows.append((f"a{i}", verts[i + 1] if flip else verts[i],
                       verts[i] if flip else verts[i + 1]))
    q = Quiver.from_arrows(verts, arrows)
    assert check_gentle(q, []).gentle
    p = GentlePresentation.from_data(verts, arrows, [])
    assert _sign_conditions_hold(p)


def test_load_quiver_reports_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.quiver"
    path.write_bytes(b"quiver\n\xff\xfe\nend\n")
    with pytest.raises(InputError, match=f"^cannot read {re.escape(str(path))}: "
                                         "'utf-8' codec can't decode"):
        load_quiver(path)
