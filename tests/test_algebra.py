import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import gentle_corpus
from tilealg import samples
from tilealg.algebra import (GentlePresentation, GentlenessError, InputError,
                             Quiver, check_gentle, load_quiver, parse_quiver)


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


@pytest.mark.parametrize("arrows, relations, message", [
    ([("a", "1")], [], "arrow ('a', '1') is not (id, source, target)"),
    ([("a", "1", "2")], [("a", "a", "a")], "relation ('a', 'a', 'a') is not a pair of arrows"),
    ([5], [], "arrow 5 is not (id, source, target)"),
    (["a12"], [], "arrow 'a12' is not (id, source, target)"),
    ([("a", "1", "2")], [5], "relation 5 is not a pair of arrows"),
    ([("a", "1", "2"), ("b", "2", "1")], ["ab"], "relation 'ab' is not a pair of arrows"),
])
def test_malformed_records_are_input_errors(arrows, relations, message):
    with pytest.raises(InputError) as err:
        GentlePresentation.from_data(["1", "2"], arrows, relations)
    assert str(err.value) == message


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


def _signs_digest():
    h = hashlib.sha256()
    for p in gentle_corpus.presentations():
        h.update(f"{sorted(p.sigma.items())} {sorted(p.epsilon.items())}\n".encode())
    return h.hexdigest()[:16]


def test_signs_are_pinned():
    # recorded while the signs came from a signed union-find
    assert _signs_digest() == "b67ed28ede42d982"


def test_presentation_reprs_are_pinned():
    # the repr shows the sigma and epsilon dicts in their order, which the
    # sign digest sorts away; recorded while the signs were filled vertex
    # by vertex and then put in sorted arrow order
    h = hashlib.sha256()
    for p in gentle_corpus.presentations():
        h.update(f"{p!r}\n".encode())
    assert h.hexdigest()[:16] == "98b1f8ac4cf91fb3"


def test_corpus_signs_satisfy_the_sharpened_conditions():
    """The derived signs of every corpus presentation meet the three sign
    conditions and the sharpened rule sigma(b) == epsilon(a) for ab in I."""
    pairs = 0
    for p in gentle_corpus.presentations():
        assert _sign_conditions_hold(p)
        for a in p.arrows:
            for b in p.arrows_from(p.t(a)):
                pairs += 1
                if (a, b) in p.relations:
                    assert p.sigma[b] == p.epsilon[a]
    assert pairs == 2397


def test_fix_a_sign_relations():
    p = samples.fix_a()
    assert p.sigma["b"] == -p.sigma["c"]
    assert p.epsilon["c"] == -p.epsilon["d"]
    assert p.sigma["c"] == -p.epsilon["a"]
    assert p.sigma["d"] == -p.epsilon["c"]


def test_non_gentle_input_rejected_at_construction():
    # three arrows out of a vertex, and three into one, break (G1)
    for arrows in ([("a", "v", "w"), ("b", "v", "w"), ("c", "v", "w")],
                   [("a", "w", "v"), ("b", "w", "v"), ("c", "w", "v")]):
        with pytest.raises(GentlenessError) as err:
            GentlePresentation.from_data(["v", "w"], arrows, [])
        assert "G1" in {v.axiom for v in err.value.violations}


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


# -- gentleness verdicts pinned on a seeded non-gentle family ---------------

VERDICT_SEED = 20261019


def _non_gentle_family(count=300):
    """Seeded small quivers with random composable relations whose
    verdict is not gentle: up to five vertices (loops and parallel arrows
    allowed) and up to nine arrows."""
    rng = random.Random(VERDICT_SEED)
    family = []
    while len(family) < count:
        vertices = [f"v{i}" for i in range(rng.randint(1, 5))]
        arrows = [(f"a{i}", rng.choice(vertices), rng.choice(vertices))
                  for i in range(rng.randint(1, 9))]
        pairs = [(a, b) for a, _, t in arrows for b, s, _ in arrows if t == s]
        relations = [r for r in pairs if rng.random() < 0.4]
        q = Quiver.from_arrows(vertices, arrows)
        verdict = check_gentle(q, relations)
        if not verdict:
            family.append(verdict)
    return family


def test_gentleness_verdicts_are_pinned():
    family = _non_gentle_family()
    axioms = [{v.axiom for v in verdict.violations} for verdict in family]
    for axiom in ("G1", "G2", "G3", "FD"):
        assert any(axiom in found for found in axioms), axiom
        assert any(found == {axiom} for found in axioms), axiom
    assert sum(len(found) > 1 for found in axioms) >= 50
    h = hashlib.sha256()
    for verdict in family:
        for v in verdict.violations:
            h.update(f"{v.axiom}|{v.message}|{v.witnesses!r}\n".encode())
        h.update(b"--\n")
    # recorded while check_gentle read copied adjacency lists
    assert h.hexdigest()[:16] == "47c3a780f68eda21"
