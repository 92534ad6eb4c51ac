"""The stored arrow adjacency and the letter table's successors against
the all-arrow and all-letter-pair scans they replace."""

from tilealg import samples
from tilealg.algebra import Quiver
from tilealg.strings import (StringWord, _letter_table, all_letters,
                             canonicalize, enumerate_strings, valid_pair)
from tilealg.surface import tiling_algebra


def _presentations():
    ps = list(samples.algebra_fixtures().values())
    ps += [tiling_algebra(t).presentation for t in samples.tiled_fixtures().values()]
    ps += [tiling_algebra(t).presentation for t in samples.random_tilings(7, 40)]
    ps.append(samples.kronecker_chain(12))
    return ps


def test_stored_adjacency_matches_arrow_scan():
    for p in _presentations():
        q = p.quiver
        arrows = sorted(q.sources)
        assert q.arrows == p.arrows == arrows
        for v in sorted(q.vertices) + ["not-a-vertex"]:
            outs = [a for a in arrows if q.sources[a] == v]
            ins = [a for a in arrows if q.targets[a] == v]
            assert q.arrows_from(v) == p.arrows_from(v) == outs
            assert q.arrows_into(v) == p.arrows_into(v) == ins


def test_adjacency_lists_are_fresh_copies():
    q = samples.fix_a().quiver
    q.arrows.append("z")
    q.arrows_from("2").clear()
    q.arrows_into("1").append("z")
    assert q.arrows == ["a", "b", "c", "d"]
    assert q.arrows_from("2") == ["b", "c"]
    assert q.arrows_into("1") == ["b"]


def test_stored_adjacency_leaves_equality_and_hash_alone():
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    q1 = Quiver.from_arrows(["1", "2", "3"], arrows)
    q2 = Quiver.from_arrows(["3", "2", "1"], reversed(arrows))
    assert q1 == q2 and hash(q1) == hash(q2)
    assert "_arrows" not in repr(q1) and "_out" not in repr(q1)


def _letter_graph_reference(p):
    letters = all_letters(p)
    return {l1: [l2 for l2 in letters if valid_pair(p, l1, l2) is None]
            for l1 in letters}


def _enumerate_reference(p, max_len):
    found = {canonicalize(StringWord.trivial(v)) for v in p.vertices}
    frontier = [StringWord.word((l,)) for l in all_letters(p)]
    for _ in range(max_len):
        found.update(canonicalize(w) for w in frontier)
        frontier = [StringWord.word(w.letters + (l2,)) for w in frontier
                    for l2 in all_letters(p) if valid_pair(p, w.letters[-1], l2) is None]
    # trivial strings (length 0) by vertex, then words by length and letters
    return sorted(found, key=lambda w: (len(w), w._key()))


def test_letter_graph_matches_all_pairs_reference():
    for p in _presentations():
        # same successors in the same order, codes in all_letters order
        table = _letter_table(p)
        decoded = {table.letters[c]: [table.letters[d] for d in succ]
                   for c, succ in enumerate(table.succ)}
        assert list(decoded.items()) == list(_letter_graph_reference(p).items())
        assert all(type(succ) is tuple and len(succ) <= 2 for succ in table.succ)


def test_enumeration_matches_all_pairs_reference():
    for p in _presentations():
        assert enumerate_strings(p, 4) == _enumerate_reference(p, 4)
