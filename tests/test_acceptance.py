"""Acceptance suite: one criterion per test, exact tolerances.

Each criterion prints a single pass line, visible with `pytest -s`.
"""

import pytest

from agreements import agree
from tilealg import samples
from tilealg.arcs import crossing_word, intersection_number, rep_type_geometric, string_to_arc
from tilealg.artheory import HOOK_ADDED, hook_left
from tilealg.homs import hom_dim_detailed, window_key
from tilealg.strings import Letter, StringWord, canonicalize, enumerate_strings, parse_string
from tilealg.surface import tiling_algebra


def criterion_1_paper_hom_value():
    """Section 3.3 endomorphism count of w = b^-1 c d c^-1 b."""
    p = samples.fix_a()
    w = parse_string(p, "b- c d c- b")
    comp = hom_dim_detailed(p, w, w)
    assert comp.dim == 2
    full = ("word",) + tuple((l.arrow, l.inverse) for l in w.letters)
    bc = ("word", ("b", True), ("c", False))
    middles = sorted(window_key(p, w, pr.factor.window) for pr in comp.pairs)
    assert middles == sorted([full, bc])
    pair_full = next(pr for pr in comp.pairs
                     if window_key(p, w, pr.factor.window) == full)
    assert pair_full.factor.window.length == 5 == pair_full.sub.window.length
    assert pair_full.orientation == "equal"
    pair_bc = next(pr for pr in comp.pairs
                   if window_key(p, w, pr.factor.window) == bc)
    f, s = pair_bc.factor, pair_bc.sub
    assert (f.window.start, f.window.length) == (0, 2)
    assert w.letters[f.window.right_flank] == Letter("d")
    assert (s.window.start, s.window.length) == (3, 2)
    assert w.letters[s.window.left_flank] == Letter("d")
    assert pair_bc.orientation == "inverse"
    return "hom(w,w) = 2 with the (e=w, e=w) and e=b-c admissible pairs"


def criterion_2_oracle_equivalence():
    """Combinatorial hom equals the F_5 intertwiner dimension."""
    checked = sum(agree("hom_oracle", p, bound=8)
                  for p in samples.algebra_fixtures().values())
    return f"{checked} hom pairs agree with the oracle exactly"


def criterion_3_ar_theory():
    """Two-sided hooks commute, dimensions add up, middles verified."""
    checked = 0
    for p in samples.algebra_fixtures().values():
        agree("hooks", p, bound=8)
        checked += agree("ar_middles", p, bound=8)
    return f"AR data verified for {checked} non-injective strings"


def criterion_4_fix_b_reproduction():
    """The twelve displayed string labels and the 12-node AR quiver."""
    p = samples.fix_b()
    expected = {
        StringWord.trivial("1"), StringWord.trivial("2"),
        StringWord.trivial("3"), StringWord.trivial("4"),
        parse_string(p, "a"), parse_string(p, "b"),
        parse_string(p, "c"), parse_string(p, "d"),
        parse_string(p, "b c"), parse_string(p, "c d"),
        parse_string(p, "b c d"), parse_string(p, "a- d"),
    }
    got = set(enumerate_strings(p))
    assert got == {canonicalize(w) for w in expected}
    from tilealg.artheory import build_ar_quiver
    ar = build_ar_quiver(p)
    assert len(ar.nodes) == 12
    return "FIX-B reconstruction yields exactly the 12 labels; AR quiver has 12 nodes"


def _tiled_fixtures():
    return [(t, tiling_algebra(t)) for t in samples.tiled_fixtures().values()]


def criterion_5_bijection():
    """Arc <-> string round trip and intersection = dimension vectors."""
    checked = 0
    for t, alg in _tiled_fixtures():
        checked += agree("round_trip", t, alg, bound=8)
        agree("crossings", t, alg, bound=8)
    return f"round trip and intersection vectors exact for {checked} strings"


def criterion_6_pivot_equals_hook():
    """Pivot moves realize hooks, covering all four local cases."""
    cases = set()
    checked = 0
    for t, alg in _tiled_fixtures():
        p = alg.presentation
        checked += 2 * agree("pivots", t, alg, bound=6)
        for w in enumerate_strings(p, max_len=6):
            start = string_to_arc(t, alg, w).darts[0]
            kind = t.tiles[t.face_of[start][0]].kind
            cases.add({"m-gon": "case-1", "type-I": "case-2", "type-II": "case-3"}[kind]
                      if hook_left(p, w).tag == HOOK_ADDED else "cohook")
    assert cases == {"case-1", "case-2", "case-3", "cohook"}
    return f"{checked} pivot moves match hooks; cases covered: " + \
        ", ".join(sorted(cases))


def criterion_7_collapse_lemma():
    """Completion then collapse reproduces the tiling algebra."""
    for t, alg in _tiled_fixtures():
        agree("collapse", t, alg)
    return "collapse(complete(t), arcs(t)) isomorphic on all tiled fixtures"


def criterion_8_representation_type():
    """Geometric rep type agrees with band detection; witness checked."""
    for name, t in samples.tiled_fixtures().items():
        alg = tiling_algebra(t)
        agree("rep_type", t, alg)
        kind, witness = rep_type_geometric(t, alg)
        assert kind == ("infinite" if name == "kron" else "finite"), name
        if name == "kron":
            assert crossing_word(t, witness) == ("x", "y")
            assert intersection_number(t, witness) >= 2
    return "rep-type infinite only on kron, with permissible witness (x y)"


def criterion_9_random_structural():
    """>= 100 random tilings: gentle algebras, cycles carry relations."""
    tilings = samples.random_tilings(20260810, 120)
    assert len(tilings) >= 100
    for t in tilings:
        agree("fans", t, tiling_algebra(t))
    return f"{len(tilings)} random tilings: all gentle, all cycles have relations"


def criterion_10_window_self_consistency():
    """Windowed Fac/Sub counts equal the brute-force index-pair scan."""
    checked = sum(agree("windows", p, bound=8) for p in samples.algebra_fixtures().values())
    return f"window counts match brute force for {checked} strings"


CRITERIA = [
    criterion_1_paper_hom_value,
    criterion_2_oracle_equivalence,
    criterion_3_ar_theory,
    criterion_4_fix_b_reproduction,
    criterion_5_bijection,
    criterion_6_pivot_equals_hook,
    criterion_7_collapse_lemma,
    criterion_8_representation_type,
    criterion_9_random_structural,
    criterion_10_window_self_consistency,
]


@pytest.mark.parametrize("idx", range(1, len(CRITERIA) + 1))
def test_acceptance_criterion(idx):
    fn = CRITERIA[idx - 1]
    try:
        message = fn()
    except AssertionError:
        print(f"[acceptance] criterion {idx}: FAIL")
        raise
    print(f"[acceptance] criterion {idx}: PASS — {message}")
