"""Acceptance suite: one criterion per test, exact tolerances.

Each criterion prints a single pass line, visible with `pytest -s`.
"""

import pytest

from tilealg import samples
from tilealg.algebra import check_gentle
from tilealg.arcs import (TrivialArc, arc_to_string, check_permissible,
                          crossing_word, intersection_number,
                          intersection_vector, normalize, pivot_move,
                          rep_type_geometric, string_to_arc)
from tilealg.artheory import (HOOK_ADDED, dimension_additivity_holds,
                              hook_left, hook_right, hooks, tau_inverse,
                              verify_ar_middle)
from tilealg.homs import (factor_count_bruteforce, factor_strings, hom_dim,
                          hom_dim_detailed, sub_count_bruteforce, substrings,
                          window_key)
from tilealg.oracle import (BandModuleSpec, hom_dim_oracle,
                            realize_band_module, realize_string_module)
from tilealg.strings import (Letter, StringWord, canonicalize, detect_band,
                             enumerate_strings, parse_string)
from tilealg.surface import (collapse_presentation, complete_to_triangulation,
                             presentations_isomorphic, tiling_algebra)


def _strings_up_to(p, bound):
    return enumerate_strings(p, max_len=bound)


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
    checked = 0
    for name, p in samples.algebra_fixtures().items():
        words = _strings_up_to(p, 8)
        reps = {w: realize_string_module(p, w) for w in words}
        for v in words:
            for w in words:
                assert hom_dim(p, v, w) == hom_dim_oracle(p, reps[v], reps[w]), \
                    (name, v.text(), w.text())
                checked += 1
        band = detect_band(p)
        if band is not None:
            for lam in (1, 2):
                band_rep = realize_band_module(p, BandModuleSpec(band, 1, lam))
                for v in words:
                    assert hom_dim(p, v, band) == \
                        hom_dim_oracle(p, reps[v], band_rep)
                    assert hom_dim(p, band, v) == \
                        hom_dim_oracle(p, band_rep, reps[v])
                    checked += 2
    return f"{checked} hom pairs agree with the oracle exactly"


def criterion_3_ar_theory():
    """Two-sided hooks commute, dimensions add up, middles verified."""
    checked = 0
    for name, p in samples.algebra_fixtures().items():
        for w in _strings_up_to(p, 8):
            h = hooks(p, w)
            if not h.w_left.is_zero and not h.w_right.is_zero:
                assert hook_right(p, h.w_left).string == \
                    hook_left(p, h.w_right).string
            if h.w_both.is_zero:
                assert tau_inverse(p, w) is None
                continue
            assert dimension_additivity_holds(p, w)
            assert verify_ar_middle(p, w)
            assert canonicalize(tau_inverse(p, w)) == canonicalize(h.w_both)
            checked += 1
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


def criterion_5_bijection():
    """Arc <-> string round trip and intersection = dimension vectors."""
    checked = 0
    for name, t in samples.tiled_fixtures().items():
        alg = tiling_algebra(t)
        p = alg.presentation
        for w in _strings_up_to(p, 8):
            arc = string_to_arc(t, alg, w)
            assert arc_to_string(t, alg, arc) == w, (name, w.text())
            assert normalize(t, arc) == arc
            rep = realize_string_module(p, w)
            assert intersection_vector(t, arc) == rep.dim_vector(p)
            checked += 1
    return f"round trip and intersection vectors exact for {checked} strings"


def criterion_6_pivot_equals_hook():
    """Pivot moves realize hooks, covering all four local cases."""
    cases = set()
    checked = 0
    for name, t in samples.tiled_fixtures().items():
        alg = tiling_algebra(t)
        p = alg.presentation
        for w in _strings_up_to(p, 6):
            arc = string_to_arc(t, alg, w)
            start_kind = t.tiles[t.face_of[arc.darts[0]][0]].kind
            for end, hook in (("s", hook_left), ("t", hook_right)):
                moved = pivot_move(t, alg, arc, end)
                want = hook(p, w).string
                got = StringWord.zero() if isinstance(moved, TrivialArc) \
                    else arc_to_string(t, alg, moved)
                assert got == want, (name, w.text(), end, got, want)
                checked += 1
                if end == "s":
                    tag = hook(p, w).tag
                    if tag == HOOK_ADDED:
                        cases.add({"m-gon": "case-1", "type-I": "case-2",
                                   "type-II": "case-3"}[start_kind])
                    else:
                        cases.add("cohook")
    assert cases == {"case-1", "case-2", "case-3", "cohook"}
    return f"{checked} pivot moves match hooks; cases covered: " + \
        ", ".join(sorted(cases))


def criterion_7_collapse_lemma():
    """Completion then collapse reproduces the tiling algebra."""
    for name, t in samples.tiled_fixtures().items():
        comp = complete_to_triangulation(t)
        assert all(len(x.walk) == 3 for x in comp.tiling.tiles)
        collapsed = collapse_presentation(tiling_algebra(comp.tiling),
                                          t.arc_ids())
        assert presentations_isomorphic(collapsed, tiling_algebra(t)), name
    return "collapse(complete(t), arcs(t)) isomorphic on all tiled fixtures"


def criterion_8_representation_type():
    """Geometric rep type agrees with band detection; witness checked."""
    for name, t in samples.tiled_fixtures().items():
        alg = tiling_algebra(t)
        kind, witness = rep_type_geometric(t, alg)
        band = detect_band(alg.presentation)
        assert (kind == "infinite") == (band is not None), name
        if name == "kron":
            assert kind == "infinite"
            assert crossing_word(t, witness) == ("x", "y")
            assert check_permissible(t, alg, witness) is None
            assert intersection_number(t, witness) >= 2
        else:
            assert kind == "finite"
    return "rep-type infinite only on kron, with permissible witness (x y)"


def criterion_9_random_structural():
    """>= 100 random tilings: gentle algebras, cycles carry relations."""
    tilings = samples.random_tilings(20260810, 120)
    assert len(tilings) >= 100
    for t in tilings:
        alg = tiling_algebra(t)
        verdict = check_gentle(alg.presentation.quiver,
                               alg.presentation.relations)
        assert verdict.gentle
    return f"{len(tilings)} random tilings: all gentle, all cycles have relations"


def criterion_10_window_self_consistency():
    """Windowed Fac/Sub counts equal the brute-force index-pair scan."""
    checked = 0
    for name, p in samples.algebra_fixtures().items():
        for w in _strings_up_to(p, 8):
            assert len(factor_strings(p, w)) == factor_count_bruteforce(p, w)
            assert len(substrings(p, w)) == sub_count_bruteforce(p, w)
            checked += 1
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
