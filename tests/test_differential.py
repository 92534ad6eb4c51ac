"""Differential checks on randomized tiling algebras.

The named fixtures are small; the random tiling generator produces a
spread of gentle algebras (discs of varying size, annuli with type I
and II tiles, Kronecker-like bands) on which the combinatorial routes
are compared against structural facts and the matrix oracle.
"""

import random

from tilealg import samples
from tilealg.artheory import hooks, is_injective_string, verify_ar_middle
from tilealg.homs import hom_dim
from tilealg.oracle import (BandModuleSpec, hom_dim_oracle, realize_band_module,
                            realize_string_module)
from tilealg.strings import detect_band, enumerate_strings, parse_band
from tilealg.surface import tiling_algebra


def _algebras(seed, count):
    for t in samples.random_tilings(seed, count):
        yield tiling_algebra(t).presentation


def test_random_algebras_ar_middles_against_oracle():
    for p in _algebras(424242, 10):
        for w in enumerate_strings(p, max_len=4):
            if not is_injective_string(p, w):
                assert verify_ar_middle(p, w)


def test_random_bandfree_algebras_have_vertex_many_injectives():
    for p in _algebras(515151, 12):
        if detect_band(p) is not None or not p.vertices:
            continue
        inj = [w for w in enumerate_strings(p) if is_injective_string(p, w)]
        assert len(inj) == len(p.vertices)


def test_random_algebras_hom_matches_oracle():
    rng = random.Random(616161)
    for p in _algebras(616161, 8):
        words = enumerate_strings(p, max_len=4)
        if not words:
            continue
        reps = {w: realize_string_module(p, w) for w in words}
        for _ in range(25):
            v = rng.choice(words)
            w = rng.choice(words)
            assert hom_dim(p, v, w) == hom_dim_oracle(p, reps[v], reps[w]), \
                (v.text(), w.text())


def test_random_algebras_two_sided_hooks_commute():
    for p in _algebras(717171, 12):
        for w in enumerate_strings(p, max_len=5):
            hooks(p, w)  # asserts (w_l)_r == (w_r)_l internally


def test_random_tilings_geometric_hom_matches_combinatorial():
    from tilealg.arcs import hom_dim_geometric, string_to_arc
    rng = random.Random(818181)
    for t in samples.random_tilings(818181, 6):
        alg = tiling_algebra(t)
        p = alg.presentation
        words = enumerate_strings(p, max_len=3)
        if not words:
            continue
        arcs = {w: string_to_arc(t, alg, w) for w in words}
        for _ in range(15):
            v = rng.choice(words)
            w = rng.choice(words)
            assert hom_dim_geometric(t, alg, arcs[v], arcs[w]) == \
                hom_dim(p, v, w), (v.text(), w.text())


def test_repeated_band_hom_matches_oracle():
    """The band (a b-)^k a d c- b-, whose codes repeat, for k = 1..3: Hom
    with itself and with every string of length <= 4, on either side."""
    p = samples.double_kronecker()
    strings = enumerate_strings(p, max_len=4)
    reps = {s: realize_string_module(p, s) for s in strings}
    for k in (1, 2, 3):
        b = parse_band(p, samples.repeated_band(k))
        rep = realize_band_module(p, BandModuleSpec(b, 1, 1))
        assert hom_dim(p, b, b) == hom_dim_oracle(p, rep, rep)
        for s in strings:
            assert hom_dim(p, b, s) == hom_dim_oracle(p, rep, reps[s]), (k, s.text())
            assert hom_dim(p, s, b) == hom_dim_oracle(p, reps[s], rep), (k, s.text())
