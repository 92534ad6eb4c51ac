"""Differential checks on randomized tiling algebras.

The named fixtures are small; the random tiling generator produces a
spread of gentle algebras (discs of varying size, annuli with type I
and II tiles, Kronecker-like bands) on which the route agreements of
scripts/agreements.py run, and on which the combinatorial routes are
compared against the matrix oracle.
"""

from agreements import agree
from tilealg import samples
from tilealg.homs import hom_dim
from tilealg.oracle import (BandModuleSpec, hom_dim_oracle, realize_band_module,
                            realize_string_module)
from tilealg.strings import enumerate_strings, parse_band
from tilealg.surface import tiling_algebra


def _algebras(seed, count):
    for t in samples.random_tilings(seed, count):
        yield tiling_algebra(t).presentation


def test_random_algebras_ar_middles_against_oracle():
    for p in _algebras(424242, 10):
        agree("ar_middles", p, bound=4)


def test_random_bandfree_algebras_have_vertex_many_injectives():
    for p in _algebras(515151, 12):
        agree("injectives", p)


def test_random_algebras_hom_matches_oracle():
    for p in _algebras(616161, 8):
        agree("hom_oracle", p, bound=4)


def test_random_algebras_two_sided_hooks_commute():
    for p in _algebras(717171, 12):
        agree("hooks", p, bound=5)


def test_random_tilings_geometric_hom_matches_combinatorial():
    for t in samples.random_tilings(818181, 6):
        agree("geometric_hom", t, tiling_algebra(t), bound=3)


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
