"""Every route agreement of scripts/agreements.py in one sweep, at each
agreement's own bound: the arcs side on the tiled fixtures and the
distinct seeded random tilings below, the algebra side on the algebra
fixtures and those tilings' distinct presentations.  Each agreement's
check count is held to a floor, so an input that stops being compared
fails too, and a new agreement fails until it is given one."""

import functools

import pytest

from agreements import AGREEMENTS, check
from tilealg import samples
from tilealg.surface import tiling_algebra

# (seed, count) of samples.random_tilings: 239 tilings, 158 distinct texts
SEEDS = [(314159, 14), (99, 12), (7, 40), (818181, 6), (20260810, 120), (424242, 10),
         (515151, 12), (616161, 8), (717171, 12)]

FLOORS = {"round_trip": 1894, "reverse": 1894, "crossings": 1894, "pivots": 1894,
          "pivots_commute": 398, "tau": 1894, "geometric_hom": 10439, "rep_type": 162,
          "collapse": 162, "fans": 162, "hom_oracle": 9441, "hooks": 730,
          "ar_middles": 426, "injectives": 72, "windows": 732}


@functools.cache
def _contexts():
    """{"arcs": [(text, (t, alg))], "algebra": [(repr(p), (p,))]}, one per
    distinct tiling text and per distinct presentation."""
    tilings = {t.text(): t for t in samples.tiled_fixtures().values()}
    for seed, count in SEEDS:
        for t in samples.random_tilings(seed, count):
            tilings.setdefault(t.text(), t)
    tiled = [(text, (t, tiling_algebra(t))) for text, t in tilings.items()]
    algebras = {}
    for p in [alg.presentation for _, (t, alg) in tiled] + list(
            samples.algebra_fixtures().values()):
        algebras.setdefault(repr(p), (p,))
    return {"arcs": tiled, "algebra": list(algebras.items())}


def test_the_sweep_has_its_inputs():
    assert [len(_contexts()[side]) for side in ("arcs", "algebra")] == [162, 74]


@pytest.mark.parametrize("name", sorted(AGREEMENTS))
def test_agreement_holds_on_the_sweep(name):
    total = 0
    for text, context in _contexts()[AGREEMENTS[name].side]:
        checks, reason = check(name, *context)
        assert reason is None, f"{reason}\non\n{text}"
        total += checks
    assert total >= FLOORS[name]
