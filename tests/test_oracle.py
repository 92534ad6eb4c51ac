import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from tilealg import samples, strings
from tilealg.algebra import InputError, load_quiver
from tilealg.artheory import is_injective_string
from tilealg.oracle import (BandModuleSpec, hom_dim_oracle, nullity_mod_p,
                            realize_band_module, realize_string_module,
                            verify_ar_middle)
from tilealg.homs import factor_count_bruteforce, sub_count_bruteforce
from tilealg.strings import (Band, StringWord, detect_band, enumerate_strings,
                             parse_band, parse_string)
from tilealg.surface import Tiling, tiling_algebra


def test_nullity_mod_p():
    m = np.array([[1, 2], [2, 4]])
    assert nullity_mod_p(m, 5) == 1
    assert nullity_mod_p(np.zeros((2, 3), dtype=int), 5) == 3


def test_realize_trivial_module():
    p = samples.fix_a()
    rep = realize_string_module(p, StringWord.trivial("2"))
    assert rep.dims == {"1": 0, "2": 1, "3": 0}
    assert all(not rep.mats[a].any() for a in p.arrows)


def test_realize_cd():
    p = samples.fix_a()
    rep = realize_string_module(p, parse_string(p, "c d"))
    assert rep.dims == {"1": 0, "2": 1, "3": 2}
    assert rep.mats["c"].tolist() == [[1], [0]]
    assert rep.mats["d"].tolist() == [[0, 0], [1, 0]]


def test_realize_paper_string_dims():
    p = samples.fix_a()
    rep = realize_string_module(p, parse_string(p, "b- c d c- b"))
    assert rep.dims == {"1": 2, "2": 2, "3": 2}


def test_relations_vanish_for_all_fixture_strings():
    for p in samples.algebra_fixtures().values():
        bound = 6 if detect_band(p) is not None else None
        for w in enumerate_strings(p, max_len=bound):
            realize_string_module(p, w)  # construction asserts the products


def test_band_module_n1():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    rep = realize_band_module(p, BandModuleSpec(band, 1, 1))
    assert rep.dims == {"1": 1, "2": 1}
    assert rep.mats["a"].tolist() == [[1]]
    assert rep.mats["b"].tolist() == [[1]]


def test_band_module_n2_jordan():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    rep = realize_band_module(p, BandModuleSpec(band, 2, 1))
    assert rep.dims == {"1": 2, "2": 2}
    mats = {a: rep.mats[a].tolist() for a in ("a", "b")}
    assert mats["a"] == [[1, 0], [0, 1]]
    assert mats["b"] == [[1, 1], [0, 1]]


def test_band_module_lambda_two():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    rep = realize_band_module(p, BandModuleSpec(band, 1, 2))
    assert rep.mats["b"].tolist() == [[2]] or rep.mats["a"].tolist() == [[2]]


def test_band_module_lambda_zero_rejected():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    with pytest.raises(InputError):
        realize_band_module(p, BandModuleSpec(band, 1, 5))  # 5 == 0 mod 5


def test_hom_oracle_simple_identity():
    for p in samples.algebra_fixtures().values():
        for v in p.vertices:
            rep = realize_string_module(p, StringWord.trivial(v))
            assert hom_dim_oracle(p, rep, rep) == 1


def test_hom_oracle_paper_value():
    p = samples.fix_a()
    rep = realize_string_module(p, parse_string(p, "b- c d c- b"))
    assert hom_dim_oracle(p, rep, rep) == 2


def test_hom_oracle_distinct_band_parameters():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    m1 = realize_band_module(p, BandModuleSpec(band, 1, 1))
    m2 = realize_band_module(p, BandModuleSpec(band, 1, 2))
    assert hom_dim_oracle(p, m1, m2) == 0
    assert hom_dim_oracle(p, m2, m1) == 0
    assert hom_dim_oracle(p, m1, m1) == 1


def test_hom_oracle_prime_mismatch():
    p = samples.a2()
    m = realize_string_module(p, parse_string(p, "a"), prime=5)
    n = realize_string_module(p, parse_string(p, "a"), prime=7)
    with pytest.raises(InputError):
        hom_dim_oracle(p, m, n)


def test_verify_ar_middle_examples():
    p = samples.loop_algebra()
    assert verify_ar_middle(p, StringWord.trivial("v", p.epsilon["d"]))
    p2 = samples.a2()
    assert verify_ar_middle(p2, StringWord.trivial("2", p2.epsilon["a"]))


def test_verify_ar_middle_rejects_injectives():
    p = samples.loop_algebra()
    d = parse_string(p, "d")
    assert is_injective_string(p, d)
    with pytest.raises(InputError):
        verify_ar_middle(p, d)


NOT_PRIMES = [0, 1, 4, -5]


@pytest.mark.parametrize("prime", NOT_PRIMES)
def test_realize_rejects_a_prime_that_is_not_prime(prime):
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match=f"prime must be a prime number .*, got {prime}$"):
            realize_string_module(p, parse_string(p, "a"), prime=prime)
        with pytest.raises(InputError, match=f"prime must be a prime number .*, got {prime}$"):
            realize_band_module(p, BandModuleSpec(band, 1, 1), prime=prime)
    assert caught == []


def test_prime_range_stops_where_int64_elimination_would_wrap():
    # 3037000493 is the largest prime whose square is below 2**63; at the
    # next prime, 3037000507, the self-Hom of M(a b-, 1, 2) would read 0
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    m = realize_band_module(p, BandModuleSpec(band, 1, 2), prime=3037000493)
    assert hom_dim_oracle(p, m, m) == 1
    with pytest.raises(InputError, match="got 3037000507$"):
        realize_band_module(p, BandModuleSpec(band, 1, 2), prime=3037000507)
    rep = realize_string_module(p, parse_string(p, "a"), prime=2)
    assert hom_dim_oracle(p, rep, rep) == 1


# -- the references stay independent of the compiled letter table ---------


DATA = Path(__file__).parent / "data"


def _reference_fixtures():
    """Fresh presentations of the tests/data fixtures and kronecker_chain(3)."""
    ps = [load_quiver(DATA / "fixA.quiver")]
    ps += [tiling_algebra(Tiling.parse((DATA / name).read_text())).presentation
           for name in ("digon.tiling", "kron.tiling", "loop.tiling", "pent.tiling")]
    ps.append(samples.kronecker_chain(3))
    return ps


def _reference_digest(ps, operands):
    """sha256 prefix of the window counts, realized modules and oracle
    Hom dimensions of the operands."""
    h = hashlib.sha256()
    for p, ops in zip(ps, operands):
        reps = []
        for x in ops:
            if isinstance(x, Band):
                reps += [realize_band_module(p, BandModuleSpec(x, n, 2)) for n in (1, 2)]
            else:
                reps.append(realize_string_module(p, x))
            h.update(f"{x!r} {factor_count_bruteforce(p, x)} "
                     f"{sub_count_bruteforce(p, x)}\n".encode())
        for rep in reps:
            h.update(f"{sorted(rep.dims.items())} "
                     f"{[(a, rep.mats[a].tolist()) for a in p.arrows]}\n".encode())
        for m in reps:
            h.update(" ".join(str(hom_dim_oracle(p, m, n)) for n in reps).encode())
    return h.hexdigest()[:16]


def test_references_never_read_the_letter_table(monkeypatch):
    operands = []
    for p in _reference_fixtures():
        band = detect_band(p)
        operands.append(enumerate_strings(p, max_len=3) + ([band] if band else []))

    def unavailable(p):
        raise AssertionError("a reference read the letter table")

    monkeypatch.setattr(strings, "_LetterTable", unavailable)
    # recorded before the letter table replaced the letter graph
    assert _reference_digest(_reference_fixtures(), operands) == "72ad37886c57b084"
