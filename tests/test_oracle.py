import hashlib
import itertools
import random
import warnings
from pathlib import Path

import pytest

from tilealg import homs, samples, strings
from tilealg.algebra import InputError, load_quiver
from tilealg.artheory import is_injective_string, verify_ar_middle
from tilealg.oracle import (BandModuleSpec, _rank_mod_p, hom_dim_oracle,
                            realize_band_module, realize_string_module)
from tilealg.homs import factor_count_bruteforce, sub_count_bruteforce
from tilealg.strings import (Band, Letter, StringWord, detect_band, enumerate_strings,
                             parse_band, parse_string)
from tilealg.surface import Tiling, tiling_algebra


def test_rank_mod_p():
    def rank(mat, p):
        return _rank_mod_p([dict(enumerate(row)) for row in mat], p)
    assert rank([[1, 2], [2, 4]], 5) == 1
    assert rank([[0, 0, 0], [0, 0, 0]], 5) == 0
    assert rank([[1, 2], [2, 1]], 3) == 1
    assert rank([[1, 2], [2, 1]], 5) == 2


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_rank_mod_p_matches_a_kernel_count(prime):
    """p^nullity is the number of vectors the matrix kills, counted by
    trying every vector of F_p^cols."""
    rng = random.Random(prime)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        # half the entries zero, the rest any integer in [-p, 2p)
        mat = [[rng.randrange(-prime, 2 * prime) * rng.randint(0, 1)
                for _ in range(cols)] for _ in range(rows)]
        kernel = sum(all(sum(x * y for x, y in zip(row, vec)) % prime == 0 for row in mat)
                     for vec in itertools.product(range(prime), repeat=cols))
        sparse = [{c: x for c, x in enumerate(row) if x} for row in mat]
        assert prime ** (cols - _rank_mod_p(sparse, prime)) == kernel, mat


def test_realize_trivial_module():
    p = samples.fix_a()
    rep = realize_string_module(p, StringWord.trivial("2"))
    assert rep.dims == {"1": 0, "2": 1, "3": 0}
    assert rep.mats == {"a": [[]], "b": [], "c": [], "d": []}


def test_realize_cd():
    p = samples.fix_a()
    rep = realize_string_module(p, parse_string(p, "c d"))
    assert rep.dims == {"1": 0, "2": 1, "3": 2}
    assert rep.mats["c"] == [[1], [0]]
    assert rep.mats["d"] == [[0, 0], [1, 0]]


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
    assert rep.mats["a"] == [[1]]
    assert rep.mats["b"] == [[1]]


def test_band_module_n2_jordan():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    rep = realize_band_module(p, BandModuleSpec(band, 2, 1))
    assert rep.dims == {"1": 2, "2": 2}
    assert rep.mats == {"a": [[1, 0], [0, 1]], "b": [[1, 1], [0, 1]]}


def test_band_module_lambda_two():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    rep = realize_band_module(p, BandModuleSpec(band, 1, 2))
    assert rep.mats["b"] == [[2]] or rep.mats["a"] == [[2]]


def test_band_module_lambda_zero_rejected():
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    with pytest.raises(InputError):
        realize_band_module(p, BandModuleSpec(band, 1, 5))  # 5 == 0 mod 5


@pytest.mark.parametrize("operand, message", [
    (StringWord.word([Letter("q")]), "unknown arrow 'q'"),
    (StringWord.trivial("9"), "unknown vertex '9'"),
    (StringWord.word([Letter("a0"), Letter("a0")]), "letters 0 and 1 do not meet"),
    (StringWord.word([Letter("a0"), Letter("b1")]), r"relation \(a0,b1\) does not vanish"),
    (StringWord.word([Letter("a0"), Letter("a1"), Letter("a1", True)]),
     "letters 1 and 2 cancel: the walk is not reduced"),
    (Band((Letter("b0", True), Letter("q"))), "unknown arrow 'q'"),
    (Band((Letter("a0"),)), "the band does not close up"),
    (Band(()), "empty letter walk"),
    (Band((Letter("a0"), Letter("a1"), Letter("b1", True), Letter("a0", True))),
     "letters 3 and 0 cancel: the walk is not reduced"),
], ids=["unknown_arrow", "unknown_vertex", "string_does_not_meet", "through_a_relation",
        "string_not_reduced", "band_unknown_arrow", "band_does_not_close", "empty_band",
        "band_not_reduced_across_the_wrap"])
def test_realize_rejects_a_walk_outside_the_quiver(operand, message):
    """The oracle's own walk check: each is an InputError, not a
    KeyError, an IndexError, an AssertionError or a module of the wrong
    walk."""
    p = samples.kronecker_chain(2)
    with pytest.raises(InputError, match=f"^{message}$"):
        if isinstance(operand, Band):
            realize_band_module(p, BandModuleSpec(operand, 1, 1))
        else:
            realize_string_module(p, operand)


def test_realize_rejects_a_walk_back_along_its_last_arrow():
    # c then c^-1 visits 2, 3, 2: the module of no string, which the
    # oracle used to realize with dimension vector {1: 0, 2: 2, 3: 1}
    walk = StringWord.word([Letter("c"), Letter("c", True)])
    with pytest.raises(InputError, match="^letters 0 and 1 cancel: the walk is not reduced$"):
        realize_string_module(samples.fix_a(), walk)


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


def test_band_self_hom_is_the_jordan_block_term():
    """Krause's band term on the Kronecker band: dim Hom(M(b,n,lam),
    M(b,m,mu)) is min(n, m) when lam == mu and 0 otherwise."""
    p = samples.kronecker()
    band = parse_band(p, "a b-")
    reps = {(n, lam): realize_band_module(p, BandModuleSpec(band, n, lam))
            for n in range(1, 7) for lam in (1, 2, 3)}
    for (n, lam), m in reps.items():
        for (k, mu), other in reps.items():
            assert hom_dim_oracle(p, m, other) == (min(n, k) if lam == mu else 0)
    big = realize_band_module(p, BandModuleSpec(band, 32, 1))
    assert hom_dim_oracle(p, big, big) == 32


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
    # 3037000493 is the largest prime whose square is below 2**63, the
    # range an int64 elimination needed; the Python-int elimination keeps it
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
                     f"{[(a, rep.mats[a]) for a in p.arrows]}\n".encode())
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


def test_references_never_run_the_matcher(monkeypatch):
    """The brute-force window counters and the oracle agree with the
    window enumeration, the match index and the run matcher of homs
    without calling them."""
    p = samples.kronecker_chain(3)
    ops = enumerate_strings(p, max_len=2) + [detect_band(p)]
    counts = [(len(homs.factor_strings(p, x)), len(homs.substrings(p, x))) for x in ops]
    dims = [[homs.hom_dim(p, v, w) for w in ops] for v in ops]

    def unavailable(*args):
        raise AssertionError("a reference ran the matcher")

    for name in ("_ends", "_windows", "_factor", "_sub", "_match"):
        monkeypatch.setattr(homs, name, unavailable)
    assert [(factor_count_bruteforce(p, x), sub_count_bruteforce(p, x)) for x in ops] == counts
    reps = [realize_band_module(p, BandModuleSpec(x, 1, 2)) if isinstance(x, Band)
            else realize_string_module(p, x) for x in ops]
    assert [[hom_dim_oracle(p, m, n) for n in reps] for m in reps] == dims
