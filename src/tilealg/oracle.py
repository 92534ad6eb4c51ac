"""Brute-force ground truth over a small prime field.

String and band modules are realized as explicit quiver representations
(right modules, paths read left to right): the matrix of an arrow a maps
the vertex space at s(a) to the one at t(a), so a relation (a, b) means
mat(b) mat(a) == 0.  A matrix is a list of rows of Python ints.  Hom
dimensions come from the nullspace of the intertwiner system
f_{t(a)} mat_M(a) = mat_N(a) f_{s(a)}, eliminated over F_p as sparse
rows.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import GentlePresentation, InputError, _Checked, _given, _int_arg, _record
from .strings import Band, StringWord

DEFAULT_PRIME = 5
# Largest prime p with p * p < 2**63.  Elimination runs on Python ints and
# would take any prime; the range is the one an earlier int64 elimination
# needed, kept so that the accepted primes and the error text stay stable.
_MAX_PRIME = 3037000493


def _check_prime(prime: int):
    if not 2 <= _int_arg(prime, "prime") <= _MAX_PRIME or any(
            prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
        raise InputError(f"prime must be a prime number from 2 to {_MAX_PRIME}, "
                         f"got {prime}")


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse rows {column: value}.  Each row is reduced
    by the pivot rows found so far, leading column first; a row that
    keeps a leading column with no pivot becomes that column's pivot."""
    pivots = {}  # leading column -> row scaled to 1 there
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[lead]
            for c, x in pivot.items():
                y = (row.get(c, 0) - f * x) % p
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


class MatrixRep:
    """A representation over F_prime."""

    __slots__ = ("prime", "dims", "mats")

    def __init__(self, prime: int, dims: dict, mats: dict):
        self.prime = prime
        self.dims = dims   # vertex -> dimension
        self.mats = mats   # arrow -> list of dim_t rows of dim_s ints

    def dim_vector(self, p: GentlePresentation):
        return {v: self.dims.get(v, 0) for v in p.vertices}


def _zero_mats(p: GentlePresentation, dims):
    return {a: [[0] * dims[p.s(a)] for _ in range(dims[p.t(a)])] for a in p.arrows}


def _check_relations(p: GentlePresentation, rep: MatrixRep):
    """InputError unless mat(b) mat(a) == 0 for each relation (a, b): a
    walk through a relation realizes no module of the algebra."""
    for a, b in sorted(p.relations):
        cols = list(zip(*rep.mats[a]))
        if any(sum(x * y for x, y in zip(row, col)) % rep.prime
               for row in rep.mats[b] for col in cols):
            raise InputError(f"relation ({a},{b}) does not vanish")


def _walk(p: GentlePresentation, letters, cyclic: bool):
    """The vertex at each position of a letter walk: the source of each
    letter and, unless the walk is cyclic, the target of the last one.
    It is read off the quiver alone, so the oracle shares no string
    calculus with the code it checks.  InputError when the walk is empty,
    names an arrow p lacks, or has consecutive letters that do not meet
    or that cancel, one arrow read both ways (cyclic: also the last and
    the first)."""
    if not letters:
        raise InputError("empty letter walk")
    q = p.quiver
    ends = []
    for l in letters:
        if type(l.arrow) is not str or l.arrow not in q.sources:
            raise InputError(f"unknown arrow {l.arrow!r}")
        s, t = q.sources[l.arrow], q.targets[l.arrow]
        ends.append((t, s) if l.inverse else (s, t))
    n = len(ends)
    for i in range(1, n + 1 if cyclic else n):
        if ends[i - 1][1] != ends[i % n][0]:
            raise InputError("the band does not close up" if i == n
                             else f"letters {i - 1} and {i} do not meet")
        a, b = letters[i - 1], letters[i % n]
        if a.arrow == b.arrow and a.inverse != b.inverse:
            raise InputError(f"letters {i - 1} and {i % n} cancel: "
                             "the walk is not reduced")
    return [s for s, _ in ends] + ([] if cyclic else [ends[-1][1]])


def _realize(p: GentlePresentation, positions, letters, n: int, lam, prime: int):
    """The module of a walk through the vertices `positions` (`_walk`): an
    n-block per position, the identity along each letter, and J_n(lam)
    instead on the last letter of a band (lam not None)."""
    dims = {v: 0 for v in p.vertices}
    offset = []  # position -> start of its n-block inside the vertex space
    for v in positions:
        offset.append(dims[v])
        dims[v] += n
    mats = _zero_mats(p, dims)
    for i, l in enumerate(letters, start=1):
        src, tgt = offset[i - 1], offset[i % len(positions)]
        if l.inverse:
            src, tgt = tgt, src   # the arrow runs against the walk
        mat, last = mats[l.arrow], lam is not None and i == len(letters)
        for k in range(n):
            mat[tgt + k][src + k] = lam if last else 1
            if last and k + 1 < n:
                mat[tgt + k][src + k + 1] = 1
    rep = MatrixRep(prime, dims, mats)
    _check_relations(p, rep)
    return rep


def realize_string_module(p: GentlePresentation, w: StringWord,
                          prime: int = DEFAULT_PRIME) -> MatrixRep:
    """One basis vector per walk position, identity arrow actions along
    the walk; dimension vector = per-vertex visit counts."""
    _given(p, GentlePresentation)
    _check_prime(prime)
    if _given(w, StringWord).is_zero:
        raise InputError("the zero string has no module")
    if w.kind == "word":
        return _realize(p, _walk(p, w.letters, False), w.letters, 1, None, prime)
    if w.vertex in p.quiver.vertices:
        return _realize(p, [w.vertex], (), 1, None, prime)
    raise InputError(f"unknown vertex {w.vertex!r}")


class BandModuleSpec(_Checked, namedtuple("BandModuleSpec", "band n lam")):
    """M(band, n, lam): the n x n Jordan block J_n(lam) on the band."""

    __slots__ = ()

    def __new__(cls, band: Band, n: int, lam: int):
        if not isinstance(band, Band):
            raise InputError(f"band module needs a Band, got {type(band).__name__}")
        if _int_arg(n, "n") < 1:
            raise InputError("band module needs n >= 1")
        return super().__new__(cls, band, n, _int_arg(lam, "lam"))


def realize_band_module(p: GentlePresentation, spec: BandModuleSpec,
                        prime: int = DEFAULT_PRIME) -> MatrixRep:
    """M(b, n, phi) with phi the n x n Jordan block J_n(lambda), carried
    by the last letter of the canonical rotation."""
    _given(p, GentlePresentation)
    _check_prime(prime)
    spec = BandModuleSpec(*_record(spec, 3, "band module {!r} is not (band, n, lam)"))
    if spec.lam % prime == 0:
        raise InputError("lambda must be nonzero in the prime field")
    letters = spec.band.letters
    return _realize(p, _walk(p, letters, True), letters, spec.n, spec.lam % prime, prime)


def _rep(p: GentlePresentation, rep, name: str) -> MatrixRep:
    """`rep` if it is a MatrixRep of p: its `dims` maps vertices of p (not
    necessarily all) to ints >= 0, and its `mats` maps exactly the arrows
    of p to lists or tuples of dim t(a) rows of dim s(a) ints each; else
    InputError naming the representation `name`.  It reads the quiver
    alone, as `_walk` does."""
    if not isinstance(rep, MatrixRep):
        raise InputError(f"{name} is not a MatrixRep, got {type(rep).__name__}")
    q, dims, mats = p.quiver, rep.dims, rep.mats
    if not isinstance(dims, dict) or any(v not in q.vertices or type(d) is not int or d < 0
                                         for v, d in dims.items()):
        raise InputError(f"{name} dims are not ints >= 0 on vertices of the presentation")
    if not isinstance(mats, dict) or mats.keys() != q.sources.keys():
        raise InputError(f"{name} matrices are not one per arrow of the presentation")
    for a in p.arrows:
        mat, rows, cols = mats[a], dims.get(q.targets[a], 0), dims.get(q.sources[a], 0)
        if not isinstance(mat, (list, tuple)) or len(mat) != rows or any(
                not isinstance(row, (list, tuple)) or len(row) != cols
                or any(type(x) is not int for x in row) for row in mat):
            raise InputError(f"{name} matrix of arrow {a} is not a {rows} x {cols} "
                             "matrix of ints")
    return rep


def hom_dim_oracle(p: GentlePresentation, M: MatrixRep, N: MatrixRep) -> int:
    """dim of { (f_v) | f_{t(a)} M(a) = N(a) f_{s(a)} for all arrows };
    InputError unless M and N are MatrixReps of p over one prime."""
    M, N = _rep(_given(p, GentlePresentation), M, "M"), _rep(p, N, "N")
    if M.prime != N.prime:
        raise InputError("representations live over different primes")
    prime = M.prime
    _check_prime(prime)
    mdims = {v: M.dims.get(v, 0) for v in p.vertices}
    ndims = {v: N.dims.get(v, 0) for v in p.vertices}
    # unknown f_v has shape (ndims[v], mdims[v]), flattened row-major
    starts = {}
    total = 0
    for v in p.vertices:
        starts[v] = total
        total += ndims[v] * mdims[v]
    rows = []
    for a in p.arrows:
        s, t = p.s(a), p.t(a)
        # nonzeros of M(a) by column and of N(a) by row
        m_cols = [[(k, row[c]) for k, row in enumerate(M.mats[a]) if row[c]]
                  for c in range(mdims[s])]
        n_rows = [[(k, x) for k, x in enumerate(row) if x] for row in N.mats[a]]
        for r, n_row in enumerate(n_rows):
            for c, m_col in enumerate(m_cols):
                row = {}
                # f_t M(a): sum_k f_t[r, k] Ma[k, c]
                for k, x in m_col:
                    j = starts[t] + r * mdims[t] + k
                    row[j] = row.get(j, 0) + x
                # - N(a) f_s: sum_k Na[r, k] f_s[k, c]
                for k, x in n_row:
                    j = starts[s] + k * mdims[s] + c
                    row[j] = row.get(j, 0) - x
                rows.append(row)
    return total - _rank_mod_p(rows, prime)

