"""Brute-force ground truth over a small prime field.

String and band modules are realized as explicit quiver representations
(right modules, paths read left to right): the matrix of an arrow a maps
the vertex space at s(a) to the one at t(a), so a relation (a, b) means
mat(b) @ mat(a) == 0.  Hom dimensions come from the nullspace of the
intertwiner system f_{t(a)} mat_M(a) = mat_N(a) f_{s(a)}.

This is the one module that imports numpy, when it loads.  The package
root loads it only when one of its names is first used, and the CLI
only for `hom --oracle`, so importing tilealg (and every other CLI
subcommand) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import GentlePresentation, InputError
from .artheory import dimension_additivity_holds, hooks
from .strings import Band, StringWord, letter_source

DEFAULT_PRIME = 5
# Largest prime p with p * p < 2**63: elimination multiplies two residues
# in int64, so a larger p would wrap around.
_MAX_PRIME = 3037000493


def _check_prime(prime: int):
    if not 2 <= prime <= _MAX_PRIME or any(
            prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
        raise InputError(f"prime must be a prime number from 2 to {_MAX_PRIME}, "
                         f"got {prime}")


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Gaussian elimination rank over F_p."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def nullity_mod_p(mat: np.ndarray, p: int) -> int:
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return mat.shape[1]
    return mat.shape[1] - _rank_mod_p(mat, p)


@dataclass(frozen=True)
class MatrixRep:
    prime: int
    dims: dict = field(hash=False)   # vertex -> dimension
    mats: dict = field(hash=False)   # arrow -> ndarray (dim_t x dim_s)

    def dim_vector(self, p: GentlePresentation):
        return {v: self.dims.get(v, 0) for v in p.vertices}


def _empty_rep(p: GentlePresentation, prime: int, dims):
    mats = {a: np.zeros((dims[p.t(a)], dims[p.s(a)]), dtype=np.int64)
            for a in p.arrows}
    return dims, mats


def _check_relations(p: GentlePresentation, rep: MatrixRep):
    for a, b in sorted(p.relations):
        prod = (rep.mats[b] @ rep.mats[a]) % rep.prime
        assert not prod.any(), f"relation ({a},{b}) does not vanish"


def realize_string_module(p: GentlePresentation, w: StringWord,
                          prime: int = DEFAULT_PRIME) -> MatrixRep:
    """One basis vector per walk position, identity arrow actions along
    the walk; dimension vector = per-vertex visit counts."""
    _check_prime(prime)
    if w.is_zero:
        raise InputError("the zero string has no module")
    verts = w.walk_vertices(p)
    dims = {v: 0 for v in p.vertices}
    index = []  # position -> index inside its vertex block
    for v in verts:
        index.append(dims[v])
        dims[v] += 1
    dims, mats = _empty_rep(p, prime, dims)
    if w.kind == "word":
        for i, l in enumerate(w.letters, start=1):
            if l.inverse:
                # arrow runs against the walk: position i -> position i-1
                mats[l.arrow][index[i - 1], index[i]] = 1
            else:
                mats[l.arrow][index[i], index[i - 1]] = 1
    rep = MatrixRep(prime, dims, mats)
    _check_relations(p, rep)
    return rep


def _jordan_block(n: int, lam: int, prime: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = lam % prime
        if i + 1 < n:
            m[i, i + 1] = 1
    return m


@dataclass(frozen=True)
class BandModuleSpec:
    band: Band
    n: int
    lam: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("band module needs n >= 1")


def realize_band_module(p: GentlePresentation, spec: BandModuleSpec,
                        prime: int = DEFAULT_PRIME) -> MatrixRep:
    """M(b, n, phi) with phi the n x n Jordan block J_n(lambda), carried
    by the last letter of the canonical rotation."""
    _check_prime(prime)
    if spec.lam % prime == 0:
        raise InputError("lambda must be nonzero in the prime field")
    letters = spec.band.letters
    m = len(letters)
    n = spec.n
    positions = [letter_source(p, l) for l in letters]
    dims = {v: 0 for v in p.vertices}
    offset = []  # position -> start of its n-block inside the vertex space
    for v in positions:
        offset.append(dims[v])
        dims[v] += n
    dims, mats = _empty_rep(p, prime, dims)
    ident = np.eye(n, dtype=np.int64)
    phi = _jordan_block(n, spec.lam, prime)
    for i, l in enumerate(letters, start=1):
        block = phi if i == m else ident
        src_pos, tgt_pos = i - 1, i % m
        if l.inverse:
            src_pos, tgt_pos = tgt_pos, src_pos
        r0 = offset[tgt_pos]
        c0 = offset[src_pos]
        mats[l.arrow][r0:r0 + n, c0:c0 + n] = block
    rep = MatrixRep(prime, dims, mats)
    _check_relations(p, rep)
    return rep


def hom_dim_oracle(p: GentlePresentation, M: MatrixRep, N: MatrixRep) -> int:
    """dim of { (f_v) | f_{t(a)} M(a) = N(a) f_{s(a)} for all arrows }."""
    if M.prime != N.prime:
        raise InputError("representations live over different primes")
    prime = M.prime
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
        Ma, Na = M.mats[a], N.mats[a]
        for r in range(ndims[t]):
            for c in range(mdims[s]):
                row = np.zeros(total, dtype=np.int64)
                # f_t M(a): sum_k f_t[r, k] Ma[k, c]
                for k in range(mdims[t]):
                    row[starts[t] + r * mdims[t] + k] += Ma[k, c]
                # - N(a) f_s: sum_k Na[r, k] f_s[k, c]
                for k in range(ndims[s]):
                    row[starts[s] + k * mdims[s] + c] -= Na[r, k]
                rows.append(row % prime)
    if not rows:
        return total
    return nullity_mod_p(np.array(rows, dtype=np.int64), prime)


def verify_ar_middle(p: GentlePresentation, w: StringWord,
                     prime: int = DEFAULT_PRIME) -> bool:
    """Check the AR sequence at M(w) against the matrix side: dimension
    additivity plus a nonzero map onto each nonzero middle summand."""
    h = hooks(p, w)
    if h.w_both.is_zero:
        raise InputError("M(w) is injective; no AR sequence starts at it")
    if not dimension_additivity_holds(p, w):
        return False
    Mw = realize_string_module(p, w, prime)
    for mid in (h.w_left, h.w_right):
        if mid.is_zero:
            continue
        if hom_dim_oracle(p, Mw, realize_string_module(p, mid, prime)) < 1:
            return False
    return True
