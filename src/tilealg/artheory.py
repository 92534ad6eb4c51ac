"""Hooks, cohooks, Auslander-Reiten sequences and the AR quiver.

The left modification of a string w:

* if some arrow a makes aw a string, w_l = v^-1 a w where v is the
  maximal direct string starting at s(a) that keeps v^-1 a w reduced
  (its first arrow differs from a) -- a hook is added;
* otherwise, if w is direct (or trivial) then w_l = 0, and if
  w = v a^-1 w' with v the maximal direct prefix then w_l = w' -- a
  cohook is removed.

Everything runs on code strings (see `strings._string_word`).  a^-1 is
the inverse successor of the inverse of w's first code, and since a^-1 b
is a string exactly when b != a leaves s(a), and bc one exactly when bc
is not in I, v is the run of direct successors after a^-1.  The mirror
image w_r = ((w^-1)_l)^-1 is taken on codes: a code string's inverse is
the inverse code word of `strings._inverse`, a trivial sign negated.  Each
public call reads its operand once, by `strings._operand`, and builds
`StringWord`s only for what it returns.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import GentlePresentation, InputError, _given
from .strings import (StringWord, _code_strings, _inverse, _letter_table, _operand,
                      _string_word, detect_band)

HOOK_ADDED = "added-hook"
COHOOK_REMOVED = "removed-cohook"
ZERO = "zero"


class HookSide(NamedTuple):
    string: StringWord
    tag: str


def _code_string(p: GentlePresentation, w):
    """The code string of w; hooks take neither the zero string nor a band."""
    codes, _, cyclic = _operand(p, w)
    if cyclic:
        raise InputError(f"hooks take strings, not the band {w!r}")
    return codes, () if codes else (w.vertex, w.sign)


def _inverse_string(x):
    codes, trivial = x
    return _inverse(codes), trivial and (trivial[0], -trivial[1])


def _left(p: GentlePresentation, x):
    """(w_l, tag) of the code string x.  The hook letter is unique, by
    (G1), (G2) and epsilon, and v^-1 a w is a string."""
    table = _letter_table(p)
    codes, trivial = x
    if trivial:
        # the hook letter a^-1: a ends at v with epsilon(a) the sign of w
        run = [table.code[a, True] for a in p.arrows_into(trivial[0])
               if p.epsilon[a] == trivial[1]]
    else:
        run = [c for c in table.succ[codes[0] ^ 1] if c & 1]
    if run:
        # a^-1, then the direct string v
        while nxt := [c for c in table.succ[run[-1]] if not c & 1]:
            run.append(nxt[0])
        return (_inverse(run) + codes, ()), HOOK_ADDED
    # drop the maximal direct prefix and the following inverse letter
    i = next((i for i, c in enumerate(codes) if c & 1), None)
    if i is None:           # w is direct or trivial
        return None, ZERO
    a = table.letters[codes[i]].arrow   # a^-1 ends at s(a), where a trivial rest sits
    return (codes[i + 1:], () if i + 1 < len(codes) else (p.s(a), p.sigma[a])), COHOOK_REMOVED


def _right(p: GentlePresentation, x):
    """(w_r, tag) of the code string x: w_r = ((w^-1)_l)^-1."""
    y, tag = _left(p, _inverse_string(x))
    return (None if y is None else _inverse_string(y)), tag


def _hooks(p: GentlePresentation, x):
    """(w_l, tag), (w_r, tag) and w_{r,l} of the code string x: (w_l)_r,
    else (w_r)_l, the same string when both exist (Butler-Ringel)."""
    left, right = _left(p, x), _right(p, x)
    if left[0]:
        both = _right(p, left[0])[0]
    else:
        both = right[0] and _left(p, right[0])[0]
    return left, right, both


def hook_left(p: GentlePresentation, w: StringWord) -> HookSide:
    y, tag = _left(p, _code_string(p, w))
    return HookSide(_string_word(p, y), tag)


def hook_right(p: GentlePresentation, w: StringWord) -> HookSide:
    y, tag = _right(p, _code_string(p, w))
    return HookSide(_string_word(p, y), tag)


class HookResult(NamedTuple):
    w: StringWord
    w_left: StringWord
    w_right: StringWord
    w_both: StringWord
    tag_left: str
    tag_right: str


def hooks(p: GentlePresentation, w: StringWord) -> HookResult:
    """Both one-sided modifications and the two-sided w_{r,l}."""
    (left, tag_left), (right, tag_right), both = _hooks(p, _code_string(p, w))
    return HookResult(w, _string_word(p, left), _string_word(p, right),
                      _string_word(p, both), tag_left, tag_right)


def is_injective_string(p: GentlePresentation, w: StringWord) -> bool:
    """M(w) is injective iff the two-sided modification vanishes."""
    return hooks(p, w).w_both.is_zero


def tau_inverse(p: GentlePresentation, w: StringWord):
    """w_{r,l}, or None when M(w) is injective."""
    both = hooks(p, w).w_both
    return None if both.is_zero else both


class ARSequence(NamedTuple):
    left: StringWord
    middle: tuple       # the nonzero hooks
    right: StringWord


def ar_sequence(p: GentlePresentation, w: StringWord):
    """The AR sequence 0 -> M(w) -> M(w_l) + M(w_r) -> M(w_{r,l}) -> 0,
    or None when M(w) is injective."""
    h = hooks(p, w)
    if h.w_both.is_zero:
        return None
    middle = tuple(x for x in (h.w_left, h.w_right) if not x.is_zero)
    return ARSequence(w, middle, h.w_both)


def _additivity(p: GentlePresentation, w, injective: str):
    """w_l, w_r and whether dim M(w) + dim M(w_{r,l}) = dim M(w_l) +
    dim M(w_r), vertex by vertex; InputError(injective) for injective M(w)."""
    x = _code_string(p, w)
    (left, _), (right, _), both = _hooks(p, x)
    if both is None:
        raise InputError(injective)
    table = _letter_table(p)

    def visits(*ys):    # of the walks of the nonzero code strings ys
        return sorted(v for codes, trivial in filter(None, ys) for v in trivial[:1]
                      or (table.source[codes[0]], *map(table.target.__getitem__, codes)))
    return left, right, visits(x, both) == visits(left, right)


def dimension_additivity_holds(p: GentlePresentation, w: StringWord) -> bool:
    return _additivity(p, w, "dimension additivity concerns non-injective strings")[2]


def verify_ar_middle(p: GentlePresentation, w: StringWord, prime: int = 5) -> bool:
    """Check the AR sequence at M(w) against the oracle over F_prime:
    dimension additivity plus a nonzero map onto each middle summand."""
    from .oracle import hom_dim_oracle, realize_string_module
    left, right, additive = _additivity(p, w, "M(w) is injective; no AR sequence starts at it")
    Mw = realize_string_module(p, w, prime)
    return additive and all(
        hom_dim_oracle(p, Mw, realize_string_module(p, _string_word(p, y), prime)) >= 1
        for y in (left, right) if y)


class ARQuiver(NamedTuple):
    nodes: tuple                 # canonical strings, sorted
    edges: tuple                 # (source node, target node) irreducible maps
    tau_pairs: tuple             # (w, tau^{-1} w) as canonical strings


def build_ar_quiver(p: GentlePresentation) -> ARQuiver:
    """The AR quiver of a representation-finite gentle presentation.

    Nodes are canonical strings, in `enumerate_strings` order; each node
    carries solid edges to the nodes of its nonzero hooks, found by code
    string under either spelling; dashed tau pairs record tau^{-1}(M(w))
    = M(w_{r,l}).  Band-positive presentations are rejected (their
    string part would miss the homogeneous tubes).
    """
    band = detect_band(p)
    if band is not None:
        raise InputError(
            f"presentation has a band ({band.text()}); band modules lie in "
            "homogeneous tubes with tau acting as the identity -- query "
            "hooks/ar_sequence per string instead")
    strings = _code_strings(p, None)
    node = {}
    for x in strings:
        node[x] = node[_inverse_string(x)] = _string_word(p, x)
    edges, tau_pairs = [], []
    for x in strings:
        (left, _), (right, _), both = _hooks(p, x)
        edges += [(node[x], node[y]) for y in (left, right) if y is not None]
        if both is not None:
            tau_pairs.append((node[x], node[both]))
    return ARQuiver(tuple(node[x] for x in strings), tuple(edges), tuple(tau_pairs))


def ar_quiver_dot(ar: ARQuiver) -> str:
    """DOT text: solid arrows for irreducible maps, dashed undirected
    edges for tau pairs."""
    _given(ar, ARQuiver)
    return "".join(["digraph ar_quiver {\n"]
                   + [f'  "{w.text()}";\n' for w in ar.nodes]
                   + [f'  "{a.text()}" -> "{b.text()}";\n' for a, b in ar.edges]
                   + [f'  "{a.text()}" -> "{b.text()}" [style=dashed, dir=none];\n'
                      for a, b in ar.tau_pairs] + ["}\n"])
