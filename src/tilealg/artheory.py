"""Hooks, cohooks, Auslander-Reiten sequences and the AR quiver.

The left modification of a string w:

* if some arrow a makes aw a string, w_l = v^-1 a w where v is the
  maximal direct string starting at s(a) that keeps v^-1 a w reduced
  (its first arrow differs from a) -- a hook is added;
* otherwise, if w is direct (or trivial) then w_l = 0, and if
  w = v a^-1 w' with v the maximal direct prefix then w_l = w' -- a
  cohook is removed.

Both pieces of a hook are read off the successor table of the letter
codes (see `strings`): a^-1 is the inverse successor of the inverse of
w's first letter, and since a^-1 b is a string exactly when b != a
leaves s(a), and bc one exactly when bc is not in I, v is the run of
direct successors after a^-1.  Operands are read by `strings._operand`,
as Hom and arc operands are.

The right modification is the mirror image, realized here through
formal inversion: w_r = (( w^-1 )_l)^-1.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import GentlePresentation, InputError
from .strings import (StringWord, _letter_table, _operand, canonicalize,
                      detect_band, enumerate_strings, is_valid_string)

HOOK_ADDED = "added-hook"
COHOOK_REMOVED = "removed-cohook"
ZERO = "zero"


class HookSide(NamedTuple):
    string: StringWord
    tag: str


def _string_codes(p: GentlePresentation, w) -> tuple:
    """The codes of w; hooks take neither the zero string nor a band."""
    if isinstance(w, StringWord) and w.is_zero:
        raise InputError("hooks are undefined for the zero string")
    codes, _, cyclic = _operand(p, w)
    if cyclic:
        raise InputError(f"hooks take strings, not the band {w!r}")
    return codes


def hook_left(p: GentlePresentation, w: StringWord) -> HookSide:
    codes = _string_codes(p, w)
    table = _letter_table(p)
    if w.is_trivial:
        # the hook letter a^-1: a ends at v with epsilon(a) the sign of w
        run = [table.code[a, True] for a in p.arrows_into(w.vertex)
               if p.epsilon[a] == w.sign]
    else:
        run = [c for c in table.succ[codes[0] ^ 1] if c & 1]
    assert len(run) <= 1, f"hook arrow not unique for {w!r}: {run}"
    if run:
        # a^-1, then the direct string v
        while nxt := [c for c in table.succ[run[-1]] if not c & 1]:
            run.append(nxt[0])
        result = StringWord.word([table.letters[c ^ 1] for c in reversed(run)]
                                 + list(w.letters))
        assert is_valid_string(p, result), result
        return HookSide(result, HOOK_ADDED)
    if w.is_direct():
        return HookSide(StringWord.zero(), ZERO)
    # drop the maximal direct prefix and the following inverse letter
    idx = next(i for i, l in enumerate(w.letters) if l.inverse)
    rest = w.letters[idx + 1:]
    if rest:
        return HookSide(StringWord.word(rest), COHOOK_REMOVED)
    a = w.letters[idx].arrow
    return HookSide(StringWord.trivial(p.s(a), p.sigma[a]), COHOOK_REMOVED)


def hook_right(p: GentlePresentation, w: StringWord) -> HookSide:
    _string_codes(p, w)    # w.inv() takes the record on trust
    side = hook_left(p, w.inv())
    return HookSide(side.string.inv(), side.tag)


class HookResult(NamedTuple):
    w: StringWord
    w_left: StringWord
    w_right: StringWord
    w_both: StringWord
    tag_left: str
    tag_right: str


def hooks(p: GentlePresentation, w: StringWord) -> HookResult:
    """Both one-sided modifications and the two-sided w_{r,l}.

    When both w_l and w_r are nonzero, (w_l)_r and (w_r)_l are computed
    independently and must agree on the nose (signs included).
    """
    left = hook_left(p, w)
    right = hook_right(p, w)
    if not left.string.is_zero and not right.string.is_zero:
        both1 = hook_right(p, left.string).string
        both2 = hook_left(p, right.string).string
        assert both1 == both2, (w, both1, both2)
        both = both1
    elif not left.string.is_zero:
        both = hook_right(p, left.string).string
    elif not right.string.is_zero:
        both = hook_left(p, right.string).string
    else:
        both = StringWord.zero()
    return HookResult(w, left.string, right.string, both, left.tag, right.tag)


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


def dimension_vector(p: GentlePresentation, w):
    """Visits per vertex of the walk of a string or band."""
    dims = {v: 0 for v in p.vertices}
    if not (isinstance(w, StringWord) and w.is_zero):
        for v in _operand(p, w)[1]:
            dims[v] += 1
    return dims


def dimension_additivity_holds(p: GentlePresentation, w: StringWord) -> bool:
    h = hooks(p, w)
    if h.w_both.is_zero:
        raise InputError("dimension additivity concerns non-injective strings")
    lhs = dimension_vector(p, w)
    for v, d in dimension_vector(p, h.w_both).items():
        lhs[v] += d
    rhs = dimension_vector(p, h.w_left)
    for v, d in dimension_vector(p, h.w_right).items():
        rhs[v] += d
    return lhs == rhs


def verify_ar_middle(p: GentlePresentation, w: StringWord, prime: int = 5) -> bool:
    """Check the AR sequence at M(w) against the oracle over F_prime:
    dimension additivity plus a nonzero map onto each middle summand."""
    from .oracle import hom_dim_oracle, realize_string_module
    h = hooks(p, w)
    if h.w_both.is_zero:
        raise InputError("M(w) is injective; no AR sequence starts at it")
    Mw = realize_string_module(p, w, prime)
    return dimension_additivity_holds(p, w) and all(
        hom_dim_oracle(p, Mw, realize_string_module(p, mid, prime)) >= 1
        for mid in (h.w_left, h.w_right) if not mid.is_zero)


class ARQuiver(NamedTuple):
    nodes: tuple                 # canonical strings, sorted
    edges: tuple                 # (source node, target node) irreducible maps
    tau_pairs: tuple             # (w, tau^{-1} w) as canonical strings


def build_ar_quiver(p: GentlePresentation) -> ARQuiver:
    """The AR quiver of a representation-finite gentle presentation.

    Nodes are canonical strings; each node carries solid edges to the
    canonical classes of its nonzero hooks; dashed tau pairs record
    tau^{-1}(M(w)) = M(w_{r,l}).  Band-positive presentations are
    rejected (their string part would miss the homogeneous tubes).
    """
    band = detect_band(p)
    if band is not None:
        raise InputError(
            f"presentation has a band ({band.text()}); band modules lie in "
            "homogeneous tubes with tau acting as the identity -- query "
            "hooks/ar_sequence per string instead")
    nodes = enumerate_strings(p)
    edges = []
    tau_pairs = []
    for w in nodes:
        h = hooks(p, w)
        for tgt in (h.w_left, h.w_right):
            if not tgt.is_zero:
                edges.append((w, canonicalize(tgt)))
        if not h.w_both.is_zero:
            tau_pairs.append((w, canonicalize(h.w_both)))
    return ARQuiver(tuple(nodes), tuple(edges), tuple(tau_pairs))


def ar_quiver_dot(ar: ARQuiver) -> str:
    """DOT text: solid arrows for irreducible maps, dashed undirected
    edges for tau pairs."""
    lines = ["digraph ar_quiver {"]
    for w in ar.nodes:
        lines.append(f'  "{w.text()}";')
    for a, b in ar.edges:
        lines.append(f'  "{a.text()}" -> "{b.text()}";')
    for a, b in ar.tau_pairs:
        lines.append(f'  "{a.text()}" -> "{b.text()}" [style=dashed, dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
