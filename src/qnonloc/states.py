"""Phase states over tuple supports.

Each support set of size s yields s unnormalized states: member tuples are
enumerated in canonical order, tuple number j gets amplitude omega**(k*f(j))
in state k, with omega the primitive s-th root of unity and f the set's
bijection.  Squared norm is exactly s; states of one support are mutually
orthogonal by the geometric series, and states over disjoint supports are
orthogonal term by term.

Both questions asked of the states are decided from the supports, with no
floating point: orthogonality (`gram_check`) from disjointness and the
permutation check, genuine entanglement (`genuine_entanglement_check`) by
the product-set test.  `dense_all()` holds a set's states as one matrix; only
the oracle's dense reference and the tests read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import caps
from .lattice import (_BLOCK_ENTRIES, Label, SetFamily, TupleSet, _decode, _weights,
                      has_repeat)


class PhaseStateSet:
    """The s phase states carried by one support set.

    For states k != k' the inner product is sum_j omega**(m*f(j)) with
    m = k' - k.  With f a bijection onto Z_s the exponent multiset covers each
    multiple of gcd(m, s) exactly gcd(m, s) times, and the corresponding root
    sums vanish as full geometric series.  So the states of one set are
    orthogonal, with no floating point, as soon as f is a permutation of
    0..s-1.  That is checked once here, on an integer array only (floats,
    strings and booleans are refused, not converted), and `bijection` is
    read-only after.
    """

    def __init__(self, support: TupleSet, label: Label | None = None,
                 bijection: Sequence[int] | None = None):
        self.support = support
        self.label = label
        s = len(support)
        if bijection is None:
            f = np.arange(s, dtype=np.int64)
        else:
            f = np.asarray(bijection)
            if f.dtype.kind not in "iu" or f.ndim != 1 or sorted(f.tolist()) != list(range(s)):
                raise ValueError("bijection must be a permutation of 0..s-1")
            f = f.astype(np.int64)
        f.flags.writeable = False
        self._bijection = f

    @property
    def bijection(self) -> np.ndarray:
        return self._bijection

    @property
    def s(self) -> int:
        return len(self.support)

    @property
    def radix(self) -> tuple[int, ...]:
        return self.support.radix

    def dense_all(self) -> np.ndarray:
        """(s, d**n) amplitudes: row k is state k, column r the tuple of rank r."""
        out = np.zeros((self.s, math.prod(self.radix)), dtype=np.complex128)
        ks = np.arange(self.s)[:, None]
        out[:, self.support.ranks] = np.exp(2j * np.pi * ks * self.bijection[None, :] / self.s)
        return out

    def __repr__(self) -> str:
        return f"PhaseStateSet(label={self.label!r}, s={self.s})"


def family_states(family: SetFamily) -> list[PhaseStateSet]:
    return [PhaseStateSet(ts, label=l) for l, ts in family.items()]


def shared_radix(state_sets: Sequence[PhaseStateSet]) -> tuple[int, ...]:
    """The one radix of the given state sets; none, or two radices, is a ValueError."""
    if not state_sets:
        raise ValueError("need at least one state set")
    radix = state_sets[0].radix
    if any(ss.radix != radix for ss in state_sets):
        raise ValueError("state sets must share one radix")
    return radix


@dataclass(frozen=True)
class GramReport:
    ok: bool
    structural_overlap: bool


def gram_check(state_sets: Sequence[PhaseStateSet]) -> GramReport:
    """Mutual orthogonality of every state across the given sets, decided exactly.

    Within a set, orthogonality follows from the bijection being a
    permutation (`PhaseStateSet`).  Across sets it holds iff the supports are
    pairwise disjoint: disjoint supports give zero term by term, and a shared
    tuple never cancels, since summed over all k, k' the squared inner
    products of sets S and T come to |S| |T| times the number of shared
    tuples.  So `ok` is exactly the absence of a structural overlap.
    """
    shared_radix(state_sets)
    # each support's ranks are distinct, so a repeat is an overlap of two sets
    overlap = has_repeat(np.concatenate([ss.support.ranks for ss in state_sets]))
    return GramReport(ok=not overlap, structural_overlap=overlap)


def genuine_entanglement_check(state_sets: Iterable[PhaseStateSet]) -> bool:
    """True iff every state has Schmidt rank >= 2 across every bipartition.

    Decided from each support S alone, whatever the bijection.  Split the
    parties into A, which holds party 0, and B (2**(n-1) - 1 splits), and let
    S_A and S_B be the A-digit and B-digit strings that occur in S, so that
    S lies inside S_A x S_B.
      * If S = S_A x S_B, the k = 0 state (every phase 1) is the uniform
        state on S_A times the uniform state on S_B: Schmidt rank 1.
      * Otherwise some (a, b') of S_A x S_B is missing from S, while some
        (a, b) and (a', b') lie in S, with a != a' and b != b'.  In the
        amplitude matrix of any state of the set, rows a, a' and columns
        b, b' form a 2x2 minor with exactly one nonzero term,
        amp(a, b) * amp(a', b'), so every state has rank >= 2 on this split.
    So the sets fail iff some split makes some support a product set, that
    is iff |S_A| * |S_B| == |S|.  Split m (0 <= m < 2**(n-1) - 1) puts
    party p on party 0's side iff bit p - 1 of m is set.  Splits go in
    blocks of at most _BLOCK_ENTRIES members x side columns, at least one
    split a block.  A block ranks the left side of each of its splits, for
    every member, with one product of the digits and the place values of
    the left parties (one column per split); the right side's rank is the
    member's rank minus its left side's.  One lexsort along the member
    axis, by set and then rank, counts the distinct ranks of each set.
    The (2**(n-1) - 1) * m member splits, m the members of all sets, are
    held to the cap first, and the check stops at the first product split.
    """
    state_sets = list(state_sets)
    radix = shared_radix(state_sets)
    n = len(radix)
    if n < 2:
        raise ValueError("entanglement needs at least two parties")
    sizes = np.array([ss.s for ss in state_sets])
    starts = sizes.cumsum() - sizes
    ranks = np.concatenate([ss.support.ranks for ss in state_sets])
    n_splits = 2 ** (n - 1) - 1
    caps.check(n_splits * len(ranks), "member splits")
    digits = _decode(ranks, radix)
    weights = _weights(radix)[:, None]
    bit = np.arange(n - 1)[:, None]
    per_block = max(1, _BLOCK_ENTRIES // (2 * len(digits)))
    # each member's set, once for every side column of a block
    member_set = np.repeat(np.arange(len(sizes)), sizes * 2 * min(per_block, n_splits)
                           ).reshape(len(digits), -1)
    for first in range(0, n_splits, per_block):
        m = np.arange(first, min(first + per_block, n_splits))
        left = np.ones((n, len(m)), dtype=bool)
        left[1:] = m >> bit & 1
        # each side's digits keep their place value in the whole rank, so
        # distinct strings give distinct sums: left sides, then right sides
        rank = digits @ (left * weights)
        rank = np.concatenate((rank, ranks[:, None] - rank), axis=1)
        # sorted by set, then rank, each set's distinct ranks start where the rank changes
        order = np.lexsort((rank, member_set[:, :rank.shape[1]]), axis=0)
        key = rank[order, np.arange(rank.shape[1])]
        new = np.ones(key.shape, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        new[starts] = True
        distinct = np.add.reduceat(new, starts, axis=0, dtype=np.int64)
        if (distinct[:, :len(m)] * distinct[:, len(m):] == sizes[:, None]).any():
            return False
    return True
