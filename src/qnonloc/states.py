"""Phase states over tuple supports.

Each support set of size s yields s unnormalized states: member tuples are
enumerated in canonical order, tuple number j gets amplitude omega**(k*f(j))
in state k, with omega the primitive s-th root of unity and f the set's
bijection.  Squared norm is exactly s; states of one support are mutually
orthogonal by the geometric series, and states over disjoint supports are
orthogonal term by term.

Each set holds its states as one matrix, `dense_all()`; the Gram
cross-check, the Schmidt ranks and the oracle's dense reference all read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lattice import Label, SetFamily, TupleSet, has_repeat

GRAM_TOL = 1e-12     # off-diagonal Gram bound, relative to the largest set
SCHMIDT_TOL = 1e-9   # singular values at or below this times the largest are 0


class PhaseStateSet:
    """The s phase states carried by one support set.

    For states k != k' the inner product is sum_j omega**(m*f(j)) with
    m = k' - k.  With f a bijection onto Z_s the exponent multiset covers each
    multiple of gcd(m, s) exactly gcd(m, s) times, and the corresponding root
    sums vanish as full geometric series.  So the states of one set are
    orthogonal, with no floating point, as soon as f is a permutation of
    0..s-1.  That is checked once here, and `bijection` is read-only after.
    """

    def __init__(self, support: TupleSet, label: Label | None = None,
                 bijection: Sequence[int] | None = None):
        if len(support) == 0:
            raise ValueError("support must be nonempty")
        self.support = support
        self.label = label
        s = len(support)
        if bijection is None:
            f = np.arange(s, dtype=np.int64)
        else:
            f = np.array(bijection, dtype=np.int64)
            if sorted(f.tolist()) != list(range(s)):
                raise ValueError("bijection must be a permutation of 0..s-1")
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


@dataclass(frozen=True)
class GramReport:
    ok: bool
    structural_overlap: bool
    max_offdiag: float | None
    tol: float | None


def gram_check(state_sets: Sequence[PhaseStateSet]) -> GramReport:
    """Mutual orthogonality of every state across the given sets.

    Exact path: supports must be pairwise disjoint (cross-set inner products
    vanish term by term); within a set, orthogonality follows from the
    bijection being a permutation (`PhaseStateSet`).  Overlapping supports
    are a structural failure, reported before any numerics.  Past that the
    cross-set blocks of the Gram matrix are exact zeros, so only each set's
    own Gram is formed, and the largest off-diagonal entry over all of them
    is compared against GRAM_TOL * max(s).
    """
    if not state_sets:
        raise ValueError("need at least one state set")
    radix = state_sets[0].radix
    if any(ss.radix != radix for ss in state_sets):
        raise ValueError("state sets must share one radix")

    # each support's ranks are distinct, so a repeat is an overlap of two sets
    ranks = np.concatenate([ss.support.ranks for ss in state_sets])
    if has_repeat(ranks):
        return GramReport(ok=False, structural_overlap=True, max_offdiag=None, tol=None)

    max_off = 0.0
    for ss in state_sets:
        V = ss.dense_all()
        gram = V @ V.conj().T
        np.fill_diagonal(gram, 0.0)
        max_off = max(max_off, float(np.abs(gram).max()))
    tol = GRAM_TOL * max(ss.s for ss in state_sets)
    return GramReport(ok=max_off <= tol, structural_overlap=False,
                      max_offdiag=max_off, tol=tol)


@dataclass(frozen=True)
class Bipartition:
    """Split of parties {0..n-1} into two nonempty groups."""

    left: frozenset[int]
    n_parties: int

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        if not self.left or not all(0 <= p < self.n_parties for p in self.left):
            raise ValueError("left side must be a nonempty subset of the parties")
        if len(self.left) >= self.n_parties:
            raise ValueError("right side must be nonempty")

    @property
    def right(self) -> frozenset[int]:
        return frozenset(range(self.n_parties)) - self.left

    def __repr__(self) -> str:
        return f"Bipartition({sorted(self.left)}|{sorted(self.right)})"


def iter_bipartitions(n_parties: int) -> list[Bipartition]:
    """One representative per unordered bipartition: party 0 stays on the left."""
    if n_parties < 2:
        raise ValueError("need at least two parties")
    rest = list(range(1, n_parties))
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            left = frozenset({0, *extra})
            if len(left) < n_parties:
                out.append(Bipartition(left, n_parties))
    return out


def schmidt_ranks(state_set: PhaseStateSet, cuts: Sequence[Bipartition]) -> np.ndarray:
    """(s, len(cuts)) Schmidt ranks of every state of the set on each cut.

    One batched SVD per cut of the amplitude matrix, each state reshaped to
    left parties x right parties; singular values at or below SCHMIDT_TOL
    times a state's largest count as zero.
    """
    s, radix = state_set.s, state_set.radix
    V = state_set.dense_all().reshape((s,) + radix)
    out = np.empty((s, len(cuts)), dtype=np.int64)
    for i, cut in enumerate(cuts):
        if cut.n_parties != len(radix):
            raise ValueError("cut does not match the state arity")
        left = sorted(cut.left)
        order = [0] + [p + 1 for p in left + sorted(cut.right)]
        mats = V.transpose(order).reshape(s, math.prod(radix[p] for p in left), -1)
        sv = np.linalg.svd(mats, compute_uv=False)
        out[:, i] = np.count_nonzero(sv > SCHMIDT_TOL * sv[:, :1], axis=1)
    return out


def genuine_entanglement_check(state_sets: Iterable[PhaseStateSet]) -> bool:
    """True iff every state has Schmidt rank >= 2 across every bipartition."""
    state_sets = list(state_sets)
    if not state_sets:
        raise ValueError("need at least one state set")
    n = len(state_sets[0].radix)
    if n < 2:
        raise ValueError("entanglement needs at least two parties")
    cuts = iter_bipartitions(n)
    return all((schmidt_ranks(ss, cuts) >= 2).all() for ss in state_sets)
