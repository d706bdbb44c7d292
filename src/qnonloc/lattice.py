"""Digit-tuple lattices and the recursive circulant set families.

Tuples over Z_{d_1} x ... x Z_{d_N} are stored by their mixed-radix rank
(position 0 most significant), which keeps membership and serialization
order on sorted int64 vectors.  A SetFamily's sets are always disjoint.  A
modified family is built from d, n and the second removed digit xi alone: it
keeps the sets `kept_labels(d)` and moves its two constant tuples by rank to
a set of their own.  Its case, removed tuples and guarantee flag are derived
from d, n and xi (`_derived_meta`).  Both routes check the requested cuts
with `_requested_cuts`, lay a family out once per call as one `member_cube`,
read each cut from it (`cut_table`) and share the union-find `_components`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import caps
from .errors import InadmissibleXiError, InternalConsistencyError

EXTRA_LABEL = "extra"

Label = int | str
Tuple_ = tuple[int, ...]

_RANK_LIMIT = 2**62  # total cube size must stay indexable in int64

# The checker's cuts (`verifier`) and the entanglement check's splits
# (`states`) are stacked into blocks of at most this many array entries, at
# least one cut or split a block.  Below it a block's cost is mostly numpy's
# cost per call, which stacking shares; past it both checks gain nothing
# more, and a block of several large cuts costs more in memory traffic.
_BLOCK_ENTRIES = 8192


def _check_radix(radix: Sequence[int]) -> tuple[int, ...]:
    radix = tuple(radix)
    for d in radix:
        if not isinstance(d, (int, np.integer)):  # a bool is an int
            raise ValueError(f"radix entry {d!r} is not an integer")
    radix = tuple(int(d) for d in radix)
    if len(radix) == 0:
        raise ValueError("radix must have at least one position")
    if any(d < 2 for d in radix):
        raise ValueError(f"radix entries must be >= 2, got {radix}")
    if math.prod(radix) > _RANK_LIMIT:
        raise ValueError("radix product too large to index")
    return radix


def _weights(radix: Sequence[int]) -> np.ndarray:
    w = np.empty(len(radix), dtype=np.int64)
    acc = 1
    for p in range(len(radix) - 1, -1, -1):
        w[p] = acc
        acc *= radix[p]
    return w


def _decode(ranks: np.ndarray, radix: Sequence[int]) -> np.ndarray:
    """Rank vector -> digit matrix, one row per tuple."""
    return ranks.astype(np.int64)[:, None] // _weights(radix) % np.asarray(radix)


def _encode(digits: np.ndarray, radix: Sequence[int]) -> np.ndarray:
    return digits.astype(np.int64) @ _weights(radix)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, ascending, by one sort.

    Works on any sortable dtype, packed `np.void` rows included.  Unlike
    numpy's hash-based `unique`, it never imports `numpy.ma`, and input that
    is already sorted (as every TupleSet's ranks are) sorts fast.
    """
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def has_repeat(a: np.ndarray) -> bool:
    """True iff some entry of a 1-d array occurs twice."""
    a = np.sort(a)
    return bool((a[1:] == a[:-1]).any())


def _components(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component under edges (a, b).

    Hook and compress: every root adopts the smallest root across its
    edges, then pointer jumping flattens the forest to stars.  Pointers only
    ever decrease, so no cycle forms; every root with an edge to another
    root merges each round, so such roots at least halve per round.
    """
    lab = np.arange(n_nodes, dtype=np.int64)
    la, lb = a, b  # every node is a root at first
    while True:
        # la and lb are roots, so only the larger of the two can move
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = lab[lab]
            if not np.count_nonzero(jumped != lab):
                break
            lab = jumped
        la, lb = lab[a], lab[b]
        if not np.count_nonzero(la != lb):  # a cheaper call than .all() on small arrays
            return lab


def member_cube(radix: tuple[int, ...], sets: Sequence[TupleSet], *,
                limit: int | None = None) -> np.ndarray:
    """Radix-shaped array numbering each tuple's member (counting through
    `sets` in order), or -1 where none sits.  It has an entry per tuple of
    the cube, which is held to the cap (`limit`, as `caps.check` reads it);
    a tuple in two sets is an InternalConsistencyError."""
    total = math.prod(radix)
    caps.check(total, "tuples in the cube", limit=limit)
    ranks = np.concatenate([ts.ranks for ts in sets])
    cube = np.full(total, -1, dtype=np.int64)
    cube[ranks] = np.arange(len(ranks))
    if np.count_nonzero(cube >= 0) != len(ranks):
        raise InternalConsistencyError("sets overlap: a tuple sits in two of them")
    return cube.reshape(radix)


def _requested_cuts(n: int, cuts: Sequence[int] | None) -> list[int]:
    """The cuts of an n-party family a call decides, every one by default,
    as Python ints; a ValueError, before any work, unless n >= 2 and the
    request is a list of at least one cut, each an integer (not a bool) in
    0..n-1."""
    if n < 2:
        raise ValueError("a cut needs at least two parties")
    try:
        cuts = list(range(n)) if cuts is None else list(cuts)
    except TypeError:
        raise ValueError(f"cuts {cuts!r} is not a list of integers") from None
    if not cuts:
        raise ValueError("no cut requested")
    for k in cuts:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"cut {k!r} is not an integer")
        if not 0 <= k < n:
            raise ValueError(f"cut {k} out of range for arity {n}")
    return [int(k) for k in cuts]


def cut_table(cube: np.ndarray, k: int) -> np.ndarray:
    """(d_k, D) layout of cut k, checked by `_requested_cuts`: entry [g, r] is
    the cube's entry with digit g at k and rank r for the other digits, in
    their order, so a TupleSet's canonical order survives in each digit class."""
    d_k, lo = cube.shape[k], math.prod(cube.shape[k + 1:])
    return cube.reshape(-1, d_k, lo).transpose(1, 0, 2).reshape(d_k, -1)


def _label_in(key: str) -> Label:
    """The label a set key names: an integer when the key is that integer's
    own text ("3", "-1"), so that no two keys name one label; else the key."""
    try:
        return int(key) if str(int(key)) == key else key
    except ValueError:
        return key


class TupleSet:
    """Immutable nonempty set of same-radix digit tuples in canonical
    (lexicographic) order; no tuple, a radix entry below 2, a digit or
    radix entry that is not an int, a bool or a numpy integer, or a rank array
    whose dtype is not an integer one is a ValueError."""

    __slots__ = ("radix", "ranks")

    def __init__(self, radix: Sequence[int], ranks: np.ndarray):
        self.radix = _check_radix(radix)
        ranks = np.asarray(ranks)
        if ranks.ndim != 1 or not len(ranks):
            raise ValueError("ranks must be a nonempty 1-d array")
        if ranks.dtype.kind not in "iu":
            raise ValueError(f"ranks must be integers, got an array of dtype {ranks.dtype}")
        if ranks.min() < 0 or ranks.max() >= math.prod(self.radix):
            raise ValueError("rank out of range for radix")
        ranks = sorted_unique(ranks.astype(np.int64, copy=False))
        ranks.setflags(write=False)
        self.ranks = ranks

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_tuples(cls, radix: Sequence[int], tuples: Iterable[Sequence[int]]) -> "TupleSet":
        """From digit tuples, as `from_digits` takes their matrix, whose
        inferred dtype keeps a digit that is not an integer for it to refuse."""
        rows = [tuple(t) for t in tuples]
        # no rows reshape to (0, n), for TupleSet to refuse; rows of other arity do not fit
        digits = np.array(rows) if rows else np.empty(0, dtype=np.int64)
        return cls.from_digits(radix, digits.reshape(len(rows), len(radix)))

    @classmethod
    def from_digits(cls, radix: Sequence[int], digits: np.ndarray) -> "TupleSet":
        """From an integer or bool digit matrix, one row per tuple; repeated
        rows collapse.  A matrix of any other dtype is a ValueError."""
        radix = _check_radix(radix)
        if digits.dtype.kind not in "biu":
            raise ValueError(f"digits must be integers, got a matrix of dtype {digits.dtype}")
        if digits.ndim != 2 or digits.shape[1] != len(radix):
            raise ValueError(f"digit matrix of shape {digits.shape} does not fit radix {radix}")
        bad = ((digits < 0) | (digits >= np.asarray(radix))).any(axis=0)
        if bad.any():
            p = int(np.argmax(bad))
            raise ValueError(f"digit out of range at position {p} (radix {radix[p]})")
        return cls(radix, _encode(digits, radix))

    # ---- basic protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[Tuple_]:
        return map(tuple, self.members().tolist())

    def __contains__(self, item: Sequence[int]) -> bool:
        t = tuple(item)  # an entry that is not an integer (a bool is one) is in no set
        if len(t) != len(self.radix):
            return False
        if not all(isinstance(x, (int, np.integer)) and 0 <= x < d for x, d in zip(t, self.radix)):
            return False
        r = _encode(np.asarray([t], dtype=np.int64), self.radix)[0]
        i = np.searchsorted(self.ranks, r)
        return i < len(self.ranks) and self.ranks[i] == r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        return self.radix == other.radix and np.array_equal(self.ranks, other.ranks)

    def __hash__(self) -> int:
        return hash((self.radix, self.ranks.tobytes()))

    def __repr__(self) -> str:
        return f"TupleSet(radix={self.radix}, size={len(self)})"

    def members(self) -> np.ndarray:
        """Digit matrix in canonical order (rows sorted lexicographically)."""
        return _decode(self.ranks, self.radix)

    def tuples(self) -> list[Tuple_]:
        return list(self)


class SetFamily:
    """Labeled collection of pairwise-disjoint TupleSets over one radix.

    No set, sets that share a tuple, a label that is not an int or a str (a
    bool or a numpy integer say) and a str that is an int's own text ("3",
    which a file reads as 3) are refused with a ValueError.  Its sets are
    nonempty over radix entries >= 2, so every SetFamily can be written.
    Label order is canonical: integer labels ascending, then string labels.
    """

    def __init__(self, radix: Sequence[int], sets: dict[Label, TupleSet]):
        self.radix = _check_radix(radix)
        if not sets:
            raise ValueError("family must contain at least one set")
        for l in sets:
            if isinstance(l, bool) or not isinstance(l, (int, str)):
                raise ValueError(f"set label {l!r} is neither an int nor a str")
            if isinstance(l, str) and _label_in(l) != l:
                raise ValueError(f"set label {l!r} is an int's text, so a file reads it as an int")
        self._sets = {l: sets[l] for l in sorted(sets, key=lambda l: (isinstance(l, str), l))}
        for l, ts in self._sets.items():
            if ts.radix != self.radix:
                raise ValueError(f"set {l!r} has radix {ts.radix}, family has {self.radix}")
        if has_repeat(np.concatenate([ts.ranks for ts in self._sets.values()])):
            raise ValueError("member sets are not pairwise disjoint")

    @property
    def labels(self) -> list[Label]:
        return list(self._sets)

    def __getitem__(self, label: Label) -> TupleSet:
        return self._sets[label]

    def __contains__(self, label: Label) -> bool:
        return label in self._sets

    def __len__(self) -> int:
        return len(self._sets)

    def items(self):
        return self._sets.items()

    def sets(self) -> list[TupleSet]:
        return list(self._sets.values())

    def total_size(self) -> int:
        return sum(len(ts) for ts in self._sets.values())

    def drop(self, label: Label) -> "SetFamily":
        """Family with one labeled set removed."""
        if label not in self._sets:
            raise KeyError(label)
        remaining = {l: ts for l, ts in self._sets.items() if l != label}
        return SetFamily(self.radix, remaining)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.radix == other.radix and self._sets == other._sets

    def __repr__(self) -> str:
        return f"{type(self).__name__}(radix={self.radix}, labels={self.labels})"


# ====================================================================
# recursive family construction
# ====================================================================

def build_index_family(d: int, n: int) -> SetFamily:
    """The d sets of n-digit tuples generated by the circulant recursion.

    Level 1 puts digit i in set i; level n prepends digit (i - j) mod d to every
    level n-1 tuple of set j.  The result partitions the full cube Z_d**n:
    set i holds exactly the tuples whose digit sum is i mod d, so each set is
    invariant under every permutation of the positions.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    caps.check(d**n, "tuples in the cube")

    level = [np.array([i], dtype=np.int64) for i in range(d)]
    for m in range(2, n + 1):
        block = d ** (m - 1)
        level = [
            np.sort(np.concatenate([((i - j) % d) * block + level[j] for j in range(d)]))
            for i in range(d)
        ]
    radix = (d,) * n
    return SetFamily(radix, {i: TupleSet(radix, level[i]) for i in range(d)})


# ====================================================================
# label selection and the modified construction
# ====================================================================

def kept_labels(d: int) -> list[int]:
    """Labels the modified construction keeps, ascending: 0, the odd labels
    below floor(d/2), and floor(d/2).  Their pairwise cyclic distances cover
    every value in 1..floor(d/2).  The stated guarantee needs d >= 4."""
    return [0, *range(1, d // 2, 2), d // 2]


def diagonal_home(xi: int, n: int, d: int) -> int:
    """Label of the set containing the constant tuple (xi, ..., xi) of arity n."""
    if d < 2 or not 0 <= xi < d:
        raise ValueError("need 0 <= xi < d")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (xi * (n % d)) % d


def _case_split(d: int, n: int) -> tuple[str, int]:
    """The case of a = n mod d and its structured xi: case I (a = 0) takes
    xi = 1, since every nonzero digit has home 0; case II (gcd(a, d) = 1)
    solves xi * a = floor(d/2) mod d; case III takes xi = d / gcd(a, d),
    which lands on home 0."""
    a = n % d
    if a == 0:
        return "I", 1
    if math.gcd(a, d) == 1:
        return "II", ((d // 2) * pow(a, -1, d)) % d
    return "III", d // math.gcd(a, d)


def choose_xi(d: int, n: int, strategy: int | str = "smallest") -> int:
    """Pick the second removed diagonal digit.

    A nonzero digit xi is admissible when its diagonal home is a kept label.
    "smallest" returns the least admissible digit, "structured" the digit of
    the case split on n mod d.  An integer (not a bool; a numpy integer
    too) must be an admissible digit in 1..d-1, and is returned as an int.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    kept = kept_labels(d)

    def admissible(x: int) -> bool:
        return x != 0 and diagonal_home(x, n, d) in kept

    if isinstance(strategy, (int, np.integer)) and not isinstance(strategy, bool):
        strategy = int(strategy)
        if not 1 <= strategy < d:
            raise InadmissibleXiError(f"xi={strategy} outside 1..{d - 1}")
        if not admissible(strategy):
            raise InadmissibleXiError(
                f"xi={strategy} maps to label {diagonal_home(strategy, n, d)}, "
                f"which is not kept (kept: {kept})")
        return strategy

    if strategy == "smallest":
        for x in range(1, d):
            if admissible(x):
                return x
        raise InadmissibleXiError(f"no admissible xi for d={d}, n={n}")

    if strategy == "structured":
        x = _case_split(d, n)[1]
        if not admissible(x):
            raise InternalConsistencyError(
                f"structured choice xi={x} inadmissible for d={d}, n={n}")
        return x

    raise ValueError(f"unknown strategy {strategy!r}")


def _derived_meta(d: int, n: int, xi: int) -> tuple[str, list[tuple[Label, Tuple_]], bool]:
    """A modified family's case, its two removed constant tuples (each after
    its home label) and its beyond-guarantee flag, from d, n and an
    admissible xi alone; it builds no digit rows."""
    return (_case_split(d, n)[0], [(diagonal_home(x, n, d), (x,) * n) for x in (0, xi)],
            d < 4)


class ModifiedFamily(SetFamily):
    """Construction output: kept recursive sets with two constant tuples rehomed.

    Built from d, n and xi alone (an admissible digit or a `choose_xi`
    strategy name): the all-zeros tuple leaves set 0 and the all-xi tuple
    leaves its home set, both for a fresh set under the label "extra".  It is
    a SetFamily like any other, and equality, like SetFamily's, compares
    radix and sets only.  d, n and `xi` are all it stores of its
    construction: `case`, `removed` and `beyond_guarantee` follow from them.
    """

    def __init__(self, d: int, n: int, xi: int | str = "smallest"):
        if d < 2:
            raise ValueError("d must be >= 2")
        if n < 3:
            raise ValueError("n must be >= 3")
        self._xi = choose_xi(d, n, xi)

        # the constant tuple (x, ..., x) has rank x * (d**n - 1) / (d - 1); a
        # constant left in a kept set overlaps "extra", which SetFamily refuses
        consts = [0, self._xi * (d**n - 1) // (d - 1)]
        base = build_index_family(d, n)
        sets: dict[Label, TupleSet] = {
            t: TupleSet(base.radix, base[t].ranks[~np.isin(base[t].ranks, consts)])
            for t in kept_labels(d)}
        sets[EXTRA_LABEL] = TupleSet(base.radix, consts)
        super().__init__(base.radix, sets)

        expected = construction_size(d, n)
        if self.total_size() != expected:
            raise InternalConsistencyError(
                f"built {self.total_size()} tuples, size formula says {expected}")

    @property
    def xi(self) -> int:
        """The second removed digit; read-only, as everything derived from it
        and the sets must agree."""
        return self._xi

    @property
    def case(self) -> str:
        """"I", "II" or "III": the case of n mod d."""
        return _derived_meta(self.radix[0], len(self.radix), self.xi)[0]

    @property
    def removed(self) -> list[tuple[Label, Tuple_]]:
        """The two constant tuples moved to "extra", each after its home label."""
        return _derived_meta(self.radix[0], len(self.radix), self.xi)[1]

    @property
    def beyond_guarantee(self) -> bool:
        """True below d = 4, where the stated guarantee ends."""
        return _derived_meta(self.radix[0], len(self.radix), self.xi)[2]

    @property
    def family(self) -> SetFamily:
        """The same sets as a plain SetFamily."""
        return SetFamily(self.radix, self._sets)


def build_modified_family(d: int, n: int, xi: int | str = "smallest") -> ModifiedFamily:
    """`ModifiedFamily(d, n, xi)`: kept-label family with the two constant
    tuples moved to an extra set."""
    return ModifiedFamily(d, n, xi)


def construction_size(d: int, n: int) -> int:
    """Total tuple count of the modified construction, |kept| * d**(n-1): each
    kept set holds d**(n-1) tuples, and the two it loses form the extra set."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    return len(kept_labels(d)) * d ** (n - 1)
