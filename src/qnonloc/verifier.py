"""Combinatorial triviality checks for orthogonality-preserving measurements.

Everything here works on one "cut": a single kept party k, with the
measurement acting jointly on all remaining parties.  Tuples of a family are
grouped into blocks by their digit at k; the residual tuples (position k
deleted, order preserved) index the operator space the measurement sees.

A label is "resolved" when one of three sufficient conditions forces any
orthogonality-preserving operator to be proportional to the identity on that
label's blocks: a singleton residual class, a tight cover of one of its
classes by same-digit classes of other labels, or a cover contributed
entirely by already-resolved labels (iterated to a fixed point).  With every
label resolved, triviality of the whole measurement reduces to two global
conditions: every pair of residual tuples must admit a common extension digit
inside the family union, and the residual footprints of the labels must form
a connected overlap graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import caps
from .errors import ResourceLimitError
from .lattice import (Label, ModifiedFamily, SetFamily, TupleSet, residual_radix,
                      split_at, verify_permutation_invariance)


@dataclass(frozen=True)
class BlockDecomposition:
    """Classes of one labeled set at cut k, keyed by the digit at position k."""

    label: Label | None
    k: int
    classes: dict[int, TupleSet]


def block_decompose(tset: TupleSet, k: int, label: Label | None = None) -> BlockDecomposition:
    n = len(tset.radix)
    if not 0 <= k < n:
        raise ValueError(f"cut {k} out of range for arity {n}")
    digit, resid = split_at(tset.ranks, tset.radix, k)
    reduced = residual_radix(tset.radix, k)
    classes = {g: TupleSet(reduced, resid[digit == g]) for g in np.unique(digit).tolist()}
    return BlockDecomposition(label=label, k=k, classes=classes)


@dataclass(frozen=True)
class BlockCover:
    """One residual class covered by same-digit classes of other labels."""

    target_label: Label
    target_digit: int
    common_digit: int
    contributor_labels: tuple[Label, ...]
    tight: bool
    tight_label: Label | None = None


def _decompose_family(family: SetFamily, k: int) -> dict[Label, BlockDecomposition]:
    return {l: block_decompose(family[l], k, label=l) for l in family.labels}


def _find_cover(decomps: dict[Label, BlockDecomposition], order: list[Label],
                target_label: Label, target_digit: int, d_k: int,
                allowed: set[Label] | None, require_tight: bool) -> BlockCover | None:
    target_res = decomps[target_label].classes[target_digit]
    for g in range(d_k):
        if g == target_digit:
            continue
        contributors = []
        for v in order:
            if v == target_label:
                continue
            if allowed is not None and v not in allowed:
                continue
            cls = decomps[v].classes.get(g)
            if cls is not None:
                contributors.append((v, cls))
        if not contributors:
            continue
        union = np.unique(np.concatenate([c.ranks for _, c in contributors]))
        if len(np.setdiff1d(target_res.ranks, union, assume_unique=True)) != 0:
            continue
        tight_label = None
        for v, cls in contributors:
            if len(np.intersect1d(cls.ranks, target_res.ranks, assume_unique=True)) == 1:
                tight_label = v
                break
        if require_tight and tight_label is None:
            continue
        return BlockCover(target_label=target_label, target_digit=target_digit,
                          common_digit=g,
                          contributor_labels=tuple(v for v, _ in contributors),
                          tight=tight_label is not None, tight_label=tight_label)
    return None


def find_block_cover(family: SetFamily, target: tuple[Label, int], k: int,
                     allowed_labels: set[Label] | None = None,
                     require_tight: bool = False) -> BlockCover | None:
    """Search the covers of one target class; None when no digit works.

    Common digits are scanned in ascending order and the first admissible
    cover is returned, so results are deterministic.
    """
    target_label, target_digit = target
    decomps = _decompose_family(family, k)
    if target_label not in decomps:
        raise KeyError(target_label)
    if target_digit not in decomps[target_label].classes:
        raise KeyError(f"label {target_label!r} has no class with digit {target_digit}")
    return _find_cover(decomps, family.labels, target_label, target_digit,
                       family.radix[k], allowed_labels, require_tight)


class Condition(str, Enum):
    SINGLETON = "singleton"
    TIGHT_COVER = "tight_cover"
    CHAINED_COVER = "chained_cover"
    UNRESOLVED = "unresolved"

    def resolved(self) -> bool:
        return self is not Condition.UNRESOLVED


@dataclass(frozen=True)
class LabelVerdict:
    condition: Condition
    target_digit: int | None = None
    cover: BlockCover | None = None


def classify_block_triviality(family: SetFamily, k: int) -> dict[Label, LabelVerdict]:
    """Assign each label the first sufficient condition that resolves it.

    Singleton classes are claimed first, then tight covers with unrestricted
    contributors, then covers drawn solely from resolved labels, iterated
    until nothing changes.  The final resolved set does not depend on label
    order: each pass only grows it monotonically.
    """
    decomps = _decompose_family(family, k)
    order = family.labels
    d_k = family.radix[k]
    verdicts: dict[Label, LabelVerdict] = {}
    resolved: set[Label] = set()

    for l in order:
        for g, res in decomps[l].classes.items():
            if len(res) == 1:
                verdicts[l] = LabelVerdict(Condition.SINGLETON, target_digit=g)
                resolved.add(l)
                break

    for l in order:
        if l in resolved:
            continue
        for tau in sorted(decomps[l].classes):
            cover = _find_cover(decomps, order, l, tau, d_k, None, require_tight=True)
            if cover is not None:
                verdicts[l] = LabelVerdict(Condition.TIGHT_COVER, target_digit=tau,
                                           cover=cover)
                resolved.add(l)
                break

    changed = True
    while changed:
        changed = False
        for l in order:
            if l in resolved:
                continue
            for tau in sorted(decomps[l].classes):
                cover = _find_cover(decomps, order, l, tau, d_k, resolved,
                                    require_tight=False)
                if cover is not None:
                    verdicts[l] = LabelVerdict(Condition.CHAINED_COVER,
                                               target_digit=tau, cover=cover)
                    resolved.add(l)
                    changed = True
                    break

    for l in order:
        verdicts.setdefault(l, LabelVerdict(Condition.UNRESOLVED))
    return {l: verdicts[l] for l in order}


def check_pair_covering(family: SetFamily, k: int, cap: int | None = None) -> bool:
    """Every two residual tuples must share an extension digit whose
    insertions at k both land inside the family union.

    The table of extension digits holds one bit for each tuple of the cube,
    so the cube is held to the enumeration cap.  Residual tuples with the
    same digit set are one row after deduplication.
    """
    radix = family.radix
    total = math.prod(radix)
    limit = caps.enum_cap(cap)
    if total > limit:
        raise ResourceLimitError(f"cube of {total} tuples exceeds enumeration cap {limit}")
    ranks = np.concatenate([ts.ranks for ts in family.sets()])
    digit, resid = split_at(ranks, radix, k)
    has = np.zeros((total // radix[k], radix[k]), dtype=bool)
    has[resid, digit] = True
    if not has.any(axis=1).all():
        return False
    packed = np.packbits(has, axis=1)
    rows = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    ext = np.unpackbits(rows.view(np.uint8).reshape(len(rows), -1), axis=1).astype(np.float32)
    return bool((ext @ ext.T > 0).all())


def check_connectivity(family: SetFamily, k: int) -> bool:
    """Labels form one component under "residual footprints intersect"."""
    footprints = {l: np.unique(split_at(ts.ranks, family.radix, k)[1])
                  for l, ts in family.items()}
    labels = family.labels
    seen = {labels[0]}
    frontier = [labels[0]]
    while frontier:
        cur = frontier.pop()
        for other in labels:
            if other in seen:
                continue
            if len(np.intersect1d(footprints[cur], footprints[other])) > 0:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(labels)


@dataclass
class CutReport:
    """Outcome of the combinatorial checks for one kept party."""

    k: int
    conditions: dict[Label, LabelVerdict]
    pair_covering: bool
    connectivity: bool
    overall: str
    symmetric: bool | None = None

    @property
    def all_resolved(self) -> bool:
        return all(v.condition.resolved() for v in self.conditions.values())


def _cut_overall(conditions: dict[Label, LabelVerdict], pair: bool, conn: bool) -> str:
    if any(not v.condition.resolved() for v in conditions.values()):
        return "inconclusive"
    return "trivial" if (pair and conn) else "nontrivial"


def verify_strongest_nonlocality(family: SetFamily | ModifiedFamily,
                                 cuts: list[int] | None = None,
                                 cap: int | None = None) -> list[CutReport]:
    """Run the per-cut combinatorial checks on every requested cut.

    "trivial" needs every label resolved plus pair covering plus
    connectivity; with all labels resolved and a global condition failing the
    cut is "nontrivial"; any unresolved label leaves it "inconclusive".
    The party-permutation symmetry of the family is recorded on each report
    but never gates the verdict.
    """
    if isinstance(family, ModifiedFamily):
        family = family.family
    n = len(family.radix)
    if n < 2:
        raise ValueError("verification needs at least two parties")
    if cuts is None:
        cuts = list(range(n))
    for k in cuts:
        if not 0 <= k < n:
            raise ValueError(f"cut {k} out of range for arity {n}")

    try:
        symmetric = all(verify_permutation_invariance(ts) for ts in family.sets())
    except ValueError:
        symmetric = False

    reports = []
    for k in cuts:
        conditions = classify_block_triviality(family, k)
        pair = check_pair_covering(family, k, cap=cap)
        conn = check_connectivity(family, k)
        reports.append(CutReport(
            k=k, conditions=conditions, pair_covering=pair, connectivity=conn,
            overall=_cut_overall(conditions, pair, conn), symmetric=symmetric))
    return reports


def overall_verdict(reports: list[CutReport]) -> str:
    if all(r.overall == "trivial" for r in reports):
        return "trivial"
    if any(r.overall == "nontrivial" for r in reports):
        return "nontrivial"
    return "inconclusive"
