"""Combinatorial triviality checks for orthogonality-preserving measurements.

Everything here works on one "cut": a single kept party k, with the
measurement acting jointly on all remaining parties.  Each tuple splits at k
into its digit there and the rank of its other digits (its residual), and
the residuals index the operator space the measurement sees.  The three
checks read one label table of the cut, a transposed copy of the family's
label cube (`lattice.cut_table`): entry [g, r] names the label whose set
holds the tuple with digit g at k and residual r, or -1 where no set does.
The class of label l at digit g is the set of columns where row g holds l.

A label is "resolved" when one of three sufficient conditions forces any
orthogonality-preserving operator to be proportional to the identity on that
label's classes: a singleton class, a tight cover of one of its classes by
same-digit classes of other labels, or a cover contributed entirely by
already-resolved labels (iterated to a fixed point).  Both covers read one
co-occurrence count per cut over the U labels with no singleton class:
[j, tau, g, v] counts the columns where row tau holds the j-th of them and
row g holds label v (v = L: empty), d_k**2 * U * (L + 1) entries held to
the cap (`caps`).  With every label resolved, triviality of the whole
measurement reduces to two global conditions: every pair of residuals must
admit a common extension digit inside the family union, and the residual
footprints of the labels must form a connected overlap graph, whose
components the oracle's union-find (`lattice._components`) labels.  The one entry point,
`verify_strongest_nonlocality`, returns one `CutReport` per cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import caps
from .lattice import Label, SetFamily, _components, cut_table, member_cube, sorted_unique


class Condition(str, Enum):
    SINGLETON = "singleton"
    TIGHT_COVER = "tight_cover"
    CHAINED_COVER = "chained_cover"
    UNRESOLVED = "unresolved"

    def resolved(self) -> bool:
        return self is not Condition.UNRESOLVED


@dataclass(frozen=True)
class LabelVerdict:
    """How one label is resolved: the digit of its deciding class and, for a
    cover of that class, the common digit, the labels whose classes there
    contribute, and the first of them meeting the class in one column, if
    any (the cover is then tight)."""

    condition: Condition
    target_digit: int | None = None
    common_digit: int | None = None
    contributor_labels: tuple[Label, ...] = ()
    tight_label: Label | None = None


_UNRESOLVED = LabelVerdict(Condition.UNRESOLVED)


def _classify(table: np.ndarray, labels: list[Label]) -> dict[Label, LabelVerdict]:
    """Assign each label the first sufficient condition that resolves it.

    Singleton classes are claimed first, then tight covers with unrestricted
    contributors, then covers drawn solely from resolved labels, iterated
    until nothing changes.  Each label tries its classes in ascending digit
    and each class its common digits in ascending order; a cover lists as
    contributors every admitted label other than the target that has a
    class at the common digit.  The final resolved set does not depend on
    label order: each pass only grows it monotonically.
    """
    L, d_k = len(labels), table.shape[0]
    lab = table % (L + 1)  # an empty entry reads as label L, which nothing admits
    sizes = np.bincount((lab + np.arange(0, d_k * (L + 1), L + 1)[:, None]).ravel(),
                        minlength=d_k * (L + 1)).reshape(d_k, L + 1)
    sizes[:, L] = 0  # so label L is never present, single or resolved
    present = sizes > 0
    single = sizes == 1
    resolved = single.any(axis=0)
    first = single.argmax(axis=0).tolist()
    verdicts = {labels[i]: LabelVerdict(Condition.SINGLETON, target_digit=first[i])
                for i in resolved.nonzero()[0].tolist()}
    U = (~resolved[:L]).nonzero()[0]

    # one bincount per row g keeps the index within the size of the table
    caps.check(d_k * d_k * len(U) * (L + 1), "co-occurrence counts")
    slot = np.full(L + 1, -1)
    slot[U] = np.arange(len(U))
    u = slot[lab]
    rows, cols = (u >= 0).nonzero()
    key = (u[rows, cols] * d_k + rows) * (L + 1)
    count = np.empty((len(U), d_k, d_k, L + 1), dtype=np.int64)
    for g in range(d_k):
        count[:, :, g] = np.bincount(key + lab[g, cols], minlength=len(U) * d_k * (L + 1)
                                     ).reshape(len(U), d_k, L + 1)
    # class (tau, U[j]), where present, is covered at g when row g holds only
    # admitted labels there, so never at g == tau, where the target sits
    target = present[:, U].T[:, :, None]

    def resolve(condition: Condition, j: int, found: np.ndarray, admit: np.ndarray) -> None:
        tau, g = divmod(int(found.argmax()), d_k)
        once = (count[j, tau, g, :L] == 1).nonzero()[0].tolist()
        tight_label = labels[once[0]] if once else None
        i = int(U[j])
        contributors = (admit & present[g]).nonzero()[0].tolist()
        verdicts[labels[i]] = LabelVerdict(condition, tau, g,
                                           tuple(labels[v] for v in contributors), tight_label)
        resolved[i] = True

    # tight: every label but the target is admitted, whatever resolves first
    own = count[np.arange(len(U)), :, :, U]
    tight = target & (own + count[..., L] == 0) & (count[..., :L] == 1).any(axis=3)
    for j in tight.any(axis=(1, 2)).nonzero()[0].tolist():
        resolve(Condition.TIGHT_COVER, j, tight[j].ravel(), np.arange(L + 1) != U[j])

    # chained: only resolved labels are admitted, so labels go in order
    grew = True
    while grew:
        grew = False
        for j in (~resolved[U]).nonzero()[0].tolist():
            found = (target[j] & (count[j] @ ~resolved == 0)).ravel()
            if found.any():
                resolve(Condition.CHAINED_COVER, j, found, resolved)
                grew = True
    return {l: verdicts.get(l, _UNRESOLVED) for l in labels}


def _pair_covering(table: np.ndarray) -> bool:
    """Every two residual tuples must share an extension digit whose
    insertions at k both land inside the family union.

    Residual tuples with the same digit set are one row after
    deduplication; the R x R product of those rows is held to the cap.
    """
    has = np.ascontiguousarray(table.T >= 0)
    packed = np.packbits(has, axis=1)
    rows = sorted_unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    caps.check(len(rows) ** 2, "residual row pairs")
    ext = np.unpackbits(rows.view(np.uint8).reshape(len(rows), -1), axis=1).astype(np.float32)
    return bool((ext @ ext.T > 0).all())


def _connectivity(table: np.ndarray, n_labels: int) -> bool:
    """Labels form one component under "residual footprints intersect".

    Each nonempty column of the label table links every label in it to the
    largest one there, which keeps the components of the overlap graph;
    connected means every label lies in the component of label 0.
    """
    hit = table >= 0  # read column by column, so each column's hub repeats
    hub = table.max(axis=0).repeat(hit.sum(axis=0))
    return not _components(n_labels, table.T[hit.T], hub).any()


@dataclass
class CutReport:
    """Outcome of the combinatorial checks for one kept party."""

    k: int
    conditions: dict[Label, LabelVerdict]
    pair_covering: bool
    connectivity: bool
    overall: str


def _cut_overall(conditions: dict[Label, LabelVerdict], pair: bool, conn: bool) -> str:
    if any(not v.condition.resolved() for v in conditions.values()):
        return "inconclusive"
    return "trivial" if (pair and conn) else "nontrivial"


def verify_strongest_nonlocality(family: SetFamily, cuts: list[int] | None = None) -> list[CutReport]:
    """Run the per-cut combinatorial checks on every requested cut.

    "trivial" needs every label resolved plus pair covering plus
    connectivity; with all labels resolved and a global condition failing the
    cut is "nontrivial"; any unresolved label leaves it "inconclusive".
    The family is laid out once, as each tuple's label index; each cut's
    table is a transposed copy of that cube, read by all three checks.
    """
    n = len(family.radix)
    if n < 2:
        raise ValueError("verification needs at least two parties")
    if cuts is None:
        cuts = list(range(n))

    sizes = [len(ts) for ts in family.sets()]
    label = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    # an empty entry numbers member -1, which picks the -1 appended last
    cube = np.append(label, np.int32(-1))[member_cube(family.radix, family.sets())]
    reports = []
    for k in cuts:
        table = cut_table(cube, k)
        conditions = _classify(table, family.labels)
        pair = _pair_covering(table)
        conn = _connectivity(table, len(family))
        reports.append(CutReport(
            k=k, conditions=conditions, pair_covering=pair, connectivity=conn,
            overall=_cut_overall(conditions, pair, conn)))
    return reports


def overall_verdict(reports: list[CutReport]) -> str:
    if all(r.overall == "trivial" for r in reports):
        return "trivial"
    if any(r.overall == "nontrivial" for r in reports):
        return "nontrivial"
    return "inconclusive"
