"""Combinatorial triviality checks for orthogonality-preserving measurements.

Each check is about one "cut": a single kept party k, with the measurement
acting jointly on all remaining parties.  Each tuple splits at k into its
digit there and the rank of its other digits (its residual), and the
residuals index the operator space the measurement sees.  The three checks
read one label table of the cut, a transposed copy of the family's label
cube (`lattice.cut_table`): entry [g, r] names the label whose set holds
the tuple with digit g at k and residual r, or -1 where no set does.  The
class of label l at digit g is the set of columns where row g holds l.

A label is "resolved" when one of three sufficient conditions forces any
orthogonality-preserving operator to be proportional to the identity on that
label's classes: a singleton class, a tight cover of one of its classes by
same-digit classes of other labels, or a cover contributed entirely by
already-resolved labels.  Chained covers go in rounds to a fixed point: a
round admits exactly the labels resolved before it and resolves every
label it finds covered, so a chained cover cites only labels resolved in
earlier rounds, and no verdict depends on how the labels are numbered
beyond which contributor is named as tight.  Both covers read one
co-occurrence count per cut over the U labels with no singleton class:
[j, tau, g, v] counts the columns where row tau holds the j-th of them and
row g holds label v (v = L: empty), d_k**2 * U * (L + 1) entries held to
the cap (`caps`).  With every label resolved, triviality of the whole
measurement reduces to two global conditions: every pair of residuals must
admit a common extension digit inside the family union, and the residual
footprints of the labels must form a connected overlap graph, whose
components the oracle's union-find (`lattice._components`) labels.  Either
failing proves the cut nontrivial for every bijection: residuals with no
common digit leave their entry met by no pair, and split footprints split
the diagonal into free classes.

The one entry point, `verify_strongest_nonlocality`, returns one
`CutReport` per cut.  It stacks the tables of the requested cuts with the
same d_k into blocks of at most _BLOCK_ENTRIES entries and runs each check
once per block with a leading cut axis: the co-occurrence count is keyed by
(cut, target label), pair covering deduplicates fill patterns per cut, and
connectivity labels the components of cut-offset label nodes.  Every cap
still holds each cut's own count, so a block allocates the sum of its cuts'
checked counts.

A cut of more than _BLOCK_ENTRIES // 2 entries is a block of its own, and
is checked on its distinct columns, each kept at most twice, found by one
sort: the cover search reads its counts only as 0, 1 or more, while pair
covering and connectivity read only which columns occur.  So every verdict
and every checked count is the full table's, and the work after the sort
follows the distinct columns, not D: a cut of modified (d, n) has d + 2 of
them whatever n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import caps
from .lattice import (_BLOCK_ENTRIES, Label, SetFamily, _components, _requested_cuts, cut_table,
                      member_cube, sorted_unique)


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
    any (the cover is then tight).  A chained cover's contributors are
    labels resolved in rounds before the one that resolved this label."""

    condition: Condition
    target_digit: int | None = None
    common_digit: int | None = None
    contributor_labels: tuple[Label, ...] = ()
    tight_label: Label | None = None


_UNRESOLVED = LabelVerdict(Condition.UNRESOLVED)


def _classify(tables: np.ndarray, labels: list[Label],
              limit: int) -> list[dict[Label, LabelVerdict]]:
    """Assign each label of each stacked cut the first sufficient condition
    that resolves it.

    Singleton classes are claimed first, then tight covers with unrestricted
    contributors, then chained covers drawn solely from resolved labels, in
    rounds until one finds nothing.  A round admits exactly the labels
    resolved before it and resolves every target it finds, in every cut at
    once, so a chained cover cites only labels of earlier rounds, and the
    rounds reach the one least fixed point whatever the label order.  Each
    label tries its classes in ascending digit and each class its common
    digits in ascending order; a cover lists as contributors every admitted
    label other than the target that has a class at the common digit.  A
    label of one cut is a different target from the same label of another:
    the co-occurrence count is keyed by (cut, unresolved label).

    Each count is read only as 0, 1 or more: class sizes as > 0 and == 1,
    co-occurrence counts as own + empty == 0 and == 1, and `blocked`, a sum
    of them, as == 0.  So a third copy of a column changes no verdict and no
    checked count, and a table may keep each distinct column at most twice.
    """
    C, d_k, D = tables.shape
    L = len(labels)
    lab = tables % (L + 1)  # an empty entry reads as label L, which nothing admits
    row = np.arange(0, C * d_k * (L + 1), L + 1).reshape(C, d_k, 1)
    sizes = np.bincount((lab + row).ravel(), minlength=C * d_k * (L + 1)).reshape(C, d_k, L + 1)
    sizes[..., L] = 0  # so label L is never present, single or resolved
    present = sizes > 0
    single = sizes == 1
    resolved = single.any(axis=1)
    first = single.argmax(axis=1).tolist()
    verdicts: list[dict[Label, LabelVerdict]] = [{} for _ in range(C)]
    for c, i in zip(*(x.tolist() for x in resolved.nonzero())):
        verdicts[c][labels[i]] = LabelVerdict(Condition.SINGLETON, target_digit=first[c][i])
    cut, U = (~resolved[:, :L]).nonzero()  # target j is label U[j] of cut cut[j]
    for n_targets in np.bincount(cut, minlength=C).tolist():
        caps.check(d_k * d_k * n_targets * (L + 1), "co-occurrence counts", limit=limit)

    # one bincount per row g keeps the index within the size of the tables
    slot = np.full((C, L + 1), -1)
    slot[cut, U] = np.arange(len(U))
    u = slot[np.arange(C)[:, None, None], lab].ravel()
    at = np.flatnonzero(u >= 0)  # entry (c, tau, col) sits at (c * d_k + tau) * D + col
    tau = at // D % d_k
    key = (u[at] * d_k + tau) * (L + 1)
    at -= tau * D
    lab = lab.ravel()
    count = np.empty((len(U), d_k, d_k, L + 1), dtype=np.int64)
    for g in range(d_k):
        count[:, :, g] = np.bincount(key + lab[at + g * D], minlength=len(U) * d_k * (L + 1)
                                     ).reshape(len(U), d_k, L + 1)
    # class (tau, U[j]), where present, is covered at g when row g holds only
    # admitted labels there, so never at g == tau, where the target sits
    target = present[cut, :, U][:, :, None]
    target_cut, target_label = cut.tolist(), [labels[i] for i in U.tolist()]

    def record(condition: Condition, js: np.ndarray, found: np.ndarray, admit: np.ndarray) -> None:
        """Resolve targets `js` at the first (tau, g) each one `found`, with
        the admitted labels of each in the rows of `admit`."""
        if not len(js):
            return
        pair = found.reshape(len(js), d_k * d_k).argmax(axis=1)
        tau, g = pair // d_k, pair % d_k
        once = count[js, tau, g, :L] == 1
        tight_label = np.where(once.any(axis=1), once.argmax(axis=1), -1).tolist()
        rows, v = (admit & present[cut[js], g]).nonzero()
        ends = np.bincount(rows, minlength=len(js)).cumsum().tolist()
        v = [labels[x] for x in v.tolist()]
        for j, t, h, o, start, end in zip(js.tolist(), tau.tolist(), g.tolist(), tight_label,
                                          [0, *ends], ends):
            verdicts[target_cut[j]][target_label[j]] = LabelVerdict(
                condition, t, h, tuple(v[start:end]), labels[o] if o >= 0 else None)
        resolved[cut[js], U[js]] = True

    # tight: every label but the target is admitted, whatever resolves first
    own = count[np.arange(len(U)), :, :, U]
    tight = target & (own + count[..., L] == 0) & (count[..., :L] == 1).any(axis=3)
    js = tight.reshape(len(U), d_k * d_k).any(axis=1).nonzero()[0]
    record(Condition.TIGHT_COVER, js, tight[js], np.arange(L + 1) != U[js, None])

    # chained, in rounds: a round admits the labels its cut resolved before it
    # and resolves every target it finds.  blocked[j, tau, g] counts the
    # columns where row g holds a label not admitted for target j, and
    # (tau, g) is found at 0; after a round it falls by the counts of the
    # labels the target's cut resolved in that round.
    blocked = (count @ ~resolved[cut, None, :, None])[..., 0]
    rest = (~resolved[cut, U]).nonzero()[0]
    while len(rest):
        found = target[rest] & (blocked[rest] == 0)
        hit = found.reshape(len(rest), d_k * d_k).any(axis=1)
        if not hit.any():
            break
        js, rest = rest[hit], rest[~hit]
        record(Condition.CHAINED_COVER, js, found[hit], resolved[cut[js]])
        new = np.zeros((C, L + 1), dtype=bool)  # the labels each cut resolved in this round
        new[cut[js], U[js]] = True
        now = new.any(axis=0).nonzero()[0]  # so the product below is no larger than count
        falls = count[rest[:, None], :, :, now] * new[cut[rest, None], now][..., None, None]
        blocked[rest] -= falls.sum(axis=1)
    return [{l: v.get(l, _UNRESOLVED) for l in labels} for v in verdicts]


def _pair_covering(tables: np.ndarray, limit: int) -> list[bool]:
    """Every two residual tuples of a cut must share an extension digit
    whose insertions at k both land inside the family union.

    Residual tuples of one cut with the same digit set are one row after
    deduplication, keyed by cut; the R x R product of a cut's rows is held
    to the cap.  Each cut's rows are padded to the block's largest R with
    rows of all digits, which meet every row but an empty one, and an empty
    row already fails on its own.
    """
    C, d_k, D = tables.shape
    width = 2 + (d_k + 7) // 8
    # each row leads with its cut in two big-endian bytes (a block holds at most
    # _BLOCK_ENTRIES cuts), so the rows of a cut sort together
    keyed = np.empty((C, D, width), dtype=np.uint8)
    keyed[..., :2] = np.arange(C, dtype=">u2").view(np.uint8).reshape(C, 1, 2)
    keyed[..., 2:] = np.packbits(tables.transpose(0, 2, 1) >= 0, axis=2)
    rows = sorted_unique(keyed.view(np.dtype((np.void, width))).ravel())
    rows = rows.view(np.uint8).reshape(len(rows), width)
    owner = rows[:, 0].astype(np.int64) * 256 + rows[:, 1]
    R = np.bincount(owner, minlength=C)
    for r in R.tolist():
        caps.check(r * r, "residual row pairs", limit=limit)
    ext = np.ones((C, R.max(), 8 * (width - 2)), dtype=np.float32)
    ext[owner, np.arange(len(rows)) - (R.cumsum() - R)[owner]] = np.unpackbits(rows[:, 2:], axis=1)
    return (ext @ ext.transpose(0, 2, 1) > 0).all(axis=(1, 2)).tolist()


def _connectivity(tables: np.ndarray, n_labels: int) -> list[bool]:
    """Each cut's labels form one component under "residual footprints
    intersect".

    Label l of the c-th cut is node c * n_labels + l, so components never
    cross cuts.  Each nonempty column of a label table links every label in
    it to the largest one there, which keeps the components of the overlap
    graph; a cut is connected when every label lies in the component of its
    label 0.
    """
    base = np.arange(0, len(tables) * n_labels, n_labels)
    node = tables + base[:, None, None]
    hit = (tables >= 0).transpose(0, 2, 1)  # read column by column, so each column's hub repeats
    hub = node.max(axis=1).ravel().repeat(hit.sum(axis=2).ravel())
    lab = _components(len(tables) * n_labels, node.transpose(0, 2, 1)[hit], hub)
    return (lab.reshape(-1, n_labels) == base[:, None]).all(axis=1).tolist()


def _distinct_columns(table: np.ndarray) -> np.ndarray:
    """A (d_k, D) label table's distinct columns, each kept at most twice,
    by one sort, as a block of one cut."""
    table = np.take(table, np.lexsort(table), axis=1)  # faster than fancy indexing here
    # after the sort, a column is a third copy or more exactly when it equals the one two before
    kept = np.ones(table.shape[1], dtype=bool)
    kept[2:] = (table[:, 2:] != table[:, :-2]).any(axis=0)
    return table[None, :, np.flatnonzero(kept)]


@dataclass
class CutReport:
    """Outcome of the combinatorial checks for one kept party."""

    k: int
    conditions: dict[Label, LabelVerdict]
    pair_covering: bool
    connectivity: bool
    overall: str


def _cut_overall(conditions: dict[Label, LabelVerdict], pair: bool, conn: bool) -> str:
    if not (pair and conn):
        return "nontrivial"
    resolved = all(v.condition.resolved() for v in conditions.values())
    return "trivial" if resolved else "inconclusive"


def verify_strongest_nonlocality(family: SetFamily, cuts: list[int] | None = None) -> list[CutReport]:
    """Run the combinatorial checks on every requested cut.

    A failed global condition (pair covering or connectivity) makes the cut
    "nontrivial", whatever the labels; with both holding, "trivial" needs
    every label resolved, and any unresolved label leaves it "inconclusive".
    The cap is read once, and the family laid out once, as each tuple's
    label index; each cut's table is a transposed copy of that cube.  Cuts
    with the same d_k are stacked into blocks of at most _BLOCK_ENTRIES
    table entries, and the three checks run once per block.  A cut of more
    than _BLOCK_ENTRIES // 2 entries is a block of its own, checked on its
    distinct columns, each kept at most twice.
    """
    cuts = _requested_cuts(len(family.radix), cuts)
    limit = caps.enum_cap()
    sizes = [len(ts) for ts in family.sets()]
    label = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    # an empty entry numbers member -1, which picks the -1 appended last
    cube = np.append(label, np.int32(-1))[member_cube(family.radix, family.sets(), limit=limit)]
    # every cut's table holds the whole cube
    per_block = max(1, _BLOCK_ENTRIES // cube.size)
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(cuts):
        groups.setdefault(family.radix[k], []).append(i)
    reports: dict[int, CutReport] = {}  # by position in `cuts`
    for group in groups.values():
        for start in range(0, len(group), per_block):
            block = group[start:start + per_block]
            if cube.size > _BLOCK_ENTRIES // 2:  # a block of one cut: check its distinct columns
                tables = _distinct_columns(cut_table(cube, cuts[block[0]]))
            else:
                tables = np.stack([cut_table(cube, cuts[i]) for i in block])
            checks = zip(block, _classify(tables, family.labels, limit),
                         _pair_covering(tables, limit), _connectivity(tables, len(family)))
            for i, conditions, pair, conn in checks:
                reports[i] = CutReport(k=cuts[i], conditions=conditions, pair_covering=pair,
                                       connectivity=conn,
                                       overall=_cut_overall(conditions, pair, conn))
    return [reports[i] for i in range(len(cuts))]


def overall_verdict(reports: list[CutReport]) -> str:
    if all(r.overall == "trivial" for r in reports):
        return "trivial"
    if any(r.overall == "nontrivial" for r in reports):
        return "nontrivial"
    return "inconclusive"
