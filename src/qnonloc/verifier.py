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

The one entry point, `verify_strongest_nonlocality`, walks the requested
cuts once, in order, in blocks: as many cuts as fit _BLOCK_ENTRIES table
entries when they all have one d_k, else one cut a block.  A block is its
cuts' tables side by side, reduced by one sort to each cut's distinct
columns, each kept at most twice: one (d_k, W) table and the cut of each
column.  The cover search reads its counts only as 0, 1 or more, while
pair covering and connectivity read only which columns occur, so every
verdict and every checked count is the full tables', and the work after
the sort follows the distinct columns, not D: a cut of modified (d, n) has
d + 2 of them whatever n.  Each check runs once a block, looking up each
column's cut: the co-occurrence count is keyed by (cut, target label),
pair covering deduplicates fill patterns per cut, and connectivity labels
the components of cut-offset label nodes.  Every cap still holds each cut's
own count, so a block allocates the sum of its cuts' checked counts.
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


def _classify(table: np.ndarray, cut_of: np.ndarray, C: int, labels: list[Label],
              limit: int) -> list[dict[Label, LabelVerdict]]:
    """Assign each label of each of the block's C cuts the first sufficient
    condition that resolves it; column x of `table` belongs to cut cut_of[x].

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
    d_k = len(table)
    L = len(labels)
    lab = table % (L + 1)  # an empty entry reads as label L, which nothing admits
    row = (cut_of * d_k + np.arange(d_k)[:, None]) * (L + 1)
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

    # one bincount per row g keeps the index within the size of the table
    slot = np.full((C, L + 1), -1)
    slot[cut, U] = np.arange(len(U))
    u = slot[cut_of, lab]
    tau, col = (u >= 0).nonzero()  # entry (tau, col) holds target u[tau, col]
    key = (u[tau, col] * d_k + tau) * (L + 1)
    count = np.empty((len(U), d_k, d_k, L + 1), dtype=np.int64)
    for g in range(d_k):
        count[:, :, g] = np.bincount(key + lab[g, col], minlength=len(U) * d_k * (L + 1)
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


def _pair_covering(table: np.ndarray, cut_of: np.ndarray, C: int, limit: int) -> list[bool]:
    """Every two residual tuples of a cut must share an extension digit
    whose insertions at k both land inside the family union.

    Residual tuples of one cut with the same digit set are one row after
    deduplication, keyed by cut; the R x R product of a cut's rows is held
    to the cap.  Each cut's rows are padded to the block's largest R with
    rows of all digits, which meet every row but an empty one, and an empty
    row already fails on its own.
    """
    width = 2 + (len(table) + 7) // 8
    # each row leads with its cut in two big-endian bytes (a block holds at most
    # _BLOCK_ENTRIES cuts), so the rows of a cut sort together
    keyed = np.empty((len(cut_of), width), dtype=np.uint8)
    keyed[:, :2] = cut_of.astype(">u2").view(np.uint8).reshape(-1, 2)
    keyed[:, 2:] = np.packbits(table.T >= 0, axis=1)
    rows = sorted_unique(keyed.view(np.dtype((np.void, width))).ravel())
    rows = rows.view(np.uint8).reshape(len(rows), width)
    owner = rows[:, 0].astype(np.int64) * 256 + rows[:, 1]
    R = np.bincount(owner, minlength=C)
    for r in R.tolist():
        caps.check(r * r, "residual row pairs", limit=limit)
    ext = np.ones((C, R.max(), 8 * (width - 2)), dtype=np.float32)
    ext[owner, np.arange(len(rows)) - (R.cumsum() - R)[owner]] = np.unpackbits(rows[:, 2:], axis=1)
    return (ext @ ext.transpose(0, 2, 1) > 0).all(axis=(1, 2)).tolist()


def _connectivity(table: np.ndarray, cut_of: np.ndarray, C: int, n_labels: int) -> list[bool]:
    """Each cut's labels form one component under "residual footprints
    intersect".

    Label l of cut c is node c * n_labels + l, so components never cross
    cuts.  Each nonempty column of a label table links every label in it to
    the largest one there, which keeps the components of the overlap graph;
    a cut is connected when every label lies in the component of its label 0.
    """
    node = (table + cut_of * n_labels).T
    hit = table.T >= 0  # read column by column, so each column's hub repeats
    hub = node.max(axis=1).repeat(hit.sum(axis=1))
    lab = _components(C * n_labels, node[hit], hub)
    return (lab.reshape(C, n_labels) == np.arange(0, C * n_labels, n_labels)[:, None]
            ).all(axis=1).tolist()


def _distinct_columns(tables: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A block of (d_k, D) cut tables as one (d_k, W) table of each cut's
    distinct columns, each kept at most twice, by one sort, with the cut of
    each column."""
    table = np.concatenate(tables, axis=1)
    cut_of = np.arange(len(tables)).repeat([t.shape[1] for t in tables])
    order = np.lexsort((*table, cut_of))  # by cut, then by column
    table, cut_of = np.take(table, order, axis=1), cut_of[order]  # faster than fancy indexing
    # after the sort, a column is a third copy or more exactly when it equals
    # the one two before in the same cut
    kept = np.ones(len(cut_of), dtype=bool)
    kept[2:] = (table[:, 2:] != table[:, :-2]).any(axis=0) | (cut_of[2:] != cut_of[:-2])
    return table[:, kept], cut_of[kept]


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
    label index; each cut's table is a transposed copy of that cube.  The
    three checks run once per block of cuts (see the module docstring), and
    the reports come back in the order requested.
    """
    cuts = _requested_cuts(len(family.radix), cuts)
    limit = caps.enum_cap()
    sizes = [len(ts) for ts in family.sets()]
    label = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    # an empty entry numbers member -1, which picks the -1 appended last
    cube = np.append(label, np.int32(-1))[member_cube(family.radix, family.sets(), limit=limit)]
    # every cut's table holds the whole cube; only cuts of one d_k share a block
    one_d_k = len({family.radix[k] for k in cuts}) == 1
    per_block = max(1, _BLOCK_ENTRIES // cube.size) if one_d_k else 1
    reports = []
    for start in range(0, len(cuts), per_block):
        block = cuts[start:start + per_block]
        table, cut_of = _distinct_columns([cut_table(cube, k) for k in block])
        C = len(block)
        checks = zip(block, _classify(table, cut_of, C, family.labels, limit),
                     _pair_covering(table, cut_of, C, limit),
                     _connectivity(table, cut_of, C, len(family)))
        reports += [CutReport(k, conditions, pair, conn, _cut_overall(conditions, pair, conn))
                    for k, conditions, pair, conn in checks]
    return reports


def overall_verdict(reports: list[CutReport]) -> str:
    if all(r.overall == "trivial" for r in reports):
        return "trivial"
    if any(r.overall == "nontrivial" for r in reports):
        return "nontrivial"
    return "inconclusive"
