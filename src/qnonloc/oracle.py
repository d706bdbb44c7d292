"""Ground truth: which Hermitian operators preserve orthogonality on one cut.

For a kept party k, an operator E = I_k (x) Pi acting on the remaining
parties preserves the orthogonality of states a != b iff
<psi_a|E|psi_b> = 0.  The solution space always contains the identity; the
measurement is trivial exactly when it contains nothing else.

Two routes answer this question.

The exact route, `oracle_verify`, lays a family out once a call.  Phase
states are DFTs over disjoint supports, and the DFT on a support is
invertible, so the constraints reduce to equalities between entries of Pi:

* across sets S != T, <s|E|t> = 0 for every s in S, t in T, so
  Pi[r(s), r(t)] = 0 whenever s and t share their digit at k, where r(s)
  is the rank of s with position k deleted (`lattice.cut_table` lays the
  members out by both from one member cube, as it does for the checker);
* within a set, the block B[i, j] = <s_i|E|s_j> must be circulant in the
  bijection order, so entries with the same shift (f_i - f_j) mod s are
  equal, and a shift meeting a pair with different digits at k is 0.

Connected components of that equality graph, over the pairs of the shifts
not already 0 (`lattice._components`, the union-find the checker's
connectivity test also runs), are the entry classes; a class is 0 when it
holds an entry forced or zeroed before the union-find.  The complex
solution space has one dimension per class not forced to 0, and since it
is closed under adjoints this is also the real dimension of its Hermitian
part.  It is all integer bookkeeping, with no tolerance; a nontrivial cut
keeps one free class, and its witness, the traceless part of X + X^T for
the class indicator X, is built when read.  Its boolean masks follow the
d_k * D**2 slots of the same-digit pair mask, which is what the one cap
(`caps`) bounds on each cut; its integer work follows the pairs within a
set, and its union-find only those of the shifts that can be free.

The dense route (`assemble_constraints` -> `ConstraintSystem.iter_row_batches`
-> `hermitian_nullspace`) is a test-only reference for the nullspace
dimension and decides nothing.  With every state scaled to unit norm and
reshaped to A_a with d_k rows, each ordered pair a != b gives one complex
row sum_{x,y} M[x,y] Pi[x,y] = 0 with M = A_a^H A_b.  The dimension is D**2
minus the complex rank of all rows; by the same adjoint argument it is the
real dimension of the Hermitian solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import caps
from .errors import InternalConsistencyError
from .lattice import _components, _requested_cuts, cut_table, member_cube
from .states import PhaseStateSet, shared_radix

DEFAULT_RANK_TOL = 1e-9
IDENTITY_FEASIBILITY_TOL = 1e-12


@dataclass
class OracleReport:
    k: int
    D: int
    nullspace_dim: int
    verdict: str                          # "trivial" | "nontrivial"
    free_class: np.ndarray | None = None  # entries x * D + y of one free class

    @property
    def witness(self) -> np.ndarray | None:
        """Built on each read: the traceless part of X + X^T at unit norm, X the class indicator."""
        if self.free_class is None:
            return None
        D = self.D
        X = np.bincount(self.free_class, minlength=D * D).reshape(D, D).astype(np.float64)
        H = X + X.T
        W = H - (np.trace(H) / D) * np.eye(D)
        return W / np.linalg.norm(W)

    def __eq__(self, other: object) -> bool:
        """Field by field, by value: a free class entry by entry, and None only to None."""
        if not isinstance(other, OracleReport):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def _decide_cut(k: int, owner: np.ndarray, f: np.ndarray, size: np.ndarray,
                base: np.ndarray) -> OracleReport:
    """Decide cut k from its table owner[g, x] (`lattice.cut_table`): the
    member with digit g at k and the rest ranked x (row or column x of Pi).
    Member m has bijection value f[m] and set size size[m]; its set's class
    nodes start at base[m].

    Nodes are the D**2 entries, numbered first, and one class node per
    shift of each set; there is no zero node.  Slot (g, x, y) of the
    (d_k, D, D) pair mask pairs the members at columns x and y of row g, at
    entry x * D + y.  A pair across sets forces its entry to 0.  A class
    with fewer than s same-digit pairs is 0, and zeroes each entry it
    meets; every pair of another class joins its entry to the class node.
    Zeros are marked after the union-find: a component is 0 iff it holds a
    forced or zeroed entry, so a class that meets a forced entry needs no
    rule of its own.  The dimension counts the free classes; one free class
    other than the diagonal raises InternalConsistencyError, as the states
    cannot have been orthogonal.
    """
    D = owner.shape[1]
    hit = owner >= 0
    both = hit[:, :, None] & hit[:, None, :]
    group = base[owner]  # each member's set, by its first class node; empty slots lie outside both
    within = both & (group[:, :, None] == group[:, None, :])
    zero = np.logical_or.reduce(both ^ within).ravel()  # the forced entries so far
    del both
    # each pair within a set, at its entry and its shift's class node.  Each
    # full-size temporary goes once read, since together they set the peak
    # on large cuts; the three pair coordinates share one buffer.
    g, x, y = within.nonzero()
    del within
    m = owner[g, y]  # in the same set as owner[g, x]
    cls = f[owner[g, x]]
    cls -= f[m]
    cls %= size[m]
    cls += base[m]
    entry = x * D + y
    del g, x, y, m

    # a class meets s pairs in all; fewer same-digit ones means a zero pair,
    # so the class is 0 and zeroes every entry it meets.  Only the other
    # classes' pairs are edges.
    dead = (np.bincount(cls, minlength=len(size)) < size)[cls]
    zero[entry[dead]] = True
    live = ~dead
    a, b = D * D + cls[live], entry[live]
    del cls, entry, dead, live
    lab = _components(D * D + len(size), a, b)

    # a component is labelled by its smallest node, an entry if it holds
    # one, and is 0 iff it holds a zeroed entry
    comp = lab[:D * D]
    zeroed = np.zeros(D * D, dtype=bool)
    zeroed[comp[zero]] = True
    free = ~zeroed[comp]
    classes = (free & (comp == np.arange(D * D))).nonzero()[0]
    if len(classes) < 2:
        if not (len(classes) == 1 and np.count_nonzero(free[::D + 1]) == D
                and np.count_nonzero(free) == D):
            raise InternalConsistencyError(
                f"{len(classes)}-dimensional solution space is not the identity line; "
                "input states cannot have been orthogonal")
        return OracleReport(k=k, D=D, nullspace_dim=1, verdict="trivial")

    # X + X^T of a free class indicator X solves (the space is closed under
    # adjoints), and so does its traceless part (the identity solves).  Only
    # a class holding the whole diagonal and nothing else has a zero
    # traceless part, so one of the first two classes gives the witness.
    for c in classes[:2]:
        entries = (comp == c).nonzero()[0]
        if not np.array_equal(entries, np.arange(0, D * D, D + 1)):
            break
    return OracleReport(k=k, D=D, nullspace_dim=len(classes), verdict="nontrivial",
                        free_class=entries)


def oracle_verify(state_sets: Sequence[PhaseStateSet],
                  cuts: list[int] | None = None) -> list[OracleReport]:
    """Decide every requested cut (all by default) by the exact route.

    The cap is read once.  Each cut's d_k * D**2 pair slots are held to it
    before the family is laid out, once, as one member cube, where a tuple
    in two supports raises InternalConsistencyError.  Each bijection is a permutation, which
    `PhaseStateSet` checks once and then keeps read-only.
    """
    state_sets = list(state_sets)
    radix = shared_radix(state_sets)
    cuts = _requested_cuts(len(radix), cuts)
    limit = caps.enum_cap()
    for k in cuts:
        caps.check(radix[k] * (math.prod(radix) // radix[k]) ** 2, "same-digit pair slots",
                   limit=limit)
    sizes = np.array([ss.s for ss in state_sets], dtype=np.int64)
    size = sizes.repeat(sizes)                          # s of each member's set
    base = (sizes.cumsum() - sizes).repeat(sizes)       # first class node of its set
    f = np.concatenate([ss.bijection for ss in state_sets])
    cube = member_cube(radix, [ss.support for ss in state_sets], limit=limit)
    return [_decide_cut(k, cut_table(cube, k), f, size, base) for k in cuts]


def oracle_overall(reports: Sequence[OracleReport]) -> str:
    return "trivial" if all(r.verdict == "trivial" for r in reports) else "nontrivial"


# ---- dense reference: the nullspace dimension by one complex rank ---------

@dataclass
class ConstraintSystem:
    """The unit states of one cut with party k in front, and their rows."""

    D: int
    A: np.ndarray                      # (N, d_k, D), each state of unit norm

    @property
    def n_params(self) -> int:
        return self.D * self.D

    def iter_row_batches(self) -> Iterator[np.ndarray]:
        """For each state a, the rows vec(A_a^H A_b) of every b != a."""
        N = len(self.A)
        for a in range(N):
            M = self.A[a].conj().T @ np.delete(self.A, a, axis=0)
            yield M.reshape(N - 1, self.n_params)


def assemble_constraints(state_sets: Sequence[PhaseStateSet], k: int) -> ConstraintSystem:
    """Reshape every state to unit norm with party k in front, after the row matrix's cap check."""
    state_sets = list(state_sets)
    radix = shared_radix(state_sets)
    _requested_cuts(len(radix), [k])
    d_k, D = radix[k], math.prod(radix) // radix[k]
    N = sum(ss.s for ss in state_sets)
    caps.check(N * (N - 1) * D * D, "entries in the row matrix")

    blocks = []
    for ss in state_sets:
        # s unit-modulus amplitudes per state, so the squared norm is s
        V = (ss.dense_all() / math.sqrt(ss.s)).reshape((ss.s,) + radix)
        blocks.append(np.moveaxis(V, k + 1, 1).reshape(ss.s, d_k, D))
    return ConstraintSystem(D=D, A=np.concatenate(blocks, axis=0))


@dataclass
class NullspaceResult:
    dim: int
    sv_gap: float                      # smallest kept minus largest dropped, normalized
    identity_residual: float
    rows_total: int
    rows_kept: int


def hermitian_nullspace(system: ConstraintSystem) -> NullspaceResult:
    """Dimension of the common solution space of every constraint row.

    The identity must solve each row: its residual is tr(A_a^H A_b) =
    <a|b>.  The rank is read off the singular values of all N (N - 1) rows
    at the relative threshold DEFAULT_RANK_TOL; rows that are all zero have
    rank 0.  The row matrix is held to the cap.
    """
    N, P = len(system.A), system.n_params
    caps.check(N * (N - 1) * P, "entries in the row matrix")
    rows = np.concatenate(list(system.iter_row_batches()))
    identity_residual = float(np.abs(rows[:, ::system.D + 1].sum(axis=1)).max(initial=0.0))
    if identity_residual > IDENTITY_FEASIBILITY_TOL:
        raise InternalConsistencyError(
            f"identity violates a constraint (residual {identity_residual:.3e}); "
            "input states are not mutually orthogonal")

    sv = np.linalg.svd(rows, compute_uv=False)
    if not sv.size or sv[0] == 0.0:
        rank, sv_gap = 0, math.inf
    else:
        sv_norm = sv / sv[0]
        rank = int(np.count_nonzero(sv_norm > DEFAULT_RANK_TOL))
        disc_max = sv_norm[rank] if rank < len(sv_norm) else 0.0
        sv_gap = float(sv_norm[rank - 1] - disc_max)
    return NullspaceResult(dim=P - rank, sv_gap=sv_gap, identity_residual=identity_residual,
                           rows_total=len(rows), rows_kept=len(rows))
