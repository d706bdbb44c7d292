"""Ground truth: which Hermitian operators preserve orthogonality on one cut.

For a kept party k, an operator E = I_k (x) Pi acting on the remaining
parties preserves the orthogonality of states a != b iff
<psi_a|E|psi_b> = 0.  The solution space always contains the identity; the
measurement is trivial exactly when it contains nothing else.

Two routes answer this question.

The exact route (`exact_nullspace`) decides every cut in `oracle_verify`.
Phase states are DFTs over disjoint supports, and the DFT on a support is
invertible, so the constraints reduce to equalities between entries of Pi:

* across sets S != T, <s|E|t> = 0 for every s in S, t in T, so
  Pi[r(s), r(t)] = 0 whenever s and t share their digit at k, where r(s)
  is the rank of s with position k deleted (`lattice.cut_table` lays the
  members out by both from one member cube, as it does for the checker);
* within a set, the block B[i, j] = <s_i|E|s_j> must be circulant in the
  bijection order, so entries with the same shift (f_i - f_j) mod s are
  equal, and a shift meeting a pair with different digits at k is 0.

Connected components of that equality graph are the entry classes
(`lattice._components`, the union-find the checker's connectivity test
also runs); the complex solution space has one dimension per class not
forced to 0, and since it is closed under adjoints this is also the real
dimension of its Hermitian part.  It is all integer bookkeeping, with no
tolerance; a nontrivial cut's witness, the traceless part of X + X^T for
the indicator X of a free class, is real (float64) and symmetric.
Its work and memory follow the d_k * D**2 slots of the same-digit pair
mask, which is what the one cap (`caps`) bounds on each cut.

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
from .lattice import _components, cut_table, member_cube
from .states import PhaseStateSet, shared_radix

DEFAULT_RANK_TOL = 1e-9
IDENTITY_FEASIBILITY_TOL = 1e-12


@dataclass
class OracleReport:
    k: int
    D: int
    nullspace_dim: int
    verdict: str                       # "trivial" | "nontrivial"
    witness: np.ndarray | None = None  # real symmetric, traceless, unit Frobenius norm


def _cut_shape(state_sets: Sequence[PhaseStateSet], k: int) -> tuple[tuple[int, ...], int, int]:
    """(radix, d_k, D) of cut k, after the input checks."""
    radix = shared_radix(state_sets)
    n = len(radix)
    if n < 2:
        raise ValueError("a cut needs at least two parties")
    if not 0 <= k < n:
        raise ValueError(f"cut {k} out of range for arity {n}")
    return radix, radix[k], math.prod(radix) // radix[k]


def _equality_edges(state_sets: list[PhaseStateSet],
                    owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (a, b) of cut k's equality graph (see `exact_nullspace`),
    and the mask of the D**2 entries of Pi that a pair across sets forces to
    0, from its member table owner[g, x]: the member with digit g at k and
    the rest ranked x, which is row or column x of Pi.

    Slot (g, x, y) of the (d_k, D, D) pair mask is the ordered pair of the
    members at columns x and y of row g, which meets entry x * D + y of Pi.
    A forced entry needs no edge: every class with a pair at it joins zero
    instead, so the edges are the pairs within a set and the zero classes.
    """
    D = owner.shape[1]
    sizes = np.array([ss.s for ss in state_sets], dtype=np.int64)
    size = sizes.repeat(sizes)                          # s of each member's set
    base = (sizes.cumsum() - sizes).repeat(sizes)       # first class node of its set
    f = np.concatenate([ss.bijection for ss in state_sets])

    hit = owner >= 0
    both = hit[:, :, None] & hit[:, None, :]
    group = base[owner]  # each member's set, by its first class node; empty slots lie outside both
    within = both & (group[:, :, None] == group[:, None, :])
    forced = np.logical_or.reduce(both ^ within).ravel()
    # the class node of every slot, read where the slot holds a pair within a set
    fo = f[owner]
    shift = fo[:, :, None] - fo[:, None, :]
    shift %= size[owner][:, :, None]
    shift += group[:, :, None]
    slot = np.flatnonzero(within)
    cls = shift.ravel()[slot]
    entry = slot % (D * D)

    # a class meets s pairs in all; fewer same-digit ones means a zero pair,
    # and so does one at a forced entry
    dead = np.bincount(cls, minlength=len(size)) < size
    dead[cls[forced[entry]]] = True
    zero = D * D
    a = zero + 1 + np.concatenate([cls, dead.nonzero()[0]])
    b = np.concatenate([entry, np.full(len(a) - len(cls), zero)])
    return a, b, forced


def exact_nullspace(state_sets: Sequence[PhaseStateSet], k: int) -> OracleReport:
    """Decide cut k exactly from the entry classes of Pi (module docstring).

    Nodes are the D**2 entries of Pi, one zero node, and one class node per
    shift of each set.  Only pairs of tuples sharing their digit at k meet a
    nonzero entry.  Such a pair across sets forces its entry to 0, and
    within a set it joins its entry to its shift's class node.  A shift
    whose s pairs are not all same-digit, or that has a pair at a forced
    entry, joins zero.  The dimension is the number of components that hold
    an entry, neither forced nor joined to zero.

    The pair mask has d_k * D**2 slots, which are held to the cap before
    anything is built.  Overlapping supports (`lattice.member_cube`) or a
    single free class other than the diagonal mean the states are not
    mutually orthogonal, and raise InternalConsistencyError.  Each bijection
    is a permutation, which `PhaseStateSet` checks once and then keeps
    read-only.
    """
    state_sets = list(state_sets)
    radix, d_k, D = _cut_shape(state_sets, k)
    caps.check(d_k * D * D, "same-digit pair slots")
    owner = cut_table(member_cube(radix, [ss.support for ss in state_sets]), k)
    zero = D * D
    n_nodes = zero + 1 + sum(ss.s for ss in state_sets)
    a, b, forced = _equality_edges(state_sets, owner)
    lab = _components(n_nodes, a, b)

    # a component is labelled by its smallest node, an entry if it holds one
    comp = lab[:zero]
    free = (comp != lab[zero]) & ~forced
    classes = (free & (comp == np.arange(zero))).nonzero()[0]
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
        X = (comp == c).reshape(D, D).astype(np.float64)
        H = X + X.T
        W = H - (np.trace(H) / D) * np.eye(D)
        if W.any():
            break
    return OracleReport(k=k, D=D, nullspace_dim=len(classes), verdict="nontrivial",
                        witness=W / np.linalg.norm(W))


def oracle_verify(state_sets: Sequence[PhaseStateSet],
                  cuts: list[int] | None = None) -> list[OracleReport]:
    """Decide triviality of every requested cut by the exact route."""
    state_sets = list(state_sets)
    radix = shared_radix(state_sets)
    if cuts is None:
        cuts = list(range(len(radix)))
    return [exact_nullspace(state_sets, k) for k in cuts]


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
    """Reshape every state to unit norm with party k in front."""
    state_sets = list(state_sets)
    radix, d_k, D = _cut_shape(state_sets, k)

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
