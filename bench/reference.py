"""Independent references the benchmark checks qnonloc's outputs against.

Nothing here imports qnonloc.  Families are rebuilt from the digit-sum rule,
sizes from closed formulas, phase states from their definition, and the
oracle's nullspace dimension is counted by a union-find over the entries of
the D x D operator (see `nullspace_dim`).  `self_check` pins the counter on
answers known by hand and against a plain complex rank on small cases.
"""

from __future__ import annotations

import itertools

import numpy as np

EXTRA = "extra"


# ---- families by the digit-sum rule ----------------------------------------

def cube(d: int, n: int) -> np.ndarray:
    """All tuples of Z_d^n in lexicographic order, one row each."""
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)


def kept_labels(d: int) -> list[int]:
    """The two anchors 0 and floor(d/2) plus the odd labels strictly between."""
    half = d // 2
    return sorted({0, half} | {t for t in range(1, half) if t % 2 == 1})


def admissible_xi(d: int, n: int) -> list[int]:
    """Nonzero digits whose constant tuple has a kept digit sum."""
    kept = set(kept_labels(d))
    return [x for x in range(1, d) if (n * x) % d in kept]


def index_sets(d: int, n: int) -> dict:
    """Set i holds the tuples whose digit sum is i mod d."""
    tuples = cube(d, n)
    label = tuples.sum(axis=1) % d
    return {i: tuples[label == i] for i in range(d)}


def modified_sets(d: int, n: int, xi: int) -> dict:
    """Kept digit-sum classes without the two constant tuples, which form `extra`."""
    tuples = cube(d, n)
    label = tuples.sum(axis=1) % d
    diagonal = (tuples == tuples[:, :1]).all(axis=1) & np.isin(tuples[:, 0], [0, xi])
    sets = {t: tuples[(label == t) & ~diagonal] for t in kept_labels(d)}
    sets[EXTRA] = np.array([[0] * n, [xi] * n], dtype=np.int64)
    return sets


def modified_size(d: int, n: int) -> int:
    """(|odd rows| + 2) * d^(n-1)."""
    return len(kept_labels(d)) * d ** (n - 1)


def reference_size(d: int, n: int) -> int:
    """Published comparison size d^n - (d-1)^n + 1."""
    return d**n - (d - 1) ** n + 1


def same_sets(got: dict, want: dict) -> bool:
    """Label-by-label equality of two families given as digit matrices."""
    if sorted(map(str, got)) != sorted(map(str, want)):
        return False
    for label, rows in want.items():
        a = np.asarray(got[label], dtype=np.int64).reshape(-1, rows.shape[1])
        if a.shape != rows.shape or not np.array_equal(_sorted_rows(a), _sorted_rows(rows)):
            return False
    return True


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


# ---- phase states ----------------------------------------------------------

def phase_states(sets: dict, d: int, n: int) -> np.ndarray:
    """(N, d^n) matrix of unnormalized phase states.

    Member j of a support of size s (lexicographic order) gets amplitude
    exp(2 pi i k j / s) in state k.
    """
    weights = d ** np.arange(n - 1, -1, -1)
    rows = []
    for members in sets.values():
        members = _sorted_rows(np.asarray(members, dtype=np.int64))
        s = len(members)
        block = np.zeros((s, d**n), dtype=np.complex128)
        phase = np.exp(2j * np.pi * np.outer(np.arange(s), np.arange(s)) / s)
        block[:, members @ weights] = phase
        rows.append(block)
    return np.vstack(rows)


def cut_blocks(states: np.ndarray, d: int, n: int, k: int) -> np.ndarray:
    """(N, d, D): each state with party k moved to the front."""
    tensor = states.reshape((len(states),) + (d,) * n)
    return np.moveaxis(tensor, k + 1, 1).reshape(len(states), d, d ** (n - 1))


def offdiag_overlap(states: np.ndarray, d: int, n: int, k: int, W: np.ndarray) -> float:
    """max over a != b of |<a|(I_k (x) W)|b>| / (|a| |b|)."""
    A = cut_blocks(states, d, n, k)
    G = sum(A[:, g, :].conj() @ W @ A[:, g, :].T for g in range(d))
    norms = np.linalg.norm(states, axis=1)
    G = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def witness_ok(W: np.ndarray, states: np.ndarray, d: int, n: int, k: int,
               tol: float = 1e-8) -> bool:
    """Hermitian, traceless, unit Frobenius norm, and orthogonality preserving."""
    W = np.asarray(W)
    return bool(np.abs(W - W.conj().T).max() <= tol
                and abs(np.trace(W)) <= tol
                and abs(np.linalg.norm(W) - 1.0) <= tol
                and offdiag_overlap(states, d, n, k, W) <= tol)


def gram_ok(states: np.ndarray, tol: float = 1e-9) -> bool:
    G = states @ states.conj().T
    norms = np.linalg.norm(states, axis=1)
    G = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(G, 0.0)
    return float(G.max()) <= tol


def genuinely_entangled(states: np.ndarray, d: int, n: int, tol: float = 1e-9) -> bool:
    """Every state has rank >= 2 across every split of the parties in two."""
    tensors = states.reshape((len(states),) + (d,) * n)
    for r in range(1, n // 2 + 1):
        for left in itertools.combinations(range(n), r):
            right = [p for p in range(n) if p not in left]
            mats = np.transpose(tensors, (0, *[p + 1 for p in left],
                                          *[p + 1 for p in right]))
            mats = mats.reshape(len(states), d**r, -1)
            sv = np.linalg.svd(mats, compute_uv=False)
            if ((sv > tol * sv[:, :1]).sum(axis=1) < 2).any():
                return False
    return True


# ---- global conditions of the combinatorial checker ------------------------

def _residuals(rows: np.ndarray, d: int, k: int) -> np.ndarray:
    rest = np.delete(rows, k, axis=1)
    return rest @ (d ** np.arange(rest.shape[1] - 1, -1, -1))


def pair_covering(sets: dict, d: int, k: int) -> bool:
    """Every two residual tuples at cut k (position k deleted) have a digit
    whose insertion at k puts both inside the union of the sets."""
    union = np.vstack(list(sets.values()))
    n = union.shape[1]
    masks = np.zeros(d ** (n - 1), dtype=np.int64)
    np.bitwise_or.at(masks, _residuals(union, d, k), 1 << union[:, k])
    masks = np.unique(masks)
    return bool(masks.min() > 0 and ((masks[:, None] & masks[None, :]) != 0).all())


def connected(sets: dict, d: int, k: int) -> bool:
    """The sets form one component when two are joined whenever their
    residual footprints at cut k meet."""
    footprints = [set(_residuals(rows, d, k).tolist()) for rows in sets.values()]
    seen, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for b in range(len(footprints)):
            if b not in seen and footprints[a] & footprints[b]:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(footprints)


# ---- nullspace dimension ---------------------------------------------------

def nullspace_dim(sets: dict, d: int, n: int, k: int) -> int:
    """Real dimension of the Hermitian operators Pi with I_k (x) Pi
    orthogonality preserving on the phase states of `sets`, at cut k.

    The DFT on each support is invertible, so the constraints between two
    sets say <s|E|t> = 0 for every s in S and t in T, that is Pi[r(s), r(t)]
    = 0 when s and t share their digit at k.  Within one set, the states
    stay orthogonal exactly when the block B[s, s'] = <s|E|s'> is circulant
    in the phase order, so B entries with the same index difference are equal,
    and a difference class that meets a pair with different digits at k is 0.
    The complex solution space is closed under adjoints, so its complex
    dimension, the number of entry classes not forced to 0, is the real
    dimension of its Hermitian part.
    """
    D = d ** (n - 1)
    zero = D * D
    parent = list(range(zero + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    members = []
    for rows in sets.values():
        rows = _sorted_rows(np.asarray(rows, dtype=np.int64))
        members.append((rows[:, k].tolist(), _residuals(rows, d, k).tolist()))

    for (ga, ra), (gb, rb) in itertools.permutations(members, 2):
        for g, r in zip(ga, ra):
            for h, q in zip(gb, rb):
                if g == h:
                    union(r * D + q, zero)

    for g, r in members:
        s = len(g)
        class_node = [len(parent) + i for i in range(s)]
        parent.extend(class_node)
        for i in range(s):
            for j in range(s):
                node = class_node[(i - j) % s]
                union(node, r[i] * D + r[j] if g[i] == g[j] else zero)

    zero_root = find(zero)
    return len({find(e) for e in range(D * D)} - {zero_root})


def nullspace_dim_by_rank(states: np.ndarray, d: int, n: int, k: int) -> int:
    """D^2 minus the complex rank of every constraint <a|I_k (x) Pi|b> = 0, a != b.

    The unbatched constraint matrix, for small cases only.
    """
    A = cut_blocks(states, d, n, k)
    N, D = len(states), A.shape[2]
    rows = [np.einsum("gi,gj->ij", A[a].conj(), A[b]).ravel()
            for a in range(N) for b in range(N) if a != b]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return D * D - int((sv > 1e-9 * sv[0]).sum())


def self_check() -> list[str]:
    """Failures of the dimension counter on cases with known answers."""
    failures = []
    for d, n in ((2, 3), (3, 3)):
        product = {i: row[None, :] for i, row in enumerate(cube(d, n))}
        for k in range(n):
            got = nullspace_dim(product, d, n, k)
            if got != d ** (n - 1):
                failures.append(f"product basis d={d} n={n} cut {k}: {got} != {d ** (n - 1)}")
    bell = {0: np.array([[0, 0], [1, 1]]), 1: np.array([[0, 1], [1, 0]])}
    for k in range(2):
        if nullspace_dim(bell, 2, 2, k) != 1:
            failures.append(f"Bell basis cut {k}: expected 1")
    small = [(index_sets(3, 3), 3), (modified_sets(3, 3, 1), 3), (index_sets(2, 3), 2)]
    small += [({l: s for l, s in modified_sets(3, 3, 2).items() if l != drop}, 3)
              for drop in (0, 1, EXTRA)]
    for sets, d in small:
        states = phase_states(sets, d, 3)
        for k in range(3):
            a, b = nullspace_dim(sets, d, 3, k), nullspace_dim_by_rank(states, d, 3, k)
            if a != b:
                failures.append(f"counter {a} != rank {b} on {sorted(map(str, sets))} d={d} cut {k}")
    return failures


def tables_ok(doc: dict) -> bool:
    """The `tables --format json` document against the closed formulas."""
    for t in doc["comparison"]:
        d = t["d"]
        if (t["reference"] != [reference_size(d, n) for n in t["n"]]
                or t["this_work"] != [modified_size(d, n) for n in t["n"]]
                or t["lower_bound"] != [d ** (n - 1) + 1 for n in t["n"]]):
            return False
    return bool(doc["comparison"])


def family_doc_sets(doc: dict) -> dict:
    """Sets of a family JSON document as digit matrices, labels as in the file."""
    return {(int(k) if k.isdigit() else k): np.array(v, dtype=np.int64)
            for k, v in doc["sets"].items()}

