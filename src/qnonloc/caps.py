"""The one resource cap.

Every size check in the package goes through `check`, which raises
ResourceLimitError before the work it counts is done.  The counts are the
cube d**n of a family build or of the member cube both routes lay out,
d_k**2 * U * (L + 1) for the checker's cover search on a cut (co-occurrence
counts, U the sets with no singleton class out of L), R**2 for its pair
covering on a cut (residual row pairs, R the distinct extension rows),
d_k * D**2 for the exact oracle on a cut (its same-digit pair slots,
checked for every requested cut before it builds anything), N (N - 1) D**2
for the dense reference's row matrix (checked before any amplitude is
built), (2**(n-1) - 1) * m member splits for the genuine-entanglement check
(m the members of all sets), the d**2 cells of the diagonal-home grid, and
the numbers a state export (sum of s * (n + 1): each set's
support and bijection) or a verify JSON's witnesses (2 * D**2 summed over
the nontrivial cuts, checked once, before any witness is built) would
write.  The QNONLOC_CAP environment variable, one positive integer, is the
only override.  It is read on every `check`, except that each call of
either route reads it once at entry, after checking its cuts, and passes
it to every check of that call.

The checker decides a request in blocks (`verifier`) of at most 8192
table entries, and cuts share one only when every requested cut has the
same d_k and each has at most 4096 entries.  A block is checked on its
cuts' distinct columns, but its counts are still each cut's full-table
counts, checked cut by cut, so a block allocates the sum of its cuts'
checked counts (pair covering pads each cut's rows to the block's largest
R).
"""

from __future__ import annotations

import os

from .errors import ResourceLimitError

DEFAULT_ENUM_CAP = 10**7

ENV_VAR = "QNONLOC_CAP"


def enum_cap() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below, with the values that are not positive
    if cap <= 0:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


def check(count: int, what: str, *, limit: int | None = None) -> None:
    """Raise ResourceLimitError when `count` (of `what`) exceeds the cap:
    `limit`, a value `enum_cap` returned, or else the cap read now."""
    if limit is None:
        limit = enum_cap()
    if count > limit:
        raise ResourceLimitError(
            f"{count} {what} exceed enumeration cap {limit} (set {ENV_VAR} to raise it)")
