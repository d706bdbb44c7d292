"""Resource caps.

Enumeration cap bounds how many tuples a family materializes, and how many
entries the oracle's dense reference stacks into its row matrix; operator cap
bounds the Hermitian unknown count D**2 in the oracle.  The QNONLOC_CAP
environment variable is the only override, read on every call: a single
integer sets the enumeration cap, a pair "enum,op" sets both.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 10**7
DEFAULT_OP_CAP = 4096  # D**2 for D = 64

ENV_VAR = "QNONLOC_CAP"


def resolve_caps() -> tuple[int, int]:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP, DEFAULT_OP_CAP
    parts = [p.strip() for p in raw.split(",")]
    try:
        values = [int(p) for p in parts if p]
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer or 'enum,op' pair, got {raw!r}")
    if len(values) == 1:
        enum_cap, op_cap = values[0], DEFAULT_OP_CAP
    elif len(values) == 2:
        enum_cap, op_cap = values
    else:
        raise ValueError(f"{ENV_VAR} accepts at most two integers, got {raw!r}")
    if enum_cap <= 0 or op_cap <= 0:
        raise ValueError(f"{ENV_VAR} values must be positive, got {raw!r}")
    return enum_cap, op_cap


def enum_cap() -> int:
    return resolve_caps()[0]


def op_cap() -> int:
    return resolve_caps()[1]
