import itertools

import numpy as np
import pytest

import qnonloc as q


@pytest.fixture(scope="session")
def ex1_family():
    """48-state construction at d=4, N=3 (smallest admissible xi = 2)."""
    return q.build_modified_family(4, 3)


@pytest.fixture(scope="session")
def ex2_family():
    """Same parameters with the explicit alternative xi = 3 (home = label 1)."""
    return q.build_modified_family(4, 3, xi=3)


@pytest.fixture(scope="session")
def d3_minimal_family():
    """18-state construction at d=3, N=3 (beyond the d >= 4 guarantee)."""
    return q.build_modified_family(3, 3)


@pytest.fixture(scope="session")
def bell_family():
    return q.build_index_family(2, 2)


@pytest.fixture(scope="session")
def product_family():
    """Computational basis of (C^2)^2; every tuple is its own singleton set."""
    radix = (2, 2)
    sets = {i: q.TupleSet.from_tuples(radix, [t])
            for i, t in enumerate(itertools.product(range(2), repeat=2))}
    return q.SetFamily(radix, sets)


def _sub_family(fam, rng, share=0.7):
    """Each set cut to a seeded random `share` of its members, at least one."""
    sets = {}
    for l, ts in fam.items():
        keep = rng.choice(len(ts), size=max(1, round(share * len(ts))), replace=False)
        sets[l] = q.TupleSet(fam.radix, np.sort(ts.ranks[keep]))
    return q.SetFamily(fam.radix, sets)


@pytest.fixture(scope="session")
def built_bases():
    """(name, family) for the index families at d = 2..6, n = 2..4 and the
    modified ones at n = 3, 4, with d**n <= 1296."""
    bases = []
    for d, n in itertools.product(range(2, 7), range(2, 5)):
        if d**n <= 1296:
            bases.append((f"index({d},{n})", q.build_index_family(d, n)))
            if n >= 3:
                bases.append((f"modified({d},{n})", q.build_modified_family(d, n).family))
    return bases


@pytest.fixture(scope="session")
def built_slice(built_bases):
    """The built bases, each of their one-set ablations, and four seeded 70%
    sub-families of each of those."""
    rng = np.random.default_rng(20261018)
    out = []
    for name, fam in built_bases:
        for tag, var in [("", fam)] + [(f"-{l}", fam.drop(l)) for l in fam.labels]:
            out.append((name + tag, var))
            out += [(f"{name}{tag}~{i}", _sub_family(var, rng)) for i in range(4)]
    return out
