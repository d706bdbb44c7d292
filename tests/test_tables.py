import json

import numpy as np
import pytest

from qnonloc.tables import (all_comparison_tables, comparison_table, diagonal_table,
                            render_comparison, render_diagonal)

FROZEN_THIS_WORK = {
    4: (48, 192, 768, 3072, 12288, 49152),
    5: (75, 375, 1875, 9375, 46875, 234375),
    6: (108, 648, 3888, 23328, 139968, 839808),
    7: (147, 1029, 7203, 50421, 352947, 2470629),
}
FROZEN_REFERENCE = {
    4: (38, 176, 782, 3368, 14198, 58976),
    5: (62, 370, 2102, 11530, 61742, 325090),
    6: (92, 672, 4652, 31032, 201812, 1288992),
    7: (128, 1106, 9032, 70994, 543608, 4085186),
}


@pytest.mark.parametrize("d", sorted(FROZEN_THIS_WORK))
def test_frozen_rows(d):
    table = comparison_table(d)
    assert table["n"] == [3, 4, 5, 6, 7, 8]
    assert tuple(table["this_work"]) == FROZEN_THIS_WORK[d]
    assert tuple(table["reference"]) == FROZEN_REFERENCE[d]
    assert table["lower_bound"] == [d ** (n - 1) + 1 for n in table["n"]]
    # every size clears the lower bound; the published count is not always
    # beaten (at N = 3, d = 4 this work has 48 against 38)
    assert all(w > lb for w, lb in zip(table["this_work"], table["lower_bound"]))


def test_enumerated_flags():
    table = comparison_table(4)
    # 4^n <= 10^5 holds up to n=8 except... 4^8=65536 <= 10^5, all checked
    assert table["enumerated"] == [True] * 6
    table7 = comparison_table(7)
    # 7^n <= 10^5 only for n <= 5
    assert table7["enumerated"] == [True, True, True, False, False, False]


def test_all_comparison_tables():
    got = all_comparison_tables()
    assert [t["d"] for t in got] == [4, 5, 6, 7]


def test_exact_csv_d4():
    table = comparison_table(4)
    expected = (
        "d=4,N=3,N=4,N=5,N=6,N=7,N=8\n"
        "Ref.,38,176,782,3368,14198,58976\n"
        "This work,48,192,768,3072,12288,49152\n"
    )
    assert render_comparison(table, "csv") == expected


def test_text_render_alignment():
    # each column right-aligned to its widest cell, columns two spaces apart
    assert render_comparison(comparison_table(5), "text") == (
        "      d=5  N=3  N=4   N=5    N=6    N=7     N=8\n"
        "     Ref.   62  370  2102  11530  61742  325090\n"
        "This work   75  375  1875   9375  46875  234375\n"
    )
    assert render_diagonal(3, "text") == (
        "n%d  xi=0  xi=1  xi=2\n"
        "  0     0     0     0\n"
        "  1     0     1     2\n"
        "  2     0     2     1\n"
    )


def test_json_render_round_trips():
    text = json.dumps(comparison_table(6))
    back = json.loads(text)
    assert back["d"] == 6
    assert tuple(back["this_work"]) == FROZEN_THIS_WORK[6]


def test_diagonal_grid_d4():
    grid = diagonal_table(4)
    expected = np.array([
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 0, 2],
        [0, 3, 2, 1],
    ])
    assert np.array_equal(grid, expected)


def test_diagonal_grid_matches_home():
    from qnonloc import diagonal_home
    for d in (2, 3, 5):
        grid = diagonal_table(d)
        for n in range(1, 2 * d + 1):
            for xi in range(d):
                assert grid[n % d, xi] == diagonal_home(xi, n, d)


def test_diagonal_csv_header():
    out = render_diagonal(3, "csv")
    lines = out.splitlines()
    assert lines[0] == "n mod d,xi=0,xi=1,xi=2"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "1,0,1,2"
    assert lines[3] == "2,0,2,1"


def test_diagonal_rejects_small_d():
    with pytest.raises(ValueError):
        diagonal_table(1)


def test_enumeration_cross_check_runs():
    # d=3 is below the guaranteed dimension range but still enumerates, at
    # every N since 3**8 <= 10**5
    table = comparison_table(3)
    assert table["enumerated"] == [True] * 6
    assert table["this_work"][:2] == [18, 54]


def test_tables_fast():
    import time
    t0 = time.perf_counter()
    all_comparison_tables()
    assert time.perf_counter() - t0 < 1.0
