"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest statuses.  Every check is exact; the only tolerance
anywhere is a wall-clock budget, asserted where one is stated.
"""

from __future__ import annotations

import time

from permlab import recurrences
from permlab.closedforms import expand, verify_cleared
from permlab.perms import (
    active_site_census,
    enumerate_avoiders,
    first_letter_distribution,
    first_second_distribution,
    left_right_minima,
)
from permlab.schroeder import (
    column_identity_holds,
    inversion_seq_distribution,
    schroeder_numbers,
    triangle_row,
    triangle_rows,
)
from permlab.series import PolyAux, XSeries

# exhaustive enumeration depth of the nine-pair criterion
FULL_N = 10


def _verdict(num: int, ok: bool, what: str, t0: float, budget: float | None = None) -> None:
    """Print one verdict line with the elapsed time, and the budget it is
    held to (``3.1s of 120s``) when there is one."""
    mark = "PASS" if ok else "FAIL"
    took = f"{time.perf_counter() - t0:.2f}s"
    if budget is not None:
        took += f" of {budget:g}s"
    print(f"[{mark}] criterion {num}: {what} ({took})")


TABLE_ONE = [
    [1],
    [1, 1],
    [2, 2, 2],
    [4, 6, 6, 6],
    [8, 16, 22, 22, 22],
    [16, 40, 68, 90, 90, 90],
]


def test_criterion_01_triangle_table():
    t0 = time.perf_counter()
    got = triangle_rows(6)
    ok = got == TABLE_ONE and sum(len(r) for r in got) == 21
    elapsed = time.perf_counter() - t0
    _verdict(1, ok and elapsed < 1.0, "triangle rows 1..6 match the reference table", t0, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_reference_census_rows():
    from permlab.catalog import CATALOG, diff_catalog

    t0 = time.perf_counter()
    sample = {e.label: tuple(e.counts) for e in CATALOG}
    ok = sample["2431,4231"] == (1806, 1092, 1008, 1045, 1120, 1134, 924, 429)
    mismatches = diff_catalog()
    ok = ok and mismatches == [] and len(CATALOG) == 57
    elapsed = time.perf_counter() - t0
    _verdict(2, ok and elapsed < 120, "all 57 reference census rows re-derived at n=8", t0, 120)
    assert mismatches == []
    assert ok
    assert elapsed < 120


def test_criterion_03_nine_pairs_follow_the_triangle():
    from permlab.catalog import TRIANGLE_PAIRS

    t0 = time.perf_counter()
    rows = triangle_rows(FULL_N)
    ok = True
    for pair in TRIANGLE_PAIRS:
        for n in range(1, FULL_N + 1):
            if first_letter_distribution(n, pair, max_n=FULL_N) != rows[n - 1]:
                ok = False
    elapsed = time.perf_counter() - t0
    _verdict(
        3, ok and elapsed < 900,
        f"nine pattern pairs match the triangle exactly for n <= {FULL_N}", t0, 900,
    )
    assert ok
    assert elapsed < 900


def test_criterion_04_recurrences_match_enumeration():
    t0 = time.perf_counter()
    ok = True
    for pair in recurrences.FIRST_LETTER_PAIRS:
        rows = recurrences.first_letter_rows(9, pair)
        for n in range(1, 10):
            if rows[n - 1] != first_letter_distribution(n, pair):
                ok = False
    for pair in recurrences.SITE_PAIRS:
        for n in range(1, 10):
            table = recurrences.site_table(n, pair)
            census = active_site_census(n, pair)
            if any(
                table[i][j] != int(census[i][j])
                for i in range(1, n + 1)
                for j in range(n + 2)
            ):
                ok = False
    for pair in recurrences.JOINT_PAIRS:
        for n in range(2, 10):
            if recurrences.joint_table(n, pair).cells != (
                first_second_distribution(n, pair).cells
            ):
                ok = False
    elapsed = time.perf_counter() - t0
    _verdict(
        4, ok and elapsed < 120,
        "all five recurrence families equal the enumeration censuses for n <= 9", t0, 120,
    )
    assert ok
    assert elapsed < 120


def test_criterion_05_identity_suite():
    t0 = time.perf_counter()
    ok = all(column_identity_holds(n) for n in range(1, 21))
    for n in range(3, 21):
        row = triangle_row(n)
        ok = ok and row[-1] == row[-2] == row[-3]
    pair = ((1, 2, 4, 3), (1, 3, 4, 2))
    for n in range(3, 11):
        table = recurrences.joint_table(n, pair)
        for i in range(1, n - 1):
            ok = ok and table.value(i, i + 1) == table.value(i, i + 2)
    _verdict(5, ok, "column, tail, and adjacent-diagonal identities hold", t0)
    assert ok


def test_criterion_06_bijection_suite():
    from permlab.bijection import SOURCE_PAIR, TARGET_PAIR, forward, inverse

    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        source = enumerate_avoiders(n, SOURCE_PAIR)
        target = set(enumerate_avoiders(n, TARGET_PAIR))
        images = set()
        for perm in source:
            image = forward(perm)
            if image not in target:
                ok = False
            if left_right_minima(image) != left_right_minima(perm):
                ok = False
            if inverse(image) != perm:
                ok = False
            images.add(image)
        if len(images) != len(source) or images != target:
            ok = False
    elapsed = time.perf_counter() - t0
    _verdict(
        6, ok and elapsed < 180,
        "bijection is onto, minima-preserving, and two-sided for n <= 8", t0, 180,
    )
    assert ok
    assert elapsed < 180


APLUS_TERMS = [
    {(1, 2): 1},
    {(2, 3): 1, (1, 3): 1, (1, 2): 1},
    {(3, 4): 2, (2, 4): 2, (2, 3): 2, (1, 4): 2, (1, 3): 1, (1, 2): 1},
]
AMINUS_TERMS = [
    {(2, 1): 1},
    {(3, 2): 1, (3, 1): 1, (2, 1): 1},
    {(4, 3): 2, (4, 2): 2, (4, 1): 2, (3, 2): 2, (3, 1): 2, (2, 1): 2},
]
B_1342_TERMS = [
    {(1, 4): 2},
    {(2, 5): 8, (1, 5): 4, (1, 4): 2},
    {(3, 6): 34, (2, 6): 20, (2, 5): 10, (1, 6): 8, (1, 5): 4, (1, 4): 2},
]
B_1324_TERMS = [
    {(1, 3): 1},
    {(2, 4): 3, (1, 4): 2, (1, 3): 1},
    {(3, 5): 11, (2, 5): 8, (2, 4): 4, (1, 5): 4, (1, 4): 2, (1, 3): 1},
]
C_TERMS = [
    {(1, 0): 1},
    {(2, 0): 2, (1, 0): 1},
    {(3, 0): 6, (2, 0): 3, (1, 0): 1},
    {(4, 0): 22, (3, 0): 11, (2, 0): 4, (1, 0): 1},
]


def _rows_of(series, n_range):
    return [dict(series.coefficient(n).iter_terms()) for n in n_range]


def test_criterion_07_series_suite():
    t0 = time.perf_counter()
    tri = expand("triangle_gf", 12)
    rows = triangle_rows(12)
    ok = all(
        [tri.coefficient(n).coefficient(k, 0) for k in range(1, n + 1)] == rows[n - 1]
        for n in range(1, 13)
    )
    sch = expand("schroeder_gf", 12)
    ok = ok and [
        sch.coefficient(n).coefficient(0, 0) for n in range(1, 13)
    ] == schroeder_numbers(12)

    for tag, pair in (
        ("1243_1423", ((1, 2, 4, 3), (1, 4, 2, 3))),
        ("1243_1342", ((1, 2, 4, 3), (1, 3, 4, 2))),
        ("1243_1324", ((1, 2, 4, 3), (1, 3, 2, 4))),
    ):
        coeffs = [PolyAux.zero()]
        for n in range(1, 10):
            counts = first_letter_distribution(n, pair)
            coeffs.append(PolyAux({(i + 1, 0): c for i, c in enumerate(counts) if c}))
        brute_gf = XSeries(coeffs, 9, guard=22)
        ok = ok and verify_cleared(brute_gf, f"first_letter_{tag}", guard=22).ok

    for tag in ("1243_1342", "1243_1324"):
        ok = ok and _rows_of(expand(f"aplus_{tag}", 4, guard=12), range(2, 5)) == APLUS_TERMS
        ok = ok and _rows_of(expand(f"aminus_{tag}", 4, guard=12), range(2, 5)) == AMINUS_TERMS
        ok = ok and _rows_of(expand(f"c_{tag}", 6, guard=16), range(3, 7)) == C_TERMS
    ok = ok and _rows_of(expand("b_1243_1342", 7, guard=18), range(5, 8)) == B_1342_TERMS
    ok = ok and _rows_of(expand("b_1243_1324", 6, guard=16), range(4, 7)) == B_1324_TERMS
    _verdict(7, ok, "closed forms expand to the tables and stated low orders", t0)
    assert ok


def test_criterion_08_functional_equation_systems():
    from permlab.systems import verify_all

    t0 = time.perf_counter()
    report = verify_all(depth=8)
    ok = all(r.ok for results in report.values() for r in results)
    elapsed = time.perf_counter() - t0
    _verdict(
        8, ok and elapsed < 300,
        "all four functional-equation systems have zero residual at depth 8", t0, 300,
    )
    assert ok
    assert elapsed < 300


def test_criterion_09_generating_tree_polynomial():
    t0 = time.perf_counter()
    ok = True
    # at q = 1 the site polynomial forgets the site count
    pair = recurrences.SITE_PAIRS[0]
    at_q1 = {
        n: recurrences.site_polynomial(n).compose(PolyAux.var_a(), PolyAux.one())
        for n in range(1, 11)
    }
    for n in range(1, 11):
        got = [at_q1[n].coefficient(i, 0) for i in range(1, n + 1)]
        want = (
            first_letter_distribution(n, pair)
            if n <= 9
            else triangle_row(n)
        )
        ok = ok and got == want
    # summed into a bivariate series it is the triangle generating function
    tri = expand("triangle_gf", 10)
    summed = XSeries([PolyAux.zero()] + [at_q1[n] for n in range(1, 11)], 10, guard=24)
    ok = ok and (summed - tri).is_zero()
    _verdict(
        9, ok,
        "site polynomial at q=1 equals the first-letter census through order 10", t0,
    )
    assert ok


def test_criterion_10_inversion_sequences():
    t0 = time.perf_counter()
    ok = all(
        inversion_seq_distribution(n) == triangle_row(n) for n in range(1, 10)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        10, ok and elapsed < 60,
        "inversion-sequence census equals the triangle rows for n <= 9", t0, 60,
    )
    assert ok
    assert elapsed < 60
