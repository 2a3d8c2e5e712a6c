"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest statuses.  Every check is exact; the only tolerance
anywhere is a wall-clock budget, asserted where one is stated.
"""

from __future__ import annotations

import time

from permlab import recurrences, suites
from permlab.closedforms import expand
from permlab.perms import first_letter_distribution
from permlab.schroeder import column_identity_holds, triangle_row, triangle_rows
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


def _gate(num: int, what: str, suite, scale: int, budget: float | None = None) -> None:
    """Run a verification suite as criterion ``num``: print the verdict and
    every failing check, then assert that all checks passed in budget."""
    t0 = time.perf_counter()
    checks = suite(scale)
    elapsed = time.perf_counter() - t0
    ok = suites.all_ok(checks)
    in_budget = budget is None or elapsed < budget
    _verdict(num, ok and in_budget, what, t0, budget)
    for check in checks:
        if not check.ok:
            print(f"    {check}")
    assert ok, [str(c) for c in checks if not c.ok] or "the suite ran no checks"
    assert in_budget


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
    _gate(
        3, f"nine pattern pairs match the triangle exactly for n <= {FULL_N}",
        suites.check_conjecture, FULL_N, 900,
    )


def test_criterion_04_recurrences_match_enumeration():
    _gate(
        4, "all five recurrence families equal the enumeration censuses for n <= 9",
        suites.check_recurrences, 9, 120,
    )


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
    _gate(
        6, "bijection is onto, minima-preserving, and two-sided for n <= 8",
        suites.check_bijection, 8, 180,
    )


def test_criterion_07_series_suite():
    _gate(
        7, "closed forms expand to the tables and stated low orders",
        suites.check_series, 9,
    )


def test_criterion_08_functional_equation_systems():
    _gate(
        8, "all four functional-equation systems have zero residual at depth 20",
        suites.check_systems, 20, 300,
    )


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
    _gate(
        10, "inversion-sequence census equals the triangle rows for n <= 9",
        suites.check_inversion, 9, 60,
    )
