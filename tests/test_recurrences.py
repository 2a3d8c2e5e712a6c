"""The five recurrence families against the exhaustive censuses."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab import recurrences
from permlab.perms import (
    active_site_census,
    first_letter_distribution,
    first_second_distribution,
)
from permlab.schroeder import schroeder_number, triangle_rows

BRUTE_N = 8


@pytest.mark.parametrize(
    "pair", recurrences.FIRST_LETTER_PAIRS, ids=lambda p: "".join(map(str, p[0]))
)
def test_first_letter_rows_match_brute(pair):
    rows = recurrences.first_letter_rows(BRUTE_N, pair)
    for n in range(1, BRUTE_N + 1):
        assert rows[n - 1] == first_letter_distribution(n, pair)


def test_first_letter_rows_are_the_triangle():
    assert recurrences.first_letter_rows(12) == triangle_rows(12)


@pytest.mark.parametrize(
    "pair", recurrences.SITE_PAIRS, ids=lambda p: "".join(map(str, p[0]))
)
def test_site_table_matches_brute(pair):
    # the whole table, shape included: (n + 1) rows of width n + 2
    for n in range(1, BRUTE_N):
        assert recurrences.site_table(n, pair) == active_site_census(n, pair).tolist()


def test_site_table_boundary_powers_of_two():
    # the all-sites-active column j = n + 1 halves with the first letter
    for n in range(2, 12):
        table = recurrences.site_table(n)
        for i in range(1, n):
            assert table[i][n + 1] == 2 ** (n - i - 1)
        assert table[n][n + 1] == 1


def test_site_polynomial_matches_table():
    # the polynomial tracks q^(sites - 2); column j of the table is q^(j-2)
    for n in range(1, 10):
        poly = recurrences.site_polynomial(n)
        table = recurrences.site_table(n)
        for i in range(1, n + 1):
            for j in range(2, n + 2):
                assert poly.coefficient(i, j - 2) == table[i][j]
            assert table[i][0] == table[i][1] == 0


def test_site_table_row_sums_are_schroeder():
    for n in range(1, 12):
        table = recurrences.site_table(n)
        assert sum(sum(row) for row in table) == schroeder_number(n)


@pytest.mark.parametrize(
    "pair", recurrences.JOINT_PAIRS, ids=lambda p: "".join(map(str, p[1]))
)
def test_joint_table_matches_brute(pair):
    for n in range(2, BRUTE_N + 1):
        got = recurrences.joint_table(n, pair)
        want = first_second_distribution(n, pair)
        assert got.cells == want.cells


def test_joint_rules_agree():
    # the public table (cumulative update) against the direct binomial re-sum
    pair = recurrences.JOINT_PAIRS[-1]
    assert pair == ((1, 2, 4, 3), (1, 3, 2, 4))
    direct = recurrences._joint_1243_1324(10, direct=True)
    for n in range(2, 11):
        assert recurrences.joint_table(n, pair).cells == direct.as_table(n).cells


def test_joint_adjacent_diagonals_agree():
    # the (i, i+1) and (i, i+2) cells coincide for the 1243/1342 class
    pair = ((1, 2, 4, 3), (1, 3, 4, 2))
    for n in range(3, 11):
        table = recurrences.joint_table(n, pair)
        for i in range(1, n - 1):
            assert table.value(i, i + 1) == table.value(i, i + 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_joint_marginals_are_the_triangle(n):
    for pair in recurrences.JOINT_PAIRS:
        table = recurrences.joint_table(n, pair)
        assert table.first_letter() == triangle_rows(n)[-1]


def test_pair_normalization():
    assert recurrences.first_letter_row(5) == recurrences.first_letter_row(
        5, "1234,1243"
    )
    assert recurrences.joint_table(5, "1423,1243").cells == recurrences.joint_table(
        5, ((1, 2, 4, 3), (1, 4, 2, 3))
    ).cells
    with pytest.raises(ValueError):
        recurrences.first_letter_row(5, "1243,1423")
    with pytest.raises(ValueError):
        recurrences.site_table(5, "1234,1243")
    with pytest.raises(ValueError):
        recurrences.joint_table(5, "1324,1342")
