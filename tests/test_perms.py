"""Tests for parsing, containment, and the exhaustive census helpers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.perms import (
    ResourceLimitError,
    active_sites,
    avoids,
    contains,
    count_avoiders,
    enumerate_avoiders,
    first_letter_distribution,
    first_second_distribution,
    format_permutation,
    left_right_minima,
    parse_pair,
    parse_permutation,
    pattern_of,
)

perms_st = st.permutations(range(1, 7)).map(tuple)


def brute_contains(perm, pattern):
    k = len(pattern)
    return any(
        pattern_of(sub) == pattern for sub in itertools.combinations(perm, k)
    )


def test_parse_permutation_forms():
    assert parse_permutation("2 4 1 3") == (2, 4, 1, 3)
    assert parse_permutation("2,4,1,3") == (2, 4, 1, 3)
    assert parse_permutation("2413") == (2, 4, 1, 3)
    assert parse_permutation("1") == (1,)


def test_parse_permutation_rejects_junk():
    for bad in ("", "1 1 2", "1 3", "0 1 2", "a b"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_parse_pair():
    assert parse_pair("1243,1423") == ((1, 2, 4, 3), (1, 4, 2, 3))
    for bad in ("1243", "1243,1243", "123,1243", "1243,1423,1432"):
        with pytest.raises(ValueError):
            parse_pair(bad)


def test_format_round_trip():
    perm = (3, 5, 2, 4, 1)
    assert parse_permutation(format_permutation(perm)) == perm


def test_pattern_of():
    assert pattern_of((6, 9, 2, 5)) == (3, 4, 1, 2)
    assert pattern_of((1,)) == (1,)
    assert pattern_of(()) == ()


@given(perms_st, st.sampled_from([(1, 2, 3, 4), (1, 2, 4, 3), (2, 4, 1, 3)]))
def test_contains_matches_brute_force(perm, pattern):
    assert contains(perm, pattern) == brute_contains(perm, pattern)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_contains_every_pattern_exhaustively(k):
    # length 4 takes the flat loop, the other lengths the backtracking
    patterns = list(itertools.permutations(range(1, k + 1)))
    for perm in itertools.permutations(range(1, 7)):
        for pattern in patterns:
            assert contains(perm, pattern) == brute_contains(perm, pattern)


@given(perms_st)
def test_avoids_is_negation_of_contains(perm):
    pair = ((1, 2, 4, 3), (1, 4, 2, 3))
    assert avoids(perm, *pair) == (
        not contains(perm, pair[0]) and not contains(perm, pair[1])
    )


def test_left_right_minima():
    assert left_right_minima((3, 5, 2, 4, 1)) == [(1, 3), (3, 2), (5, 1)]
    assert left_right_minima((1, 2, 3)) == [(1, 1)]
    assert left_right_minima((3, 2, 1)) == [(1, 3), (2, 2), (3, 1)]


@given(perms_st)
def test_minima_positions_increase_values_decrease(perm):
    minima = left_right_minima(perm)
    positions = [p for p, _ in minima]
    values = [v for _, v in minima]
    assert positions == sorted(positions)
    assert values == sorted(values, reverse=True)
    assert values[-1] == 1


def test_enumeration_matches_filter():
    pair = parse_pair("1243,1423")
    for n in range(0, 7):
        got = enumerate_avoiders(n, pair)
        want = [
            p
            for p in map(tuple, itertools.permutations(range(1, n + 1)))
            if avoids(p, *pair)
        ]
        assert got == sorted(want)


def test_first_letter_distribution_small():
    pair = parse_pair("1234,1243")
    assert first_letter_distribution(1, pair) == [1]
    assert first_letter_distribution(2, pair) == [1, 1]
    assert first_letter_distribution(3, pair) == [2, 2, 2]
    assert first_letter_distribution(4, pair) == [4, 6, 6, 6]


def test_first_second_distribution_marginals():
    pair = parse_pair("1243,1423")
    for n in range(2, 7):
        table = first_second_distribution(n, pair)
        assert table.first_letter() == first_letter_distribution(n, pair)
        assert table.total() == count_avoiders(n, pair)
        # a permutation has exactly one (first, second) cell
        assert all(table.value(i, i) == 0 for i in range(1, n + 1))


def test_active_sites_blocks_created_pattern():
    # lifting 2 1 3 and putting the new 1 up front makes 1 3 2 4, which
    # is a 1324 occurrence, so gap 0 is inactive
    assert active_sites((2, 1, 3), parse_pair("1324,1423")) == [1, 2, 3]


def test_active_site_census_counts_gaps():
    from permlab.perms import active_site_census

    pair = parse_pair("1324,1423")
    for n in range(1, 6):
        census = active_site_census(n, pair)
        for perm in enumerate_avoiders(n, pair):
            sites = len(active_sites(perm, pair))
            assert census[perm[0], sites] > 0
        assert census.sum() == count_avoiders(n, pair)


def test_resource_cap(monkeypatch):
    pair = parse_pair("1243,1423")
    with pytest.raises(ResourceLimitError):
        enumerate_avoiders(30, pair)
    monkeypatch.setenv("PERMLAB_MAX_N", "8")
    with pytest.raises(ResourceLimitError, match="PERMLAB_MAX_N"):
        first_letter_distribution(9, pair)
    assert sum(first_letter_distribution(8, pair)) == 8558


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=6))
def test_count_is_schroeder(n):
    from permlab.schroeder import schroeder_number

    pair = parse_pair("1243,1423")
    assert count_avoiders(n, pair) == schroeder_number(n)
