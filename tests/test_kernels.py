"""The enumeration kernels against oracles that share none of their code,
and the state counter behind ``census_pair`` against the walk.

The oracle lists S_n with ``itertools.permutations`` and tests every
permutation against every 4-letter pattern with :func:`permlab.perms.contains`;
the kernels never test a finished permutation at all, they only forbid
values while a prefix grows (the walk) or merge gaps between unused values
(the counter).  The oracle runs up to n = 7.  Above it the counter is
checked cell for cell against a census counted leaf by leaf from
``kernels._walk``; the two share :func:`permlab.kernels._rules`, so that
check tests each one's code, and the oracle stays the independent anchor.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from permlab import kernels
from permlab.catalog import CATALOG
from permlab.perms import active_sites, contains

PATTERNS = list(itertools.permutations(range(1, 5)))
ALL_PAIRS = list(itertools.combinations(PATTERNS, 2))


@functools.lru_cache(maxsize=None)
def _contained(n: int) -> dict:
    """Each permutation of 1..n (lex order) -> the 4-patterns it contains."""
    return {
        p: frozenset(q for q in PATTERNS if contains(p, q))
        for p in itertools.permutations(range(1, n + 1))
    }


def _avoiders(n, pair):
    return [p for p, held in _contained(n).items() if not held & set(pair)]


def _census(n, pair):
    first = np.zeros(n, np.int64)
    cells = np.zeros((n + 1, n + 1), np.int64)
    for p in _avoiders(n, pair):
        first[p[0] - 1] += 1
        if n > 1:
            cells[p[0], p[1]] += 1
    return first, cells


def _assert_census(n, pair):
    first, cells = kernels.census_pair(n, *pair)
    want_first, want_cells = _census(n, pair)
    assert first.dtype == cells.dtype == np.int64
    assert np.array_equal(first, want_first), (n, pair)
    assert np.array_equal(cells, want_cells), (n, pair)


@pytest.mark.parametrize("head", PATTERNS[:-1], ids=lambda p: "".join(map(str, p)))
def test_census_pair_matches_oracle(head):
    # every unordered pair of distinct 4-patterns whose first member is `head`
    for pair in ALL_PAIRS:
        if pair[0] == head:
            for n in range(1, 7):
                _assert_census(n, pair)


def test_census_pair_matches_oracle_on_catalog_at_7():
    for entry in CATALOG:
        _assert_census(7, entry.pair)


def _walk_census(n, pair):
    """``census_pair``'s two tables as plain lists, counted leaf by leaf."""
    first = [0] * n
    cells = [[0] * (n + 1) for _ in range(n + 1)]
    for p in kernels._walk(n, *pair):
        first[p[0] - 1] += 1
        if n > 1:
            cells[p[0]][p[1]] += 1
    return first, cells


def _assert_matches_walk(n, pair):
    first, cells = kernels.census_pair(n, *pair)
    assert (first.tolist(), cells.tolist()) == _walk_census(n, pair), (n, pair)


@pytest.mark.parametrize("head", PATTERNS[:-1], ids=lambda p: "".join(map(str, p)))
def test_census_pair_matches_walk(head):
    for pair in ALL_PAIRS:
        if pair[0] == head:
            for n in range(1, 8):
                _assert_matches_walk(n, pair)


def test_census_pair_matches_walk_on_catalog_at_8():
    for entry in CATALOG:
        _assert_matches_walk(8, entry.pair)


def test_census_pair_memo_lives_for_one_call():
    # a memo kept across calls would hand one pair's or size's counts to the
    # next call that meets an equal key
    calls = [(n, pair) for n in (6, 5, 6, 4, 6) for pair in ALL_PAIRS[::23]]
    calls += calls[::-3]
    for n, pair in calls:
        _assert_census(n, pair)


def test_walk_closes_at_sizes_one_and_two():
    # the walk places the last value from depth n - 2; n = 1 has no such depth
    for pair in ALL_PAIRS[::37]:
        assert [list(p) for p in kernels._walk(1, *pair)] == [[1]]
        assert [list(p) for p in kernels._walk(2, *pair)] == [[1, 2], [2, 1]]
        out = []
        assert kernels.fill_avoiders(2, *pair, out) == 2
        assert out == [(1, 2), (2, 1)]
        first, cells = kernels.census_pair(2, *pair)
        assert first.tolist() == [1, 1]
        assert cells.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
        assert kernels.active_census(1, *pair).tolist() == [[0, 0, 0], [0, 0, 1]]


def test_fill_avoiders_matches_oracle():
    for pair in ALL_PAIRS:
        for n in range(1, 7):
            out = [("sentinel",)]
            count = kernels.fill_avoiders(n, *pair, out)
            assert out[1:] == sorted(_avoiders(n, pair)), (n, pair)
            assert count == len(out) - 1


def test_active_census_matches_active_sites():
    for pair in ALL_PAIRS:
        for n in range(1, 6):
            want = np.zeros((n + 1, n + 2), np.int64)
            for p in _avoiders(n, pair):
                want[p[0], len(active_sites(p, pair))] += 1
            got = kernels.active_census(n, *pair)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, pair)


def _avoids_021(e) -> bool:
    return not any(
        e[i] < e[k] < e[j]
        for i, j, k in itertools.combinations(range(len(e)), 3)
    )


def test_inv021_census_matches_brute_force():
    for n in range(1, 8):
        want = [0] * n
        for e in itertools.product(*(range(t) for t in range(1, n + 1))):
            if _avoids_021(e):
                want[(e[-1] or n) - 1] += 1
        got = kernels.inv021_census(n)
        assert got.dtype == np.int64
        assert got.tolist() == want, n


@settings(max_examples=60, deadline=None)
@given(
    pair=st.lists(st.permutations(range(1, 5)), min_size=2, max_size=2, unique_by=tuple)
    .map(lambda ps: tuple(tuple(p) for p in ps)),
    n=st.integers(min_value=1, max_value=7),
    kind=st.sampled_from([tuple, list, lambda p: np.array(p, np.int8)]),
)
def test_kernels_match_oracle_on_random_pairs(pair, n, kind):
    pa, pb = kind(pair[0]), kind(pair[1])
    want = _avoiders(n, pair)
    out = []
    assert kernels.fill_avoiders(n, pa, pb, out) == len(want)
    assert out == want
    first, cells = kernels.census_pair(n, pa, pb)
    want_first, want_cells = _census(n, pair)
    assert np.array_equal(first, want_first)
    assert np.array_equal(cells, want_cells)
