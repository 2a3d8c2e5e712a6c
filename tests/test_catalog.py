"""The embedded size-8 reference table against fresh enumeration."""

from __future__ import annotations

import pytest

from permlab.catalog import (
    CATALOG,
    REFERENCE_N,
    TRIANGLE_PAIRS,
    entries,
    recompute_entry,
)
from permlab.schroeder import schroeder_number, triangle_row


def test_catalog_shape():
    assert REFERENCE_N == 8
    assert len(CATALOG) == 57
    labels = [e.label for e in CATALOG]
    assert len(set(labels)) == 57
    assert all(len(e.counts) == 8 for e in CATALOG)


def test_flag_population():
    assert len(entries("triangle")) == 9
    assert len(entries("reversed")) == 9
    assert len(entries(None)) == 57


def test_triangle_rows_are_row_eight():
    row = triangle_row(REFERENCE_N)
    for entry in entries("triangle"):
        assert list(entry.counts) == row
    for entry in entries("reversed"):
        assert list(entry.counts) == row[::-1]


def test_triangle_pairs_constant():
    assert len(TRIANGLE_PAIRS) == 9
    flagged = {e.pair for e in entries("triangle")}
    assert set(TRIANGLE_PAIRS) == flagged


def test_totals_split():
    schroeder = [e for e in CATALOG if e.total == schroeder_number(REFERENCE_N)]
    smaller = [e for e in CATALOG if e.total == 6968]
    assert len(schroeder) == 49
    assert len(smaller) == 8
    assert len(schroeder) + len(smaller) == len(CATALOG)


@pytest.mark.parametrize(
    "entry", [CATALOG[0], CATALOG[20], CATALOG[-1]], ids=lambda e: e.label
)
def test_recompute_single_entries(entry):
    assert recompute_entry(entry) == list(entry.counts)
