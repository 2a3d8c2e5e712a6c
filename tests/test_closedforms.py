"""Closed-form generating functions against tables and stated expansions."""

from __future__ import annotations

import dataclasses

import pytest

from permlab import closedforms
from permlab.closedforms import (
    CheckResult,
    build_closed_form,
    closed_form_names,
    expand,
    verify_cleared,
)
from permlab.schroeder import schroeder_numbers, triangle_rows
from permlab.series import PolyAux, XSeries


def poly_rows(series, n_range):
    return [
        {key: c for key, c in series.coefficient(n).iter_terms()}
        for n in n_range
    ]


def test_registry_is_buildable():
    for name in closed_form_names():
        form = build_closed_form(name)
        assert form.name == name
        assert not form.denominator_series(4).coeffs[0].is_zero() or form.start > 0


def test_registry_builds_shared_parts_once():
    parts = closedforms._joint_parts_1243_1342
    build_closed_form.cache_clear()
    parts.cache_clear()
    for name in closed_form_names():
        build_closed_form(name)
    assert parts.cache_info().misses == 1


def test_schroeder_gf():
    series = expand("schroeder_gf", 12)
    assert [series.coefficient(n).coefficient(0, 0) for n in range(1, 13)] == (
        schroeder_numbers(12)
    )
    assert series.coefficient(0).is_zero()


def test_schroeder_tail_gf():
    # the same closed form with the linear head removed: starts at x^2
    series = expand("schroeder_tail_gf", 10)
    assert series.coefficient(0).is_zero()
    assert series.coefficient(1).is_zero()
    assert [series.coefficient(n).coefficient(0, 0) for n in range(2, 11)] == (
        schroeder_numbers(10)[1:]
    )


def test_triangle_gf():
    series = expand("triangle_gf", 12)
    rows = triangle_rows(12)
    for n in range(1, 13):
        coeff = series.coefficient(n)
        assert [coeff.coefficient(k, 0) for k in range(1, n + 1)] == rows[n - 1]
        assert coeff.coefficient(0, 0) == 0
        assert coeff.coefficient(n + 1, 0) == 0


def test_verify_cleared_accepts_the_truth():
    rows = triangle_rows(9)
    coeffs = [PolyAux.zero()]
    for n in range(1, 10):
        coeffs.append(
            PolyAux({(k, 0): rows[n - 1][k - 1] for k in range(1, n + 1)})
        )
    target = XSeries(coeffs, 9, guard=22)
    result = verify_cleared(target, "triangle_gf")
    assert isinstance(result, CheckResult)
    assert result.ok


def test_verify_cleared_rejects_a_perturbation():
    rows = triangle_rows(9)
    rows[7][3] += 1  # corrupt one deep cell
    coeffs = [PolyAux.zero()]
    for n in range(1, 10):
        coeffs.append(
            PolyAux({(k, 0): rows[n - 1][k - 1] for k in range(1, n + 1)})
        )
    target = XSeries(coeffs, 9, guard=22)
    result = verify_cleared(target, "triangle_gf")
    assert not result.ok
    assert "x^8" in result.detail


def test_expand_rejects_fractional_coefficients():
    from fractions import Fraction

    form = build_closed_form("schroeder_gf")
    # halving the whole numerator halves the counting series, and the
    # expander must refuse the resulting non-integer coefficients
    half = Fraction(1, 2)
    broken = dataclasses.replace(
        form,
        poly=form.poly * half,
        radicals=tuple((q * half, r) for q, r in form.radicals),
    )
    with pytest.raises(ArithmeticError):
        expand(broken, 8)
    expanded = expand(broken, 8, require_integer=False)
    assert expanded.coefficient(1).coefficient(0, 0) == half


def test_expand_enforces_valuation():
    form = build_closed_form("schroeder_tail_gf")
    raised = dataclasses.replace(form, start=3)
    with pytest.raises(ArithmeticError):
        expand(raised, 8)


# ---------------------------------------------------------------------------
# stated low-order expansions of the ascent/descent split forms
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("tag", ["1243_1342", "1243_1324"])
def test_ascent_form_low_orders(tag):
    series = expand(f"aplus_{tag}", 4, guard=12)
    assert poly_rows(series, range(2, 5)) == APLUS_TERMS


@pytest.mark.parametrize("tag", ["1243_1342", "1243_1324"])
def test_descent_form_low_orders(tag):
    series = expand(f"aminus_{tag}", 4, guard=12)
    assert poly_rows(series, range(2, 5)) == AMINUS_TERMS


def test_large_ascent_form_low_orders():
    series = expand("b_1243_1342", 7, guard=18)
    assert poly_rows(series, range(5, 8)) == B_1342_TERMS
    series = expand("b_1243_1324", 6, guard=16)
    assert poly_rows(series, range(4, 7)) == B_1324_TERMS


@pytest.mark.parametrize("tag", ["1243_1342", "1243_1324"])
def test_second_letter_top_form_low_orders(tag):
    series = expand(f"c_{tag}", 6, guard=16)
    assert poly_rows(series, range(3, 7)) == C_TERMS


def test_identical_split_forms_across_the_two_classes():
    # the two classes share the same ascent/descent/top closed forms
    for stem in ("aplus", "aminus", "c"):
        a = expand(f"{stem}_1243_1342", 6, guard=16)
        b = expand(f"{stem}_1243_1324", 6, guard=16)
        assert (a - b).is_zero()


def test_split_forms_sum_to_triangle_at_w1():
    # setting w = 1 and adding the n = 1 term recovers the refined triangle
    for tag in ("1243_1342", "1243_1324"):
        ap = expand(f"aplus_{tag}", 9, guard=22)
        am = expand(f"aminus_{tag}", 9, guard=22)
        total = (ap + am).substitute(sb=1)
        rows = triangle_rows(9)
        for n in range(2, 10):
            coeff = total.coefficient(n)
            assert [coeff.coefficient(k, 0) for k in range(1, n + 1)] == rows[n - 1]
