"""Tests for the exact polynomial and truncated power-series engine."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.series import (
    AuxDegreeError,
    InexactDivisionError,
    PolyAux,
    XSeries,
)

coeff_st = st.integers(min_value=-4, max_value=4)
poly_st = st.builds(
    PolyAux,
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        coeff_st,
        max_size=5,
    ),
)


# ---------------------------------------------------------------------------
# PolyAux
# ---------------------------------------------------------------------------

def test_polyaux_basics():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    p = (a + 2 * b) ** 2
    assert p.coefficient(2, 0) == 1
    assert p.coefficient(1, 1) == 4
    assert p.coefficient(0, 2) == 4
    assert p.total_degree() == 2
    assert PolyAux.zero().is_zero()
    assert (PolyAux.one() - PolyAux.one()).to_str(("a", "b")) == "0"
    assert p.to_str(("a", "b")) == "a^2 + 4*a*b + 4*b^2"


@given(poly_st, poly_st, poly_st)
def test_polyaux_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == PolyAux.zero()


@given(poly_st, poly_st)
def test_divexact_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert (p * q).divexact(q) == p


def test_divexact_raises_on_inexact():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    with pytest.raises(InexactDivisionError):
        (a * a + b).divexact(a + b)
    # exact case with a unit leading coefficient but fraction content
    half = (a + PolyAux.const(1)).divexact(PolyAux.const(2))
    assert half.coefficient(1, 0) == Fraction(1, 2)


def test_compose():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    p = a * a + b
    assert p.compose(b, a) == b * b + a
    assert p.compose(PolyAux.const(2), PolyAux.const(3)) == PolyAux.const(7)


def test_evaluate():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    p = 3 * a * b + b - 1
    assert p.evaluate(2, 5) == 34


# ---------------------------------------------------------------------------
# XSeries
# ---------------------------------------------------------------------------

def xs(vals, trunc=None, guard=12):
    trunc = len(vals) - 1 if trunc is None else trunc
    return XSeries([PolyAux.const(v) for v in vals], trunc, guard)


def test_xseries_arithmetic():
    f = xs([1, 1, 0, 0, 0, 0])
    g = f * f
    assert [g.coefficient(k).coefficient(0, 0) for k in range(3)] == [1, 2, 1]
    assert (f - f).is_zero()
    assert (f + 2).coefficient(0) == PolyAux.const(3)


def test_geometric_reciprocal():
    one_minus_x = xs([1, -1] + [0] * 9)
    geo = one_minus_x.reciprocal()
    assert all(geo.coefficient(k) == PolyAux.one() for k in range(11))
    assert (geo * one_minus_x - 1).is_zero()


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        xs([0, 1, 0]).reciprocal()
    with pytest.raises(ValueError):
        xs([2, 1, 0]).reciprocal()


def test_divide_exact_and_shift():
    x = XSeries.x(8)
    num = (x * 3 + 1) * x.shift(1)  # x^2 (1 + 3x)
    den = x + 1
    quo = num.divide_exact(den)
    assert (quo * den - num).is_zero()
    assert quo.coefficient(2) == PolyAux.one()
    # dividing by a series with zero constant term is refused outright
    with pytest.raises(ZeroDivisionError):
        num.divide_exact(x.shift(1))


def test_sqrt_round_trip():
    # sqrt(1 - 6x + x^2) appears in every closed form; square it back
    f = xs([1, -6, 1] + [0] * 10)
    root = f.sqrt()
    assert (root * root - f).is_zero()
    assert root.coefficient(1) == PolyAux.const(-3)
    with pytest.raises(ValueError):
        xs([0, 1]).sqrt()


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff_st, min_size=2, max_size=7))
def test_sqrt_squares_back(tail):
    f = xs([1] + tail)
    root = f.sqrt()
    assert (root * root - f).is_zero()


def test_substitute_x():
    # f(x) = 1/(1-x); f(2x) has coefficients 2^k
    geo = xs([1] * 9)
    doubled = geo.substitute(sx=XSeries.x(8) * 2)
    assert [doubled.coefficient(k).coefficient(0, 0) for k in range(9)] == [
        2**k for k in range(9)
    ]
    with pytest.raises(ValueError):
        geo.substitute(sx=xs([1, 1] + [0] * 7))


def test_substitute_aux_with_series():
    # g(x, a) = 1 + a x; substituting a = 1/(1-x) gives 1 + x/(1-x)
    a = PolyAux.var_a()
    g = XSeries([PolyAux.one(), a, PolyAux.zero(), PolyAux.zero()], 3, guard=8)
    geo = xs([1, 1, 1, 1])
    got = g.substitute(sa=geo)
    assert [got.coefficient(k).coefficient(0, 0) for k in range(4)] == [1, 1, 1, 1]


def test_substitute_aux_with_poly():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    g = XSeries([PolyAux.zero(), a * b, PolyAux.zero()], 2, guard=8)
    got = g.substitute(sa=b, sb=PolyAux.one())
    assert got.coefficient(1) == b


SUB_GUARD = 40
small_poly_st = st.builds(
    PolyAux,
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=-3, max_value=3),
        max_size=3,
    ),
)


def small_series(draw, trunc, valuation=0):
    coeffs = [PolyAux.zero()] * valuation + [
        draw(small_poly_st) for _ in range(trunc + 1 - valuation)
    ]
    return XSeries(coeffs, trunc, SUB_GUARD)


def substitute_by_definition(s, sx, sa, sb):
    # sum over the terms c a^da b^db x^m of s of c * sx^m * A^da * B^db
    def lift(value, keep):
        value = keep if value is None else value
        return value if isinstance(value, XSeries) else XSeries.constant(value, s.trunc, s.guard)

    big_x = lift(sx, XSeries.x(s.trunc, s.guard))
    big_a, big_b = lift(sa, PolyAux.var_a()), lift(sb, PolyAux.var_b())
    total = XSeries.zero(s.trunc, s.guard)
    for m, coeff in enumerate(s.coeffs):
        for (da, db), c in coeff.terms.items():
            total = total + big_x**m * big_a**da * big_b**db * c
    return total


@pytest.mark.parametrize("kind", ["aux-only", "x-to-cx", "series-x", "series-aux"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_substitute_matches_its_definition(kind, data):
    trunc = data.draw(st.integers(min_value=0, max_value=4))
    s = small_series(data.draw, trunc)
    sx = None
    sa, sb = data.draw(small_poly_st), data.draw(st.one_of(small_poly_st, coeff_st))
    if kind == "x-to-cx":
        sx = XSeries.monomial(data.draw(small_poly_st), 1, trunc, SUB_GUARD)
    elif kind == "series-x":
        sx = small_series(data.draw, trunc, valuation=1)
    elif kind == "series-aux":
        if data.draw(st.booleans()):
            sx = small_series(data.draw, trunc, valuation=1)
        sa, sb = small_series(data.draw, trunc), small_series(data.draw, trunc)
    assert s.substitute(sx, sa, sb) == substitute_by_definition(s, sx, sa, sb)


def test_substitute_respects_a_narrow_guard():
    a, b = PolyAux.var_a(), PolyAux.var_b()
    x_to_a3b3x = XSeries.monomial(PolyAux.monomial(1, 3, 3), 1, 3, SUB_GUARD)
    # x -> a^3 b^3 x puts aux degree 6 at x^1, above 2 + 2
    with pytest.raises(AuxDegreeError):
        XSeries.x(3, SUB_GUARD).substitute(sx=x_to_a3b3x, guard=2)
    assert XSeries.x(3, SUB_GUARD).substitute(sx=x_to_a3b3x, guard=4).coefficient(1) == (a * b) ** 3
    # a series value for an aux variable is held to the same envelope
    a5 = XSeries.constant(a**5, 3, SUB_GUARD)
    with pytest.raises(AuxDegreeError):
        XSeries.constant(a * b, 3, SUB_GUARD).substitute(sa=a5, guard=4)


def test_substitute_checks_partial_sums_against_the_shifted_envelope():
    # a^6 x^2 fits 2*2 + 4, although the Horner pass first holds a^6 at x^0
    a, z = PolyAux.var_a(), PolyAux.zero()
    high = XSeries([z, z, a**6], 2, guard=8)
    assert high.substitute(sb=1, guard=4) == XSeries([z, z, a**6], 2)
    assert high.substitute(sa=XSeries.constant(a, 2, 4), sb=1, guard=4) == XSeries([z, z, a**6], 2)
    # the same a^6 at x^0 really exceeds the envelope 4
    with pytest.raises(AuxDegreeError):
        XSeries([a**6, z, z], 2, guard=8).substitute(sb=1, guard=4)


def test_aux_degree_envelope():
    a = PolyAux.var_a()
    with pytest.raises(AuxDegreeError):
        XSeries([a**9, PolyAux.zero()], 1, guard=2)
    # same payload passes with a wider guard
    XSeries([a**9, PolyAux.zero()], 1, guard=9)


def test_truncation_meets():
    f = xs([1, 1, 1, 1])
    g = xs([1, 1])
    assert (f * g).trunc == 1
    assert (f + g).trunc == 1
    assert f.truncate(2).trunc == 2
    assert f.pad_to(6).trunc == 6
    assert f.pad_to(6).coefficient(6) == PolyAux.zero()


def test_first_nonzero():
    f = XSeries.x(5) * PolyAux.var_a() * 3
    order, key, coeff = f.first_nonzero()
    assert (order, key, coeff) == (1, (1, 0), 3)
    assert xs([0, 0, 0]).first_nonzero() is None
