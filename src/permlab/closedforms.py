"""Closed-form generating functions in cleared (radical) normal form.

Every generating function handled by the package has the shape

    (P + sum_k Q_k * sqrt(R_k)) / Dn

with P, Q_k, R_k, Dn polynomials in the main variable and at most two
auxiliary variables, and every radicand R_k having constant term 1.  A
:class:`ClearedForm` stores those polynomial components exactly;
:func:`expand` turns one into an exact truncated series by square roots and
exact long division, and :func:`verify_cleared` checks a candidate series
against a form without dividing at all, by asserting

    Dn * target - P - sum_k Q_k * sqrt(R_k) == 0

through the target's truncation order.  The registry in
:func:`build_closed_form` holds every closed form the package knows about,
keyed by what the series counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .series import DEFAULT_GUARD, PolyAux, XSeries
from .suites import CheckResult

#: Truncation order used while building polynomial components; far above the
#: true x-degree of any component (asserted below).
_BUILD_TRUNC = 24
_BUILD_DEGREE_LIMIT = 18
_BUILD_GUARD = 16


@dataclass(frozen=True)
class ClearedForm:
    """A generating function written as (P + sum Q_k sqrt(R_k)) / Dn.

    Components are exact polynomials stored as truncated series well above
    their degree.  ``start`` is the known valuation of the expanded series,
    rechecked on every expansion.
    """

    name: str
    poly: XSeries
    radicals: tuple[tuple[XSeries, XSeries], ...]
    denom: XSeries
    start: int = 0

    def numerator_series(self, trunc: int, guard: int = DEFAULT_GUARD) -> XSeries:
        total = _component_at(self.poly, trunc, guard)
        for q_part, radicand in self.radicals:
            root = _component_at(radicand, trunc, guard).sqrt()
            total = total + _component_at(q_part, trunc, guard) * root
        return total

    def denominator_series(self, trunc: int, guard: int = DEFAULT_GUARD) -> XSeries:
        return _component_at(self.denom, trunc, guard)

    def substitute_aux(
        self,
        sa: PolyAux | int | Fraction | None = None,
        sb: PolyAux | int | Fraction | None = None,
        name: str | None = None,
    ) -> "ClearedForm":
        """Closed form with polynomials substituted for the aux variables.

        The radicands must keep constant term 1 (true for any substitution
        that fixes their aux-free part, e.g. specialising q = 1).
        """

        def conv(component: XSeries) -> XSeries:
            return component.substitute(sa=sa, sb=sb)

        return replace(
            self,
            name=name or self.name,
            poly=conv(self.poly),
            radicals=tuple((conv(q), conv(r)) for q, r in self.radicals),
            denom=conv(self.denom),
        )


def _component_at(component: XSeries, trunc: int, guard: int) -> XSeries:
    if trunc <= component.trunc:
        return component.truncate(trunc).with_guard(guard)
    return component.pad_to(trunc).with_guard(guard)


def expand(
    form: "ClearedForm | str",
    trunc: int,
    guard: int = DEFAULT_GUARD,
    require_integer: bool = True,
) -> XSeries:
    """Exact series expansion of a closed form through order ``trunc``.

    The division is performed coefficientwise and must be exact at every
    order (raising otherwise), the declared valuation is rechecked, and by
    default every coefficient is required to be an integer polynomial, as
    befits a counting series.
    """
    if isinstance(form, str):
        form = build_closed_form(form)
    num = form.numerator_series(trunc, guard)
    series = num.divide_exact(form.denominator_series(trunc, guard))
    for m in range(min(form.start, trunc + 1)):
        if not series.coefficient(m).is_zero():
            raise ArithmeticError(
                f"{form.name}: expected valuation {form.start} but x^{m} is nonzero"
            )
    if require_integer:
        for m, c in enumerate(series.coeffs):
            for key, val in c.terms.items():
                if not isinstance(val, int):
                    raise ArithmeticError(
                        f"{form.name}: non-integer coefficient {val} at x^{m}, aux {key}"
                    )
    return series


def verify_cleared(
    target: XSeries,
    form: "ClearedForm | str",
    guard: int | None = None,
    name: str | None = None,
) -> CheckResult:
    """Check Dn*target - P - sum Q_k sqrt(R_k) == 0 through target.trunc.

    Works even when Dn has no constant term (where division would be
    undefined); since the component ring is an integral domain, a vanishing
    residual pins the target to the closed form through the truncation
    order minus the denominator's valuation.
    """
    if isinstance(form, str):
        form = build_closed_form(form)
    trunc = target.trunc
    g = guard if guard is not None else max(target.guard, DEFAULT_GUARD)
    residual = form.denominator_series(trunc, g) * target.with_guard(g)
    residual = residual - form.numerator_series(trunc, g)
    return _residual(name or f"{form.name} matches the reference series", residual)


def _residual(name: str, res: XSeries) -> CheckResult:
    """Pass when ``res`` vanishes through its truncation order; else name its
    first nonzero term."""
    bad = res.first_nonzero()
    if bad is None:
        return CheckResult(name, True, f"residual zero through x^{res.trunc}")
    m, key, coeff = bad
    return CheckResult(name, False, f"residual {coeff} at x^{m}, aux degrees {key}")


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _xyz() -> tuple[XSeries, XSeries, XSeries]:
    x = XSeries.x(_BUILD_TRUNC, _BUILD_GUARD)
    a = XSeries.constant(PolyAux.var_a(), _BUILD_TRUNC, _BUILD_GUARD)
    b = XSeries.constant(PolyAux.var_b(), _BUILD_TRUNC, _BUILD_GUARD)
    return x, a, b


def _as_component(series: XSeries, what: str) -> XSeries:
    deg = series.xdegree()
    if deg > _BUILD_DEGREE_LIMIT:
        raise AssertionError(f"{what}: component degree {deg} hit the build margin")
    return series


def _form(name, poly, radicals, denom, start) -> ClearedForm:
    return ClearedForm(
        name=name,
        poly=_as_component(poly, f"{name} P"),
        radicals=tuple(
            (_as_component(q, f"{name} Q"), _as_component(r, f"{name} R"))
            for q, r in radicals
        ),
        denom=_as_component(denom, f"{name} Dn"),
        start=start,
    )


def _build_schroeder(name: str, head: int, start: int) -> ClearedForm:
    # (1 - head x - sqrt(1 - 6x + x^2)) / 2: the series from x^1 (head 1)
    # or its tail from x^2 (head 3)
    x, _, _ = _xyz()
    return _form(
        name, 1 - head * x, (((-1) * XSeries.one(_BUILD_TRUNC, _BUILD_GUARD), 1 - 6 * x + x * x),),
        XSeries.constant(2, _BUILD_TRUNC, _BUILD_GUARD), start,
    )


def _triangle_parts() -> tuple[XSeries, XSeries, XSeries, XSeries]:
    x, y, _ = _xyz()
    p = x * y * (2 - 3 * x - 3 * y + 3 * x * y) + (x * y) ** 2 * (x + y - x * y)
    q = x * y * (x + y - x * y)
    r = 1 - 6 * x * y + (x * y) ** 2
    dn = 2 * (1 - 2 * x - y + x * y)
    return p, q, r, dn


def _build_triangle() -> ClearedForm:
    p, q, r, dn = _triangle_parts()
    return _form("triangle_gf", p, ((q, r),), dn, 1)


def _build_sites() -> ClearedForm:
    # combine the rational head with the triangle-gf tail over one denominator
    x, y, q = _xyz()
    p_tri, q_tri, r_tri, dn_tri = _triangle_parts()
    head_num = x * y * (1 - q) * (1 - x * q) * (1 - 2 * x * y * q)
    head_den = (1 - 2 * x * q) * (1 - x * y * q) * (1 - (x * y + 1) * q + 2 * x * y * q * q)
    poly = head_num * dn_tri + x * y * q * (1 - 2 * x * q) * (1 - x * y * q) * p_tri
    rad = (x * y * q * (1 - 2 * x * q) * (1 - x * y * q) * q_tri, r_tri)
    denom = head_den * dn_tri
    return _form("sites_gf", poly, (rad,), denom, 1)


def _build_first_letter(name: str) -> ClearedForm:
    # the three classes share one printed formula, the triangle series read
    # with y = v; each is checked against its own recurrence and brute-force
    # counts in the tests
    p, q, r, dn = _triangle_parts()
    return _form(name, p, ((q, r),), dn, 1)


def _build_aplus_1243_1423() -> ClearedForm:
    x, v, w = _xyz()
    r1 = 1 - 6 * v * w * x + (v * w * x) ** 2
    r2 = (1 - x) * (1 - x - 4 * v * w * x)
    r12 = r1 * r2
    dn = 4 * (v * w * x - v * w - 2 * x + 1) * (v * x - w * x - v - x + 1)
    q_r12 = (w * w - 1) * (1 - x) * v * w * x**2
    q_r1 = (1 - x - 2 * v * w * x) * v * w * (1 - x) * x**2 + (
        1 - 2 * (v * x) ** 2 + 4 * v * v * x - 2 * v * v - x * x - 2 * x
        - 2 * v * w * x * (1 - x)
    ) * v * w**3 * x**2
    q_r2 = (1 - w * w) * (v * w * x * x - v * w * x - 3 * x + 1) * v * w * x**2
    p = (
        (3 * (w * w - 1) * x * x + 4 * (1 - 2 * w) * x - w * w + 4 * w - 1) * v * w * x**2
        - ((w * w - 1) * x**3 + 8 * (w * w + 1) * x * x - (7 * w * w + 4 * w + 11) * x + 4 * w + 4)
        * (v * w) ** 2 * x**2
        - 2 * ((1 - x) * ((w * x) ** 2 + x * x + 3 * x - 3) + v * w * x * (1 - x) ** 2)
        * (v * w) ** 3 * x**2
    )
    return _form(
        "aplus_1243_1423", p,
        ((q_r1, r1), (q_r2, r2), (q_r12, r12)), dn, 2,
    )


def _build_aminus_1243_1423() -> ClearedForm:
    x, v, w = _xyz()
    r1 = 1 - 6 * v * w * x + (v * w * x) ** 2
    dn = 2 * (v * w * x - 2 * v * x - w + 1) * (v * w * x - v * w - 2 * x + 1)
    q_r1 = (
        (1 + v - 2 * v * x) * x
        + (v * v * x - v * v + v * x - 1) * w * x
        - (1 - x) * (1 - v * x) * v * w * w
    ) * v * v * w * x**2
    p = (
        6 * v * x * x - 3 * (v + 1) * x + 2
        - (2 * v * v * x**3 + 2 * v * (v + 1) * x * x - (3 * v * v + 2 * v + 3) * x + 2 * v + 2) * w
    ) * v * v * w * x**2 + (
        v * v * x**3 - v * v * x * x + v * x**3 + 3 * v * x * x - 3 * v * x
        - x * x - 3 * x + 3 - (1 - x) * (1 - v * x) * v * w * x
    ) * (v * w) ** 3 * x**2
    return _form("aminus_1243_1423", p, ((q_r1, r1),), dn, 2)


def _build_aplus_w1_1243_1423() -> ClearedForm:
    x, v, _ = _xyz()
    r = 1 - 6 * v * x + (v * x) ** 2
    dn = 2 * (v * x - v - 2 * x + 1)
    q = v * x * x * (1 + v - v * x)
    p = (-1) * v * x * x * ((v * x) ** 2 - v * v * x - 4 * v * x + 3 * v - 1)
    return _form("aplus_w1_1243_1423", p, ((q, r),), dn, 2)


def _build_aminus_w1_1243_1423() -> ClearedForm:
    x, v, _ = _xyz()
    r = 1 - 6 * v * x + (v * x) ** 2
    dn = 2 * (v * x - v - 2 * x + 1)
    q = v * v * x * (x - 1) ** 2
    p = v * v * x * (x - 1) * (v * x * x - v * x - 3 * x + 1)
    return _form("aminus_w1_1243_1423", p, ((q, r),), dn, 2)


@lru_cache(maxsize=None)
def _joint_parts_1243_1342() -> dict[str, ClearedForm]:
    # seven registry names share these four forms: build them once
    x, v, w = _xyz()
    r1 = (v * w * x) ** 2 - 6 * v * w * x + 1
    dn_p = 2 * (1 - v + w * x * (v - 2)) * (1 - 2 * v * w - x * (1 - v * w))
    q_p = (
        1 - v + (v * v * x - 2 * v * v + v * x - x) * w - v * x * (x - 2) * (v - 1) * w * w
    ) * v * w * w * x**2
    p_p = (
        1 - v + (6 * v * v - 4 * v - x * (4 * v * v - 2 * v + 1)) * w
        + x * v * (x * (v * v + 4 * v - 4) - 2 * v * v - 6 * v + 6) * w * w
    ) * v * w * w * x**2 - (x - 2) * (v - 1) * v**3 * w**5 * x**4
    aplus = _form("aplus_1243_1342", p_p, ((q_p, r1),), dn_p, 2)

    dn_m = 2 * (1 - v * w - x * (2 - v * w)) * (1 - w - v * x * (2 - w))
    q_m = (
        x * (1 + v - 2 * v * x) + x * (v * v * x - v * v + v * x - 1) * w
        - v * (x - 1) * (v * x - 1) * w * w
    ) * v * v * w * x**2
    p_m = (
        (3 * x - 2) * (w - 1)
        + ((-1) * (w * x) ** 2 - 3 * w * w * x - 2 * w * x * x + 3 * w * w + 2 * w * x
           + 6 * x * x - 2 * w - 3 * x) * v
    ) * v * v * w * x**2 + (
        w * w * x + w * x * x - w * w + 3 * w * x - 2 * x * x - 3 * w - 2 * x + 3
        - (x - 1) * (w - 1) * v * w * x
    ) * v**4 * w * w * x**3
    aminus = _form("aminus_1243_1342", p_m, ((q_m, r1),), dn_m, 2)

    dn_b = 2 * (1 - 2 * v * w - x * (1 - v * w)) * (1 - v - w * x * (2 - v))
    q_b = (v * w * x - 2 * w * x * x + 2 * w * x + x - 1) * w * w * x**2
    p_b = (
        1 - x + (3 * v * x - 4 * v + 2 * x - 2) * w * x - (2 * x + v - 6) * v * w * w * x * x
    ) * w * w * x**2
    bform = _form("b_1243_1342", p_b, ((q_b, r1),), dn_b, 5)

    x2, v2, _ = _xyz()
    r_c = (v2 * x2) ** 2 - 6 * v2 * x2 + 1
    dn_c = 2 * (1 - x2 - 2 * v2 + v2 * x2)
    q_c = (-1) * v2 * x2 * x2 * (x2 - 2)
    p_c = (-1) * v2 * x2 * x2 * (v2 * x2 * x2 - 2 * v2 * x2 - 3 * x2 + 2)
    cform = _form("c_1243_1342", p_c, ((q_c, r_c),), dn_c, 3)
    return {"aplus": aplus, "aminus": aminus, "b": bform, "c": cform}


def _build_b_1243_1324() -> ClearedForm:
    x, v, w = _xyz()
    r1 = (v * w * x) ** 2 - 6 * v * w * x + 1
    dn = 2 * (v * w * x - 2 * v * w - x + 1) * (v * w * x - 2 * w * x - v + 1)
    q = (-1) * v * w * w * x**2 * (w * x * x - 2 * w * x - x + 1)
    p = (-1) * v * w * w * x**2 * (
        v * w * w * x**3 - 2 * v * w * w * x * x - v * w * x * x + 3 * v * w * x
        - 3 * w * x * x + 2 * w * x + x - 1
    )
    return _form("b_1243_1324", p, ((q, r1),), dn, 4)


#: Every closed form the package knows, by registry name: a builder each.
#: The classes (1243, 1342) and (1243, 1324) share the printed closed forms
#: for the ascent-part, descent-part and adjacent-ascent series; they are
#: registered under both names and the tests confirm each against the
#: recurrences of its own class.
_BUILDERS = {
    "schroeder_gf": lambda: _build_schroeder("schroeder_gf", 1, 1),
    "schroeder_tail_gf": lambda: _build_schroeder("schroeder_tail_gf", 3, 2),
    "triangle_gf": _build_triangle,
    "sites_gf": _build_sites,
    "first_letter_1243_1423": lambda: _build_first_letter("first_letter_1243_1423"),
    "first_letter_1243_1342": lambda: _build_first_letter("first_letter_1243_1342"),
    "first_letter_1243_1324": lambda: _build_first_letter("first_letter_1243_1324"),
    "aplus_1243_1423": _build_aplus_1243_1423,
    "aminus_1243_1423": _build_aminus_1243_1423,
    "aplus_w1_1243_1423": _build_aplus_w1_1243_1423,
    "aminus_w1_1243_1423": _build_aminus_w1_1243_1423,
    "aplus_1243_1342": lambda: _joint_parts_1243_1342()["aplus"],
    "aminus_1243_1342": lambda: _joint_parts_1243_1342()["aminus"],
    "b_1243_1342": lambda: _joint_parts_1243_1342()["b"],
    "c_1243_1342": lambda: _joint_parts_1243_1342()["c"],
    "aplus_1243_1324": lambda: replace(_joint_parts_1243_1342()["aplus"], name="aplus_1243_1324"),
    "aminus_1243_1324": lambda: replace(_joint_parts_1243_1342()["aminus"], name="aminus_1243_1324"),
    "b_1243_1324": _build_b_1243_1324,
    "c_1243_1324": lambda: replace(_joint_parts_1243_1342()["c"], name="c_1243_1324"),
}


@lru_cache(maxsize=None)
def build_closed_form(name: str) -> ClearedForm:
    """Closed form by registry name; see :func:`closed_form_names`."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown closed form {name!r}; known: {', '.join(sorted(_BUILDERS))}")
    return _BUILDERS[name]()


def closed_form_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)
