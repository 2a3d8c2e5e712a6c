"""End-to-end verification of every functional-equation system.

Each system ties together three layers that were computed independently:
brute-force-backed recurrence tables, the functional equations derived from
those recurrences, and the closed-form solutions.  All checks here are
exact series computations; an equation with denominators is first cleared
(multiplied through by every denominator) so that the check is a polynomial
residual that must vanish identically through the truncation order.

``verify_system(name)`` runs one system and returns a list of
:class:`~permlab.suites.CheckResult`; names:

* ``"sites"`` -- the joint (first letter, active sites) series, its
  functional equation, and its q = 1 collapse onto the triangle series.
* ``"1243_1423"``, ``"1243_1342"``, ``"1243_1324"`` -- the (first, second)
  letter systems: closed forms against recurrence tables, every equation of
  the corresponding system, and the first-letter corollaries.
"""

from __future__ import annotations

from .closedforms import _residual, build_closed_form, expand, verify_cleared
from .recurrences import joint_tables, site_polynomial
from .schroeder import triangle_rows
from .series import PolyAux, XSeries
from .suites import CheckResult

SYSTEMS = ("sites", "1243_1423", "1243_1342", "1243_1324")

_AB = PolyAux({(1, 1): 1})


def _equal(name: str, left: XSeries, right: XSeries) -> CheckResult:
    return _residual(name, left - right)


# -- polynomial building blocks ---------------------------------------------

def _basis(depth: int, guard: int) -> tuple[XSeries, XSeries, XSeries, XSeries]:
    x = XSeries.x(depth, guard)
    one = XSeries.one(depth, guard)
    va = XSeries.constant(PolyAux.var_a(), depth, guard)
    vb = XSeries.constant(PolyAux.var_b(), depth, guard)
    return x, one, va, vb


def _kernel_values(c: PolyAux, depth: int, guard: int) -> tuple[XSeries, XSeries, XSeries]:
    """The kernel-method values cx/(1-cx), 1-cx and c/(1-cx) for a monomial c."""
    inv = XSeries([c**k for k in range(depth + 1)], depth, guard)
    return inv - 1, 1 - XSeries.monomial(c, 1, depth, guard), inv * c


# -- series assembled from the recurrence tables -----------------------------

def _joint_series(pair: str, depth: int, guard: int, sel) -> XSeries:
    """sum_n x^n sum over selected cells of a_n(i, j) v^i w^j."""
    coeffs = [PolyAux.zero() for _ in range(depth + 1)]
    if depth >= 2:
        for table in joint_tables(depth, pair):
            terms = {}
            for i in range(1, table.n + 1):
                for j in range(1, table.n + 1):
                    value = table.value(i, j)
                    if value and sel(i, j, table.n):
                        terms[(i, j)] = value
            coeffs[table.n] = PolyAux(terms)
    return XSeries(coeffs, depth, guard)


def _adjacent_series(pair: str, depth: int, guard: int, offset: int, i_max_off: int) -> XSeries:
    """sum_n x^n sum_i a_n(i, i+offset) v^i, for i <= n - i_max_off."""
    cells = _joint_series(
        pair, depth, guard, lambda i, j, n: j == i + offset and i <= n - i_max_off
    )
    return cells.substitute(sb=1)


# ---------------------------------------------------------------------------
# the active-site system
# ---------------------------------------------------------------------------

def _verify_sites(depth: int, guard: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    x, one, y, q = _basis(depth, guard)
    f = XSeries(
        [PolyAux.zero()] + [site_polynomial(n) for n in range(1, depth + 1)],
        depth, guard,
    )
    f1 = f.substitute(sb=1)

    # polynomial recurrence summed over n (cleared by (2-y)(1-2xq)(1-xyq)(1-q))
    k1 = 1 - 2 * x * q
    k2 = 1 - x * y * q
    two_minus_y = 2 * one - y
    res = two_minus_y * k1 * k2 * (1 - q) * (f - x * y)
    res = res - y * (1 - y) * 2 * x * x * q * k2 * (1 - q)
    res = res + (1 - y) * x * x * y * y * q * k1 * (1 - q)
    res = res - x * y * q * two_minus_y * k1 * k2 * f1
    res = res - x * y * q * (1 - 2 * q) * two_minus_y * k1 * k2 * f
    checks.append(_residual("site polynomials satisfy the summed recurrence", res))

    # kernel-form functional equation, using the triangle series for f at q=1
    a_tri = expand("triangle_gf", depth, guard)
    res = ((1 - q) - x * y * q * (1 - 2 * q)) * k1 * k2 * f
    res = res - x * y * (1 - q) * k1 * k2
    res = res - x * x * y * q * (1 - y) * (1 - q)
    res = res - x * y * q * k1 * k2 * a_tri
    checks.append(_residual("site series satisfies its functional equation", res))

    checks.append(
        _equal(
            "site closed form expands to the site polynomials",
            expand("sites_gf", depth, guard), f,
        )
    )
    sites_q1 = build_closed_form("sites_gf").substitute_aux(sb=1, name="sites_gf at q=1")
    checks.append(
        verify_cleared(
            a_tri, sites_q1, guard=guard,
            name="site closed form at q=1 matches the triangle series",
        )
    )
    rows = triangle_rows(depth) if depth >= 1 else []
    ok = True
    for n in range(1, depth + 1):
        want = PolyAux({(k, 0): rows[n - 1][k - 1] for k in range(1, n + 1)})
        if f1.coefficient(n) != want:
            ok = False
            break
    checks.append(
        CheckResult(
            "site polynomials at q=1 give the triangle rows",
            ok, f"n <= {depth}",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# shared pieces of the joint-letter systems
# ---------------------------------------------------------------------------

class _JointContext:
    """Precomputed series and substitutions for one joint-letter system."""

    def __init__(self, pair: str, depth: int, guard: int):
        self.guard = guard
        self.x, _, self.v, self.w = _basis(depth, guard)
        self.ap_dp = _joint_series(pair, depth, guard, lambda i, j, n: i < j)
        self.am_dp = _joint_series(pair, depth, guard, lambda i, j, n: i > j)
        self.a_dp = self.ap_dp + self.am_dp

    # substituted copies of the total series A used by every system
    def a_wx_v_1(self) -> XSeries:
        return self.a_dp.substitute(sx=self.w * self.x, sa=PolyAux.var_a(), sb=1)

    def a_vwx_1_1(self) -> XSeries:
        return self.a_dp.substitute(sx=self.v * self.w * self.x, sa=1, sb=1)

    def check_descent_equation(self, checks: list[CheckResult], am: XSeries, label: str) -> None:
        """(1-v) A^- = (1-v) v^2 w x^2 + vx A(x,vw,1) - v^2 x A(vx,w,1)."""
        x, v, w = self.x, self.v, self.w
        a_x_vw_1 = self.a_dp.substitute(sa=_AB, sb=1)
        a_vx_w_1 = self.a_dp.substitute(sx=v * x, sa=PolyAux.var_b(), sb=1)
        res = (1 - v) * am - (1 - v) * v * v * w * x * x
        res = res - v * x * a_x_vw_1 + v * v * x * a_vx_w_1
        checks.append(_residual(label, res))


def _first_letter_check(tag: str, ctx: _JointContext) -> CheckResult:
    """first-letter closed form == vx + A(x,v,1) with A from the tables."""
    a_v1 = ctx.a_dp.substitute(sb=1)
    target = a_v1 + ctx.v * ctx.x
    return verify_cleared(
        target, f"first_letter_{tag}", guard=ctx.guard,
        name=f"first-letter closed form for {tag.replace('_', '/')} matches the tables",
    )


# ---------------------------------------------------------------------------
# the (1243, 1423) system
# ---------------------------------------------------------------------------

def _verify_1243_1423(depth: int, guard: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    ctx = _JointContext("1243,1423", depth, guard)
    x, v, w = ctx.x, ctx.v, ctx.w

    c_dp = _adjacent_series("1243,1423", depth, guard, 1, 1)
    d_dp = _adjacent_series("1243,1423", depth, guard, 2, 2)
    b_dp = _joint_series("1243,1423", depth, guard, lambda i, j, n: j >= i + 3)
    c_vw = c_dp.substitute(sa=_AB)
    d_vw = d_dp.substitute(sa=_AB)

    checks.append(
        _equal(
            "ascent series splits as wC(x,vw) + w^2 D(x,vw) + B",
            ctx.ap_dp, w * c_vw + w * w * d_vw + b_dp,
        )
    )

    ap_cf = expand("aplus_1243_1423", depth, guard)
    am_cf = expand("aminus_1243_1423", depth, guard)
    checks.append(_equal("ascent closed form matches the tables", ap_cf, ctx.ap_dp))
    checks.append(_equal("descent closed form matches the tables", am_cf, ctx.am_dp))

    ctx.check_descent_equation(checks, am_cf, "descent equation holds")

    # substituted ascent series used by the remaining equations
    geom, one_m_vwx, vw_over = _kernel_values(_AB, depth, guard)
    ap_s1 = ap_cf.substitute(sx=geom, sa=one_m_vwx, sb=1)
    ap_s2 = ap_cf.substitute(sa=one_m_vwx, sb=vw_over)
    a111 = ctx.a_vwx_1_1()
    kern_vw = v * w * x + v * w - 1
    kern_v = v * w * x + v - 1

    # adjacent-ascent equation, cleared by (vwx + vw - 1)
    res = kern_vw * (
        c_vw - v * w * x * x * a111 - v * w * x * x - v * v * w * w * x**3 - x * c_vw
    )
    res = res - v * w * x * x * ap_s1 + (1 - v * w * x) * x * x * ap_s2
    checks.append(_residual("adjacent-ascent equation holds", res))

    # double-ascent equation, cleared by vw (vwx + vw - 1)
    res = v * w * kern_vw * (
        d_vw - x * x * a111 + v * v * w * w * x**4
        - x * (c_vw - v * w * x * x * a111) - x * d_vw + x * x * c_vw
    )
    res = res - v * w * x * x * (1 - v * w * x) * ap_s1
    res = res + x * x * (1 - v * w * x) ** 2 * ap_s2
    checks.append(_residual("double-ascent equation holds", res))

    # large-ascent equation, cleared by v (vwx + v - 1)
    b_s2 = b_dp.substitute(sa=one_m_vwx, sb=vw_over)
    res = v * kern_v * (b_dp - w * x * b_dp - w**3 * x * d_vw - x * b_dp)
    res = res + v * v * w * x * x * b_dp
    res = res - v * w * w * x * x * (1 - v * w * x) * ap_s2
    res = res + v * v * w * w * x * x * ap_cf
    res = res - w * x * x * (1 - v * w * x) ** 2 * b_s2
    checks.append(_residual("large-ascent equation holds", res))

    # solved ascent equation, cleared by (vwx + v - 1)(vwx + vw - 1)
    res = (v * x - w * x - v - x + 1) * kern_vw * ap_cf
    res = res - w * w * x * x * (v * w * x - v - 1) * kern_v * ap_s1
    res = res - v * w * x * x * (w * w - 1) * (v * w * x - 1) * ap_s2
    res = res - kern_v * kern_vw * (
        w * w * x * x * (v * w * x - v - 1) * a111
        + x * x * v * w * w * (v * w * w * x * x - v * w * x - 1)
    )
    checks.append(_residual("solved ascent equation holds", res))

    checks.append(
        _equal(
            "ascent series at w=1 matches its closed form",
            ap_cf.substitute(sb=1), expand("aplus_w1_1243_1423", depth, guard),
        )
    )
    checks.append(
        _equal(
            "descent series at w=1 matches its closed form",
            am_cf.substitute(sb=1), expand("aminus_w1_1243_1423", depth, guard),
        )
    )
    checks.append(
        _equal(
            "total series at v=w=1 matches the Schroeder tail",
            ctx.a_dp.substitute(sa=1, sb=1), expand("schroeder_tail_gf", depth, guard),
        )
    )
    checks.append(_first_letter_check("1243_1423", ctx))
    return checks


# ---------------------------------------------------------------------------
# the (1243, 1342) system
# ---------------------------------------------------------------------------

def _verify_1243_1342(depth: int, guard: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    ctx = _JointContext("1243,1342", depth, guard)
    x, v, w = ctx.x, ctx.v, ctx.w

    c_dp = _adjacent_series("1243,1342", depth, guard, 1, 2)
    b_dp = _joint_series("1243,1342", depth, guard, lambda i, j, n: j >= i + 3 and j <= n - 1)

    ap_cf = expand("aplus_1243_1342", depth, guard)
    am_cf = expand("aminus_1243_1342", depth, guard)
    b_cf = expand("b_1243_1342", depth, guard)
    c_cf = expand("c_1243_1342", depth, guard)
    checks.append(_equal("ascent closed form matches the tables", ap_cf, ctx.ap_dp))
    checks.append(_equal("descent closed form matches the tables", am_cf, ctx.am_dp))
    checks.append(_equal("large-ascent closed form matches the tables", b_cf, b_dp))
    checks.append(_equal("adjacent-ascent closed form matches the tables", c_cf, c_dp))

    ctx.check_descent_equation(checks, am_cf, "descent equation holds")

    c_vw = c_cf.substitute(sa=_AB)
    a111 = ctx.a_vwx_1_1()
    a_wx_v1 = ctx.a_wx_v_1()

    # ascent equation (no denominators)
    res = ap_cf - v * w * w * x * x + v * w**3 * x**3 - b_cf
    res = res - w * w * (c_vw - x * x * a111) - w * c_vw - w * x * a_wx_v1
    checks.append(_residual("ascent equation holds", res))

    # adjacent-ascent equation, cleared by v
    ap_x_1_v = ap_cf.substitute(sa=1, sb=PolyAux.var_a())
    checks.append(
        _residual(
            "adjacent-ascent equation holds",
            v * c_cf - x * ap_x_1_v,
        )
    )

    # large-ascent equation, cleared by (1-v-vwx)(1-vw-vwx)(1-w)
    geom, one_m_vwx, vw_over = _kernel_values(_AB, depth, guard)
    b_wx_v1 = b_cf.substitute(sx=w * x, sa=PolyAux.var_a(), sb=1)
    c_wx_v = c_cf.substitute(sx=w * x, sa=PolyAux.var_a())
    b_s1 = b_cf.substitute(sx=geom, sa=one_m_vwx, sb=1)
    b_s2 = b_cf.substitute(sa=one_m_vwx, sb=vw_over)
    c_s1 = c_cf.substitute(sx=geom, sa=one_m_vwx)
    k_v = 1 - v - v * w * x
    k_vw = 1 - v * w - v * w * x
    res = k_v * k_vw * (1 - w) * b_cf
    res = res - w * x * (1 - v) * k_vw * (b_cf - b_wx_v1)
    res = res - 2 * (1 - v * w) * w**3 * x * k_v * c_vw
    res = res + 2 * w * x * (1 - v) * k_vw * c_wx_v
    res = res - x * x * w * w * one_m_vwx**2 * (1 - w) * (b_s1 - b_s2)
    res = res - 2 * x * x * w * w * one_m_vwx**2 * (1 - w) * c_s1
    checks.append(_residual("large-ascent equation holds", res))

    checks.append(_first_letter_check("1243_1342", ctx))
    return checks


# ---------------------------------------------------------------------------
# the (1243, 1324) system
# ---------------------------------------------------------------------------

def _verify_1243_1324(depth: int, guard: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    ctx = _JointContext("1243,1324", depth, guard)
    x, v, w = ctx.x, ctx.v, ctx.w

    c_dp = _adjacent_series("1243,1324", depth, guard, 1, 2)
    b_dp = _joint_series("1243,1324", depth, guard, lambda i, j, n: j >= i + 2 and j <= n - 1)

    ap_cf = expand("aplus_1243_1324", depth, guard)
    am_cf = expand("aminus_1243_1324", depth, guard)
    b_cf = expand("b_1243_1324", depth, guard)
    c_cf = expand("c_1243_1324", depth, guard)
    checks.append(_equal("ascent closed form matches the tables", ap_cf, ctx.ap_dp))
    checks.append(_equal("descent closed form matches the tables", am_cf, ctx.am_dp))
    checks.append(_equal("large-ascent closed form matches the tables", b_cf, b_dp))
    checks.append(_equal("adjacent-ascent closed form matches the tables", c_cf, c_dp))

    ctx.check_descent_equation(checks, am_cf, "descent equation holds")

    c_vw = c_cf.substitute(sa=_AB)
    a111 = ctx.a_vwx_1_1()
    a_wx_v1 = ctx.a_wx_v_1()

    # ascent equation (no denominators)
    res = ap_cf - v * w * w * x * x - b_cf - w * c_vw - w * x * a_wx_v1
    checks.append(_residual("ascent equation holds", res))

    # large-ascent equation, cleared by (1-v)
    b_x_1_vw = b_cf.substitute(sa=1, sb=_AB)
    res = (1 - v) * b_cf - w * x * (v * b_cf - b_x_1_vw)
    res = res - (1 - v) * (
        x * b_cf + w * x * x * a_wx_v1 - v * w * w * x**3 * a111
        - v * v * w**3 * x**4
    )
    checks.append(_residual("large-ascent equation holds", res))

    # adjacent-ascent equation, cleared by (vx + v - 1)(1 - x); aux a = v only
    a_vx11 = ctx.a_dp.substitute(sx=v * x, sa=1, sb=1)
    geom_a, one_m_vx, v_over = _kernel_values(PolyAux.var_a(), depth, guard)
    ap_s1 = ap_cf.substitute(sx=geom_a, sa=one_m_vx, sb=1)
    ap_s2 = ap_cf.substitute(sa=one_m_vx, sb=v_over)
    kern = v * x + v - 1
    res = kern * (1 - x) * c_cf
    res = res - kern * v * x**3 * (1 + v * x)
    res = res - kern * v * x**3 * a_vx11
    res = res - x * x * (v * ap_s1 - one_m_vx * ap_s2)
    checks.append(_residual("adjacent-ascent equation holds", res))

    checks.append(_first_letter_check("1243_1324", ctx))
    return checks


# ---------------------------------------------------------------------------

def verify_system(name: str, depth: int = 8) -> list[CheckResult]:
    """Run one verification system through x^depth; see the module docstring
    for names.  Every series carries the guard 2 * depth + 12."""
    runners = {
        "sites": _verify_sites,
        "1243_1423": _verify_1243_1423,
        "1243_1342": _verify_1243_1342,
        "1243_1324": _verify_1243_1324,
    }
    if name not in runners:
        raise ValueError(f"unknown system {name!r}; known: {', '.join(SYSTEMS)}")
    return runners[name](depth, 2 * depth + 12)


def verify_all(depth: int = 8) -> dict[str, list[CheckResult]]:
    return {name: verify_system(name, depth) for name in SYSTEMS}
