"""Exact truncated power series in one main variable with two auxiliary unknowns.

A :class:`PolyAux` is a polynomial in two auxiliary variables (called ``a``
and ``b`` internally; callers rename them ``y``/``q`` or ``v``/``w`` for
display) with exact rational coefficients.  An :class:`XSeries` is a power
series in the main variable truncated at a fixed order whose coefficients
are PolyAux values.  All arithmetic is exact: integer and Fraction
coefficients only, divisions either provably exact (with the remainder
asserted zero) or refused.

Two safety rails are built in.  First, series division requires either a
constant term of exactly 1 (:meth:`XSeries.reciprocal`) or coefficientwise
exact polynomial division (:meth:`XSeries.divide_exact`), which raises
:class:`InexactDivisionError` the moment a quotient fails to be polynomial.
Second, every operation rechecks the degree envelope: the coefficient of
x^m may use auxiliary total degree at most 2 m + guard.  Exceeding it
raises :class:`AuxDegreeError` rather than silently producing garbage; the
guard is per-series and can be widened where substitutions legitimately
raise degrees.

Substitution has one path: :meth:`XSeries.substitute` is a single Horner
pass over the main variable, from the top coefficient down.  The powers of
each aux value are made once per substitution and shared by every
coefficient.  The series substituted for the main variable has no
constant term, so what the pass makes at coefficient k reaches the result
only through order trunc - k, and step k works at that order.  Every
series made at step k (the partial sum, the slices of the shared powers it
uses, and the sums and products that compose them) is checked against the
envelope shifted by x^k, 2 (m + k) + guard; the result is checked against
the plain envelope.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

Coeff = Union[int, Fraction]
Key = tuple[int, int]

#: Default slack allowed above the 2m envelope for aux degrees.
DEFAULT_GUARD = 8


class AuxDegreeError(ArithmeticError):
    """An auxiliary degree exceeded the 2m + guard envelope."""


class InexactDivisionError(ArithmeticError):
    """A division that had to be exact left a remainder."""


def _norm_coeff(c: Coeff) -> Coeff:
    # exact type tests: isinstance against Fraction goes through the ABC machinery
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _extend_powers(table: list, value, top: int) -> None:
    """Append powers of ``value`` to ``table`` (table[e] == value**e) through e == top."""
    while len(table) <= top:
        table.append(value if len(table) == 1 else table[-1] * value)


# ---------------------------------------------------------------------------
# polynomials in the two auxiliary variables
# ---------------------------------------------------------------------------

class PolyAux:
    """Polynomial in the auxiliary variables with exact coefficients.

    Terms map (degree in a, degree in b) to a nonzero int or Fraction.

    >>> p = PolyAux.var_a() + 2 * PolyAux.var_b()
    >>> print((p * p).to_str(("a", "b")))
    a^2 + 4*a*b + 4*b^2
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Coeff] | None = None):
        clean: dict[Key, Coeff] = {}
        if terms:
            for key, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[key] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyAux":
        return cls()

    @classmethod
    def one(cls) -> "PolyAux":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: Coeff) -> "PolyAux":
        return cls({(0, 0): c})

    @classmethod
    def var_a(cls) -> "PolyAux":
        return cls({(1, 0): 1})

    @classmethod
    def var_b(cls) -> "PolyAux":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, c: Coeff, da: int, db: int = 0) -> "PolyAux":
        return cls({(da, db): c})

    @staticmethod
    def coerce(value: "PolyAux | Coeff") -> "PolyAux":
        if isinstance(value, PolyAux):
            return value
        if isinstance(value, (int, Fraction)):
            return PolyAux.const(value)
        raise TypeError(f"cannot interpret {value!r} as an aux polynomial")

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest da + db over the support; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(da + db for da, db in self.terms)

    def coefficient(self, da: int, db: int = 0) -> Coeff:
        return self.terms.get((da, db), 0)

    def iter_terms(self) -> Iterator[tuple[Key, Coeff]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not PolyAux:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = PolyAux.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyAux | Coeff") -> "PolyAux":
        if type(other) is not PolyAux:
            other = PolyAux.coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            # c is nonzero, so a zero sum means the key was already present
            nv = out.get(key, 0) + c
            if nv:
                out[key] = nv if type(nv) is int else _norm_coeff(nv)
            else:
                del out[key]
        res = PolyAux.__new__(PolyAux)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "PolyAux":
        res = PolyAux.__new__(PolyAux)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: "PolyAux | Coeff") -> "PolyAux":
        return self + (-PolyAux.coerce(other))

    def __rsub__(self, other: "PolyAux | Coeff") -> "PolyAux":
        return PolyAux.coerce(other) + (-self)

    def __mul__(self, other: "PolyAux | Coeff") -> "PolyAux":
        if type(other) is not PolyAux:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a product of nonzero exact numbers is nonzero
            res = PolyAux.__new__(PolyAux)
            terms = res.terms = {}
            if other:
                for key, c in self.terms.items():
                    v = c * other
                    terms[key] = v if type(v) is int else _norm_coeff(v)
            return res
        out: dict[Key, Coeff] = {}
        get = out.get
        for (da1, db1), c1 in self.terms.items():
            for (da2, db2), c2 in other.terms.items():
                key = (da1 + da2, db1 + db2)
                out[key] = get(key, 0) + c1 * c2
        res = PolyAux.__new__(PolyAux)
        res.terms = {k: v if type(v) is int else _norm_coeff(v) for k, v in out.items() if v}
        return res

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "PolyAux":
        if exp < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        out = PolyAux.one()
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def divexact(self, divisor: "PolyAux | Coeff") -> "PolyAux":
        """Exact polynomial division; raises if any remainder would be left.

        Eliminates leading terms under lexicographic order.  If self is a
        true polynomial multiple of the divisor this terminates with zero
        remainder; the first non-divisible leading term aborts.

        >>> num = PolyAux({(2, 0): 1}) - PolyAux({(0, 2): 1})
        >>> print(num.divexact(PolyAux.var_a() + PolyAux.var_b()).to_str(("a", "b")))
        a - b
        """
        divisor = PolyAux.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        lead_d = max(divisor.terms)
        lead_c = divisor.terms[lead_d]
        quo: dict[Key, Coeff] = {}
        while rem:
            lead_r = max(rem)
            da, db = lead_r[0] - lead_d[0], lead_r[1] - lead_d[1]
            if da < 0 or db < 0:
                raise InexactDivisionError(
                    f"leading term a^{lead_r[0]} b^{lead_r[1]} is not divisible "
                    f"by a^{lead_d[0]} b^{lead_d[1]}"
                )
            r = rem[lead_r]
            if type(r) is int and type(lead_c) is int and not r % lead_c:
                coef = r // lead_c
            else:
                coef = _norm_coeff(Fraction(r) / lead_c)
            quo[(da, db)] = coef
            for (dda, ddb), c in divisor.terms.items():
                key = (da + dda, db + ddb)
                nv = rem.get(key, 0) - coef * c
                if nv:
                    rem[key] = nv
                else:
                    rem.pop(key, None)
        return PolyAux(quo)

    def compose(
        self, pa: "XSeries | PolyAux | Coeff", pb: "XSeries | PolyAux | Coeff"
    ) -> "XSeries | PolyAux":
        """Substitute polynomials, constants or series for the two aux variables.

        The result is a PolyAux when neither value is a series, else an
        XSeries, whose every intermediate is checked against the degree
        envelope of the series it was given.  Each power of ``pa`` and ``pb``
        is made once; :meth:`XSeries.substitute` shares its own power tables
        across all coefficients instead.

        >>> a, b = PolyAux.var_a(), PolyAux.var_b()
        >>> print((a * a + b).compose(b, 2).to_str(("a", "b")))
        2 + b^2
        """
        pa, pb = (v if isinstance(v, XSeries) else PolyAux.coerce(v) for v in (pa, pb))
        lifted = pa if isinstance(pa, XSeries) else pb
        if isinstance(lifted, XSeries):
            out = XSeries.zero(lifted.trunc, lifted.guard)
        else:
            out = PolyAux.zero()
        tables: tuple[list, list] = ([1], [1])
        for table, value, top in zip(tables, (pa, pb), self._aux_degrees()):
            _extend_powers(table, value, top)
        return self._compose(*tables, out)

    def _compose(self, pow_a: list, pow_b: list, out: "XSeries | PolyAux") -> "XSeries | PolyAux":
        """``out`` plus the terms c a^da b^db with pow_a[da] for a^da, pow_b[db] for b^db."""
        # sum over da of pa^da * (sum over db of c * pb^db): one product per da
        parts: dict[int, object] = {}
        for (da, db), c in self.terms.items():
            term = pow_b[db] * c
            parts[da] = parts[da] + term if da in parts else term
        for da, part in parts.items():
            out = out + (pow_a[da] * part if da else part)
        return out

    def _aux_degrees(self) -> tuple[int, int]:
        """Largest degree in a and largest degree in b; 0 for a constant."""
        return (max((da for da, _ in self.terms), default=0),
                max((db for _, db in self.terms), default=0))

    def evaluate(self, va: Coeff, vb: Coeff) -> Coeff:
        """Numeric value at the given aux values (exact)."""
        total: Coeff = 0
        for (da, db), c in self.terms.items():
            total += c * va**da * vb**db
        return _norm_coeff(Fraction(total))

    # -- display -----------------------------------------------------------

    def to_str(self, names: tuple[str, str] = ("a", "b")) -> str:
        if not self.terms:
            return "0"
        parts = []
        ordered = sorted(
            self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], -kv[0][0])
        )
        for (da, db), c in ordered:
            factors = []
            if da:
                factors.append(names[0] if da == 1 else f"{names[0]}^{da}")
            if db:
                factors.append(names[1] if db == 1 else f"{names[1]}^{db}")
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = "*".join(([] if mag == 1 else [str(mag)]) + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"PolyAux({self.to_str()})"


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class XSeries:
    """Power series in the main variable, exact through order ``trunc``.

    >>> s = (1 - XSeries.x(5)).reciprocal()
    >>> [c.coefficient(0, 0) for c in s.coeffs]
    [1, 1, 1, 1, 1, 1]
    """

    __slots__ = ("trunc", "coeffs", "guard")

    def __init__(self, coeffs: Iterable[PolyAux | Coeff], trunc: int, guard: int = DEFAULT_GUARD):
        # int and Fraction coefficients become constants; anything else is a TypeError
        self.coeffs = [c if type(c) is PolyAux else PolyAux.coerce(c) for c in coeffs]
        if len(self.coeffs) != trunc + 1:
            raise ValueError(f"need {trunc + 1} coefficients, got {len(self.coeffs)}")
        self.trunc = trunc
        self.guard = guard
        self._check_degrees()

    def _check_degrees(self) -> None:
        for m, c in enumerate(self.coeffs):
            if c.total_degree() > 2 * m + self.guard:
                raise AuxDegreeError(
                    f"coefficient of x^{m} has aux degree {c.total_degree()}, "
                    f"above the envelope {2 * m + self.guard}; widen the guard "
                    "if the degrees are expected"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int, guard: int = DEFAULT_GUARD) -> "XSeries":
        return cls([PolyAux.zero() for _ in range(trunc + 1)], trunc, guard)

    @classmethod
    def one(cls, trunc: int, guard: int = DEFAULT_GUARD) -> "XSeries":
        return cls.constant(PolyAux.one(), trunc, guard)

    @classmethod
    def x(cls, trunc: int, guard: int = DEFAULT_GUARD) -> "XSeries":
        return cls.monomial(PolyAux.one(), 1, trunc, guard)

    @classmethod
    def constant(cls, c: PolyAux | Coeff, trunc: int, guard: int = DEFAULT_GUARD) -> "XSeries":
        return cls.monomial(PolyAux.coerce(c), 0, trunc, guard)

    @classmethod
    def monomial(cls, c: PolyAux | Coeff, xdeg: int, trunc: int, guard: int = DEFAULT_GUARD) -> "XSeries":
        coeffs = [PolyAux.zero() for _ in range(trunc + 1)]
        if 0 <= xdeg <= trunc:
            coeffs[xdeg] = PolyAux.coerce(c)
        return cls(coeffs, trunc, guard)

    # -- structure ---------------------------------------------------------

    def coefficient(self, m: int) -> PolyAux:
        if m < 0 or m > self.trunc:
            raise IndexError(f"order {m} outside 0..{self.trunc}")
        return self.coeffs[m]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def first_nonzero(self) -> tuple[int, Key, Coeff] | None:
        """Position of the first offending monomial, for failure reports."""
        for m, c in enumerate(self.coeffs):
            if not c.is_zero():
                key = min(c.terms)
                return m, key, c.terms[key]
        return None

    def truncate(self, trunc: int) -> "XSeries":
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {trunc}")
        return XSeries(self.coeffs[: trunc + 1], trunc, self.guard)

    def pad_to(self, trunc: int) -> "XSeries":
        """Extend with zero coefficients; only valid for exact polynomials."""
        if trunc <= self.trunc:
            return self.truncate(trunc)
        coeffs = self.coeffs + [PolyAux.zero() for _ in range(trunc - self.trunc)]
        return XSeries(coeffs, trunc, self.guard)

    def with_guard(self, guard: int) -> "XSeries":
        return XSeries(self.coeffs, self.trunc, guard)

    def xdegree(self) -> int:
        """Largest order with a nonzero coefficient; -1 if zero."""
        for m in range(self.trunc, -1, -1):
            if not self.coeffs[m].is_zero():
                return m
        return -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        if self.trunc != other.trunc:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce_operand(other, trunc: int, guard: int) -> "XSeries | None":
        if isinstance(other, XSeries):
            return other
        if isinstance(other, (int, Fraction, PolyAux)):
            return XSeries.constant(other, trunc, guard)
        return None

    def _align(self, other) -> tuple["XSeries", "XSeries", int, int]:
        rhs = XSeries._coerce_operand(other, self.trunc, self.guard)
        if rhs is None:
            raise TypeError(f"cannot combine XSeries with {other!r}")
        trunc = min(self.trunc, rhs.trunc)
        guard = max(self.guard, rhs.guard)
        return self, rhs, trunc, guard

    def __add__(self, other) -> "XSeries":
        lhs, rhs, trunc, guard = self._align(other)
        return XSeries(
            [lhs.coeffs[m] + rhs.coeffs[m] for m in range(trunc + 1)], trunc, guard
        )

    __radd__ = __add__

    def __neg__(self) -> "XSeries":
        return XSeries([-c for c in self.coeffs], self.trunc, self.guard)

    def __sub__(self, other) -> "XSeries":
        lhs, rhs, trunc, guard = self._align(other)
        return XSeries(
            [lhs.coeffs[m] - rhs.coeffs[m] for m in range(trunc + 1)], trunc, guard
        )

    def __rsub__(self, other) -> "XSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "XSeries":
        if isinstance(other, (int, Fraction, PolyAux)):
            p = PolyAux.coerce(other)
            return XSeries([c * p for c in self.coeffs], self.trunc, self.guard)
        if not isinstance(other, XSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        guard = max(self.guard, other.guard)
        out = [PolyAux.zero() for _ in range(trunc + 1)]
        for m1 in range(min(self.trunc, trunc) + 1):
            c1 = self.coeffs[m1]
            if c1.is_zero():
                continue
            for m2 in range(min(other.trunc, trunc - m1) + 1):
                c2 = other.coeffs[m2]
                if c2.is_zero():
                    continue
                out[m1 + m2] = out[m1 + m2] + c1 * c2
        return XSeries(out, trunc, guard)

    __rmul__ = __mul__

    def shift(self, k: int) -> "XSeries":
        """Multiply by x^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("negative shifts would need seriesorders below 0")
        coeffs = [PolyAux.zero()] * k + self.coeffs[: max(self.trunc + 1 - k, 0)]
        return XSeries(coeffs[: self.trunc + 1], self.trunc, self.guard)

    def __pow__(self, exp: int) -> "XSeries":
        if exp < 0:
            raise ValueError("use reciprocal() for negative powers")
        out = XSeries.one(self.trunc, self.guard)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    # -- division and roots --------------------------------------------------

    def reciprocal(self) -> "XSeries":
        """Inverse series; requires constant coefficient exactly 1."""
        if self.coeffs[0] != PolyAux.one():
            raise ValueError(
                "reciprocal needs constant coefficient 1; use divide_exact for "
                "polynomial leading coefficients"
            )
        inv = [PolyAux.one()]
        for m in range(1, self.trunc + 1):
            acc = PolyAux.zero()
            for k in range(1, m + 1):
                if not self.coeffs[k].is_zero():
                    acc = acc + self.coeffs[k] * inv[m - k]
            inv.append(-acc)
        return XSeries(inv, self.trunc, self.guard)

    def divide_exact(self, den: "XSeries") -> "XSeries":
        """Coefficientwise exact division by a series with polynomial quotient
        coefficients.

        The denominator's constant coefficient may be any nonzero aux
        polynomial, but every step of the long division must divide exactly
        in the polynomial ring; otherwise :class:`InexactDivisionError`
        propagates.  This is how closed forms with denominators such as
        2(1 - 2x - y + xy) are expanded when the quotient is known to have
        polynomial coefficients.
        """
        trunc = min(self.trunc, den.trunc)
        guard = max(self.guard, den.guard)
        d0 = den.coeffs[0]
        if d0.is_zero():
            raise ZeroDivisionError("denominator has zero constant coefficient")
        quo: list[PolyAux] = []
        for m in range(trunc + 1):
            acc = self.coeffs[m]
            for k in range(1, m + 1):
                if k <= den.trunc and not den.coeffs[k].is_zero():
                    acc = acc - den.coeffs[k] * quo[m - k]
            quo.append(acc.divexact(d0))
        return XSeries(quo, trunc, guard)

    def sqrt(self) -> "XSeries":
        """Square root with constant term 1 (the unique such branch).

        >>> r = XSeries([PolyAux.one(), PolyAux.const(-6), PolyAux.one(), PolyAux.zero()], 3)
        >>> (r.sqrt() * r.sqrt()) == r
        True
        """
        if self.coeffs[0] != PolyAux.one():
            raise ValueError("sqrt needs constant coefficient exactly 1")
        root = [PolyAux.one()]
        for m in range(1, self.trunc + 1):
            acc = self.coeffs[m]
            for k in range(1, m):
                acc = acc - root[k] * root[m - k]
            root.append(acc * Fraction(1, 2))
        return XSeries(root, self.trunc, self.guard)

    # -- substitution --------------------------------------------------------

    def substitute(
        self,
        sx: "XSeries | None" = None,
        sa: "XSeries | PolyAux | Coeff | None" = None,
        sb: "XSeries | PolyAux | Coeff | None" = None,
        guard: int | None = None,
    ) -> "XSeries":
        """Composite series: substitute for the main variable and both aux
        variables simultaneously.

        ``sx`` must have zero constant coefficient (otherwise the composite
        is not a well-defined truncated series); ``sa``/``sb`` may be any
        series, polynomials or constants.  Omitted arguments keep the
        respective variable.  Substitutions routinely raise aux degrees
        (e.g. sending the main variable to v*w*x), so a wider guard may be
        passed for the result.

        The composite is one Horner pass from the top coefficient down,
        ``result = result * sx + c.compose(sa, sb)``, so series products
        are made only for series-valued aux variables.  The powers of
        ``sa`` and ``sb`` are made once per call, in tables that every
        coefficient shares; a series power is made at the largest order
        any coefficient uses it at.  What is made at coefficient k still
        has k multiplications by ``sx`` ahead, and ``sx`` has no constant
        term, so only its orders up to trunc - k reach the result: step k
        pads the partial sum with one zero, multiplies it by ``sx``, and
        composes coefficient k, all at order trunc - k.  The partial sum
        of step k, the slice of each shared power it uses, and every
        series that the composition makes are checked against the
        envelope shifted by x^k, 2 (m + k) + guard; ``sx`` and the result
        (k = 0) meet the plain envelope.
        """
        out_guard = self.guard if guard is None else guard
        trunc = min([self.trunc] + [s.trunc for s in (sx, sa, sb) if isinstance(s, XSeries)])
        if sx is not None:
            sx = sx.truncate(trunc).with_guard(out_guard)
            if not sx.coeffs[0].is_zero():
                raise ValueError("substitution for the main variable needs zero constant term")
        aux = tuple(
            v if isinstance(v, (XSeries, int, Fraction)) else PolyAux.coerce(v)
            for v in (PolyAux.var_a() if sa is None else sa, PolyAux.var_b() if sb is None else sb)
        )
        lifted = any(isinstance(v, XSeries) for v in aux)
        degrees = [c._aux_degrees() for c in self.coeffs[: trunc + 1]]

        # tables[i][e] is aux[i]**e, made once for this call; a series power
        # is made at the order trunc - k of the first coefficient k using it,
        # under that step's envelope
        tables: tuple[list, list] = ([1], [1])
        for k, tops in enumerate(degrees):
            for table, value, top in zip(tables, aux, tops):
                if len(table) <= top:
                    if isinstance(value, XSeries):
                        value = XSeries(value.coeffs[: trunc - k + 1], trunc - k, out_guard + 2 * k)
                    _extend_powers(table, value, top)

        zero = PolyAux.zero()
        partial: list[PolyAux] = []
        for k in range(trunc, -1, -1):
            # what is made here is multiplied k more times by sx, which has
            # no constant term: only orders up to trunc - k reach the result,
            # and they meet the envelope shifted by x^k
            order, step_guard = trunc - k, out_guard + 2 * k
            if sx is None:
                step = XSeries([zero] + partial, order, step_guard)
            else:
                step = XSeries(partial + [zero], order, step_guard) * XSeries(
                    sx.coeffs[: order + 1], order, step_guard
                )
            views = [
                [XSeries(p.coeffs[: order + 1], order, step_guard) if isinstance(p, XSeries) else p
                 for p in table[: top + 1]]
                for table, top in zip(tables, degrees[k])
            ]
            if lifted:
                step = self.coeffs[k]._compose(*views, step)
            else:
                # step has no constant term, so the polynomial is its x^0 coefficient
                term = self.coeffs[k]._compose(*views, zero)
                step = XSeries([term] + step.coeffs[1:], order, step_guard)
            partial = step.coeffs
        return step

    # -- display -----------------------------------------------------------

    def to_str(self, x_name: str = "x", aux_names: tuple[str, str] = ("a", "b")) -> str:
        lines = []
        for m, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            lines.append(f"({c.to_str(aux_names)})*{x_name}^{m}")
        return " + ".join(lines) if lines else "0"

    def __repr__(self) -> str:
        return f"XSeries(trunc={self.trunc}, {self.to_str()})"
