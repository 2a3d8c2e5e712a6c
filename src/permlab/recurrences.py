"""Dynamic-programming implementations of the counting recurrences.

Every avoidance class handled here is counted three independent ways in the
test suite: by brute-force enumeration (:mod:`permlab.perms`), by the
recurrences in this module, and by series expansion of the closed forms
(:mod:`permlab.closedforms`).  The recurrences are:

* :func:`first_letter_rows` -- first-letter refinement a_{n,i} for the three
  pairs whose refinement satisfies the triangle recurrence directly.
* :func:`site_table` -- joint census u_n(i, j) of (first letter, number of
  active sites) for the two pairs grown by the succession rule
  (k) -> (3)(4)...(k+1)(k+1).
* :func:`site_polynomial` -- the polynomial v_n(y, q) carrying the same
  census, computed from its own recurrence by exact polynomial division.
* :func:`joint_table` -- the full (first letter, second letter) tables
  a_n(i, j) for the three pairs with quadratic-sum recurrences.

All arithmetic uses Python integers, so no overflow is possible.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .perms import DistributionTable, Pair, Perm, parse_pair
from .series import PolyAux

#: Pairs whose first-letter refinement satisfies the triangle recurrence
#: columnwise (new-maximum insertion argument).
FIRST_LETTER_PAIRS: tuple[Pair, ...] = (
    ((1, 2, 3, 4), (1, 2, 4, 3)),
    ((1, 3, 2, 4), (1, 3, 4, 2)),
    ((1, 4, 2, 3), (1, 4, 3, 2)),
)

#: Pairs grown by the active-site succession rule (k) -> (3)(4)...(k+1)(k+1).
SITE_PAIRS: tuple[Pair, ...] = (
    ((1, 3, 2, 4), (1, 4, 2, 3)),
    ((1, 3, 4, 2), (1, 4, 2, 3)),
)

#: Pairs whose (first, second) letter tables satisfy explicit recurrences.
JOINT_PAIRS: tuple[Pair, ...] = (
    ((1, 2, 4, 3), (1, 4, 2, 3)),
    ((1, 2, 4, 3), (1, 3, 4, 2)),
    ((1, 2, 4, 3), (1, 3, 2, 4)),
)


def _normalize_pair(pair: Pair | str | None, allowed: tuple[Pair, ...], what: str) -> Pair:
    if pair is None:
        return allowed[0]
    if isinstance(pair, str):
        pair = parse_pair(pair)
    key = tuple(sorted(pair))
    for cand in allowed:
        if tuple(sorted(cand)) == key:
            return cand
    names = ", ".join("{}/{}".format(*("".join(map(str, p)) for p in c)) for c in allowed)
    raise ValueError(f"{what} applies to the pairs {names} only")


# ---------------------------------------------------------------------------
# first-letter refinement
# ---------------------------------------------------------------------------

def first_letter_rows(n_max: int, pair: Pair | str | None = None) -> list[list[int]]:
    """Rows of the first-letter refinement a_{n,i}, for n = 1..n_max.

    Recurrence: a_{n,i} = 2 a_{n-1,i} + sum_{l<i} a_{n-1,l} for i <= n-2,
    and the top three entries all equal the previous row's total.

    >>> first_letter_rows(5)[-1]
    [8, 16, 22, 22, 22]
    """
    _normalize_pair(pair, FIRST_LETTER_PAIRS, "the first-letter recurrence")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    rows = [[1]]
    if n_max >= 2:
        rows.append([1, 1])
    for n in range(3, n_max + 1):
        prev = rows[-1]
        row = []
        prefix = 0
        for i in range(1, n - 1):
            row.append(2 * prev[i - 1] + prefix)
            prefix += prev[i - 1]
        top = sum(prev)
        row.extend([top, top])
        rows.append(row)
    return rows


def first_letter_row(n: int, pair: Pair | str | None = None) -> list[int]:
    return first_letter_rows(n, pair)[-1]


# ---------------------------------------------------------------------------
# active-site census
# ---------------------------------------------------------------------------

def site_table(n: int, pair: Pair | str | None = None) -> list[list[int]]:
    """Census u_n(i, j) of avoiders with first letter i and j active sites.

    Returns a table indexed ``u[i][j]`` with 0 <= i <= n, 0 <= j <= n+1;
    meaningful entries have 1 <= i <= n and 3 <= j <= n+1 (plus the seed
    u_1(1, 2) = 1).  Growing on the last active site keeps all sites active
    (j -> j+1 with the new letter at the very bottom raises the first letter
    by one); every other site kills the sites to its left.

    >>> [site_table(4)[i][5] for i in range(1, 5)]
    [4, 2, 1, 1]
    """
    _normalize_pair(pair, SITE_PAIRS, "the active-site recurrence")
    if n < 1:
        raise ValueError("need n >= 1")
    tables = [None, [[0] * 3 for _ in range(2)]]
    tables[1][1][2] = 1
    for m in range(2, n + 1):
        prev = tables[-1]
        u = [[0] * (m + 2) for _ in range(m + 1)]
        # suffix sums over j of the previous table, for the killed-sites term
        suff = [[0] * (m + 3) for _ in range(m)]
        for i in range(1, m):
            for j in range(m + 1, 1, -1):
                suff[i][j] = suff[i][j + 1] + (prev[i][j] if j <= m else 0)
        u[1][m + 1] = 2 ** (m - 2)
        for i in range(2, m + 1):
            u[i][m + 1] = prev[i - 1][m] if m >= 2 and i - 1 <= m - 1 else 0
        for j in range(3, m + 1):
            for i in range(2, m + 1):
                carried = prev[i - 1][j - 1] if j - 1 <= m else 0
                u[i][j] = carried + suff[i - 1][j - 1]
        tables.append(u)
    return tables[n]


def site_polynomial(n: int, pair: Pair | str | None = None) -> PolyAux:
    """The census polynomial v_n(y, q) = sum u_n(i, j) y^i q^(j-2).

    Computed from the recurrence

        v_n = (1-y)(2^(n-1) y - y^n) q^(n-1) / (2-y)
              + y q (v_{n-1}(y, 1) + (1-2q) v_{n-1}(y, q)) / (1-q)

    with both divisions performed exactly in the polynomial ring (a nonzero
    remainder would raise).  Auxiliary variables: a = y, b = q.

    >>> print(site_polynomial(2).to_str(("y", "q")))
    y*q + y^2*q
    """
    _normalize_pair(pair, SITE_PAIRS, "the active-site recurrence")
    if n < 1:
        raise ValueError("need n >= 1")
    y = PolyAux.var_a()
    q = PolyAux.var_b()
    v = y
    for m in range(2, n + 1):
        head = ((1 - y) * (PolyAux.monomial(2 ** (m - 1), 1, 0) - y**m)).divexact(2 - y)
        head = head * PolyAux.monomial(1, 0, m - 1)
        v_at_1 = v.compose(y, 1)
        tail = (y * (v_at_1 + (1 - 2 * q) * v)).divexact(1 - q) * q
        v = head + tail
    return v


# ---------------------------------------------------------------------------
# (first, second) letter tables
# ---------------------------------------------------------------------------

class _JointHistory:
    """All joint tables a_m(i, j) for m = 2..n, with guarded access.

    Cells are stored in dicts ``{(i, j): value}``; out-of-range lookups and
    m < 2 return 0, matching the empty-sum conventions of the recurrences.
    """

    def __init__(self, n: int):
        self.n = n
        self.cells: list[dict[tuple[int, int], int]] = [dict() for _ in range(n + 1)]
        if n >= 2:
            self.cells[2] = {(1, 2): 1, (2, 1): 1}
        if n >= 3:
            self.cells[3] = {(i, j): 1 for i in range(1, 4) for j in range(1, 4) if i != j}

    def cell(self, m: int, a: int, b: int) -> int:
        if m < 2 or a < 1 or b < 1 or a > m or b > m or a == b:
            return 0
        return self.cells[m].get((a, b), 0)

    def marginal(self, m: int, a: int) -> int:
        """First-letter count a_m(a); a_1(1) = 1 by convention."""
        if m == 1:
            return 1 if a == 1 else 0
        if m < 1 or a < 1 or a > m:
            return 0
        return sum(v for (i, _), v in self.cells[m].items() if i == a)

    def total(self, m: int) -> int:
        """Class size a_m, with a_0 = a_1 = 1."""
        if m < 0:
            return 0
        if m <= 1:
            return 1
        return sum(self.cells[m].values())

    def as_table(self, m: int) -> DistributionTable:
        return DistributionTable.from_cells(m, lambda i, j: self.cell(m, i, j))


def _fill_shared_lower(hist: _JointHistory, n: int) -> dict[tuple[int, int], int]:
    """Start row n with the shared rule a_n(i, j) = a_{n-1}(j) for j < i."""
    table: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            val = hist.marginal(n - 1, j)
            if val:
                table[(i, j)] = val
    return table


def _joint_1243_1423(n: int) -> _JointHistory:
    hist = _JointHistory(n)
    for m in range(4, n + 1):
        table = _fill_shared_lower(hist, m)

        def triple(i: int, b_hi_of_c, m=m) -> int:
            total = 0
            for a in range(1, i):
                for c in range(0, i - a):
                    w = comb(i - a - 1, c)
                    if not w:
                        continue
                    for b in range(a + 1, b_hi_of_c(a, c) + 1):
                        total += w * hist.cell(m - c - 2, a, b)
            return total

        for i in range(1, m - 1):
            table[(i, i + 1)] = hist.cell(m - 1, i, i + 1) + triple(i, lambda a, c: i - c)
        table[(m - 1, m)] = hist.total(m - 2)
        for i in range(1, m - 2):
            table[(i, i + 2)] = (
                hist.cell(m - 1, i, i + 1)
                + hist.cell(m - 1, i, i + 2)
                + triple(i, lambda a, c: i - c + 1)
            )
        table[(m - 2, m)] = hist.total(m - 2)
        for i in range(1, m - 2):
            for j in range(i + 3, m + 1):
                val = hist.cell(m - 1, i, j - 1)
                for a in range(1, i):
                    for c in range(0, i - a):
                        w = comb(i - a - 1, c)
                        if w:
                            val += w * hist.cell(m - c - 2, a, j - c - 2)
                if j < m:
                    val += hist.cell(m - 1, i, j)
                    for a in range(1, i):
                        for c in range(0, i - a):
                            w = comb(i - a - 1, c)
                            if w:
                                val += w * hist.cell(m - c - 2, a, j - c - 1)
                table[(i, j)] = val
        hist.cells[m] = {k: v for k, v in table.items() if v}
    return hist


def _joint_1243_1342(n: int) -> _JointHistory:
    hist = _JointHistory(n)
    for m in range(4, n + 1):
        table = _fill_shared_lower(hist, m)
        for i in range(1, m):
            table[(i, m)] = hist.marginal(m - 1, i)
        for i in range(1, m - 1):
            table[(i, i + 1)] = sum(hist.cell(m - 1, ell, i + 1) for ell in range(1, i + 1))
        for i in range(1, m - 2):
            table[(i, i + 2)] = table[(i, i + 1)]
        for i in range(1, m - 3):
            for j in range(i + 3, m):
                val = sum(hist.cell(m - 1, i, k) for k in range(i + 1, j))
                for a in range(1, i):
                    for c in range(0, i - a):
                        w = comb(i - a - 1, c)
                        if not w:
                            continue
                        for b in range(a + 1, j - c - 1):
                            val += w * hist.cell(m - c - 2, a, b)
                table[(i, j)] = val
        hist.cells[m] = {k: v for k, v in table.items() if v}
    return hist


def _joint_1243_1324(n: int, direct: bool = False) -> _JointHistory:
    # two equivalent updates of the cells (i, j >= i + 2): the cumulative one
    # reads the previous row's column sums; the direct one, kept as a
    # reference for the tests, re-sums binomially over the stored history
    # (they agree by a Vandermonde-style identity)
    hist = _JointHistory(n)
    for m in range(4, n + 1):
        table = _fill_shared_lower(hist, m)
        for i in range(1, m):
            table[(i, m)] = hist.marginal(m - 1, i)
        for i in range(1, m - 1):
            val = hist.cell(m - 1, i, i + 1)
            for a in range(1, i):
                for b in range(a + 1, i + 1):
                    for c in range(0, i - b + 1):
                        val += comb(i - a - 1, c) * hist.cell(m - c - 2, a, b)
            table[(i, i + 1)] = val
        for i in range(1, m - 2):
            for j in range(i + 2, m):
                val = hist.cell(m - 1, i, j)
                if direct:
                    for a in range(1, i):
                        for c in range(0, i - a):
                            w = comb(i - a - 1, c)
                            if w:
                                val += w * hist.cell(m - c - 2, a, j - c - 1)
                else:
                    for ell in range(1, i):
                        val += hist.cell(m - 1, ell, j - 1)
                table[(i, j)] = val
        hist.cells[m] = {k: v for k, v in table.items() if v}
    return hist


@lru_cache(maxsize=8)
def _joint_history(pair: Pair, n: int) -> _JointHistory:
    if pair == JOINT_PAIRS[0]:
        return _joint_1243_1423(n)
    if pair == JOINT_PAIRS[1]:
        return _joint_1243_1342(n)
    return _joint_1243_1324(n)


def joint_table(n: int, pair: Pair | str | None = None) -> DistributionTable:
    """The (first letter, second letter) table a_n(i, j) from its recurrence.

    >>> joint_table(4, "1243,1423").value(3, 4)
    2
    """
    pair = _normalize_pair(pair, JOINT_PAIRS, "the joint-table recurrence")
    if n < 2:
        raise ValueError("joint tables start at n = 2")
    return _joint_history(pair, n).as_table(n)


def joint_tables(n_max: int, pair: Pair | str | None = None) -> list[DistributionTable]:
    """Joint tables for n = 2..n_max (one history pass, cheapest way)."""
    pair = _normalize_pair(pair, JOINT_PAIRS, "the joint-table recurrence")
    if n_max < 2:
        raise ValueError("joint tables start at n = 2")
    hist = _joint_history(pair, n_max)
    return [hist.as_table(m) for m in range(2, n_max + 1)]
