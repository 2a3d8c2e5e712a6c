"""Permutations, classical pattern containment, and exhaustive avoidance censuses.

A permutation is a tuple of the 1-based values in one-line notation, so
``(2, 4, 1, 3)`` is the permutation sending 1 to 2, 2 to 4, and so on.
Patterns are permutations too; this project works throughout with pairs of
length-4 patterns whose joint avoiders are counted by the large Schroeder
numbers 1, 2, 6, 22, 90, 394, 1806, ...

>>> contains((2, 4, 1, 3), (2, 3, 1))
True
>>> avoids((2, 4, 1, 3), (1, 2, 4, 3), (1, 4, 2, 3))
True
>>> first_letter_distribution(4, parse_pair("1234,1243"))
[4, 6, 6, 6]

The exhaustive walks live in :mod:`permlab.kernels`; everything here is a
thin typed shell that validates input, enforces the size cap, and converts
the kernels' count arrays to plain lists and tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels

Perm = tuple[int, ...]
Pair = tuple[Perm, Perm]

#: Largest n accepted by the exhaustive walks unless PERMLAB_MAX_N says more.
DEFAULT_MAX_N = 11


class ResourceLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed the size cap."""


def enumeration_cap() -> int:
    """Current cap on exhaustive enumeration size.

    The environment variable ``PERMLAB_MAX_N`` overrides the default of
    11; it is the one setting of the cap.  The cap turns an accidental
    ``n=30`` into an immediate error instead of a hung process.
    """
    raw = os.environ.get("PERMLAB_MAX_N", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"PERMLAB_MAX_N must be an integer, got {raw!r}") from None
    return DEFAULT_MAX_N


def check_cap(n: int) -> None:
    """Refuse an exhaustive enumeration at size ``n`` above :func:`enumeration_cap`.

    Every census below calls this, and so does each verification suite
    that enumerates, with its largest size, before its first census.
    """
    cap = enumeration_cap()
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise ResourceLimitError(
            f"exhaustive enumeration at n={n} exceeds the cap of {cap}; "
            "raise PERMLAB_MAX_N if you mean it"
        )


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def is_permutation(values: Sequence[int]) -> bool:
    """True when `values` is a permutation of 1..n in one-line notation.

    >>> is_permutation((2, 4, 1, 3))
    True
    >>> is_permutation((1, 2, 2))
    False
    """
    return sorted(values) == list(range(1, len(values) + 1))


def check_permutation(values: Sequence[int]) -> Perm:
    perm = tuple(int(v) for v in values)
    if not is_permutation(perm):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")
    return perm


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation, either space separated or compact digits.

    >>> parse_permutation("2 4 1 3")
    (2, 4, 1, 3)
    >>> parse_permutation("1243")
    (1, 2, 4, 3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if any(sep in text for sep in (" ", ",", "\t")):
        parts = text.replace(",", " ").split()
    elif text.isdigit():
        parts = list(text)
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return check_permutation(values)


def parse_pair(text: str) -> Pair:
    """Parse a comma separated pair of 4-letter patterns, e.g. ``1243,1423``.

    >>> parse_pair("1243,1423")
    ((1, 2, 4, 3), (1, 4, 2, 3))
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected two patterns separated by a comma, got {text!r}")
    pa, pb = (parse_permutation(p) for p in parts)
    if len(pa) != 4 or len(pb) != 4:
        raise ValueError(f"patterns must have length 4, got {text!r}")
    if pa == pb:
        raise ValueError("the two patterns must differ")
    return (pa, pb)


def format_permutation(perm: Sequence[int]) -> str:
    """One-line notation with spaces: the inverse of :func:`parse_permutation`."""
    return " ".join(str(v) for v in perm)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def pattern_of(values: Sequence[int]) -> Perm:
    """The pattern (rank word) of a sequence of distinct numbers.

    >>> pattern_of((6, 9, 2, 5))
    (3, 4, 1, 2)
    """
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def contains(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """Does `perm` contain `pattern` classically (as an order-isomorphic
    subsequence)?

    Backtracks over candidate positions left to right, keeping only
    prefixes whose pairwise order agrees with the pattern, so hopeless
    partial matches are cut early.  Length-4 patterns, the ones this
    project works with, take a flat four-deep loop instead: the same cuts,
    as six precomputed order tests, without the recursion.

    >>> contains((2, 4, 1, 3), (3, 1, 2))
    True
    >>> contains((2, 4, 1, 3), (1, 2, 3))
    False
    """
    k = len(pattern)
    n = len(perm)
    if k == 0:
        return True
    if k > n:
        return False
    if k == 4:
        return _contains4(perm, pattern)

    def extend(start: int, chosen: list[int]) -> bool:
        t = len(chosen)
        if t == k:
            return True
        for pos in range(start, n - (k - t) + 1):
            v = perm[pos]
            if all((v > c) == (pattern[t] > pattern[s]) for s, c in enumerate(chosen)):
                chosen.append(v)
                if extend(pos + 1, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, [])


def _contains4(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    p0, p1, p2, p3 = pattern
    r01, r02, r03 = p0 < p1, p0 < p2, p0 < p3
    r12, r13, r23 = p1 < p2, p1 < p3, p2 < p3
    n = len(perm)
    for i in range(n - 3):
        w0 = perm[i]
        for j in range(i + 1, n - 2):
            w1 = perm[j]
            if (w0 < w1) != r01:
                continue
            for k in range(j + 1, n - 1):
                w2 = perm[k]
                if (w0 < w2) != r02 or (w1 < w2) != r12:
                    continue
                for l in range(k + 1, n):
                    w3 = perm[l]
                    if (w0 < w3) == r03 and (w1 < w3) == r13 and (w2 < w3) == r23:
                        return True
    return False


def avoids(perm: Sequence[int], *patterns: Sequence[int]) -> bool:
    """True when `perm` contains none of the given patterns."""
    return not any(contains(perm, p) for p in patterns)


# ---------------------------------------------------------------------------
# statistics of a single permutation
# ---------------------------------------------------------------------------

def left_right_minima(perm: Sequence[int]) -> list[tuple[int, int]]:
    """The left-to-right minima as (1-based position, value) pairs.

    >>> left_right_minima((3, 5, 2, 4, 1))
    [(1, 3), (3, 2), (5, 1)]
    """
    out: list[tuple[int, int]] = []
    best: int | None = None
    for pos, v in enumerate(perm, start=1):
        if best is None or v < best:
            out.append((pos, v))
            best = v
    return out


def active_sites(perm: Sequence[int], pair: Pair) -> list[int]:
    """Gaps where a new minimum can be inserted without creating a pattern.

    The letters of `perm` are lifted by one and a new 1 is placed in gap
    ``g`` (0 = before the first letter, ``len(perm)`` = after the last);
    the gap is active when the result still avoids both patterns of
    `pair`.  Returns the sorted list of active gaps.

    >>> active_sites((2, 1, 3), parse_pair("1324,1423"))
    [1, 2, 3]
"""
    perm = check_permutation(perm)
    pa, pb = pair
    out = []
    lifted = [v + 1 for v in perm]
    for g in range(len(perm) + 1):
        child = lifted[:g] + [1] + lifted[g:]
        if avoids(child, pa, pb):
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# exhaustive censuses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionTable:
    """Counts of a permutation class refined by (first letter, second letter).

    ``cells[i][j]`` is the number of class members whose first letter is i
    and second letter is j (1-based; row and column 0 are unused padding).
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    def value(self, i: int, j: int) -> int:
        return self.cells[i][j]

    def first_letter(self) -> list[int]:
        """Marginal by first letter, a list of length n (index 0 = letter 1)."""
        return [sum(self.cells[i][1:]) for i in range(1, self.n + 1)]

    def total(self) -> int:
        return sum(self.first_letter())

    @staticmethod
    def from_cells(n: int, get: Callable[[int, int], int]) -> "DistributionTable":
        rows = [tuple(0 for _ in range(n + 1))]
        for i in range(1, n + 1):
            rows.append(tuple([0] + [int(get(i, j)) for j in range(1, n + 1)]))
        return DistributionTable(n, tuple(rows))


def _check_pair(pair: Pair) -> Pair:
    pa, pb = pair
    if len(pa) != 4 or len(pb) != 4:
        raise ValueError("pattern pairs must consist of two 4-letter patterns")
    return check_permutation(pa), check_permutation(pb)


def first_second_distribution(n: int, pair: Pair) -> DistributionTable:
    """Exhaustive census of avoiders of `pair` by first and second letter."""
    check_cap(n)
    if n == 0:
        return DistributionTable(0, (tuple([0]),))
    pa, pb = _check_pair(pair)
    _, cells = kernels.census_pair(n, pa, pb)
    return DistributionTable.from_cells(n, lambda i, j: cells[i, j])


def first_letter_distribution(n: int, pair: Pair) -> list[int]:
    """Exhaustive count of avoiders of `pair` with each first letter 1..n."""
    check_cap(n)
    if n == 0:
        return []
    pa, pb = _check_pair(pair)
    first, _ = kernels.census_pair(n, pa, pb)
    return [int(c) for c in first]


def count_avoiders(n: int, pair: Pair) -> int:
    """Number of permutations of 1..n avoiding both patterns of `pair`."""
    if n == 0:
        return 1
    return sum(first_letter_distribution(n, pair))


def enumerate_avoiders(n: int, pair: Pair) -> list[Perm]:
    """All avoiders of `pair` in S_n, in lexicographic order.

    >>> enumerate_avoiders(3, parse_pair("1234,1243"))[:3]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    check_cap(n)
    if n == 0:
        return [()]
    pa, pb = _check_pair(pair)
    out: list[Perm] = []
    kernels.fill_avoiders(n, pa, pb, out)
    return out


def active_site_census(n: int, pair: Pair) -> np.ndarray:
    """Counts of avoiders by (first letter, number of active sites).

    Entry ``[i, j]`` counts avoiders of `pair` in S_n with first letter i
    whose lift-and-insert children include exactly j avoiders; shape is
    (n + 1, n + 2) with row 0 unused.
    """
    check_cap(n)
    if n == 0:
        raise ValueError("active site census needs n >= 1")
    pa, pb = _check_pair(pair)
    return kernels.active_census(n, pa, pb)
