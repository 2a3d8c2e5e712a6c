"""Reference computations kept apart from permlab.

Nothing here imports permlab.  Every count the benchmark checks a program
output against comes from this module, the paper's Table 2 in
``reference.py``, or a property the method must have.

* :func:`census_bruteforce` runs over ``itertools.permutations`` with its own
  four-letter pattern test; it is the small-n oracle.
* :func:`avoiders` grows a class by inserting a new maximum into every
  avoider one size smaller.  Deleting the maximum of an avoider leaves an
  avoider, so each avoider arises exactly once, and a child needs testing
  only for occurrences that use the new maximum.  It is a different
  algorithm from the program's prefix DFS and reaches n = 8 in under half a
  second per pair.
* :func:`schroeder_numbers` uses the convolution recurrence, not the
  three-term one in ``permlab.schroeder``; :func:`triangle_rows` is the
  column form of the triangle recurrence, not the four-term row form there.
"""

from __future__ import annotations

from itertools import combinations, permutations

Perm = tuple[int, ...]
Pair = tuple[Perm, Perm]


def pattern_of(values) -> Perm:
    """Rank word of a sequence of distinct numbers: (6, 9, 2) -> (2, 3, 1)."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def contains4(perm: Perm, pattern: Perm) -> bool:
    """True when some 4 positions of `perm` are order-isomorphic to `pattern`."""
    return any(pattern_of(sub) == pattern for sub in combinations(perm, 4))


def census_bruteforce(n: int, pair: Pair) -> list[int]:
    """Avoiders of both patterns in S_n, counted by first letter."""
    counts = [0] * n
    for perm in permutations(range(1, n + 1)):
        if not contains4(perm, pair[0]) and not contains4(perm, pair[1]):
            counts[perm[0] - 1] += 1
    return counts


def _uses_new_max(perm: Perm, pos: int, pattern: Perm) -> bool:
    # An occurrence through the maximum at `pos` puts it where the pattern has
    # its 4; the other three letters must then match the rest of the pattern.
    t = pattern.index(4)
    rest = pattern[:t] + pattern[t + 1:]
    before, after = range(pos), range(pos + 1, len(perm))
    for left in combinations(before, t):
        for right in combinations(after, 3 - t):
            if pattern_of([perm[i] for i in left + right]) == rest:
                return True
    return False


def avoiders(n: int, pair: Pair) -> list[Perm]:
    """All avoiders of `pair` in S_n, in lexicographic order."""
    level: list[Perm] = [()]
    for m in range(1, n + 1):
        grown = []
        for perm in level:
            for pos in range(m):
                child = perm[:pos] + (m,) + perm[pos:]
                if not any(_uses_new_max(child, pos, p) for p in pair):
                    grown.append(child)
        level = grown
    return sorted(level)


def first_letter_census(perms: list[Perm], n: int) -> list[int]:
    counts = [0] * n
    for perm in perms:
        counts[perm[0] - 1] += 1
    return counts


def schroeder_numbers(n_max: int) -> list[int]:
    """[S_1, ..., S_{n_max}] = 1, 2, 6, 22, ... by the convolution recurrence.

    With r_k = S_{k+1}: r_0 = 1 and r_k = r_{k-1} + sum_{i<k} r_i r_{k-1-i}
    (a Schroeder path either starts with a flat step or with an up step
    whose matching down step splits it in two).
    """
    r = [1]
    for k in range(1, n_max):
        r.append(r[k - 1] + sum(r[i] * r[k - 1 - i] for i in range(k)))
    return r[:n_max]


def triangle_rows(n_max: int) -> list[list[int]]:
    """Rows 1..n_max of the first-letter triangle of the nine classes.

    Entry i of row n (1 <= i <= n - 2) is twice entry i of row n - 1 plus the
    sum of the entries before it; the last three entries of row n all equal
    the total of row n - 1.
    """
    rows = [[1], [1, 1]][:n_max]
    for n in range(3, n_max + 1):
        prev = rows[-1]
        row = [2 * prev[i] + sum(prev[:i]) for i in range(n - 2)]
        row += [sum(prev)] * 2
        rows.append(row)
    return rows


def left_right_minima(perm: Perm) -> list[tuple[int, int]]:
    out = []
    for pos, v in enumerate(perm, start=1):
        if not out or v < out[-1][1]:
            out.append((pos, v))
    return out


def complement(pair: Pair) -> Pair:
    """The pair of complemented patterns, each letter v -> 5 - v."""
    return tuple(sorted(tuple(5 - v for v in p) for p in pair))
