"""Enumeration kernels: one prefix walk over pattern avoiders, and its consumers.

Everything here is plain Python over ints and lists; numpy appears only in
the count arrays the censuses return.  Patterns are sequences holding a
permutation of 1..4 (tuples, lists or numpy arrays all work); the walk's
permutations are lists of 1-based values.

:func:`_walk` builds the avoiders of two 4-letter patterns left to right,
in lexicographic order.  Values are absolute in a prefix walk, so the set
of values a later letter may not take only grows with depth, and the walk
keeps it per depth as a bitmask (bit v = value v).  When the letter v just
placed completes an occurrence (w0, w1, v) of a pattern's first three
letters, every later letter inside one open value interval would complete
the pattern; the pattern's last letter says which interval, and its ends
come from {w0, w1, v} (or the edges 0 and n + 1).  For each earlier
position of w1 the candidate w0s form one mask, so the union of their
intervals is read off its lowest or highest bit: each node costs O(depth)
integer operations.  Children are drawn from the free values minus the
forbidden ones, so no child that contains a pattern is ever made.

The public kernels keep the positional ``(n, pa, pb[, out])`` signature and
need n >= 1.
"""

from __future__ import annotations

import numpy as np

#: The kernels have one backend, plain Python; the flag stays for readers of
#: the benchmark reports, which record which backend ran.
NUMBA_ENABLED = False


def _rules(pattern) -> tuple[bool, bool, bool, int, int]:
    """How one 4-letter pattern constrains the prefix walk.

    Returns the orders ``w0 < w1``, ``w0 < v``, ``w1 < v`` of an occurrence
    (w0, w1, v) of the first three letters, then which of them (0, 1, 2;
    -1 for the edge) bound from below and from above the open value interval
    that the last letter then forbids.

    >>> _rules((1, 2, 4, 3))
    (True, True, True, 1, 2)
    """
    p0, p1, p2, p3 = (int(x) for x in pattern)
    head = (p0, p1, p2)
    lo = head.index(p3 - 1) if p3 > 1 else -1
    hi = head.index(p3 + 1) if p3 < 4 else -1
    return p0 < p1, p0 < p2, p1 < p2, lo, hi


def _walk(n, pa, pb):
    """Yield every permutation of 1..n avoiding both patterns, in lex order.

    The same list object is yielded each time, refilled in place; copy it
    to keep it.
    """
    rules = (_rules(pa), _rules(pb))
    full = (2 << n) - 2                                    # values 1..n
    below = [(1 << x) - 2 for x in range(n + 1)]           # values 1..x-1
    above = [full & -(2 << x) for x in range(n + 1)]       # values x+1..n
    perm = [0] * n
    seen = [0] * n    # seen[d]: values at positions < d
    forb = [0] * n    # forb[d]: values position d may not take
    todo = [0] * n    # todo[d]: values still to try at position d
    todo[0] = full
    last = n - 1
    d = 0
    while d >= 0:
        m = todo[d]
        if not m:
            d -= 1
            continue
        bit = m & -m
        todo[d] = m ^ bit
        v = bit.bit_length() - 1
        perm[d] = v
        if d == last:
            yield perm
            continue
        f = forb[d]
        for c01, c02, c12, lo_at, hi_at in rules:
            side_v = below[v] if c02 else above[v]
            for j in range(1, d):
                w1 = perm[j]
                if (w1 < v) != c12:
                    continue
                w0s = seen[j] & side_v & (below[w1] if c01 else above[w1])
                if not w0s:
                    continue
                # the widest interval over the candidate w0s wins
                if lo_at == 0:
                    lo = (w0s & -w0s).bit_length() - 1
                else:
                    lo = w1 if lo_at == 1 else v if lo_at == 2 else 0
                if hi_at == 0:
                    hi = w0s.bit_length() - 1
                else:
                    hi = w1 if hi_at == 1 else v if hi_at == 2 else n + 1
                f |= (1 << hi) - (2 << lo)
        s = seen[d] | bit
        d += 1
        seen[d] = s
        forb[d] = f
        todo[d] = full & ~(s | f)


def census_pair(n, pa, pb):
    """Avoiders of both patterns counted by first letter and by (first, second).

    Returns ``(first, pair)``: ``first[i - 1]`` counts the avoiders with first
    letter i, ``pair[i, j]`` those with first letter i and second letter j
    (1-based; row and column 0 stay zero, and so does all of ``pair`` at
    n = 1).  Both are int64 arrays.
    """
    cells = [[0] * (n + 1) for _ in range(n + 1)]
    if n == 1:
        first = [1]
    else:
        for perm in _walk(n, pa, pb):
            cells[perm[0]][perm[1]] += 1
        first = [sum(row) for row in cells[1:]]
    return np.array(first, np.int64), np.array(cells, np.int64)


def fill_avoiders(n, pa, pb, out) -> int:
    """Append every avoider of both patterns to the list `out` as a tuple,
    in lexicographic order; return how many were appended."""
    before = len(out)
    out.extend(tuple(perm) for perm in _walk(n, pa, pb))
    return len(out) - before


def _site_rules(pattern) -> tuple[int, bool, bool, bool]:
    """Where the letter 1 sits in a 4-letter pattern, and the pairwise
    orders of the three other letters, left to right.

    >>> _site_rules((2, 1, 4, 3))
    (1, True, True, False)
    """
    p = [int(x) for x in pattern]
    t = p.index(1)
    q0, q1, q2 = p[:t] + p[t + 1:]
    return t, q0 < q1, q0 < q2, q1 < q2


def _inactive_gaps(perm, n, rules) -> int:
    """Bitmask of the gaps of `perm` where a new minimum creates a pattern.

    A new minimum in gap g (g letters to its left) can only play a
    pattern's letter 1, at index t; the other three letters must form an
    occurrence (i, j, k) of the rest with exactly t of them left of g.  So
    each occurrence blocks one run of gaps, [0, i], [i+1, j], [j+1, k] or
    [k+1, n], and two of its positions fix that run: the third position is
    read off a position mask, lowest or highest bit, as in :func:`_walk`.
    """
    every = (1 << n) - 1
    lt = [0] * (n + 2)                   # lt[x]: positions holding values < x
    where = [0] * (n + 1)
    for pos, x in enumerate(perm):
        where[x] = pos
    for x in range(1, n + 1):
        lt[x + 1] = lt[x] | (1 << where[x])
    gaps = 0
    for t, c01, c02, c12 in rules:
        if t in (0, 2):
            # pairs (i, j); the third letter k comes after j
            for i in range(n - 2):
                w0 = perm[i]
                side0 = every ^ lt[w0 + 1] if c02 else lt[w0]
                for j in range(i + 1, n - 1):
                    w1 = perm[j]
                    if (w0 < w1) != c01:
                        continue
                    k_pos = side0 & (every ^ lt[w1 + 1] if c12 else lt[w1]) & -(2 << j)
                    if k_pos:
                        if t == 0:
                            gaps |= (2 << i) - 1
                        else:
                            gaps |= (1 << k_pos.bit_length()) - (2 << j)
        else:
            # pairs (j, k); the first letter i comes before j
            for j in range(1, n - 1):
                w1 = perm[j]
                side1 = lt[w1] if c01 else every ^ lt[w1 + 1]
                for k in range(j + 1, n):
                    w2 = perm[k]
                    if (w1 < w2) != c12:
                        continue
                    i_pos = side1 & (lt[w2] if c02 else every ^ lt[w2 + 1]) & ((1 << j) - 1)
                    if i_pos:
                        if t == 1:
                            gaps |= (2 << j) - (2 << ((i_pos & -i_pos).bit_length() - 1))
                        else:
                            gaps |= (2 << n) - (2 << k)
    return gaps


def active_census(n, pa, pb):
    """Avoiders counted by (first letter, number of active sites).

    A gap g in 0..n of an avoider is active when lifting every letter by one
    and inserting a new 1 at g still avoids both patterns.  Returns an int64
    array u of shape (n + 1, n + 2) with u[i, j] the number of avoiders with
    first letter i and exactly j active sites; row 0 stays zero.
    """
    rules = (_site_rules(pa), _site_rules(pb))
    u = [[0] * (n + 2) for _ in range(n + 1)]
    for perm in _walk(n, pa, pb):
        sites = n + 1 - _inactive_gaps(perm, n, rules).bit_count()
        u[perm[0]][sites] += 1
    return np.array(u, np.int64)


def inv021_census(n):
    """021-avoiding inversion sequences of length n counted by last entry.

    A sequence e_1..e_n has 0 <= e_t <= t - 1 and no i < j < k with
    e_i < e_k < e_j.  Placing x at position j forbids every later entry in
    the open interval (min of the entries before j, x), so, as in
    :func:`_walk`, a per-depth bitmask of forbidden values (bit x = value x)
    replaces any rescan.  Entry k - 1 of the int64 result counts the
    sequences ending in k when k > 0, and those ending in 0 at k = n.
    """
    res = [0] * n
    forb = [0] * n      # forb[d]: values position d may not take
    low = [0] * n       # low[d]: least entry at positions < d
    todo = [0] * n      # todo[d]: values still to try at position d
    low[0] = n + 1
    todo[0] = 1
    last = n - 1
    d = 0
    while d >= 0:
        m = todo[d]
        if not m:
            d -= 1
            continue
        bit = m & -m
        todo[d] = m ^ bit
        x = bit.bit_length() - 1
        if d == last:
            res[(x or n) - 1] += 1
            continue
        m0 = low[d]
        f = forb[d]
        if m0 + 1 < x:
            f |= (1 << x) - (2 << m0)
        d += 1
        low[d] = m0 if m0 < x else x
        forb[d] = f
        todo[d] = ((2 << d) - 1) & ~f
    return np.array(res, np.int64)
