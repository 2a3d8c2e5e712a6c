"""Enumeration kernels: a prefix walk over pattern avoiders and its consumers,
and a counter over collapsed prefix states behind :func:`census_pair`.

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
forbidden ones, so no child that contains a pattern is ever made.  Every
unused value must be placed later and forbidden sets only grow, so once an
unused value is forbidden no leaf lies below the prefix: the walk drops
such a dead prefix at once, and places the last value directly.
:func:`fill_avoiders` and :func:`active_census` consume the walk.

:func:`census_pair` counts without visiting leaves.  Below a live prefix
nothing is forbidden that is still unused, so what can follow depends only
on where the prefix's letters fall among the k unused values u_0 < ... <
u_{k-1}: which of the k + 1 gaps between them hold letters, and, for each
pattern, which gap pairs (g0, g1) hold an occurrence (w0, w1) of its first
two letters (their order is fixed when the pair is made).  Placing u_i
completes a triple with every such pair on the right sides of gap i, and
the triple's interval (the same :func:`_rules` as the walk's) holds
another unused value or not by gap indices alone; if none does, gaps i and
i + 1 merge.  So the number of completions is a function of this state and
is memoised on it, as in the enumeration schemes of D. Zeilberger (Ann.
Comb. 2, 1998) and V. Vatter (Combin. Probab. Comput. 17, 2008).  The
counter reuses :func:`_rules` and the forbidden-interval argument, so
checking it against the walk tests the code of each, not that argument;
the independent anchors stay the brute-force oracle of the kernel tests,
the insertion-of-maximum enumerator of ``perfbench/oracle.py`` and, for
the nine triangle pairs, the Schroeder-triangle recurrence.

The public kernels keep the positional ``(n, pa, pb[, out])`` signature and
need n >= 1.
"""

from __future__ import annotations

import numpy as np

#: The kernels have one backend, plain Python; the flag stays for readers of
#: the benchmark reports, which record which backend ran.
NUMBA_ENABLED = False


def _rules(pattern) -> tuple[bool, bool, bool, int, int]:
    """How one 4-letter pattern constrains a growing prefix.

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
    if n == 1:
        yield [1]
        return
    rules = (_rules(pa), _rules(pb))
    full = (2 << n) - 2                                    # values 1..n
    below = [(1 << x) - 2 for x in range(n + 1)]           # values 1..x-1
    above = [full & -(2 << x) for x in range(n + 1)]       # values x+1..n
    perm = [0] * n
    seen = [0] * n    # seen[d]: values at positions < d
    forb = [0] * n    # forb[d]: values position d may not take
    todo = [0] * n    # todo[d]: values still to try at position d
    todo[0] = full
    close = n - 2     # the depth whose child is the last letter
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
        rest = full & ~s
        if f & rest:
            continue          # an unused value is forbidden: a dead prefix
        if d == close:
            perm[d + 1] = rest.bit_length() - 1
            yield perm
            continue
        d += 1
        seen[d] = s
        forb[d] = f
        todo[d] = rest


def _dead_pairs(rule, n):
    """``dead[k][i]``: the packed gap pairs (g0, g1) whose occurrences of the
    pattern's first two letters kill a live prefix with k unused values when
    the i-th smallest of them (0-based) is placed next.

    Bit ``g1 * (n + 1) + g0`` stands for an occurrence (w0, w1) with w0 in
    gap g0 and w1 in gap g1.  Placing v = u_i completes a triple when w1 and
    v are in the pattern's order (g1 <= i exactly when w1 < v) and so are w0
    and v; the triple forbids an open interval, and the prefix is dead when
    some unused u_j, j != i, lies inside it.  An end w in gap g has the u_j
    with j >= g above it and those with j <= g - 1 below it; the end v has
    j >= i + 1 above and j <= i - 1 below; the edges bound nothing.
    """
    c01, c02, c12, lo_at, hi_at = rule
    stride = n + 1
    dead = [[0] * k for k in range(n + 1)]
    for k in range(1, n + 1):
        gaps = (2 << k) - 1
        for i in range(k):
            low = (2 << i) - 1                          # gaps below u_i
            side0 = low if c02 else gaps ^ low
            mask = 0
            for g1 in range(i + 1) if c12 else range(i + 1, k + 1):
                # the u_j inside the interval are those with first <= j <= last;
                # an end at w0 moves with g0, so it becomes a range of g0
                first = g1 if lo_at == 1 else i + 1 if lo_at == 2 else 0
                last = g1 - 1 if hi_at == 1 else i - 1 if hi_at == 2 else k - 1
                if lo_at == 0:
                    g0s = (2 << last) - 1 if last >= 0 else 0     # g0 <= last
                elif hi_at == 0:
                    g0s = -(2 << first)                           # g0 > first
                else:
                    g0s = -1 if first <= last else 0
                mask |= (g0s & side0) << (g1 * stride)
            dead[k][i] = mask
    return dead


class _StateCounter:
    """The memoised count behind :func:`census_pair`, for one pattern pair
    and one n; the memo lives as long as the object.

    A state with k unused values u_0 < ... < u_{k-1} is ``occ``, bit g set
    when gap g (the used values between u_{g-1} and u_g) holds a letter, and
    per pattern the gap pairs of :func:`_dead_pairs`, packed one row of
    n + 1 bits per gap g1.
    """

    def __init__(self, n, pa, pb):
        rules = (_rules(pa), _rules(pb))
        self.dead_a, self.dead_b = (_dead_pairs(rule, n) for rule in rules)
        (self.c01_a, *_), (self.c01_b, *_) = rules
        self.stride = stride = n + 1
        rep = sum(1 << (g * stride) for g in range(stride))   # bit 0 of each row
        # placing u_i keeps bits 0..i of each row and shifts the bits above
        # it down by one; keep_high drops what the shift spills from the next row
        self.keep_low = [rep * ((2 << i) - 1) for i in range(n)]
        self.keep_high = [rep * ((1 << (stride - i - 1)) - 1) for i in range(n)]
        self.keep_rows = [(1 << ((i + 1) * stride)) - 1 for i in range(n)]
        self.memo = {}

    def place(self, k, occ, pairs_a, pairs_b, i):
        """The state after placing u_i, or None if the prefix dies.

        Placing u_i is refused when a pair in ``_dead_pairs(rule, n)[k][i]``
        is present; otherwise gaps i and i + 1 merge (in ``occ``, in every
        row, and rows i and i + 1), and v = u_i, now in gap i, adds a pair
        with each earlier letter on the side the pattern asks for.
        """
        if pairs_a & self.dead_a[k][i] or pairs_b & self.dead_b[k][i]:
            return None
        low = (2 << i) - 1
        below = occ & low                          # letters below v, gaps 0..i
        above = ((occ & ~low) >> (i + 1)) << i     # letters above v, merged
        out = [below | above | (1 << i)]
        kl, kh, kr = self.keep_low[i], self.keep_high[i], self.keep_rows[i]
        row_i = i * self.stride
        for pairs, c01 in ((pairs_a, self.c01_a), (pairs_b, self.c01_b)):
            pairs = (pairs & kl) | (((pairs >> (i + 1)) & kh) << i)
            pairs = (pairs & kr) | ((pairs >> (row_i + self.stride)) << row_i)
            out.append(pairs | ((below if c01 else above) << row_i))
        return out

    def count(self, k, occ, pairs_a, pairs_b):
        """Ways to place the k unused values of this state."""
        if not k:
            return 1
        stride = self.stride
        key = ((((pairs_a << (stride * stride)) | pairs_b) << stride | occ) << stride) | k
        got = self.memo.get(key)
        if got is None:
            got = 0
            for i in range(k):
                nxt = self.place(k, occ, pairs_a, pairs_b, i)
                if nxt is not None:
                    got += self.count(k - 1, *nxt)
            self.memo[key] = got
        return got


def census_pair(n, pa, pb):
    """Avoiders of both patterns counted by first letter and by (first, second).

    Returns ``(first, pair)``: ``first[i - 1]`` counts the avoiders with first
    letter i, ``pair[i, j]`` those with first letter i and second letter j
    (1-based; row and column 0 stay zero, and so does all of ``pair`` at
    n = 1).  Both are int64 arrays.

    The count visits no leaf.  It branches on the first two letters, and
    below them counts the completions of each collapsed state (see the
    module docstring) once, memoised in a :class:`_StateCounter` that lives
    for this call only.
    """
    cells = [[0] * (n + 1) for _ in range(n + 1)]
    if n == 1:
        return np.array([1], np.int64), np.array(cells, np.int64)
    counter = _StateCounter(n, pa, pb)
    for a in range(n):
        state = counter.place(n, 0, 0, 0, a)
        for b in range(n - 1):
            nxt = counter.place(n - 1, *state, b)
            if nxt is not None:
                # the second letter is the (b + 1)-th smallest value but a + 1
                cells[a + 1][b + 1 + (b >= a)] = counter.count(n - 2, *nxt)
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
