"""Smith normal form of sparse integer matrices.

A matrix is the dict {row: {column: value}} of its nonzero rows, rows and
columns in increasing order, values Python ints: no overflow, and memory
grows with the nonzeros.  The Smith normal form is a sparse elimination,
after Dumas, Saunders and Villard ("On efficient sparse integer matrix
Smith normal form computations", J. Symbolic Comput. 2001), in one loop
over these rows.

Pivots are taken in a fill-reducing order, column first (Markowitz's rule
with the column count first; Duff, Erisman and Reid, "Direct Methods for
Sparse Matrices"): each pivot has |v| <= bound, it is in the column with
the fewest nonzeros that holds such an entry, and in that column it is on
the shortest row whose entry is within the bound.  A pivot in a column with
k nonzeros on a row with r of them changes at most (k - 1)(r - 1) entries,
so this order keeps fill-in low.  The loop runs in passes.  The first has
bound 1, so it takes the +-1 pivots; each later one has the least |v| over
the rows left.  A pass queues the columns that hold an entry within its
bound in buckets by nonzero count, updated lazily (see _fewest_first), and
ends when they are used up.

A +-1 pivot leaves no remainder: a row's quotient is its entry in the pivot
column times the pivot, with no division, and the pivot row needs no
reduction.  Any other pivot runs Euclid down its column and along its row
until it stands alone (see _eliminate).  Either way the matrix is then
equivalent to diag(p, R) over the integers, and row and column are dropped
with the factor |p|.  Each column keeps a list of the rows that hold it,
whose length is its nonzero count, so the rows of a pivot column are read
off and sorted rather than found by a scan of every remaining row.  Rows
are only ever deleted from ``rows``, so sorted order is the order of that
scan.  Berman ``1,-1`` at degree 5 took 1.0-1.7 s and 60 MB as a whole
process with this index, against 2.8 s and 59 MB with the scan and 1.3 s
and 86 MB with a set per column, and 0.9 s and 53 MB once homology built
the dict rows straight from its face tables (2-vCPU x86-64 VM, Python 3.11).
One gcd/lcm pass turns the diagonal into invariant factors, since
diag(a, b) and diag(gcd(a, b), lcm(a, b)) are equivalent over the integers.

An optional output argument, a set, receives the column of each pivot taken
before the bound first exceeds 1: the +-1 pivots taken before the first
pivot of any other value.  Up to that pivot the elimination has run row
operations only, so with E their product the minor of E.M on the pivot rows
and these columns is triangular with +-1 on its diagonal.

homology.boundary_matrix returns such rows, and homology_groups builds
them straight from its face tables.
"""
from __future__ import annotations

import math
from typing import Collection, Iterator


def smith_normal_form(rows: dict[int, dict[int, int]], cols: int, matched: set[int] | None = None) -> list[int]:
    """Invariant factors d1 | d2 | ... (positive, nonzero ones only) of the
    matrix with ``cols`` columns whose nonzero rows ``rows`` maps to
    {column: value} dicts, both in increasing order (ties between pivots go
    to the first); ``rows`` is consumed.  ``matched``, if given, receives
    the columns of the +-1 pivots described above."""
    rows_of: list[list[int]] = [[] for _ in range(cols)]  # column -> rows holding it
    for i, row in rows.items():
        for j in row:
            rows_of[j].append(i)
    ones = 0
    factors: list[int] = []
    bound = 1  # the largest |v| a pivot may have in this pass
    while rows:
        within = {j for row in rows.values() for j, v in row.items() if abs(v) <= bound}
        for c in _fewest_first(rows_of, within, len(rows)):
            hits = sorted(rows_of[c])
            small = [i for i in hits if abs(rows[i][c]) <= bound]
            if not small:
                continue
            p = min(small, key=lambda i: len(rows[i]))
            pv = _eliminate(rows, rows_of, p, c, hits)
            if pv == 1:
                ones += 1
                if matched is not None:
                    matched.add(c)
            else:
                factors.append(pv)
        bound = min((abs(v) for row in rows.values() for v in row.values()), default=0)
        if bound > 1:
            matched = None  # later units may follow column operations
    # a pass over i < j leaves d_i dividing every later entry
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return [1] * ones + factors


def _fewest_first(rows_of: list[list[int]], cols: Collection[int], size: int) -> Iterator[int]:
    """Yield ``cols`` fewest nonzeros first, as ``rows_of`` changes.

    The columns wait in buckets by count, in column order.  A column whose
    count has grown since it was queued goes to the back of the bucket for
    its current count, one whose count has fallen is yielded where it
    stands, and an empty one is skipped.  No count exceeds ``size``.
    """
    buckets: list[list[int]] = [[] for _ in range(size + 1)]
    for j in sorted(cols):
        buckets[len(rows_of[j])].append(j)
    for level, queue in enumerate(buckets):
        for c in queue:  # columns are only ever appended to later buckets
            k = len(rows_of[c])
            if k > level:
                buckets[k].append(c)
            elif k:
                yield c


def _eliminate(rows: dict[int, dict[int, int]], rows_of: list[list[int]], p: int, c: int, hits: list[int]) -> int:
    """Clear the row and column of the pivot rows[p][c]; return |pivot|.

    ``hits`` lists the rows that hold column c.  A pivot pv clears its
    column: a row's quotient is its entry times pv if pv is +-1, which
    leaves no remainder, and its floor quotient otherwise.  If remainders
    stay, the row holding the least one becomes the pivot (Euclid down the
    column).  Once column c holds pv alone, column operations reduce the
    pivot row mod pv; they touch no other row, because column c is clear
    there, and the least entry left in the row becomes the pivot of its
    column.  Each step makes |pv| smaller, so the loop ends with pv alone in
    its row and column, which are then removed.  ``rows`` and ``rows_of`` are
    updated in place.
    """
    prow = rows[p]
    while True:
        pv = prow.pop(c)
        unit = pv == 1 or pv == -1
        left = []  # rows with a remainder in column c
        for i in hits:
            if i == p:
                continue
            row = rows[i]
            if unit:
                q = row.pop(c) * pv  # pv * pv = 1: no remainder
            else:
                q, r = divmod(row.pop(c), pv)
                if r:
                    row[c] = r
                    left.append(i)
                if not q:
                    continue
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -q * v
                    rows_of[j].append(i)
                else:
                    w -= q * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        rows_of[j].remove(i)
            if not row:
                del rows[i]
        rows_of[c] = left + [p]
        if left:
            prow[c] = pv
            hits = left + [p]
            p = min(left, key=lambda i: abs(rows[i][c]))
            prow = rows[p]
            continue
        if not unit:
            for j, v in list(prow.items()):
                r = v % pv
                if r:
                    prow[j] = r
                else:
                    del prow[j]
                    rows_of[j].remove(p)
            if prow:
                prow[c] = pv
                c = min(prow, key=lambda j: abs(prow[j]))
                hits = sorted(rows_of[c])
                continue
        del rows[p]
        rows_of[c] = []
        for j in prow:
            rows_of[j].remove(p)
        return abs(pv)
