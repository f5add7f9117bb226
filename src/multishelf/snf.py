"""Exact-integer matrices and Smith normal form.

Matrices keep each row's nonzero (column, value) pairs in column order, as
Python ints: no overflow, and memory grows with the nonzeros.  The Smith
normal form is a sparse elimination, after Dumas, Saunders and Villard ("On
efficient sparse integer matrix Smith normal form computations", J. Symbolic
Comput. 2001), in two phases over the same {column: value} dict rows.

The first phase takes +-1 pivots in a fill-reducing order, column first
(Markowitz's rule with the column count first; Duff, Erisman and Reid,
"Direct Methods for Sparse Matrices"): each pivot is in the column with the
fewest nonzeros, and in that column it is the shortest row holding +-1.  The
columns that hold a +-1 when the phase starts wait in buckets by nonzero
count, updated lazily (see _unit_pivots); the phase ends once no +-1 entry
is left, or no queued column holds one.  A +-1 pivot leaves no remainder: a
row's quotient is its entry in the pivot column times the pivot, with no
division, and the pivot row needs no reduction, so row and column are
dropped with the factor 1.  A pivot in a column with k nonzeros on a row
with r of them changes at most (k - 1)(r - 1) entries, so this order keeps
fill-in low.

The second phase takes what is left.  Rows come off a heap shortest first.
A row is a pivot candidate if it has an entry with |v| <= bound, and pivots
on such an entry in the column with the fewest nonzeros.  Whenever the heap
is empty with rows left, every row is queued and the bound becomes the
least |v| over them.  A pivot p in column c clears its column with floor
quotients; if remainders stay, the row holding the least one becomes the
pivot (Euclid down the column).  Once column c holds p alone, column
operations reduce the pivot row mod p; they touch no other row, because
column c is clear there, and a remainder left in the row becomes the pivot
of its column.  Each step makes |p| smaller, so the step ends with p alone
in its row and column, and the matrix is equivalent to diag(p, R) over the
integers: row and column are dropped with the factor |p|.  A +-1 pivot
here, one the first phase left or one Euclid made, takes the same
division-free path.

Both phases keep the columns' nonzero counts in a list indexed by column,
and find the rows of a pivot column by a scan of the remaining rows: on the
Berman boundary matrices that is faster than a column-to-rows index and
raises peak memory less.  One gcd/lcm pass turns the diagonal into
invariant factors, since diag(a, b) and diag(gcd(a, b), lcm(a, b)) are
equivalent over the integers.

An optional output argument, a set, receives the column of each +-1 pivot
taken before the first pivot of any other value.  Up to that pivot the
elimination has run row operations only, so with E their product the minor
of E.M on the pivot rows and these columns is triangular with +-1 on its
diagonal.  The optional ``drop`` holds rows of M to leave out: the SNF is
that of M without them, and M itself is neither copied nor checked again.
homology_groups passes the set one degree fills as the next degree's drop.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Collection, Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple[tuple[tuple[int, int], ...], ...]  # row i: its (column, value) nonzeros

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError(f"{len(self.data)} rows stored, {self.rows} declared")
        for i, row in enumerate(self.data):
            last = -1
            for entry in row:
                try:
                    j, v = entry
                except (TypeError, ValueError):
                    raise ValueError(f"row {i}: {entry!r} is not a (column, value) pair") from None
                if type(j) is not int or type(v) is not int:
                    raise ValueError(f"row {i}: ({j!r}, {v!r}) is not a pair of ints")
                if not (last < j < self.cols and v):
                    raise ValueError(f"row {i}: ({j}, {v}) is zero, unsorted or out of range")
                last = j


def integer(v: object, where: str) -> int:
    """``operator.index(v)``, so numpy integers pass; a bool raises like any non-integer."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise ValueError(f"{where}: {v!r} is not an integer")
    return operator.index(v)


def int_matrix(data: Sequence[Sequence[int]]) -> IntMatrix:
    cols = len(data[0]) if data else 0
    if any(len(r) != cols for r in data):
        raise ValueError(f"ragged rows: expected {cols} entries in each")
    rows = [[integer(v, f"entry ({i},{j})") for j, v in enumerate(r)] for i, r in enumerate(data)]
    return IntMatrix(len(rows), cols, tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows))


def smith_normal_form(
    M: IntMatrix, matched: set[int] | None = None, drop: Collection[int] = ()
) -> list[int]:
    """Invariant factors d1 | d2 | ... (positive, nonzero ones only) of M
    without the rows in ``drop``.

    ``matched``, if given, receives the column of each +-1 pivot taken
    before the first pivot of any other value.  The kept rows keep their
    indices and their order, so pivots, factors and ``matched`` are those of
    the submatrix of the kept rows.
    """
    rows = {i: dict(r) for i, r in enumerate(M.data) if r and i not in drop}
    count = [0] * M.cols  # nonzeros per column
    for row in rows.values():
        for j in row:
            count[j] += 1
    ones = _unit_pivots(rows, count, matched)
    heap: list[tuple[int, int]] = []  # (length, row), filled below
    factors: list[int] = []
    while rows:
        if not heap:
            # the largest |v| a pivot may have: 1 while units remain
            bound = min(abs(v) for row in rows.values() for v in row.values())
            heap = [(len(row), i) for i, row in rows.items()]
            heapq.heapify(heap)
        length, p = heapq.heappop(heap)
        prow = rows.get(p)
        if prow is None or len(prow) != length:
            continue  # dropped, or queued again with its new length
        small = [j for j, v in prow.items() if -bound <= v <= bound]
        if not small:
            continue  # queued again if an update changes it
        c = min(zip(map(count.__getitem__, small), small))[1]
        while True:
            pv = prow.pop(c)
            unit = pv == 1 or pv == -1
            if not unit:
                matched = None  # later units may follow column operations
            left = []  # rows with a remainder in column c
            for i in [i for i, row in rows.items() if c in row]:
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
                    w = row.get(j, 0) - q * v
                    if w:
                        if j not in row:
                            count[j] += 1
                        row[j] = w
                    else:
                        del row[j]
                        count[j] -= 1
                if row:
                    heapq.heappush(heap, (len(row), i))
                else:
                    del rows[i]
            count[c] = 1 + len(left)
            if left:
                prow[c] = pv
                heapq.heappush(heap, (len(prow), p))
                p = min(left, key=lambda i: abs(rows[i][c]))
                prow = rows[p]
                continue
            if unit:
                ones += 1
                if matched is not None:
                    matched.add(c)
            else:
                for j, v in list(prow.items()):
                    r = v % pv
                    if r:
                        prow[j] = r
                    else:
                        del prow[j]
                        count[j] -= 1
                if prow:
                    prow[c] = pv
                    c = min(prow, key=lambda j: abs(prow[j]))
                    continue
                factors.append(abs(pv))
            del rows[p]
            count[c] = 0
            for j in prow:
                count[j] -= 1
            break
    # a pass over i < j leaves d_i dividing every later entry
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return [1] * ones + factors


def _unit_pivots(rows: dict[int, dict[int, int]], count: list[int], matched: set[int] | None) -> int:
    """Take +-1 pivots column first; return how many.

    Each pivot is in the column with the fewest nonzeros, and in that column
    it is the shortest row that holds +-1.  The columns that hold a +-1 at
    the start wait in buckets by their count, in column order, updated
    lazily: a popped column whose count has grown goes to the back of the
    bucket for its current count, and one whose count has fallen is taken
    where it stands.  A popped column with no +-1 is dropped; the first one
    after each pivot starts a look over the rows, and the phase ends when it
    finds no +-1.  A +-1 that lands in a dropped column is left to the heap.
    ``rows`` and ``count`` are updated in place, and ``matched``, if given,
    receives each pivot's column.
    """
    cols = {j for row in rows.values() for j, v in row.items() if v == 1 or v == -1}
    buckets: list[list[int]] = [[] for _ in range(len(rows) + 1)]
    for j in sorted(cols):
        buckets[count[j]].append(j)
    ones = 0
    seen = False  # a +-1 is known to remain since the last pivot
    for level, queue in enumerate(buckets):
        for c in queue:  # columns are only ever appended to later buckets
            k = count[c]
            if k > level:
                buckets[k].append(c)
                continue
            if not k:
                continue  # pivoted or emptied
            hits = [i for i, row in rows.items() if c in row]
            units = [i for i in hits if rows[i][c] in (1, -1)]
            if not units:
                if not seen:
                    if not any(v == 1 or v == -1 for row in rows.values() for v in row.values()):
                        return ones
                    seen = True
                continue
            p = min(units, key=lambda i: len(rows[i]))
            prow = rows.pop(p)
            pv = prow.pop(c)
            for i in hits:
                if i == p:
                    continue
                row = rows[i]
                q = row.pop(c) * pv  # pv * pv = 1: no remainder
                for j, v in prow.items():
                    w = row.get(j)
                    if w is None:
                        row[j] = -q * v
                        count[j] += 1
                    else:
                        w -= q * v
                        if w:
                            row[j] = w
                        else:
                            del row[j]
                            count[j] -= 1
                if not row:
                    del rows[i]
            count[c] = 0
            for j in prow:
                count[j] -= 1
            ones += 1
            if matched is not None:
                matched.add(c)
            if not rows:
                return ones
            seen = False
    return ones
