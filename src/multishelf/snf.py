"""Exact-integer matrices and Smith normal form.

Matrices keep dense rows of Python ints, so there is no overflow.  The Smith
normal form works in two stages, after Dumas, Saunders and Villard ("On
efficient sparse integer matrix Smith normal form computations", J. Symbolic
Comput. 2001):

1. Unit pivots, sparsely.  Each nonzero row becomes a {column: value} dict.
   While a +-1 entry remains, the shortest row holding one pivots on its
   unit entry in the column with the fewest nonzeros: every other row in
   that column subtracts a multiple of the pivot row, then the pivot row and
   column are dropped with an invariant factor 1.  This is exact: once its
   column is clear, the pivot row is cleared by column operations that touch
   no other row, so the matrix is equivalent to diag(1, R) over the integers.
   Columns keep only their nonzero counts, and a scan of the remaining rows
   finds the rows of the pivot column: on the Berman boundary matrices that
   is faster than a column-to-rows index and raises peak memory less.
2. The residual R, packed densely on the columns it touches, is diagonalised
   with pivots of minimal absolute value to limit coefficient growth; the
   diagonal then becomes the invariant factors by one gcd/lcm pass, since
   diag(a, b) and diag(gcd(a, b), lcm(a, b)) are equivalent over the
   integers.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("data shape does not match declared dimensions")


def int_matrix(data: Sequence[Sequence[int]]) -> IntMatrix:
    cols = len(data[0]) if data else 0
    return IntMatrix(len(data), cols, tuple(tuple(int(v) for v in row) for row in data))


def _eliminate_unit_pivots(M: IntMatrix) -> tuple[int, list[dict[int, int]]]:
    """Pivot on +-1 entries until none is left.  Returns the number of pivots
    and the remaining nonzero rows as {column: value} dicts."""
    rows = {}
    keys = list(range(M.cols))  # shared ints; enumerate would make one per entry
    for i, r in enumerate(M.data):
        row = {j: v for j, v in zip(keys, r) if v}
        if row:
            rows[i] = row
    count: dict[int, int] = {}  # nonzeros per column
    for row in rows.values():
        for j in row:
            count[j] = count.get(j, 0) + 1
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    ones = 0
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows.get(p)
        if prow is None or len(prow) != length:
            continue  # dropped, or queued again with its new length
        units = [j for j, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue  # queued again if an update changes it
        c = min(units, key=lambda j: (count[j], j))
        del rows[p]
        pv = prow.pop(c)
        del count[c]
        for j in prow:
            count[j] -= 1
        for i in [i for i, row in rows.items() if c in row]:
            row = rows[i]
            f = row.pop(c) * pv  # the multiple row[c] / pv, as pv = +-1
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
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
        ones += 1
    return ones, list(rows.values())


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Invariant factors d1 | d2 | ... (positive, nonzero ones only)."""
    ones, residual = _eliminate_unit_pivots(M)
    touched = sorted({j for row in residual for j in row})
    a = [[row.get(j, 0) for j in touched] for row in residual]
    rows, cols = len(a), len(touched)
    factors: list[int] = []
    t = 0
    while t < min(rows, cols):
        # minimal-absolute-value nonzero pivot in the trailing submatrix
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (piv is None or abs(v) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]

        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                if a[i][t] != 0:
                    # remainder smaller than pivot: swap it up and restart
                    a[t], a[i] = a[i], a[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                if a[t][j] != 0:
                    for i in range(t, rows):
                        a[i][t], a[i][j] = a[i][j], a[i][t]
                    dirty = True
                    break
            if not dirty:
                break
        factors.append(abs(a[t][t]))
        t += 1
    # a pass over i < j leaves d_i dividing every later entry
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return [1] * ones + factors


def rank(M: IntMatrix) -> int:
    return len(smith_normal_form(M))
