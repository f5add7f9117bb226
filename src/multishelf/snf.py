"""Dense exact-integer matrices and Smith normal form.

Entries are Python ints, so there is no overflow; pivots are chosen by
minimal absolute value to limit coefficient growth.  The matrix is first
diagonalised; the diagonal then becomes the invariant factors by one
gcd/lcm pass, since diag(a, b) and diag(gcd(a, b), lcm(a, b)) are
equivalent over the integers.
"""
from __future__ import annotations

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


def smith_normal_form(M: IntMatrix) -> list[int]:
    """Invariant factors d1 | d2 | ... (positive, nonzero ones only)."""
    a = [list(row) for row in M.data]
    rows, cols = M.rows, M.cols
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
    return factors


def rank(M: IntMatrix) -> int:
    return len(smith_normal_form(M))
