"""Dense exact-integer matrices and Smith normal form.

Entries are Python ints, so there is no overflow; pivots are chosen by
minimal absolute value to limit coefficient growth.
"""
from __future__ import annotations

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
            if dirty:
                continue
            # divisibility: pivot must divide the rest of the submatrix
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(t, cols):
                a[t][j] += a[bad][j]
        factors.append(abs(a[t][t]))
        t += 1
    return factors


def rank(M: IntMatrix) -> int:
    return len(smith_normal_form(M))
