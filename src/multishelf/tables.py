"""Operation tables on a finite carrier {0..n-1}.

The set of all binary operations on a carrier forms a monoid under
``a (op1;op2) b = (a op1 b) op2 b`` whose identity is the right-trivial
operation ``a * b = a``.  Everything here is a pure function over
immutable tables.

Permutations are one-line image tuples and compose left-to-right (apply
the left factor first), so that column y of a composite table is the
composite of the two column-y permutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

Row = tuple[int, ...]
Permutation = tuple[int, ...]


@dataclass(frozen=True)
class OpTable:
    """An n x n table over {0..n-1}; entries[a][b] is a * b."""

    n: int
    entries: tuple[Row, ...]

    def column(self, y: int) -> tuple[int, ...]:
        """The map x -> x * y as a one-line image tuple."""
        return tuple(row[y] for row in self.entries)


def make_table(n: int, entries: Sequence[Sequence[int]]) -> OpTable:
    """Build a validated OpTable; rejects ragged shapes and entries that are
    not integers in range."""
    if n < 1:
        raise ValueError(f"carrier size must be >= 1, got {n}")
    if len(entries) != n:
        raise ValueError(f"expected {n} rows, got {len(entries)}")
    rows = []
    for a, row in enumerate(entries):
        if len(row) != n:
            raise ValueError(f"row {a} has {len(row)} entries, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry {v!r} at ({a},{b}) is not an integer")
            if not (0 <= v < n):
                raise ValueError(f"entry {v} at ({a},{b}) out of range [0,{n})")
        rows.append(tuple(row))
    return OpTable(n, tuple(rows))


def right_trivial(n: int) -> OpTable:
    """The monoid identity: a * b = a."""
    if n < 1:
        raise ValueError(f"carrier size must be >= 1, got {n}")
    return OpTable(n, tuple(tuple(a for _ in range(n)) for a in range(n)))


def compose(op1: OpTable, op2: OpTable) -> OpTable:
    """Monoid composition: result[a][b] = op2[op1[a][b]][b] (op1 applied first)."""
    if op1.n != op2.n:
        raise ValueError(f"carrier mismatch: {op1.n} vs {op2.n}")
    e1, e2 = op1.entries, op2.entries
    return OpTable(
        op1.n,
        tuple(
            tuple(e2[e1[a][b]][b] for b in range(op1.n)) for a in range(op1.n)
        ),
    )


def perm_inverse(p: Permutation) -> Permutation:
    q = [0] * len(p)
    for x, v in enumerate(p):
        q[v] = x
    return tuple(q)


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right: apply p, then q."""
    return tuple([q[v] for v in p])


def noninvertible_column(op: OpTable) -> Optional[int]:
    """Least y whose column x -> x*y is not a bijection of the carrier, or None.

    None means the table is invertible.
    """
    for y in range(op.n):
        if len(set(op.column(y))) != op.n:
            return y
    return None


def invert(op: OpTable) -> OpTable:
    """Composition inverse: each column is the inverse permutation of op's column."""
    y = noninvertible_column(op)
    if y is not None:
        raise ValueError(f"table is not invertible: column {y} is not a permutation")
    cols = [perm_inverse(op.column(y)) for y in range(op.n)]
    return OpTable(op.n, tuple(zip(*cols)))


def is_idempotent(op: OpTable) -> bool:
    """True iff a * a = a for all a."""
    return all(op.entries[a][a] == a for a in range(op.n))


def distributive_witness(opA: OpTable, opB: OpTable) -> Optional[tuple[int, int, int]]:
    """Smallest (a,b,c) violating (a A b) B c = (a B c) A (b B c), or None.

    None means the ordered pair is right-distributive; pass opA = opB for
    self-distributivity.
    """
    if opA.n != opB.n:
        raise ValueError(f"carrier mismatch: {opA.n} vs {opB.n}")
    n = opA.n
    ea, eb = opA.entries, opB.entries
    for a in range(n):
        ra = ea[a]
        rba = eb[a]
        for b in range(n):
            ab = ra[b]
            rbb = eb[b]
            for c in range(n):
                if eb[ab][c] != ea[rba[c]][rbb[c]]:
                    return (a, b, c)
    return None


def is_endomorphism(s: Sequence[int], op: OpTable) -> bool:
    """True iff the map s (a one-line image tuple) satisfies
    ``s(a * b) = s(a) * s(b)`` for all a, b; s need not be a bijection.

    Column c of a table B is such a map for op = A exactly when
    ``(a A b) B c = (a B c) A (b B c)`` for all a, b.  Compared row by row,
    stopping at the first row that differs.
    """
    e = op.entries
    for row, x in zip(e, s):
        ex = e[x]
        if [s[v] for v in row] != [ex[t] for t in s]:
            return False
    return True


def commutes(opA: OpTable, opB: OpTable) -> bool:
    """True iff the two tables commute in the composition monoid:
    ``B[A[a][b]][b] == A[B[a][b]][b]`` for all a, b, compared entry by entry
    up to the first mismatch."""
    if opA.n != opB.n:
        raise ValueError(f"carrier mismatch: {opA.n} vs {opB.n}")
    eA, eB = opA.entries, opB.entries
    columns = range(opA.n)
    for ra, rb in zip(eA, eB):
        for b in columns:
            if eB[ra[b]][b] != eA[rb[b]][b]:
                return False
    return True


def relabel(op: OpTable, pi: Sequence[int]) -> OpTable:
    """Conjugate the table by a carrier bijection: a*b -> pi(pi^-1(a) * pi^-1(b))."""
    n = op.n
    if len(pi) != n or sorted(pi) != list(range(n)):
        raise ValueError("relabeling must be a permutation of the carrier")
    pi_inv = perm_inverse(pi)
    rows = [op.entries[x] for x in pi_inv]
    return OpTable(n, tuple([tuple([pi[row[y]] for y in pi_inv]) for row in rows]))
