"""Distributive sets of tables and their closure into groups.

A family is distributive when every ordered pair (A, B), A = B included,
satisfies ``(a A b) B c = (a B c) A (b B c)``; that holds iff each column
of B is an endomorphism of A, which is how ``verify_distributive`` checks it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .tables import (
    OpTable,
    compose,
    distributive_witness,
    is_endomorphism,
    noninvertible_column,
    right_trivial,
)

DEFAULT_CLOSURE_BUDGET = 10_000


class DistributivityError(ValueError):
    """A pair of tables in a would-be distributive set fails the identity."""

    def __init__(self, i: int, j: int, triple: tuple[int, int, int]):
        self.pair = (i, j)
        self.triple = triple
        super().__init__(
            f"ops ({i},{j}) violate right distributivity at triple {triple}"
        )


class ClosureBudgetError(RuntimeError):
    """Closure grew past the configured table budget."""


@dataclass(frozen=True)
class DistributiveSet:
    """A family of tables on one carrier, pairwise (including self) distributive."""

    n: int
    ops: tuple[OpTable, ...]


@dataclass(frozen=True)
class ClosureResult:
    ops: tuple[OpTable, ...]
    kind: str  # always "group"
    cayley: tuple[tuple[int, ...], ...]
    abelian: bool

    @property
    def order(self) -> int:
        return len(self.ops)


def make_distributive_set(
    ops: Sequence[OpTable], n: Optional[int] = None
) -> DistributiveSet:
    """Validate all ordered pairs; raises DistributivityError with the witness."""
    if not ops:
        if n is None:
            raise ValueError("carrier size required for an empty family")
        return DistributiveSet(n, ())
    size = ops[0].n
    if n is not None and n != size:
        raise ValueError(f"carrier mismatch: declared {n}, tables have {size}")
    if any(op.n != size for op in ops):
        raise ValueError("all tables must share one carrier")
    w = verify_distributive(ops)
    if w is not None:
        raise DistributivityError(w[0], w[1], w[2:])
    return DistributiveSet(size, tuple(ops))


def verify_distributive(
    ops: Sequence[OpTable],
) -> Optional[tuple[int, int, int, int, int]]:
    """First (i, j, a, b, c), in that order, where ops[i], ops[j] violate
    right distributivity at (a, b, c); None if there is none.

    The pair (A, B) is right-distributive iff every column ``x -> x B c``
    of B is an endomorphism of A (``is_endomorphism``), so each table is
    tested once against each distinct column of the family, taken in order
    of first appearance.  The first column A fails names the least j, and
    ``distributive_witness(ops[i], ops[j])`` gives the least (a, b, c).
    Tables on different carriers raise ValueError at the first such pair
    (0, k), as an ordered-pair scan would.
    """
    size = ops[0].n if ops else 0
    k = next((j for j, op in enumerate(ops) if op.n != size), len(ops))
    first: dict[tuple[int, ...], int] = {}  # column -> least j having it
    for j, op in enumerate(ops[:k]):
        for col in zip(*op.entries):
            first.setdefault(col, j)
    for i, opA in enumerate(ops if k == len(ops) else ops[:1]):
        for col, j in first.items():
            if not is_endomorphism(col, opA):
                return (i, j) + distributive_witness(opA, ops[j])
    if k < len(ops):
        raise ValueError(f"carrier mismatch: {size} vs {ops[k].n}")
    return None


def _close(
    seeds: Sequence[OpTable], n: int, budget: int
) -> tuple[list[OpTable], tuple[tuple[int, ...], ...]]:
    """Breadth-first closure under composition, and its Cayley table.

    Deterministic: elements are discovered in worklist order, seeds first.
    Each ordered pair of members is composed once, and the index of its
    product is recorded as it forms.
    """
    ident = right_trivial(n)
    members: list[OpTable] = [ident]
    index = {ident.entries: 0}
    for op in seeds:
        if op.entries not in index:
            index[op.entries] = len(members)
            members.append(op)

    def add(op: OpTable) -> int:
        k = index.get(op.entries)
        if k is None:
            k = index[op.entries] = len(members)
            members.append(op)
            if len(members) > budget:
                raise ClosureBudgetError(f"closure exceeded budget of {budget} tables")
        return k

    product: dict[tuple[int, int], int] = {}
    done = 0  # members below this index have been combined with everything before `done`
    while done < len(members):
        size = len(members)
        for i in range(size):
            for j in range(size):
                if i < done and j < done:
                    continue
                product[i, j] = add(compose(members[i], members[j]))
        done = size
    k = len(members)
    return members, tuple(tuple(product[i, j] for j in range(k)) for i in range(k))


def close_group(S: DistributiveSet, budget: int = DEFAULT_CLOSURE_BUDGET) -> ClosureResult:
    """Least family containing S closed under composition and inversion.

    Invertible tables form a group under composition (column b of a
    composite is the composite of the two column-b permutations), so the
    finite monoid they generate is already that group: each inverse is a
    power.
    """
    for i, op in enumerate(S.ops):
        y = noninvertible_column(op)
        if y is not None:
            raise ValueError(
                f"member {i} is not invertible: column {y} is not a permutation"
            )
    members, cayley = _close(S.ops, S.n, budget)
    make_distributive_set(members)  # revalidate the closure as a distributive set
    return ClosureResult(tuple(members), "group", cayley, cayley == tuple(zip(*cayley)))
