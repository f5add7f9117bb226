"""Distributive sets of tables and their closure into groups."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .tables import (
    OpTable,
    compose,
    distributive_witness,
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
    """First (i, j, a, b, c) where ops[i], ops[j] violate right
    distributivity at (a, b, c), over all ordered pairs; None if there is none."""
    for i, opA in enumerate(ops):
        for j, opB in enumerate(ops):
            w = distributive_witness(opA, opB)
            if w is not None:
                return (i, j) + w
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
