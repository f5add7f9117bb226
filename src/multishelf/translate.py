"""Translation between invertible tables and tuples of column permutations.

An invertible table on n points corresponds to the n-tuple of its column
maps (sigma_y(x) = x * y).  Under the left-to-right product of
``tables.perm_compose`` the translation preserves table composition.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .tables import OpTable, Permutation, noninvertible_column


def alpha(op: OpTable) -> tuple[Permutation, ...]:
    """Column permutations of an invertible table; entry y is x -> x * y."""
    y = noninvertible_column(op)
    if y is not None:
        raise ValueError(
            f"alpha requires an invertible table: column {y} is not a permutation"
        )
    return tuple(op.column(y) for y in range(op.n))


def alpha_inverse(cols: Sequence[Permutation]) -> OpTable:
    """Rebuild the table whose column y is cols[y]; inverse of alpha."""
    return OpTable(len(cols), tuple(zip(*cols)))


def conjugation_condition(
    vi: Sequence[Permutation], vj: Sequence[Permutation]
) -> Optional[tuple[int, int]]:
    """Smallest (y,z) violating sigma_i,sigma_jz(y) = sigma_jz sigma_iy sigma_jz^-1.

    None iff for all x,y,z: sigma_jz(sigma_iy(x)) = sigma_i,sigma_jz(y)(sigma_jz(x)),
    the permutation form of right distributivity of (op_i, op_j).
    """
    if len(vi) != len(vj):
        raise ValueError(f"size mismatch: {len(vi)} vs {len(vj)}")
    n = len(vi)
    for y in range(n):
        siy = vi[y]
        for z in range(n):
            sjz = vj[z]
            target = vi[sjz[y]]
            if any(target[sjz[x]] != sjz[siy[x]] for x in range(n)):
                return (y, z)
    return None
