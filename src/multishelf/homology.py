"""Multi-term distributive homology of a finite distributive set.

Chain group C_d is free abelian on (d+1)-tuples over the carrier, ordered
lexicographically.  The one-term face map for an operation * is

    d_i(x_0..x_d) = (x_0*x_i, ..., x_{i-1}*x_i, x_{i+1}, ..., x_d)

and the differential is the alternating sum over i = 0..d; the multi-term
differential is the integer-weighted sum of one-term differentials.  The
convention is certified mechanically: homology is only reported after the
face maps are checked against the presimplicial identities, which make the
boundary square to zero.  The boundary matrices and that check both read
the faces from one table per operation and degree.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .shelves import DistributiveSet
from .snf import IntMatrix, smith_normal_form
from .tables import OpTable

CONVENTION = "right-multiply-prefix/delete-face, signs (-1)^i, weighted sum"
DEFAULT_MAX_DEGREE = 3
DEFAULT_DIM_BUDGET = 50_000


@dataclass(frozen=True)
class ChainSpec:
    S: DistributiveSet
    weights: tuple[int, ...]
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        if len(self.weights) != len(self.S.ops):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.S.ops)} operations"
            )
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, in divisibility order


def _tuple_index(t: Sequence[int], n: int) -> int:
    """Rank of a tuple in the lexicographic order of X^len(t)."""
    idx = 0
    for v in t:
        idx = idx * n + v
    return idx


def _face_table(op: OpTable, degree: int) -> list[tuple[int, ...]]:
    """Row x lists the lex indices of the faces d_0 .. d_degree of the x-th
    basis tuple of C_degree; face i enters the differential with sign (-1)^i."""
    n, e = op.n, op.entries
    return [
        tuple(
            _tuple_index(tuple(e[x[j]][x[i]] for j in range(i)) + x[i + 1 :], n)
            for i in range(degree + 1)
        )
        for x in itertools.product(range(n), repeat=degree + 1)
    ]


def boundary_matrix(spec: ChainSpec, degree: int) -> IntMatrix:
    """Matrix of the degree-n differential C_n -> C_{n-1}, lex basis order."""
    if not (1 <= degree <= spec.max_degree):
        raise ValueError(f"degree {degree} outside [1, {spec.max_degree}]")
    n = spec.S.n
    cols = n ** (degree + 1)
    data = [{} for _ in range(n**degree)]  # row: {column: value}
    for op, w in zip(spec.S.ops, spec.weights):
        if w:
            for x, faces in enumerate(_face_table(op, degree)):
                for i, face in enumerate(faces):
                    data[face][x] = data[face].get(x, 0) + (-w if i % 2 else w)
    return IntMatrix(len(data), cols, tuple(tuple(sorted(p for p in r.items() if p[1])) for r in data))


def _top_degree(spec: ChainSpec) -> int:
    """Highest chain degree a run builds face tables for; the gate needs C_2."""
    return max(spec.max_degree, 2)


def verify_differential(spec: ChainSpec) -> bool:
    """True iff the face maps of the operations with nonzero weight satisfy
    the presimplicial identities d_i^s d_j^t = d_{j-1}^t d_i^s, i < j, for
    every ordered pair (s, t), s = t included, up to top = max(max_degree, 2).

    Checked on every basis tuple x of C_{d+1}, d = 1..top-1, and every
    0 <= i < j <= d+1 (Przytycki, Demonstratio Math. 2011).  The identities
    make the weighted differential square to zero for every weighting: in
    sum_{s,t} w_s w_t sum_{i,j} (-1)^(i+j) d_i^s d_j^t the term (s, t, i, j)
    with i < j cancels the term (t, s, j-1, i), of opposite sign, and these
    pairs exhaust the sum.  So d_s d_t + d_t d_s = 0 follows, and the check
    is never weaker than that anticommutator.  On C_2 the identities are
    right distributivity of each ordered pair itself, so at every max_degree
    False means exactly that the weighted operations are not distributive.
    """
    ops = [op for op, w in zip(spec.S.ops, spec.weights) if w]
    lower = [_face_table(op, 1) for op in ops]
    for d in range(1, _top_degree(spec)):
        upper = [_face_table(op, d + 1) for op in ops]
        pairs = [(i, j) for j in range(d + 2) for i in range(j)]
        for low_s, up_s in zip(lower, upper):
            for low_t, up_t in zip(lower, upper):
                for fs, ft in zip(up_s, up_t):
                    if any(low_s[ft[j]][i] != low_t[fs[i]][j - 1] for i, j in pairs):
                        return False
        lower = upper
    return True


def homology_groups(
    spec: ChainSpec, dim_budget: int = DEFAULT_DIM_BUDGET
) -> list[HomologyGroup]:
    """H_d = ker d_d / im d_{d+1} for d = 0..max_degree-1, via Smith normal form.

    ``dim_budget`` bounds the rows of every face table and the columns of
    every matrix the run builds; it is checked before any of them is built.
    """
    n = spec.S.n
    cols = n ** (_top_degree(spec) + 1)
    if cols > dim_budget:
        raise ValueError(f"chain dimension {cols} exceeds budget {dim_budget}")
    if not verify_differential(spec):
        raise ValueError(
            "face identities d_i d_j = d_{j-1} d_i fail: the operations are not "
            "distributive; refusing to compute"
        )
    factors = {d: smith_normal_form(boundary_matrix(spec, d)) for d in range(1, spec.max_degree + 1)}
    groups = []
    for d in range(spec.max_degree):
        above = factors[d + 1]
        free_rank = n ** (d + 1) - len(factors.get(d, ())) - len(above)
        groups.append(HomologyGroup(d, free_rank, tuple(f for f in above if f > 1)))
    return groups
