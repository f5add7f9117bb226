"""Multi-term distributive homology of a finite distributive set.

Chain group C_d is free abelian on (d+1)-tuples over the carrier, ordered
lexicographically.  The one-term face map for an operation * is

    d_i(x_0..x_d) = (x_0*x_i, ..., x_{i-1}*x_i, x_{i+1}, ..., x_d)

and the differential is the alternating sum over i = 0..d; the multi-term
differential is the integer-weighted sum of one-term differentials.  The
convention is certified mechanically: homology is only reported after the
face maps are checked against the presimplicial identities, which make the
boundary square to zero.  A run builds the face tables of each operation
with nonzero weight once, for every degree at the same time, by an integer
recurrence on the lex index, once the operation's entries are checked to be
ints in [0, n); that check and the boundary matrices share them.
The face d_0 drops x_0 and reads no table, so it is one map for every
operation: a boundary matrix enters it once, weighted by the weight sum.

Before each Smith normal form the complex is reduced by elementary
reductions (Kaczynski, Mrozek and Slusarek, "Homology computation by
reduction of chain complexes", Comput. Math. Appl. 35 (1998)), with pivots
the previous degree's SNF already took.  Let P be the columns of d_{k-1}
that its SNF pivots on with +-1 before any other pivot, and E its row
operations up to then: the minor U = (E d_{k-1})[R, P] on the pivot rows R
is triangular with +-1 on its diagonal, so unimodular.  Since
d_{k-1} d_k = 0, U d_k[P] = -(E d_{k-1})[R, not P] d_k[not P]: the rows P
of d_k are integer combinations of its other rows, and deleting them leaves
its invariant factors unchanged.

Each degree is built once, from the face tables straight into the dict
rows that snf.smith_normal_form eliminates, without the rows P (with
weights such as 2,5 no matrix has a +-1 entry, so P is empty).  They need
no check: columns come from a range, values are sums of int weights, and
zeros are skipped.
"""
from __future__ import annotations

from itertools import chain
from operator import index, itemgetter
from typing import Collection, NamedTuple, Sequence

from .shelves import DistributiveSet
from .snf import smith_normal_form
from .tables import OpTable

CONVENTION = "right-multiply-prefix/delete-face, signs (-1)^i, weighted sum"
DEFAULT_MAX_DEGREE = 3
DEFAULT_DIM_BUDGET = 50_000

FaceTables = list[list[list[int]]]  # [degree][face i - 1][basis tuple x] -> lex index of d_i x


class DimensionBudgetError(ValueError):
    """A run would build chains of more dimensions than its budget allows."""


def integer(v: object, where: str) -> int:
    """``operator.index(v)``, so numpy integers pass; a bool raises like any non-integer."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise ValueError(f"{where}: {v!r} is not an integer")
    return index(v)


class ChainSpec(NamedTuple("ChainSpec", [("S", DistributiveSet), ("weights", tuple), ("max_degree", int)])):
    """Weights and a top degree for the homology of ``S``, checked on every construction."""

    __slots__ = ()

    def __new__(cls, S: DistributiveSet, weights: Sequence[int], max_degree: int = DEFAULT_MAX_DEGREE):
        if len(weights) != len(S.ops):
            raise ValueError(f"{len(weights)} weights for {len(S.ops)} operations")
        # exact ints, so matrix entries are too: a weight may be a numpy integer
        weights = tuple(integer(w, f"weight {k}") for k, w in enumerate(weights))
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        return super().__new__(cls, S, weights, max_degree)

    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's _make skips __new__; _replace calls it


class HomologyGroup(NamedTuple):
    degree: int
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, in divisibility order


def _face_tables(op: OpTable, top: int) -> FaceTables:
    """Face tables of op in degrees 0..top: tables[d][i - 1][x] is the lex
    index of the face d_i, i = 1..d, of the x-th basis tuple of C_d, which
    enters the differential with sign (-1)^i; face 0 reads no table.

    Built by the recurrence x = (y, v), index(x) = index(y) * n + v.  For
    0 < i < d the face d_i x = (d_i y, v) has index (d_i y) * n + v; the last
    face d_d x = y * v, acted on componentwise, has index act[v][y], and
    act[v][(y, u)] = act[v][y] * n + u * v.  Each index k * n + c is read as
    children[k][c], so the tables of one degree share their int objects.
    """
    n, e = op.n, op.entries
    xs = range(n)
    cols = [[e[u][v] for u in xs] for v in xs]  # cols[v][u] = u * v
    act = [[0] for _ in xs]  # act[v][y] = index of y * v; C_{-1} holds the empty tuple
    table: list[list[int]] = []
    tables = [table]
    for d in range(1, top + 1):
        children = [tuple(range(k * n, k * n + n)) for k in range(n ** (d - 1))]
        act = [[children[k][c] for k in act_v for c in col] for act_v, col in zip(act, cols)]
        table = [list(chain.from_iterable(map(children.__getitem__, face))) for face in table]
        table.append(list(chain.from_iterable(zip(*act))))
        tables.append(table)
    return tables


def _weighted_face_tables(spec: ChainSpec, top: int) -> list[FaceTables]:
    """_face_tables(op, top) of each operation with nonzero weight, in order.
    The tables index by the operation's entries, so each must be an int in
    [0, n)."""
    n = spec.S.n
    for k, (op, w) in enumerate(zip(spec.S.ops, spec.weights)):
        bad = [v for v in chain.from_iterable(op.entries) if type(v) is not int or not 0 <= v < n]
        if w and bad:
            raise ValueError(f"operation {k}: entry {bad[0]!r} is not an int in [0, {n})")
    return [_face_tables(op, top) for op, w in zip(spec.S.ops, spec.weights) if w]


def boundary_matrix(spec: ChainSpec, degree: int) -> dict:
    """Matrix of the degree-n differential C_n -> C_{n-1}, lex basis order,
    with n**(degree+1) columns: the rows _boundary_rows builds, none
    dropped, as snf.smith_normal_form takes them."""
    if not (1 <= degree <= spec.max_degree):
        raise ValueError(f"degree {degree} outside [1, {spec.max_degree}]")
    return _boundary_rows(spec, degree, _weighted_face_tables(spec, degree))


def _boundary_rows(spec: ChainSpec, degree: int, faces: list[FaceTables], drop: Collection[int] = ()) -> dict:
    """The nonzero rows of the degree-n differential not in ``drop``, as
    {row: {column: value}}.  Column x collects the signed faces of the x-th
    basis tuple, in increasing x, so rows and dicts are in increasing order.
    Face 0 enters once, with weight sum(spec.weights), and not at all when
    that sum is 0.
    """
    n = spec.S.n
    signs = [-w if i % 2 else w for w in spec.weights if w for i in range(1, degree + 1)]
    columns = [face for tables in faces for face in tables[degree]]
    if w0 := sum(spec.weights):  # face 0: index x mod n**degree
        signs.append(w0)
        columns.append([*range(n**degree)] * n)
    data = [None if i in drop else {} for i in range(n**degree)]
    for x, xfaces in enumerate(zip(*columns)):
        entries = {}
        for face, sign in zip(xfaces, signs):
            entries[face] = entries.get(face, 0) + sign
        for face, v in entries.items():
            if v and (row := data[face]) is not None:
                row[x] = v
    return {i: row for i, row in enumerate(data) if row}


def _top_degree(spec: ChainSpec) -> int:
    """Highest chain degree a run builds face tables for; the gate needs C_2."""
    return max(spec.max_degree, 2)


def verify_differential(spec: ChainSpec, faces: list[FaceTables] | None = None) -> bool:
    """True iff the face maps of the operations with nonzero weight satisfy
    the presimplicial identities d_i^s d_j^t = d_{j-1}^t d_i^s, i < j, for
    every ordered pair (s, t), s = t included, up to top = max(max_degree, 2).

    Checked on every basis tuple x of C_{d+1}, d = 1..top-1, and every
    1 <= i < j <= d+1 (Przytycki, Demonstratio Math. 2011), one identity at
    a time over all x, each side one itemgetter gather of a degree-d face
    table by a degree-(d+1) one.  The identities with i = 0 hold for every
    pair of operations, so they are not compared: d_0 drops x_0 and reads no
    table entry, so d_0^s d_j^t x and d_{j-1}^t d_0^s x are both
    (x_1*x_j, ..., x_{j-1}*x_j, x_{j+1}, ...), with * the operation t.
    The identities make the weighted differential square to zero for every
    weighting: in sum_{s,t} w_s w_t sum_{i,j} (-1)^(i+j) d_i^s d_j^t the
    term (s, t, i, j) with i < j cancels the term (t, s, j-1, i), of
    opposite sign, and these pairs exhaust the sum.  So
    d_s d_t + d_t d_s = 0 follows, and the check is never weaker than that
    anticommutator.  On C_2 the identities are right distributivity of each
    ordered pair itself, so at every max_degree False means exactly that
    the weighted operations are not distributive.

    ``faces`` holds the face tables of the weighted operations through
    degree top, as homology_groups shares them; left out, they are built here.
    """
    top = _top_degree(spec)
    if faces is None:
        faces = _weighted_face_tables(spec, top)
    if not spec.S.n:
        return True  # every chain group is 0, and itemgetter() takes no empty face
    for d in range(1, top):
        gathers = [[itemgetter(*face) for face in tables[d + 1]] for tables in faces]
        for s, up_s in zip(faces, gathers):
            low_s = s[d]
            for t, up_t in zip(faces, gathers):
                low_t = t[d]
                for j in range(1, d + 1):  # index k holds the face d_{k+1}
                    for i in range(j):
                        if up_t[j](low_s[i]) != up_s[i](low_t[j - 1]):
                            return False
    return True


def homology_groups(
    spec: ChainSpec, dim_budget: int = DEFAULT_DIM_BUDGET
) -> list[HomologyGroup]:
    """H_d = ker d_d / im d_{d+1} for d = 0..max_degree-1, via Smith normal form.

    The face tables of the weighted operations are built once, checked by
    verify_differential and read by the builder of every degree; each
    degree's tables are dropped once its rows are built.  ``dim_budget``
    bounds the rows of every face table and the columns of every matrix the
    run builds; it is checked before any of them is built.

    Each degree after the first is built without the rows of d_d that the
    SNF of d_{d-1} matched with +-1 pivots (see the module docstring).
    Leaving them out is exact only because d_{d-1} d_d = 0, and
    verify_differential guarantees that before any row is built.
    """
    n = spec.S.n
    top = _top_degree(spec)
    cols = n ** (top + 1)
    if cols > dim_budget:
        raise DimensionBudgetError(f"chain dimension {cols} exceeds budget {dim_budget}")
    faces = _weighted_face_tables(spec, top)
    if not verify_differential(spec, faces):
        raise ValueError(
            "face identities d_i d_j = d_{j-1} d_i fail: the operations are not "
            "distributive; refusing to compute"
        )
    factors = {}
    matched: set[int] = set()  # rows of d_d that d_{d-1}'s unit pivots matched
    for d in range(1, spec.max_degree + 1):
        rows = _boundary_rows(spec, d, faces, matched)
        for tables in faces:
            tables[d] = None  # its last use, so the elimination runs without it
        matched = set()
        factors[d] = smith_normal_form(rows, n ** (d + 1), matched)
    groups = []
    for d in range(spec.max_degree):
        above = factors[d + 1]
        free_rank = n ** (d + 1) - len(factors.get(d, ())) - len(above)
        groups.append(HomologyGroup(d, free_rank, tuple(f for f in above if f > 1)))
    return groups
