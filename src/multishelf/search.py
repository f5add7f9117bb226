"""Enumeration of racks (invertible self-distributive tables) and the
search for non-abelian distributive groups of racks on small carriers.

A distributive group of tables whose identity is the right-trivial table
``a * b = a`` consists of racks, since each member has an inverse in the
monoid; conversely, the identity of a group of racks is an invertible
idempotent, hence right-trivial.  Any non-abelian such group contains a
non-commuting pair whose generated group is itself a non-abelian group of
racks, so sweeping ordered pairs of racks certifies that there is no
non-abelian group of racks.  That says nothing of groups with another
identity, whose members need not be invertible: on 3 points the tables
with rows (0,0,0), (0,1,1), (0,2,2) and (0,0,0), (0,2,2), (0,1,1) form a
distributive group of order 2 whose identity is the first.
"""
from __future__ import annotations

import itertools
import math
import time
from bisect import bisect_right
from collections import Counter
from functools import cache, cached_property, partial
from operator import eq, itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .groups import check_deadline, conjugation_table, lex
from .shelves import CLOSURE_BUDGET, ClosureBudgetError, make_distributive_set
from .tables import (
    OpTable,
    Permutation,
    distributive_witness,
    generated,
    noninvertible_column,
    perm_inverse,
    relabel,
)
from .translate import alpha_inverse

PRUNED_BOUND = 6


class _Catalog(NamedTuple):
    n: int
    columns: tuple[tuple[int, ...], ...]
    orbit: tuple[int, ...]
    automorphisms: tuple[frozenset[int], ...]
    nodes_pruned: int = 0
    conj: tuple[tuple[int, ...], ...] = ()


class RackCatalog(_Catalog):
    """Racks as column indices, with their relabeling classes and
    automorphism groups: in table order from ``enumerate_racks``, in the
    pair's order from ``seed_catalog``.

    Permutations of the carrier are numbered as in ``groups.lex``, and
    ``columns[i][y]`` is the number of the column x -> x * y of the i-th
    rack.  ``orbit[i]`` is the index of the first rack in the class of the
    i-th; in table order that first rack is the least relabeling of each
    member, i.e. its canonical form.  ``automorphisms[i]`` is the set of
    the relabelings that fix the i-th rack.  ``nodes_pruned`` counts the
    pruned nodes of the backtrack, and ``conj`` holds the rows of the one
    ``conjugation_table`` the catalog was built on (0 and none for a seed
    catalog).  A ``typing.NamedTuple``, equal to the plain tuple of its
    fields.  The tables, ``racks``, are built on first read and kept in the
    instance ``__dict__`` (this subclass declares no ``__slots__``).
    """

    @cached_property
    def racks(self) -> tuple[OpTable, ...]:
        """The table of each rack, built from its columns; equal rows are
        one object."""
        perms = lex(self.n).perms
        rows: dict = {}
        return tuple(
            OpTable(self.n, tuple([rows.setdefault(r, r) for r in zip(*map(perms.__getitem__, cols))]))
            for cols in self.columns
        )

    @property
    def representatives(self) -> list[int]:
        """Index of the first rack of each class, in increasing order."""
        return [i for i, o in enumerate(self.orbit) if o == i]

    @property
    def canonical(self) -> tuple[OpTable, ...]:
        """One rack per relabeling class: its canonical form."""
        return tuple(self.racks[i] for i in self.representatives)


class SearchReport(NamedTuple):
    n: int
    racks_found: int
    compatible_pairs: int
    nonabelian_groups: list[dict]
    conclusion: str  # "commutative-only" | "nonabelian-found" | "partial"
    nodes_pruned: int = 0
    seeded: bool = False

    def to_document(self) -> dict:
        """Structured report; it carries no timing, so documents are
        byte-stable across runs."""
        return {
            "n": self.n,
            "racks_found": self.racks_found,
            "compatible_pairs": self.compatible_pairs,
            "nonabelian_groups": self.nonabelian_groups,
            "conclusion": self.conclusion,
            "statistics": {"nodes_pruned": self.nodes_pruned},
            "seeded": self.seeded,
        }


def _enumerate_pruned(n: int, deadline: Optional[float], sym: tuple) -> tuple[list[tuple[int, ...]], int]:
    """Backtrack over columns with propagation of the self-conjugation
    constraint sigma_{sigma_z(y)} = sigma_z sigma_y sigma_z^-1.

    A relabeling q fixing 0 maps column 0 to q sigma_0 q^-1, so column 0 only
    takes the least permutation of each such orbit (12 of 120 at n = 5, 19
    of 720 at n = 6) and still meets every relabeling class.  Each newly
    assigned column is checked, in both directions, only against the
    columns assigned so far.  A candidate p for the free column y first
    needs column z = p(y) free or equal to p, and it is never p: then
    propagation would have set column p(z) to p p p^-1 = p, and so on round
    the cycle of p through z, which holds y.  So only the p with p(y) free
    are visited, in increasing order from a list made once per set of free
    columns; the others count as pruned without a look-up.  A visited
    candidate is tested against the columns already set, without copying
    the assignment.

    Column 0 also has no more fixed points than any other column.  That too
    meets every class: let y be a point whose column has the fewest fixed
    points; a relabeling sending y to 0 conjugates every column, and
    conjugation keeps fixed-point counts, so its image has a column 0 with
    the fewest; a relabeling q with q(0) = 0 then makes column 0 least in
    its orbit, and it too keeps every count.  So once column 0 is set to p,
    the candidates with fewer fixed points than p count as pruned without a
    look-up.  Propagation needs no such check: each column it sets is a
    conjugate of one already set, with as many fixed points.  Every
    completion meets the constraint for all pairs, so it is a rack;
    ``enumerate_racks`` checks one per class all the same.
    Returns (completions, nodes_pruned), each completion a tuple of column
    indices into ``sym``, the tables of ``conjugation_table(n, deadline)``.
    """
    perms, conj = sym
    fix0 = [q for q, qp in enumerate(perms) if qp[0] == 0]
    column0 = [p for p in range(len(perms)) if all(p <= conj[q][p] for q in fix0)]
    fixed = [sum(map(eq, pp, range(n))) for pp in perms]
    found: list[tuple[int, ...]] = []
    pruned = 0

    @cache
    def open_image(free: tuple[int, ...], least: int) -> list[int]:
        """The p with at least ``least`` fixed points that map y = free[0]
        to a free column, in increasing order."""
        return [p for p, pp in enumerate(perms) if pp[free[0]] in free and fixed[p] >= least]

    def assign(cols: list[Optional[int]], y: int, p: int) -> bool:
        """Set column y to p and every column that forces; False on a conflict."""
        cols[y] = p
        new = [y]
        while new:
            x = new.pop()
            sx = cols[x]
            px, cx = perms[sx], conj[sx]
            for z in range(n):
                sz = cols[z]
                if sz is None:
                    continue
                w, req = perms[sz][x], conj[sz][sx]
                if cols[w] is None:
                    cols[w] = req
                    new.append(w)
                elif cols[w] != req:
                    return False
                w, req = px[z], cx[sz]
                if cols[w] is None:
                    cols[w] = req
                    new.append(w)
                elif cols[w] != req:
                    return False
        return True

    def extend(cols: list[Optional[int]]):
        nonlocal pruned
        check_deadline(deadline)
        free = tuple(z for z, c in enumerate(cols) if c is None)
        if not free:
            found.append(tuple(cols))  # type: ignore[arg-type]
            return
        y = free[0]
        assigned = [(z, c) for z, c in enumerate(cols) if c is not None]
        pruned += len(perms) if y else len(column0)
        for p in open_image(free, fixed[cols[0]]) if y else column0:  # type: ignore[index]
            # The other checks ``assign`` makes on popping y, read on cols
            # before the copy: a value set there stays set in the trial.
            pp, cp = perms[p], conj[p]
            for z, c in assigned:
                w = cols[pp[z]]
                if w is not None and w != cp[c]:
                    break
            else:
                trial = list(cols)
                if assign(trial, y, p):
                    pruned -= 1
                    extend(trial)

    extend([None] * n)
    return found, pruned


def canonical_form(op: OpTable) -> OpTable:
    """Lexicographically least relabeling of the table; constant on orbits."""
    return OpTable(op.n, min(relabel(op, pi).entries for pi in itertools.permutations(range(op.n))))


def _relabeling(n: int, conj: Sequence[tuple[int, ...]]) -> Callable[[int, Callable], tuple[int, ...]]:
    """``relabel(q, itemgetter(*cols, 0))`` is the rack with columns ``cols``
    relabeled by the q-th permutation, on the rows of ``conjugation_table(n)``:
    column ``conj[q][cols[y]]`` at q(y); the index 0 keeps a tuple at n = 1."""
    at = [itemgetter(*perm_inverse(p), 0) for p in lex(n).perms]
    return lambda q, points: at[q](points(conj[q]))[:-1]


def _closure_key(relabel: Callable[[int, Callable], tuple[int, ...]], members: Sequence[tuple[int, ...]]) -> tuple:
    """The least over all relabelings of the sorted column indices of the
    racks ``members``, each relabeled by ``relabel``, a ``_relabeling``: two
    families of racks get one key iff a relabeling maps one onto the other."""
    points = [itemgetter(*cols, 0) for cols in members]
    return min(tuple(sorted(relabel(q, p) for p in points)) for q in range(math.factorial(len(members[0]))))


def _check_size(n: int) -> None:
    if not 1 <= n <= PRUNED_BOUND:
        raise ValueError(f"n={n} outside [1, {PRUNED_BOUND}]")


def _check_budget(budget: Optional[float]) -> None:
    if budget is not None and not budget >= 0:  # NaN fails every comparison
        raise ValueError(f"budget={budget} is not a number of seconds >= 0")


def _self_distributive(cols: tuple[int, ...], perms: Sequence[Permutation], conj: Sequence[tuple[int, ...]]) -> bool:
    """True iff the table with columns ``cols``, ``lex`` numbers, is self-distributive:
    for permutation columns that is exactly sigma_{sigma_z(y)} = sigma_z sigma_y sigma_z^-1 for
    all y, z (``translate.conjugation_condition``), and permutations agree iff their indices do."""
    return all(cols[perms[cz][y]] == conj[cz][cy] for cz in cols for y, cy in enumerate(cols))


def enumerate_racks(n: int, deadline: Optional[float] = None) -> RackCatalog:
    """Complete catalog of racks on n points, on ``lex`` numbers.
    The completions of ``_enumerate_pruned`` meet every class.  Each one not
    yet swept, r, is checked by ``_self_distributive`` (one check per class,
    no table) and skipped if it fails.  ``relabel(r, q)`` has column
    ``conj[q][cols[y]]`` at q(y) (``_relabeling``), so Aut(r) is the q with
    ``conj[q][cols[y]] == cols[q(y)]`` for every y.  The ``lex`` generators
    sweep the class breadth first, to every relabeling of r, so each class
    is one block of the sweep, recorded by where it starts.  Aut(g r) is
    g Aut(r) g^-1, which depends only on Aut(r) and g: it is gathered by
    ``conj[g]`` once per distinct group and generator, and each distinct
    group is one object.  The racks are sorted on their tables' row-major
    base-n encodings, i.e. in table order.  Raises TimeoutError once
    ``time.monotonic()`` passes ``deadline``, checked once per class."""
    _check_size(n)
    perms, conj = conjugation_table(n, deadline)
    found, pruned = _enumerate_pruned(n, deadline, (perms, conj))
    # ``_relabeling`` by each generator g, inlined: column conj[g][cols[y]] at g(y).
    movers = [(g, conj[g], itemgetter(*perm_inverse(perms[g]))) for g in lex(n).generators]
    zero = [pp[0] for pp in perms]
    # Column p at b puts the digit p(a) at place (n-1-a)n + n-1-b of the key.
    base = [sum(v * n ** ((n - 1 - a) * n) for a, v in enumerate(pp)) for pp in perms]
    weight = [[w * n ** (n - 1 - b) for w in base] for b in range(n)]
    shared: dict[frozenset[int], frozenset[int]] = {}  # one object per distinct group
    conjugate: dict[tuple[frozenset[int], int], frozenset[int]] = {}  # (Aut, g) -> g Aut g^-1
    swept: dict[tuple[int, ...], frozenset[int]] = {}  # columns -> Aut, class after class
    starts: list[int] = []  # sweep index of the first rack of each class
    for cols in found:
        if cols in swept:
            continue
        check_deadline(deadline)
        if not _self_distributive(cols, perms, conj):
            continue
        at0 = map(cols.__getitem__, zero)  # cols[q(0)] for every q
        aut = list(itertools.compress(range(len(perms)), map(eq, map(itemgetter(cols[0]), conj), at0)))
        for y, c in enumerate(cols[1:], 1):
            aut = [q for q in aut if conj[q][c] == cols[perms[q][y]]]
        starts.append(len(swept))
        queue, group = [cols], frozenset(aut)
        swept[cols] = shared.setdefault(group, group)
        for r in queue:
            points, aut = itemgetter(*r), swept[r]  # n > 1 once there is a generator
            for g, row, at in movers:
                image = at(points(row))
                if image not in swept:
                    if (aut, g) not in conjugate:
                        group = frozenset(map(row.__getitem__, aut))
                        conjugate[aut, g] = shared.setdefault(group, group)
                    swept[image] = conjugate[aut, g]
                    queue.append(image)
    racks, auts = list(swept), list(swept.values())
    del swept  # freed once read, as are the keys once sorted: about 50 MB of the peak at n = 7
    keys = [sum(map(list.__getitem__, weight, cols)) for cols in racks]  # distinct
    order = sorted(range(len(racks)), key=keys.__getitem__)
    del keys
    first: dict[int, int] = {}  # class, by its number in the sweep -> index of its least rack
    orbit = tuple(map(first.setdefault, map(partial(bisect_right, starts), order), itertools.count()))
    columns, auts = tuple(map(racks.__getitem__, order)), tuple(map(auts.__getitem__, order))
    return RackCatalog(n, columns, orbit, auts, pruned, tuple(conj))


def compatibility_graph(catalog: RackCatalog, deadline: Optional[float] = None) -> dict[int, list[int]]:
    """Compatible partners of the first rack of each relabeling class, in
    increasing order.  The rows of the other racks are relabelings of these,
    so with singleton classes this is the full graph.

    For racks A and B, ``(a A b) B c = (a B c) A (b B c)`` for all a, b, c
    says exactly that every column ``x -> x B c`` is an automorphism of A
    (``tables.is_endomorphism``, restricted to bijections).  So B is a
    partner of A, both ordered checks passing, iff each column of B lies in
    Aut(A) and each column of A in Aut(B).  The racks are grouped by their
    automorphism group; the row of A reads the groups that hold A's columns
    and keeps their racks, A aside, whose columns all lie in Aut(A).  The
    right-trivial rack needs no special case: every group holds its columns,
    all the identity, and its Aut is all of S_n, so its row is every other
    rack.  Raises TimeoutError once ``time.monotonic()`` passes
    ``deadline``, which is checked once per row.
    """
    columns, auts = catalog.columns, catalog.automorphisms
    by_aut: dict[frozenset[int], list[int]] = {}
    for j, aut in enumerate(auts):
        by_aut.setdefault(aut, []).append(j)
    graph = {}
    for i in catalog.representatives:
        check_deadline(deadline)
        cols, fixed = set(columns[i]), auts[i].issuperset
        graph[i] = sorted(j for aut, js in by_aut.items() if aut >= cols for j in js if j != i and fixed(columns[j]))
    return graph


def _check_seed(n: int, op: OpTable, k: int) -> None:
    """Raise ValueError unless ``op``, table k of a seed pair, is a rack on n points."""
    if op.n != n:
        raise ValueError(f"seed pair table has carrier {op.n}, but n={n}")
    y = noninvertible_column(op)
    if y is not None:
        raise ValueError(f"seed pair table {k} is not invertible: column {y} is not a permutation")
    w = distributive_witness(op, op)
    if w is not None:
        raise ValueError(
            f"seed pair table {k} is not self-distributive: "
            f"(a*b)*c != (a*c)*(b*c) at (a, b, c) = {w}"
        )


def seed_catalog(n: int, seed_pair: tuple[OpTable, OpTable]) -> RackCatalog:
    """The catalog of a seed pair: each table its own class, with its
    automorphism group and column indices.  Raises ValueError unless both
    tables are racks on n points."""
    for k, op in enumerate(seed_pair):
        _check_seed(n, op, k)
    index = lex(n).index
    auts = []
    for e in (op.entries for op in seed_pair):  # p fixes e iff p(a * b) = p(a) * p(b) for all a, b
        cells = [(a, b, v) for a, row in enumerate(e) for b, v in enumerate(row)]  # most p fail at the first
        auts.append(frozenset(k for p, k in index.items() if all(p[v] == e[p[a]][p[b]] for a, b, v in cells)))
    columns = tuple(tuple(index[c] for c in zip(*op.entries)) for op in seed_pair)
    return RackCatalog(n, columns, (0, 1), tuple(auts))


def certify_no_nonabelian(
    n: int,
    budget: Optional[float] = None,
    seed_pair: Optional[tuple[OpTable, OpTable]] = None,
) -> SearchReport:
    """Sweep compatible rack pairs and test the groups they generate.

    Runs on ``enumerate_racks(n)``, in table order, or on the
    ``seed_catalog`` of ``seed_pair``, in its order, each table its own
    class, and on the catalog's ``compatibility_graph``; no labelled table
    is read.  All of it is invariant under relabeling, so the first rack of
    a pair is the first rack of a class, and its partners are its row of the
    graph without the classes whose first rack comes before it.  Column y of
    A;B is A_y, then B_y, and a in Aut(A) has a A_y a^-1 = A_{a(y)}, so it
    commutes with A_y iff ``ca[perms[a][y]] == ca[y]``.  A partner's columns
    lie in Aut(A): the row of A is only counted when this holds for all a in
    Aut(A) and all y, else B commutes with A iff
    ``ca[perms[cb[y]][y]] == ca[y]`` for all y.  A non-commuting pair is
    closed on column indices in ``close_group``'s order (identity, A, B,
    ...) and listed unless a listed group of its order has its
    ``_closure_key`` (one ``_relabeling`` for all keys; none for a seed
    pair).  Only a listed group's pair is built as tables, checked by
    ``make_distributive_set``; by the closure lemma of ``close_group`` that
    certifies the group it generates, and the others are its relabelings.
    ``budget`` seconds bound every phase; past them the conclusion is
    "partial" unless a non-abelian group was already found.  A negative or
    NaN budget raises ValueError, and so does a seed pair that
    ``seed_catalog`` rejects.
    """
    _check_size(n)
    _check_budget(budget)
    deadline = None if budget is None else time.monotonic() + budget

    racks_found = compatible = nodes_pruned = 0
    nonabelian: list[dict] = []
    listed: dict[int, list[tuple[tuple[int, ...], ...]]] = {}  # closure order -> members of each listed group
    partial = False
    try:
        catalog = enumerate_racks(n, deadline) if seed_pair is None else seed_catalog(n, seed_pair)
        columns, orbit, auts = catalog.columns, catalog.orbit, catalog.automorphisms
        racks_found, nodes_pruned = len(columns), catalog.nodes_pruned
        relabeling = cache(lambda: _relabeling(n, catalog.conj))
        key = cache(lambda members: _closure_key(relabeling(), members))
        graph = compatibility_graph(catalog, deadline)
        size = Counter(orbit)
        compatible = sum(size[i] * len(row) for i, row in graph.items()) // 2
        sn = lex(n)
        perms, columnwise = sn.perms, lambda x, y: tuple(map(sn.then, x, y))  # x, then y, in each column
        for i, row in graph.items():
            check_deadline(deadline)
            ca = columns[i]
            if all(tuple(map(ca.__getitem__, perms[a])) == ca for a in auts[i]):
                continue  # Aut(A) holds every partner's columns and commutes with A's
            for j in row:
                if orbit[j] < i:
                    continue  # the pair of classes is swept from j's class
                if all(ca[perms[b][y]] == ca[y] for y, b in enumerate(columns[j])):
                    continue  # commuting generators give an abelian group
                check_deadline(deadline)
                members = tuple(generated((ca, columns[j]), (0,) * n, columnwise, CLOSURE_BUDGET) or ())
                if not members:  # None: past the budget
                    raise ClosureBudgetError(f"closure exceeded budget of {CLOSURE_BUDGET} tables")
                same_order = listed.setdefault(len(members), [])
                if any(key(members) == key(other) for other in same_order):
                    continue
                same_order.append(members)
                ops = [alpha_inverse([perms[c] for c in cols]) for cols in members[1:3]]  # A and B follow the identity
                pair = [list(map(list, op.entries)) for op in make_distributive_set(ops).ops]
                nonabelian.append({"pair": pair, "closure_order": len(members)})
    except TimeoutError:
        partial = True

    conclusion = "nonabelian-found" if nonabelian else "partial" if partial else "commutative-only"
    return SearchReport(n, racks_found, compatible, nonabelian, conclusion, nodes_pruned, seed_pair is not None)
