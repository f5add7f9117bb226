"""Enumeration of racks (invertible self-distributive tables) and the
search for non-abelian distributive subgroups on small carriers.

The search space is restricted to racks because every member of a
distributive group of tables is invertible and self-distributive, and any
non-abelian such group contains a non-commuting pair whose generated group
is itself a non-abelian distributive group; sweeping ordered pairs of
racks is therefore complete for the existence question.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .shelves import DistributiveSet, close_group
from .tables import OpTable, commutes, distributive_witness, relabel
from .translate import PermVector, alpha_inverse, perm_inverse

PRUNED_BOUND = 6

Perm = tuple[int, ...]


@dataclass(frozen=True)
class RackCatalog:
    n: int
    racks: tuple[OpTable, ...]
    canonical: tuple[OpTable, ...]


@dataclass
class SearchReport:
    n: int
    racks_found: int
    compatible_pairs: int
    nonabelian_groups: list[dict]
    conclusion: str  # "commutative-only" | "nonabelian-found" | "partial"
    nodes_pruned: int = 0
    wall_time: float = 0.0
    seeded: bool = False

    def to_document(self, include_timing: bool = False) -> dict:
        """Structured report; timing is excluded by default so documents are
        byte-stable across runs."""
        doc = {
            "n": self.n,
            "racks_found": self.racks_found,
            "compatible_pairs": self.compatible_pairs,
            "nonabelian_groups": self.nonabelian_groups,
            "conclusion": self.conclusion,
            "statistics": {"nodes_pruned": self.nodes_pruned},
            "seeded": self.seeded,
        }
        if include_timing:
            doc["statistics"]["wall_time_s"] = self.wall_time
        return doc


def _conj(q: Perm, p: Perm, qinv: Perm) -> Perm:
    """x -> q(p(q^-1(x)))."""
    return tuple(q[p[qinv[x]]] for x in range(len(q)))


def _enumerate_pruned(n: int) -> tuple[list[OpTable], int]:
    """Backtrack over columns with propagation of the self-conjugation
    constraint sigma_{sigma_z(y)} = sigma_z sigma_y sigma_z^-1.

    Returns (racks, nodes_pruned).
    """
    perms = sorted(itertools.permutations(range(n)))
    inverses = {p: perm_inverse(p) for p in perms}
    found: list[OpTable] = []
    pruned = 0

    def propagate(cols: list[Optional[Perm]]) -> bool:
        changed = True
        while changed:
            changed = False
            assigned = [y for y in range(n) if cols[y] is not None]
            for z in assigned:
                sz = cols[z]
                szinv = inverses[sz]
                for y in assigned:
                    sy = cols[y]
                    if sy is None:
                        continue
                    w = sz[y]
                    req = _conj(sz, sy, szinv)
                    if cols[w] is None:
                        cols[w] = req
                        changed = True
                    elif cols[w] != req:
                        return False
        return True

    def extend(cols: list[Optional[Perm]]):
        nonlocal pruned
        try:
            y = cols.index(None)
        except ValueError:
            table = alpha_inverse(PermVector(n, tuple(cols)))  # type: ignore[arg-type]
            if distributive_witness(table, table) is None:
                found.append(table)
            return
        for p in perms:
            trial = list(cols)
            trial[y] = p
            if propagate(trial):
                extend(trial)
            else:
                pruned += 1

    extend([None] * n)
    found.sort(key=lambda t: t.entries)
    return found, pruned


def canonical_form(op: OpTable) -> OpTable:
    """Lexicographically least relabeling of the table; constant on orbits."""
    best = None
    for pi in itertools.permutations(range(op.n)):
        cand = relabel(op, pi).entries
        if best is None or cand < best:
            best = cand
    return OpTable(op.n, best)


def canonical_form_set(ops: Sequence[OpTable]) -> tuple[OpTable, ...]:
    """Least (under lex order of the sorted table list) simultaneous relabeling."""
    if not ops:
        return ()
    n = ops[0].n
    best = None
    for pi in itertools.permutations(range(n)):
        cand = tuple(sorted(relabel(op, pi).entries for op in ops))
        if best is None or cand < best:
            best = cand
    return tuple(OpTable(n, e) for e in best)


def _check_size(n: int) -> None:
    if not 1 <= n <= PRUNED_BOUND:
        raise ValueError(f"n={n} outside [1, {PRUNED_BOUND}]")


def enumerate_racks(n: int) -> RackCatalog:
    """Complete catalog of racks on n points, sorted by table encoding."""
    _check_size(n)
    racks, _ = _enumerate_pruned(n)
    canon = sorted({canonical_form(r).entries for r in racks})
    return RackCatalog(n, tuple(racks), tuple(OpTable(n, e) for e in canon))


def compatibility_graph(catalog: RackCatalog) -> dict[int, list[int]]:
    """Adjacency lists over rack indices; edge iff both ordered checks pass.

    Self-loops are implicit (every catalog member is self-distributive).
    """
    racks = catalog.racks
    adj: dict[int, list[int]] = {i: [] for i in range(len(racks))}
    for i in range(len(racks)):
        for j in range(i + 1, len(racks)):
            if (
                distributive_witness(racks[i], racks[j]) is None
                and distributive_witness(racks[j], racks[i]) is None
            ):
                adj[i].append(j)
                adj[j].append(i)
    return adj


def certify_no_nonabelian(
    n: int,
    budget: Optional[float] = None,
    seed_pair: Optional[tuple[OpTable, OpTable]] = None,
) -> SearchReport:
    """Sweep compatible rack pairs and test the groups they generate.

    A pair of commuting generators always generates an abelian group, so the
    closure is only computed for non-commuting compatible pairs.  With
    ``seed_pair`` the enumeration is skipped and the catalog is that pair.
    """
    _check_size(n)
    start = time.monotonic()
    if seed_pair is None:
        racks, nodes_pruned = _enumerate_pruned(n)
    else:
        for op in seed_pair:
            if op.n != n:
                raise ValueError(f"seed pair table has carrier {op.n}, but n={n}")
        racks, nodes_pruned = list(seed_pair), 0
    catalog = RackCatalog(n, tuple(racks), ())
    adj = compatibility_graph(catalog)
    pairs = [(i, j) for i in sorted(adj) for j in adj[i] if i < j]

    nonabelian: list[dict] = []
    compatible = 0
    partial = False
    for i, j in pairs:
        if budget is not None and time.monotonic() - start > budget:
            partial = True
            break
        a, b = catalog.racks[i], catalog.racks[j]
        compatible += 1
        if commutes(a, b):
            continue  # commuting generators give an abelian group
        closure = close_group(DistributiveSet(n, (a, b)))
        if not closure.abelian:
            nonabelian.append(
                {
                    "pair": [list(map(list, a.entries)), list(map(list, b.entries))],
                    "closure_order": closure.order,
                }
            )

    if nonabelian:
        conclusion = "nonabelian-found"
    elif partial:
        conclusion = "partial"
    else:
        conclusion = "commutative-only"
    return SearchReport(
        n=n,
        racks_found=len(catalog.racks),
        compatible_pairs=compatible,
        nonabelian_groups=nonabelian,
        conclusion=conclusion,
        nodes_pruned=nodes_pruned,
        wall_time=time.monotonic() - start,
        seeded=seed_pair is not None,
    )
