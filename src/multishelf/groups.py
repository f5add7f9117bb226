"""Finite groups as multiplication tables, standard families, and S_n on lex numbers."""
from __future__ import annotations

import itertools
import time
from functools import cache
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .tables import Permutation, greedy_generators, make_table, perm_compose, perm_inverse

SYMMETRIC_DEGREE_BOUND = 5
ISOMORPHISM_ORDER_BOUND = 8


class IdentityError(ValueError):
    """The named identity element is out of range or not a two-sided identity."""


class FiniteGroup(NamedTuple):
    """A group on {0..m-1} given by its full multiplication table."""

    m: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]


def group_from_table(m: int, mul: Sequence[Sequence[int]], identity: int) -> FiniteGroup:
    """Validate a multiplication table as a group (identity, inverses,
    associativity).

    Shape and range are checked as for an operation table on m points.
    Associativity is Light's test (Clifford and Preston, "The Algebraic
    Theory of Semigroups" I, 1961, section 1.2), on generators.  The c with
    (ab)c = a(bc) for all a, b hold the identity and are closed under the
    product: for such c and d, (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) =
    a(b(cd)).  So c is checked only over ``greedy_generators``, whose
    right products from the identity reach every element; that argument
    needs no associativity.  A failure names (a, b, c) with c a generator.
    That is m^2 |generators| products instead of m^3: symmetric(5)'s table
    (m = 120, 2 generators) is checked in about 4 ms instead of 70 ms.
    """
    table = make_table(m, mul).entries
    if not (0 <= identity < m):
        raise IdentityError(f"identity index {identity} out of range")
    for a in range(m):
        if table[identity][a] != a or table[a][identity] != a:
            raise IdentityError(f"{identity} is not a two-sided identity (fails at {a})")
    inv = [-1] * m
    for a in range(m):
        for b in range(m):
            if table[a][b] == identity and table[b][a] == identity:
                inv[a] = b
                break
        if inv[a] < 0:
            raise ValueError(f"no inverse for element {a}")
    for c in greedy_generators(range(m), identity, lambda h, s: table[h][s], m):
        col = [row[c] for row in table]  # x -> xc
        for a, row in enumerate(table):
            if [col[v] for v in row] != [row[v] for v in col]:  # (ab)c, a(bc) over b
                b = next(b for b in range(m) if col[row[b]] != row[col[b]])
                raise ValueError(f"not associative at ({a},{b},{c})")
    return FiniteGroup(m, table, identity, tuple(inv))


def cyclic(k: int) -> FiniteGroup:
    """Z_k with elements 0..k-1 as residues."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    mul = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    inv = tuple((-a) % k for a in range(k))
    return FiniteGroup(k, mul, 0, inv)


def dihedral(k: int) -> FiniteGroup:
    """The dihedral group of order 2k; elements s^0..s^(k-1), t s^0..t s^(k-1).

    Generators satisfy t^2 = 1, s^k = 1, t s t = s^-1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = 2 * k

    def idx(r: int, s: int) -> int:
        return r % k + k * s

    mul = [[0] * m for _ in range(m)]
    for i in range(m):
        r1, s1 = i % k, i // k
        for j in range(m):
            r2, s2 = j % k, j // k
            # t^s1 s^r1 . t^s2 s^r2 = t^(s1+s2) s^(r1*(-1)^s2 + r2)
            r = (-r1 if s2 else r1) + r2
            mul[i][j] = idx(r, (s1 + s2) % 2)
    g = group_from_table(m, mul, 0)
    return g


class Lex(NamedTuple):
    """S_n on numbers: ``perms[k]`` is the k-th permutation of {0..n-1} in lex order (the
    identity is 0), ``index`` numbers each one, and ``generators`` are the numbers of (0 1)
    and x -> x+1, which generate S_n (one number at n = 2, none at n = 1)."""

    perms: tuple[Permutation, ...]
    index: dict[Permutation, int]
    generators: tuple[int, ...]

    def then(self, p: int, q: int) -> int:
        """The number of the p-th permutation, then the q-th: x -> q(p(x))."""
        return self.index[perm_compose(self.perms[p], self.perms[q])]


@cache
def lex(n: int) -> Lex:
    """S_n in lexicographic order, built once per n."""
    perms = tuple(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n > 1 else []
    return Lex(perms, index, tuple(dict.fromkeys(map(index.__getitem__, gens))))


def check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeoutError("search deadline passed")


def conjugation_table(n: int, deadline: Optional[float]) -> tuple:
    """S_n on ``lex`` numbers, as (perms, conj): ``conj[q][p]`` numbers x -> q(p(q^-1(x))), a
    tuple row.  The generators' rows come from their tuples, every other row, of h g for a
    generator g, from the gather ``conj[h][conj[g][p]]``: no product table.  Checks the
    deadline per row."""
    perms, index, gens = sn = lex(n)
    conj: list = [tuple(range(len(perms)))] + [None] * (len(perms) - 1)
    for k in gens:
        check_deadline(deadline)
        g, ginv = perms[k], perm_inverse(perms[k])
        conj[k] = tuple(index[tuple(g[p[v]] for v in ginv)] for p in perms)
    gather = [(k, itemgetter(*conj[k])) for k in gens]  # n! > 1 numbers: tuples out
    queue = list(gens)
    for h in queue:
        for k, by_conj in gather:
            q = sn.then(k, h)
            if conj[q] is None:
                check_deadline(deadline)
                conj[q] = by_conj(conj[h])
                queue.append(q)
    return perms, conj


def symmetric(k: int) -> FiniteGroup:
    """S_k on the ``lex`` numbers; the product applies left to right, (p.q)(x) = q(p(x))."""
    if not (1 <= k <= SYMMETRIC_DEGREE_BOUND):
        raise ValueError(f"degree {k} outside [1, {SYMMETRIC_DEGREE_BOUND}]")
    sn = lex(k)
    m = len(sn.perms)
    mul = tuple(tuple(sn.then(p, q) for q in range(m)) for p in range(m))
    return FiniteGroup(m, mul, 0, tuple(sn.index[perm_inverse(p)] for p in sn.perms))


def is_abelian(G: FiniteGroup) -> bool:
    return G.mul == tuple(zip(*G.mul))


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Brute-force isomorphism search over relabelings; orders must be <= 8."""
    if G.m != H.m:
        return False
    if G.m > ISOMORPHISM_ORDER_BOUND:
        raise ValueError(
            f"brute-force isomorphism bounded to order {ISOMORPHISM_ORDER_BOUND}"
        )
    for phi in itertools.permutations(range(G.m)):
        if phi[G.identity] != H.identity:
            continue
        if all(
            phi[G.mul[a][b]] == H.mul[phi[a]][phi[b]]
            for a in range(G.m)
            for b in range(G.m)
        ):
            return True
    return False
