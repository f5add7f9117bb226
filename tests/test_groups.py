import itertools

import pytest

from multishelf import (
    are_isomorphic,
    cyclic,
    dihedral,
    group_from_table,
    is_abelian,
    symmetric,
)
from multishelf.groups import lex


class TestGroupFromTable:
    def test_z2(self):
        g = group_from_table(2, [[0, 1], [1, 0]], 0)
        assert g.inv == (0, 1)

    def test_no_inverse(self):
        with pytest.raises(ValueError, match="identity|inverse"):
            group_from_table(2, [[0, 1], [1, 1]], 0)

    def test_not_associative(self):
        # a valid quasigroup table that is not a group; every element is its
        # own two-sided inverse, and Light's test names a triple whose c is a
        # generator: (2*1)*1 = 4*1 = 3, 2*(1*1) = 2*0 = 2
        with pytest.raises(ValueError, match=r"not associative at \(2,1,1\)"):
            group_from_table(
                5,
                [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ],
                0,
            )

    def test_s3_table_valid_and_nonabelian(self):
        s3 = symmetric(3)
        rebuilt = group_from_table(6, [list(r) for r in s3.mul], s3.identity)
        assert rebuilt == s3
        assert not is_abelian(rebuilt)

    def test_bad_identity(self):
        with pytest.raises(ValueError):
            group_from_table(2, [[0, 1], [1, 0]], 1)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_light_test_matches_all_triples_on_latin_squares(self, m):
        # every normalized Latin square (row and column 0 in order, so 0 is
        # the identity): 1, 1, 1, 4 and 56 of them for m = 1..5, of which
        # the groups are 1, 1, 1, 4 and 6
        squares = _normalized_latin_squares(m)
        assert len(squares) == [1, 1, 1, 4, 56][m - 1]
        accepted = 0
        for mul in squares:
            try:
                group_from_table(m, mul, 0)
            except ValueError:
                ok = False
            else:
                ok = True
            assert ok == _associative(mul)
            accepted += ok
        assert accepted == [1, 1, 1, 4, 6][m - 1]

    def test_light_test_checks_every_generator(self):
        # identity 0 and two-sided inverses; greedy generators 1 (which
        # generates {0, 1}) and 2; (ab)1 = a(b1) for all a, b, so only
        # generator 2 sees that the product is not associative
        mul = [[0, 1, 2, 3], [1, 0, 0, 1], [2, 3, 0, 1], [3, 2, 1, 0]]
        assert all(mul[mul[a][b]][1] == mul[a][mul[b][1]] for a in range(4) for b in range(4))
        assert not _associative(mul)
        with pytest.raises(ValueError, match=r"not associative at \(\d,\d,2\)"):
            group_from_table(4, mul, 0)


def _normalized_latin_squares(m):
    """Every m x m Latin square on {0..m-1} whose row 0 and column 0 are
    0..m-1 in order, filled row by row."""
    rows = [list(range(m))]

    def fill(a):
        if a == m:
            yield [list(r) for r in rows]
            return
        for row in itertools.permutations(range(m)):
            if row[0] == a and all(row[b] != r[b] for r in rows for b in range(m)):
                rows.append(row)
                yield from fill(a + 1)
                rows.pop()

    return list(fill(1))


def _associative(mul):
    """The reference: (ab)c = a(bc) over all m^3 triples."""
    m = len(mul)
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a in range(m) for b in range(m) for c in range(m))


class TestFamilies:
    def test_cyclic_1_trivial(self):
        g = cyclic(1)
        assert g.m == 1 and g.identity == 0

    def test_dihedral_3_relations(self):
        g = dihedral(3)
        assert g.m == 6 and not is_abelian(g)
        sigma, tau = 1, 3  # s^1 and t s^0
        assert g.mul[tau][tau] == g.identity
        assert g.mul[g.mul[sigma][sigma]][sigma] == g.identity
        tst = g.mul[g.mul[tau][sigma]][tau]
        assert tst == g.inv[sigma]

    def test_element_orders_in_dihedral(self):
        g = dihedral(4)
        tau, sigma = 4, 1

        def order(x):
            acc, k = x, 1
            while acc != g.identity:
                acc = g.mul[acc][x]
                k += 1
            return k

        assert order(tau) == 2
        assert order(sigma) == 4

    def test_symmetric_3_isomorphic_to_dihedral_3(self):
        assert are_isomorphic(symmetric(3), dihedral(3))

    def test_symmetric_bound(self):
        with pytest.raises(ValueError):
            symmetric(6)

    def test_isomorphism_bound(self):
        with pytest.raises(ValueError, match="bounded"):
            are_isomorphic(cyclic(9), cyclic(9))

    def test_non_isomorphic(self):
        assert not are_isomorphic(cyclic(6), dihedral(3))
        assert not are_isomorphic(cyclic(4), cyclic(5))


class TestLex:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lexicographic_numbering(self, n):
        sn = lex(n)
        assert list(sn.perms) == sorted(itertools.permutations(range(n)))
        assert sn.perms[0] == tuple(range(n))
        assert sn.index == {p: k for k, p in enumerate(sn.perms)}

    def test_built_once_per_n(self):
        assert lex(4) is lex(4)
        assert lex(3) is not lex(4)

    def test_generators(self):
        # (0 1) and x -> x+1: none at n = 1, one permutation at n = 2
        assert lex(1).generators == ()
        assert lex(2).generators == (1,)
        assert lex(3).generators == (2, 3)
        assert [lex(3).perms[k] for k in lex(3).generators] == [(1, 0, 2), (1, 2, 0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_then_is_p_then_q(self, n):
        sn = lex(n)
        for a, p in enumerate(sn.perms):
            for b, q in enumerate(sn.perms):
                assert sn.perms[sn.then(a, b)] == tuple(q[p[x]] for x in range(n))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_symmetric_tables_match_tuple_arithmetic(self, k):
        # embed-regular --group symmetric:k documents are written from these tables
        perms = sorted(itertools.permutations(range(k)))
        index = {p: i for i, p in enumerate(perms)}
        G = symmetric(k)
        assert G.mul == tuple(tuple(index[tuple(q[v] for v in p)] for q in perms) for p in perms)
        assert G.inv == tuple(index[tuple(p.index(x) for x in range(k))] for p in perms)
        assert G.identity == index[tuple(range(k))] == 0


class TestAbelian:
    def test_cyclic_6(self):
        assert is_abelian(cyclic(6))

    def test_dihedral_3(self):
        assert not is_abelian(dihedral(3))

    def test_all_family_groups_of_order_up_to_5(self):
        small = [cyclic(k) for k in range(1, 6)]
        small += [dihedral(1), dihedral(2), symmetric(1), symmetric(2)]
        assert all(is_abelian(g) for g in small if g.m <= 5)
