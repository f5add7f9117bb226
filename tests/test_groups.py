import pytest

from multishelf import (
    are_isomorphic,
    cyclic,
    dihedral,
    group_from_table,
    is_abelian,
    symmetric,
)


class TestGroupFromTable:
    def test_z2(self):
        g = group_from_table(2, [[0, 1], [1, 0]], 0)
        assert g.inv == (0, 1)

    def test_no_inverse(self):
        with pytest.raises(ValueError, match="identity|inverse"):
            group_from_table(2, [[0, 1], [1, 1]], 0)

    def test_not_associative(self):
        # a valid quasigroup table that is not a group
        with pytest.raises(ValueError):
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


class TestAbelian:
    def test_cyclic_6(self):
        assert is_abelian(cyclic(6))

    def test_dihedral_3(self):
        assert not is_abelian(dihedral(3))

    def test_all_family_groups_of_order_up_to_5(self):
        small = [cyclic(k) for k in range(1, 6)]
        small += [dihedral(1), dihedral(2), symmetric(1), symmetric(2)]
        assert all(is_abelian(g) for g in small if g.m <= 5)
