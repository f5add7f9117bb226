import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multishelf import (
    OpTable,
    alpha,
    alpha_inverse,
    compose,
    conjugation_condition,
    cyclic,
    distributive_witness,
    make_table,
    regular_embed,
    right_trivial,
)
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU, XOR
from multishelf.tables import perm_compose, perm_inverse


def table_from_columns(cols):
    n = len(cols)
    return OpTable(n, tuple(tuple(cols[y][x] for y in range(n)) for x in range(n)))


def invertible_tables(n):
    perms = sorted(itertools.permutations(range(n)))
    for cols in itertools.product(perms, repeat=n):
        yield table_from_columns(cols)


perm_strategy = st.permutations(list(range(3)))


class TestAlpha:
    def test_right_trivial_all_identity(self):
        v = alpha(right_trivial(4))
        assert all(v[y] == (0, 1, 2, 3) for y in range(4))

    def test_tau_column_0(self):
        assert alpha(BERMAN_TAU)[0] == (1, 0, 3, 2, 5, 4)

    def test_sigma_column_1(self):
        assert alpha(BERMAN_SIGMA)[1] == (4, 3, 0, 5, 2, 1)

    def test_rejects_noninvertible(self):
        with pytest.raises(ValueError, match="column 0 "):
            alpha(make_table(2, [[0, 0], [0, 1]]))


class TestAlphaInverse:
    def test_all_identity_vector(self):
        ident = tuple(range(3))
        assert alpha_inverse((ident,) * 3) == right_trivial(3)

    def test_round_trip_tau(self):
        assert alpha_inverse(alpha(BERMAN_TAU)) == BERMAN_TAU

    def test_swap_swap_vector(self):
        swap = (1, 0)
        assert alpha_inverse((swap, swap)) == make_table(2, [[1, 1], [0, 0]])

    @given(st.lists(perm_strategy, min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_round_trip_both_ways(self, cols):
        v = tuple(tuple(c) for c in cols)
        assert alpha(alpha_inverse(v)) == v


class TestMonoidHomomorphism:
    def test_alpha_transports_composition_exhaustive_n2(self):
        for op1 in invertible_tables(2):
            for op2 in invertible_tables(2):
                v = alpha(compose(op1, op2))
                v1, v2 = alpha(op1), alpha(op2)
                for y in range(2):
                    assert v[y] == perm_compose(v1[y], v2[y])

    @given(st.lists(perm_strategy, min_size=3, max_size=3), st.lists(perm_strategy, min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_alpha_transports_composition_n3(self, c1, c2):
        op1 = table_from_columns([tuple(c) for c in c1])
        op2 = table_from_columns([tuple(c) for c in c2])
        v = alpha(compose(op1, op2))
        v1, v2 = alpha(op1), alpha(op2)
        for y in range(3):
            assert v[y] == perm_compose(v1[y], v2[y])

    def test_perm_inverse(self):
        p = (2, 0, 1)
        assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


class TestConjugationCondition:
    def test_all_identity(self):
        v = alpha(right_trivial(3))
        assert conjugation_condition(v, v) is None

    def test_berman_pair(self):
        assert conjugation_condition(alpha(BERMAN_TAU), alpha(BERMAN_SIGMA)) is None
        assert conjugation_condition(alpha(BERMAN_SIGMA), alpha(BERMAN_TAU)) is None

    def test_xor_has_witness(self):
        v = alpha(XOR)
        assert conjugation_condition(v, v) is not None

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugation_condition(alpha(XOR), alpha(right_trivial(3)))

    def test_witness_is_lex_smallest(self):
        v = alpha(XOR)
        w = conjugation_condition(v, v)
        for y, z in itertools.product(range(2), repeat=2):
            siy, sjz = v[y], v[z]
            target = v[sjz[y]]
            if any(target[sjz[x]] != sjz[siy[x]] for x in range(2)):
                assert w == (y, z)
                break


class TestEquivalence:
    def test_regular_embedding_pairs(self):
        images = regular_embed(cyclic(4)).images
        for a in images:
            for b in images:
                assert distributive_witness(a, b) is None
                assert conjugation_condition(alpha(a), alpha(b)) is None

    def test_xor_both_sides_fail(self):
        assert distributive_witness(XOR, XOR) is not None
        assert conjugation_condition(alpha(XOR), alpha(XOR)) is not None

    def test_exhaustive_n2(self):
        tabs = list(invertible_tables(2))
        for a in tabs:
            for b in tabs:
                assert (distributive_witness(a, b) is None) == (
                    conjugation_condition(alpha(a), alpha(b)) is None
                )

    def test_rack_condition_single_op(self):
        # self-distributivity of an invertible table == self-conjugation condition
        for op in invertible_tables(3):
            v = alpha(op)
            assert (distributive_witness(op, op) is None) == (
                conjugation_condition(v, v) is None
            )
