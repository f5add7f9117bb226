import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from multishelf import (
    OpTable,
    commutes,
    compose,
    distributive_witness,
    is_idempotent,
    make_table,
    relabel,
    right_trivial,
)
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU, XOR
from multishelf.tables import generated, noninvertible_column, perm_compose, perm_inverse


def invert(op):
    """Oracle: the composition inverse, each column the inverse permutation
    of op's column."""
    y = noninvertible_column(op)
    if y is not None:
        raise ValueError(f"table is not invertible: column {y} is not a permutation")
    cols = [perm_inverse(op.column(y)) for y in range(op.n)]
    return OpTable(op.n, tuple(zip(*cols)))


def all_tables(n):
    cells = list(itertools.product(range(n), repeat=n * n))
    for flat in cells:
        yield OpTable(n, tuple(tuple(flat[a * n + b] for b in range(n)) for a in range(n)))


class TestMakeTable:
    def test_right_trivial_2(self):
        assert make_table(2, [[0, 0], [1, 1]]) == right_trivial(2)

    def test_berman_tau_is_valid(self):
        rows = [list(r) for r in BERMAN_TAU.entries]
        assert make_table(6, rows) == BERMAN_TAU

    def test_entry_out_of_range(self):
        for entry, message in (
            (2, "entry 2 at \\(0,1\\) out of range"),
            (1.7, "entry 1.7 at \\(0,1\\) is not an integer"),
            (True, "entry True at \\(0,1\\) is not an integer"),
        ):
            with pytest.raises(ValueError, match=message):
                make_table(2, [[0, entry], [1, 1]])

    def test_ragged_shape(self):
        with pytest.raises(ValueError):
            make_table(2, [[0, 0, 1], [1, 1]])

    def test_zero_carrier_rejected(self):
        with pytest.raises(ValueError):
            make_table(0, [])


class TestRightTrivial:
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_constant_rows(self, n):
        op = right_trivial(n)
        assert all(op.entries[a] == (a,) * n for a in range(n))


class TestCompose:
    def test_identity_both_sides(self):
        for op in (BERMAN_TAU, BERMAN_SIGMA, XOR):
            ident = right_trivial(op.n)
            assert compose(op, ident) == op
            assert compose(ident, op) == op

    def test_tau_squared_is_identity(self):
        assert compose(BERMAN_TAU, BERMAN_TAU) == right_trivial(6)

    def test_sigma_squared_entry(self):
        # 0*s0 = 2 and 2*s0 = 4
        assert compose(BERMAN_SIGMA, BERMAN_SIGMA).entries[0][0] == 4

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compose(XOR, BERMAN_TAU)

    def test_associative_exhaustive_n2(self):
        tables = list(all_tables(2))
        for a, b, c in itertools.product(tables, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(st.integers(0, 3**9 - 1), st.integers(0, 3**9 - 1), st.integers(0, 3**9 - 1))
    @settings(max_examples=100)
    def test_associative_sampled_n3(self, ia, ib, ic):
        def table(i):
            flat = [(i // 3**k) % 3 for k in range(9)]
            return OpTable(3, tuple(tuple(flat[a * 3 + b] for b in range(3)) for a in range(3)))

        a, b, c = table(ia), table(ib), table(ic)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestGenerated:
    def test_identity_then_seeds_then_products(self):
        # each member times each seed, members and seeds in order
        r, t = (1, 2, 0), (1, 0, 2)
        got = generated([r, t], (0, 1, 2), perm_compose, 6)
        assert got == [(0, 1, 2), r, t, (2, 0, 1), (0, 2, 1), (2, 1, 0)]

    def test_none_exactly_past_limit(self):
        add5 = lambda a, b: (a + b) % 5
        assert generated([1], 0, add5, 5) == [0, 1, 2, 3, 4]
        assert generated([1], 0, add5, 4) is None
        # repeated seeds and the identity add no member
        assert generated([0, 1, 1], 0, add5, 5) == [0, 1, 2, 3, 4]

    def test_tables_by_value(self):
        # a product equal to a member but built anew is not a new member
        got = generated([BERMAN_TAU], right_trivial(6), compose, 2)
        assert got == [right_trivial(6), BERMAN_TAU]


class TestInvertibility:
    def test_right_trivial_invertible(self):
        assert noninvertible_column(right_trivial(4)) is None

    def test_tau_invertible_column0(self):
        assert noninvertible_column(BERMAN_TAU) is None
        assert BERMAN_TAU.column(0) == (1, 0, 3, 2, 5, 4)

    def test_constant_column_not_invertible(self):
        assert noninvertible_column(make_table(2, [[0, 0], [0, 1]])) == 0

    def test_invert_right_trivial(self):
        assert invert(right_trivial(3)) == right_trivial(3)

    def test_invert_tau_is_tau(self):
        assert invert(BERMAN_TAU) == BERMAN_TAU

    def test_invert_sigma_column(self):
        assert invert(BERMAN_SIGMA).column(0) == (4, 3, 0, 5, 2, 1)

    def test_invert_is_two_sided_inverse(self):
        for op in (BERMAN_TAU, BERMAN_SIGMA, XOR):
            bar = invert(op)
            assert compose(op, bar) == right_trivial(op.n)
            assert compose(bar, op) == right_trivial(op.n)

    def test_invert_rejects_noninvertible(self):
        with pytest.raises(ValueError, match="not invertible: column 0 "):
            invert(make_table(2, [[0, 0], [0, 1]]))

    def test_invertible_iff_inverse_exists_n2(self):
        # a monoid inverse exists exactly for tables with bijective columns
        tables = list(all_tables(2))
        ident = right_trivial(2)
        for op in tables:
            has_inverse = any(
                compose(op, other) == ident and compose(other, op) == ident
                for other in tables
            )
            assert has_inverse == (noninvertible_column(op) is None)


class TestIdempotent:
    def test_right_trivial(self):
        assert is_idempotent(right_trivial(5))

    def test_tau_not_idempotent(self):
        assert BERMAN_TAU.entries[0][0] == 1
        assert not is_idempotent(BERMAN_TAU)
        assert not is_idempotent(BERMAN_SIGMA)  # so the Berman set has no idempotents

    def test_swap_rows_not_idempotent(self):
        assert not is_idempotent(make_table(2, [[1, 1], [0, 0]]))


class TestDistributiveWitness:
    def test_right_trivial_right_factor(self):
        for op in (XOR, BERMAN_TAU):
            assert distributive_witness(op, right_trivial(op.n)) is None

    def test_berman_pair(self):
        assert distributive_witness(BERMAN_TAU, BERMAN_SIGMA) is None
        assert distributive_witness(BERMAN_SIGMA, BERMAN_TAU) is None

    def test_xor_witness(self):
        assert distributive_witness(XOR, XOR) == (0, 0, 1)

    def test_witness_is_lex_smallest(self):
        w = distributive_witness(XOR, XOR)
        n = 2
        for triple in itertools.product(range(n), repeat=3):
            a, b, c = triple
            lhs = XOR.entries[XOR.entries[a][b]][c]
            rhs = XOR.entries[XOR.entries[a][c]][XOR.entries[b][c]]
            if lhs != rhs:
                assert triple == w
                break


class TestCommutes:
    def test_with_identity(self):
        assert commutes(BERMAN_TAU, right_trivial(6))

    def test_with_self(self):
        assert commutes(BERMAN_SIGMA, BERMAN_SIGMA)

    def test_berman_pair_does_not_commute(self):
        assert not commutes(BERMAN_TAU, BERMAN_SIGMA)
        assert compose(BERMAN_TAU, BERMAN_SIGMA) != compose(BERMAN_SIGMA, BERMAN_TAU)

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch: 6 vs 2"):
            commutes(BERMAN_TAU, right_trivial(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_composite_tables(self, seed):
        rng = random.Random(seed)
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            a = OpTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
            kind = rng.randrange(4)
            if kind == 0:  # unrelated table: almost never commutes
                b = OpTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
            elif kind == 1:  # powers of a commute with a
                b = compose(a, a)
            elif kind == 2:  # a power of a with one entry changed
                rows = [list(r) for r in compose(compose(a, a), a).entries]
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                b = OpTable(n, tuple(map(tuple, rows)))
            else:
                b = rng.choice([a, right_trivial(n)])
            want = compose(a, b) == compose(b, a)
            hits += want
            assert commutes(a, b) == want
            assert commutes(b, a) == want
        assert 0 < hits < 300


class TestIdempotentCommutation:
    def test_idempotent_distributive_commutes_exhaustive_n2(self):
        tables = list(all_tables(2))
        for opB in tables:
            if not is_idempotent(opB):
                continue
            for opA in tables:
                if distributive_witness(opA, opB) is None:
                    assert commutes(opA, opB)


perm3 = st.permutations(list(range(3)))


class TestRelabelEquivariance:
    @given(st.integers(0, 3**9 - 1), st.integers(0, 3**9 - 1), perm3)
    @settings(max_examples=150)
    def test_properties_preserved(self, ia, ib, pi):
        def table(i):
            flat = [(i // 3**k) % 3 for k in range(9)]
            return OpTable(3, tuple(tuple(flat[a * 3 + b] for b in range(3)) for a in range(3)))

        a, b = table(ia), table(ib)
        ra, rb = relabel(a, pi), relabel(b, pi)
        assert (distributive_witness(a, b) is None) == (distributive_witness(ra, rb) is None)
        assert (noninvertible_column(a) is None) == (noninvertible_column(ra) is None)
        assert is_idempotent(a) == is_idempotent(ra)
        assert commutes(a, b) == commutes(ra, rb)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30)
    def test_relabel_transports_composition(self, pi):
        lhs = relabel(compose(BERMAN_TAU, BERMAN_SIGMA), pi)
        rhs = compose(relabel(BERMAN_TAU, pi), relabel(BERMAN_SIGMA, pi))
        assert lhs == rhs
