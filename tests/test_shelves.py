import random

import pytest

from multishelf import (
    ClosureBudgetError,
    DistributivityError,
    close_group,
    commutes,
    compose,
    cyclic,
    dihedral,
    invert,
    make_distributive_set,
    regular_embed,
    right_trivial,
)
from multishelf import shelves
from multishelf.tables import OpTable, generated
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU, XOR
from multishelf.search import enumerate_racks


class TestMakeDistributiveSet:
    def test_singleton_right_trivial(self):
        S = make_distributive_set([right_trivial(3)])
        assert len(S.ops) == 1 and S.n == 3

    def test_berman_pair(self):
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        assert len(S.ops) == 2

    def test_xor_rejected_with_witness(self):
        with pytest.raises(DistributivityError) as exc:
            make_distributive_set([XOR])
        assert exc.value.pair == (0, 0)
        assert exc.value.triple == (0, 0, 1)

    def test_empty_requires_carrier(self):
        with pytest.raises(ValueError):
            make_distributive_set([])
        assert make_distributive_set([], n=2).n == 2

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch: 2 vs 3"):
            make_distributive_set([right_trivial(2), right_trivial(3)])


class TestCloseMonoid:
    """Closure under composition: for invertible members, the monoid that S
    and the identity generate is the group close_group returns."""

    def test_identity_alone(self):
        S = make_distributive_set([right_trivial(2)])
        cl = close_group(S)
        assert cl.order == 1 and cl.kind == "group"

    def test_regular_embedding_image_already_closed(self):
        images = regular_embed(cyclic(3)).images
        cl = close_group(make_distributive_set(list(images)))
        assert set(cl.ops) == set(images)
        assert cl.order == 3

    def test_sigma_generates_order_3(self):
        cl = close_group(make_distributive_set([BERMAN_SIGMA]))
        sigma2 = compose(BERMAN_SIGMA, BERMAN_SIGMA)
        assert set(cl.ops) == {right_trivial(6), BERMAN_SIGMA, sigma2}

    def test_closed_under_composition_and_abelian_by_brute_force(self):
        d5 = regular_embed(dihedral(5)).images
        closures = [
            close_group(make_distributive_set([BERMAN_SIGMA])),
            close_group(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])),
            close_group(make_distributive_set([d5[1], d5[5]])),
        ]
        for cl in closures:
            members = set(cl.ops)
            assert len(members) == cl.order
            assert all(compose(a, b) in members for a in cl.ops for b in cl.ops)
            assert cl.abelian == all(commutes(a, b) for a in cl.ops for b in cl.ops)
        assert [cl.abelian for cl in closures] == [True, False, False]


class TestCloseGroup:
    def test_berman_group_order_6_nonabelian(self):
        cl = close_group(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]))
        assert cl.order == 6
        assert cl.kind == "group"
        assert not cl.abelian

    def test_z2_image(self):
        images = regular_embed(cyclic(2)).images
        cl = close_group(make_distributive_set([images[1]]))
        assert cl.order == 2

    def test_empty_set(self):
        cl = close_group(make_distributive_set([], n=3))
        assert cl.ops == (right_trivial(3),)

    def test_noninvertible_member_rejected(self):
        from multishelf import make_table

        proj = make_table(2, [[0, 0], [0, 0]])  # constant, distributive with itself
        S = make_distributive_set([proj])
        with pytest.raises(ValueError, match="member 0 is not invertible: column 0 "):
            close_group(S)

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(shelves, "CLOSURE_BUDGET", 3)
        with pytest.raises(ClosureBudgetError, match="budget of 3 tables"):
            close_group(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]))

    def test_budget_boundary_is_the_order(self, monkeypatch):
        # S3 has 6 members: a budget of 6 holds it, 5 does not
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        monkeypatch.setattr(shelves, "CLOSURE_BUDGET", 6)
        assert close_group(S).order == 6
        monkeypatch.setattr(shelves, "CLOSURE_BUDGET", 5)
        with pytest.raises(ClosureBudgetError, match="budget of 5 tables"):
            close_group(S)

    def test_members_in_discovery_order(self):
        # the identity, the seeds, then each member composed with each seed
        t, s = BERMAN_TAU, BERMAN_SIGMA
        cl = close_group(make_distributive_set([t, s]))
        assert cl.ops == (right_trivial(6), t, s, compose(t, s), compose(s, t), compose(s, s))

    def test_closed_under_inverses_and_revalidates(self):
        cl = close_group(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]))
        for op in cl.ops:
            assert invert(op) in cl.ops
        make_distributive_set(list(cl.ops))  # no exception

    def test_closure_is_idempotent(self):
        cl = close_group(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]))
        again = close_group(make_distributive_set(cl.ops))
        assert set(again.ops) == set(cl.ops)

    def test_non_distributive_seed_rejected(self):
        # XOR is invertible but not self-distributive; a DistributiveSet
        # built without make_distributive_set is caught at its seeds
        with pytest.raises(DistributivityError, match=r"ops \(0,0\) violate .* \(0, 0, 1\)"):
            close_group(shelves.DistributiveSet(2, (XOR,)))

    @pytest.mark.parametrize("seed", range(3))
    def test_seed_check_matches_member_check(self, seed):
        # the oracle checks every member of the closure, as close_group did
        # before it checked the seeds only (the closure lemma)
        rng = random.Random(seed)
        d5 = regular_embed(dihedral(5)).images
        families = [
            [right_trivial(2)], [BERMAN_SIGMA], [BERMAN_TAU, BERMAN_SIGMA], [d5[1], d5[5]],
            list(regular_embed(cyclic(3)).images), [regular_embed(cyclic(2)).images[1]], [XOR],
        ]
        racks = enumerate_racks(3).racks  # closures lie in S3^3, within the budget
        for _ in range(60):
            families.append([rng.choice(racks) for _ in range(rng.randint(1, 3))])
            cols = [[rng.sample(range(3), 3) for _ in range(3)] for _ in range(rng.randint(1, 2))]
            families.append([OpTable(3, tuple(zip(*c))) for c in cols])  # columns are permutations
        outcomes = set()
        for ops in families:
            S = shelves.DistributiveSet(ops[0].n, tuple(ops))
            members = generated(ops, right_trivial(S.n), compose, shelves.CLOSURE_BUDGET)
            want = _raises(make_distributive_set, members)
            assert _raises(close_group, S) == want
            outcomes.add(want)
        assert outcomes == {False, True}


def _raises(check, arg):
    """True iff check(arg) raises DistributivityError."""
    try:
        check(arg)
    except DistributivityError:
        return True
    return False


class TestLemmaAddingInverses:
    def test_add_inverse_keeps_distributivity_n3(self):
        catalog = enumerate_racks(3)
        for rack in catalog.racks:
            make_distributive_set([rack, invert(rack)])  # must not raise

    def test_add_inverse_berman(self):
        make_distributive_set(
            [BERMAN_TAU, BERMAN_SIGMA, invert(BERMAN_SIGMA)]
        )


class TestIdempotentCenter:
    def test_idempotent_sets_fully_commutative(self):
        import itertools

        from multishelf import OpTable, commutes, distributive_witness, is_idempotent

        n = 2
        idem = [
            t
            for t in (
                OpTable(n, tuple(tuple(flat[a * n + b] for b in range(n)) for a in range(n)))
                for flat in itertools.product(range(n), repeat=n * n)
            )
            if is_idempotent(t)
        ]
        for a in idem:
            for b in idem:
                ok = all(
                    distributive_witness(x, y) is None
                    for x in (a, b)
                    for y in (a, b)
                )
                if ok:
                    assert commutes(a, b)
