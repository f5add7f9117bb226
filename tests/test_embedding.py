import itertools
import random

import pytest

from multishelf import (
    OpTable,
    close_group,
    commutes,
    cyclic,
    dihedral,
    distributive_witness,
    enumerate_racks,
    make_distributive_set,
    make_table,
    regular_embed,
    right_trivial,
    symmetric,
    verify_distributive,
    verify_inverse_images,
)
from multishelf.fixtures import XOR


class TestRegularEmbed:
    def test_trivial_group(self):
        E = regular_embed(cyclic(1))
        assert E.images == (right_trivial(1),)

    def test_z2_nontrivial_image(self):
        E = regular_embed(cyclic(2))
        assert E.images[1] == make_table(2, [[1, 1], [0, 0]])

    def test_identity_maps_to_right_trivial(self):
        for G in (cyclic(4), dihedral(3)):
            E = regular_embed(G)
            assert E.images[G.identity] == right_trivial(G.m)

    def test_s3_images_form_nonabelian_distributive_group(self):
        E = regular_embed(symmetric(3))
        assert verify_distributive(E.images) is None
        S = make_distributive_set(list(E.images))
        cl = close_group(S)
        assert cl.order == 6
        assert not cl.abelian
        # closure returns exactly the image set
        assert set(cl.ops) == set(E.images)

    @pytest.mark.parametrize("G", [symmetric(4), dihedral(12)], ids=["S4", "D12"])
    def test_order_24(self, G):
        E = regular_embed(G)
        assert len(set(E.images)) == 24

    def test_s4_closure_from_generators(self):
        G = symmetric(4)
        E = regular_embed(G)
        perms = sorted(itertools.permutations(range(4)))
        gens = [E.images[perms.index(p)] for p in ((1, 0, 2, 3), (1, 2, 3, 0))]
        cl = close_group(make_distributive_set(gens))
        assert cl.order == 24
        assert not cl.abelian
        assert set(cl.ops) == set(E.images)

    def test_abelian_images_column_constant_and_commuting(self):
        G = cyclic(5)
        E = regular_embed(G)
        for g, op in enumerate(E.images):
            for a in range(G.m):
                assert op.entries[a] == (G.mul[a][g],) * G.m
        for opa in E.images:
            for opb in E.images:
                assert commutes(opa, opb)

    def test_rejects_non_injective_images(self, monkeypatch):
        import multishelf.embedding as embedding

        monkeypatch.setattr(embedding, "_image_table", lambda G, g: right_trivial(G.m))
        with pytest.raises(AssertionError, match="injectivity"):
            regular_embed(cyclic(2))

    def test_injectivity_column(self):
        G = dihedral(3)
        E = regular_embed(G)
        for g in range(G.m):
            assert E.images[g].column(G.identity) == tuple(
                G.mul[a][g] for a in range(G.m)
            )


class TestVerifyDistributive:
    def test_cyclic3_absent(self):
        assert verify_distributive(regular_embed(cyclic(3)).images) is None

    def test_symmetric3_absent(self):
        assert verify_distributive(regular_embed(symmetric(3)).images) is None

    def test_xor_witness(self):
        assert verify_distributive([XOR]) == (0, 0, 0, 0, 1)

    def test_mixed_carriers_rejected(self):
        small, large = right_trivial(2), right_trivial(3)
        with pytest.raises(ValueError, match="carrier mismatch: 2 vs 3"):
            verify_distributive([small, large])
        with pytest.raises(ValueError, match="carrier mismatch: 3 vs 2"):
            verify_distributive([large, small])

    def test_mixed_carriers_rejected_before_any_pair(self):
        # XOR fails on its own pair (0, 0), but the carriers are checked first
        with pytest.raises(ValueError, match="carrier mismatch: 2 vs 3"):
            verify_distributive([XOR, right_trivial(3)])

    def test_failing_column_only_in_later_table(self):
        # shift: a * b = a + 1; reflect: a * b = 2b - a (mod 3).  Both are
        # racks, and the shift is an automorphism of reflect, but no
        # reflection commutes with the shift: row 0 fails only on columns of
        # the later tables, the least of which is j = 2.
        shift = make_table(3, [[1, 1, 1], [2, 2, 2], [0, 0, 0]])
        reflect = make_table(3, [[0, 2, 1], [2, 1, 0], [1, 0, 2]])
        ops = [shift, shift, reflect, reflect]
        assert verify_distributive(ops) == (0, 2, 0, 0, 0) == _pairwise(ops)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_scan(self, seed):
        rng = random.Random(seed)
        racks = {n: enumerate_racks(n).racks for n in range(1, 5)}
        for _ in range(400):
            n = rng.randint(1, 4)
            ops = _random_family(rng, n, racks[n])
            assert _outcome(verify_distributive, ops) == _outcome(_pairwise, ops)

    def test_matches_pairwise_scan_edge_families(self):
        families = [[], [XOR], [right_trivial(1)], [right_trivial(3)]]
        families += [[op] for op in enumerate_racks(3).racks]
        families += [[XOR, right_trivial(3)], [right_trivial(2), XOR, right_trivial(3)]]
        for ops in families:
            assert _outcome(verify_distributive, ops) == _outcome(_pairwise, ops)


def _pairwise(ops):
    """The reference: one carrier for the family, then every ordered pair
    through distributive_witness."""
    for op in ops:
        if op.n != ops[0].n:
            raise ValueError(f"carrier mismatch: {ops[0].n} vs {op.n}")
    for i, opA in enumerate(ops):
        for j, opB in enumerate(ops):
            w = distributive_witness(opA, opB)
            if w is not None:
                return (i, j) + w
    return None


def _outcome(check, ops):
    try:
        return check(ops)
    except ValueError as e:
        return ("ValueError", str(e))


def _random_family(rng, n, racks):
    """Up to six tables on n points: racks, arbitrary tables (mostly not
    invertible), tables a * b = f(a) for a random map f (distributive with
    one another iff the maps commute), right-trivial, repeats, and now and
    then a table on another carrier."""
    ops = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(6)
        if kind == 0 or (kind == 1 and not ops):
            op = rng.choice(racks)
        elif kind == 1:
            op = rng.choice(ops)
        elif kind == 2:
            op = OpTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))
        elif kind == 3:
            f = [rng.randrange(n) for _ in range(n)]
            op = OpTable(n, tuple((f[a],) * n for a in range(n)))
        elif kind == 4:
            op = right_trivial(n)
        else:
            op = rng.choice(racks) if rng.random() < 0.9 else right_trivial(n % 4 + 1)
        ops.append(op)
    return ops


class TestVerifyInverseImages:
    @pytest.mark.parametrize(
        "G", [cyclic(1), cyclic(2), symmetric(3), dihedral(4), cyclic(6), symmetric(4)]
    )
    def test_all_families(self, G):
        assert verify_inverse_images(regular_embed(G))

    def test_z2_image_is_involution(self):
        from multishelf import compose

        E = regular_embed(cyclic(2))
        assert compose(E.images[1], E.images[1]) == right_trivial(2)
