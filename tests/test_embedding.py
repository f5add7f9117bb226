import pytest

from multishelf import (
    close_group,
    commutes,
    cyclic,
    dihedral,
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


class TestVerifyInverseImages:
    @pytest.mark.parametrize(
        "G", [cyclic(1), cyclic(2), symmetric(3), dihedral(4), cyclic(6)]
    )
    def test_all_families(self, G):
        assert verify_inverse_images(regular_embed(G))

    def test_z2_image_is_involution(self):
        from multishelf import compose

        E = regular_embed(cyclic(2))
        assert compose(E.images[1], E.images[1]) == right_trivial(2)
