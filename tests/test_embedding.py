import itertools
import random

import pytest

from multishelf import (
    OpTable,
    RegularEmbedding,
    close_group,
    commutes,
    cyclic,
    dihedral,
    distributive_witness,
    enumerate_racks,
    group_from_table,
    make_distributive_set,
    make_table,
    regular_embed,
    relabel,
    right_trivial,
    symmetric,
    verify_distributive,
    verify_inverse_images,
)
from multishelf import shelves
from multishelf.fixtures import XOR, fixture, fixture_names
from multishelf.tables import compose, generated, greedy_generators, is_endomorphism, perm_compose

from test_tables import invert


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

    def test_corrupted_non_generator_image_rejected(self, monkeypatch):
        import multishelf.embedding as embedding

        # S3 in lex order is generated by 1 = (0 2 1) and 2 = (1 0 2), and
        # 3 * 1 = 5.  Swapping the images of 3 and 5 keeps the image set, so
        # the identity image and distributivity still pass, and it commutes
        # with multiplying by 1 on the right: only generator 2 can see it.
        G = symmetric(3)
        assert _generators(G) == [1, 2] and G.mul[3][1] == 5
        image_table = embedding._image_table
        swap = {3: 5, 5: 3}
        monkeypatch.setattr(embedding, "_image_table", lambda G, g: image_table(G, swap.get(g, g)))
        with pytest.raises(AssertionError, match=r"homomorphism fails at \(\d+,2\)"):
            regular_embed(G)

    def test_rejects_image_not_left_equivariant(self, monkeypatch):
        import multishelf.embedding as embedding

        # one entry off the identity row of image 3, which is not a
        # generator: the homomorphism and injectivity checks read identity
        # rows only and distributivity is checked on generator images, so
        # only left-equivariance sees it
        G = symmetric(3)
        assert _generators(G) == [1, 2]
        image_table = embedding._image_table

        def corrupted(G, g):
            op = image_table(G, g)
            return _corrupt_row(op, 2) if g == 3 else op

        monkeypatch.setattr(embedding, "_image_table", corrupted)
        with pytest.raises(AssertionError, match="image 3 is not left-equivariant at row 2"):
            regular_embed(G)

    @pytest.mark.parametrize(
        "G", [symmetric(3), dihedral(4), dihedral(6), symmetric(4)], ids=["S3", "D4", "D6", "S4"]
    )
    def test_generator_checks_match_full_checks(self, G):
        # the oracles check every image: distributivity of the whole image
        # set, and T_g ; T_h = T_gh for all g and h as full tables
        images = regular_embed(G).images
        gens = _generators(G)
        assert verify_distributive(images) is None
        assert verify_distributive([images[s] for s in gens]) is None
        assert set(generated([images[s] for s in gens], right_trivial(G.m), compose, G.m)) == set(images)
        for g in range(G.m):
            for h in range(G.m):
                assert compose(images[g], images[h]) == images[G.mul[g][h]]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("base", [symmetric(4), dihedral(6)], ids=["S4", "D6"])
    def test_greedy_generators_generate_relabeled_groups(self, base, seed):
        perm = list(range(base.m))
        random.Random(seed).shuffle(perm)
        G = _relabeled_group(base, perm)
        gens = _generators(G)
        generated = {G.identity}
        while True:
            more = generated | {G.mul[h][s] for h in generated for s in gens}
            if more == generated:
                break
            generated = more
        assert generated == set(range(G.m))
        # each generator is the least element the ones before it miss
        for k, s in enumerate(gens):
            sub = {G.identity}
            for _ in range(G.m):
                sub |= {G.mul[h][t] for h in sub for t in gens[:k]}
            assert s == min(set(range(G.m)) - sub)
        images, base_images = regular_embed(G).images, regular_embed(base).images
        for g in range(G.m):
            assert images[perm[g]] == relabel(base_images[g], perm)

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
            outcome = _outcome(verify_distributive, ops)
            assert outcome == _outcome(_all_columns, ops) == _outcome(_pairwise, ops)

    def test_matches_all_columns_scan_on_fixtures_and_images(self):
        families = [list(fixture(name)[0]) for name in fixture_names()]
        groups = [cyclic(k) for k in range(1, 7)] + [dihedral(k) for k in range(1, 7)]
        for G in groups + [symmetric(k) for k in range(1, 5)]:
            images = list(regular_embed(G).images)
            families += [images, images[::-1], images[1:] + [_corrupt(images[0])]]
        for ops in families:
            assert verify_distributive(ops) == _all_columns(ops)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_all_columns_scan_on_image_subfamilies(self, seed):
        # subsets of regular images in random order, now and then with one
        # table corrupted: the generating columns are a proper subset, and a
        # failing column may or may not be one of them
        rng = random.Random(seed)
        images = {G.m: regular_embed(G).images for G in (symmetric(3), dihedral(4), dihedral(6))}
        for _ in range(60):
            pool = images[rng.choice(sorted(images))]
            ops = rng.sample(pool, rng.randint(1, len(pool)))
            if rng.random() < 0.5:
                k = rng.randrange(len(ops))
                ops[k] = _corrupt(ops[k], rng)
            assert verify_distributive(ops) == _all_columns(ops)

    def test_falls_back_to_every_column(self, monkeypatch):
        # The Berman pair has 5 distinct columns, which generate S3 (6 maps),
        # so every table is tested against all 5 columns
        ops = list(fixture("berman-d6")[0])
        columns = list(dict.fromkeys(c for op in ops for c in zip(*op.entries)))
        assert len(columns) == 5
        assert greedy_generators(columns, tuple(range(6)), perm_compose, 5) is None
        calls = _record_endomorphism_tests(monkeypatch)
        assert verify_distributive(ops) is None
        assert len(calls) == 2 * 5

    def test_tests_generating_columns_only(self, monkeypatch):
        ops = list(regular_embed(symmetric(4)).images)
        calls = _record_endomorphism_tests(monkeypatch)
        assert verify_distributive(ops) is None
        assert len(calls) == 24 * 3  # S4 needs 3 of its 24 columns here

    def test_matches_pairwise_scan_edge_families(self):
        families = [[], [XOR], [right_trivial(1)], [right_trivial(3)]]
        families += [[op] for op in enumerate_racks(3).racks]
        families += [[XOR, right_trivial(3)], [right_trivial(2), XOR, right_trivial(3)]]
        for ops in families:
            assert _outcome(verify_distributive, ops) == _outcome(_pairwise, ops)


def _all_columns(ops):
    """The reference: one carrier for the family, then each table against
    every distinct column of the family, in order of first appearance."""
    for op in ops:
        if op.n != ops[0].n:
            raise ValueError(f"carrier mismatch: {ops[0].n} vs {op.n}")
    first = {}  # column -> least j having it
    for j, op in enumerate(ops):
        for col in zip(*op.entries):
            first.setdefault(col, j)
    for i, opA in enumerate(ops):
        for col, j in first.items():
            if not is_endomorphism(col, opA):
                return (i, j) + distributive_witness(opA, ops[j])
    return None


def _record_endomorphism_tests(monkeypatch):
    """The columns verify_distributive tests, one per is_endomorphism call."""
    calls = []
    endo = shelves.is_endomorphism
    monkeypatch.setattr(shelves, "is_endomorphism", lambda s, op: calls.append(s) or endo(s, op))
    return calls


def _corrupt(op, rng=None):
    """The table with one entry moved to another value."""
    rng = rng or random.Random(op.n)
    rows = [list(r) for r in op.entries]
    a, b = rng.randrange(op.n), rng.randrange(op.n)
    rows[a][b] = (rows[a][b] + rng.randrange(1, op.n)) % op.n if op.n > 1 else 0
    return make_table(op.n, rows)


def _corrupt_row(op, a):
    """The table with entry (a, 0) moved to the next value."""
    rows = [list(r) for r in op.entries]
    rows[a][0] = (rows[a][0] + 1) % op.n
    return make_table(op.n, rows)


def _generators(G):
    return greedy_generators(range(G.m), G.identity, lambda h, s: G.mul[h][s], G.m)


def _relabeled_group(G, perm):
    """The same group with element g renamed perm[g]."""
    mul = [[0] * G.m for _ in range(G.m)]
    for a in range(G.m):
        for b in range(G.m):
            mul[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return group_from_table(G.m, mul, perm[G.identity])


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

    @pytest.mark.parametrize("G", [cyclic(4), symmetric(3), dihedral(4)])
    def test_swapped_images_match_the_invert_oracle(self, G):
        # The one-way composition check against the full inverse, on the
        # embedding and on every copy of it with two images swapped: most
        # swaps fail, and a swap of g with g^-1 or of two involutions holds.
        E = regular_embed(G)
        outcomes = set()
        for g, h in [(0, 0), *itertools.combinations(range(G.m), 2)]:
            images = list(E.images)
            images[g], images[h] = images[h], images[g]
            swapped = RegularEmbedding(G, tuple(images))
            want = all(images[G.inv[k]] == invert(images[k]) for k in range(G.m))
            assert verify_inverse_images(swapped) == want
            outcomes.add(want)
        assert outcomes == {False, True}

    def test_z2_image_is_involution(self):
        E = regular_embed(cyclic(2))
        assert compose(E.images[1], E.images[1]) == right_trivial(2)
