import itertools
import math
import random

import pytest

from multishelf import (
    ChainSpec,
    DistributiveSet,
    OpTable,
    boundary_matrix,
    cyclic,
    dihedral,
    distributive_witness,
    enumerate_racks,
    homology_groups,
    make_distributive_set,
    make_table,
    regular_embed,
    relabel,
    right_trivial,
    smith_normal_form,
    symmetric,
    verify_differential,
    verify_distributive,
)
from multishelf import homology
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU, XOR


def sparse(m):
    """The dict rows {row: {column: value}} of the dense matrix m: its
    nonzero rows and their nonzero entries."""
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m) if any(row)}


def dense_snf(m, matched=None):
    """smith_normal_form of the dense matrix m."""
    return smith_normal_form(sparse(m), len(m[0]) if m else 0, matched)


def dense(rows, nrows, ncols):
    """The nrows x ncols matrix of the dict rows ``rows`` with every zero
    written out."""
    out = [[0] * ncols for _ in range(nrows)]
    for i, row in rows.items():
        for j, v in row.items():
            out[i][j] = v
    return tuple(map(tuple, out))


def shape(spec, degree):
    """(rows, columns) of the degree-n boundary matrix of spec."""
    n = spec.S.n
    return n**degree, n ** (degree + 1)


def full_snf(spec, degree):
    """Invariant factors of the whole degree-n boundary matrix of spec."""
    return smith_normal_form(boundary_matrix(spec, degree), shape(spec, degree)[1])


def mat_mul(A, B):
    """The product of two matrices given as dict rows, as dict rows."""
    out = {}
    for i, row in A.items():
        acc = {}
        for k, a in row.items():
            for j, b in B.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        if acc := {j: v for j, v in acc.items() if v}:
            out[i] = acc
    return out


def differential_ops(name):
    if name == "berman":
        return (BERMAN_TAU, BERMAN_SIGMA)
    if name == "xor":
        return (XOR,)
    return tuple(regular_embed(cyclic(3)).images)


_rng = random.Random(2012)
# (ops, weights, max_degree, expected).  Berman stops at degree 2: the dense
# product at degree 3 is too slow for tier-1.  No case runs SNF; the modular
# rank test in TestHomologyGroups checks the Berman invariant factors.
DIFFERENTIAL_CASES = [
    ("berman", (1, -1), 2, True),
    ("berman", (2, 5), 2, True),
    ("xor", (1,), 3, False),
] + [("cyclic3", tuple(_rng.randint(-3, 3) for _ in range(3)), 3, True) for _ in range(3)]


# Two racks on 3 points, each self-distributive, not mutually distributive.
INCOMPATIBLE_RACKS = (
    make_table(3, [[0, 0, 0], [1, 2, 2], [2, 1, 1]]),
    make_table(3, [[0, 0, 1], [1, 1, 0], [2, 2, 2]]),
)


def _param_id(v):
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def naive_snf(data):
    """Independent oracle: first-nonzero pivot, Euclidean elimination,
    then a pairwise gcd/lcm pass to repair the divisibility chain."""
    a = [list(r) for r in data]
    R = len(a)
    C = len(a[0]) if a else 0
    t = 0
    while t < min(R, C):
        pos = next(
            ((i, j) for i in range(t, R) for j in range(t, C) if a[i][j]), None
        )
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, R):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, C):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        break
            else:
                for j in range(t + 1, C):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        for i in range(t, R):
                            a[i][j] -= q * a[i][t]
                        if a[t][j]:
                            for i in range(t, R):
                                a[i][t], a[i][j] = a[i][j], a[i][t]
                            break
                else:
                    break
        t += 1
    d = sorted(abs(a[k][k]) for k in range(t) if a[k][k])
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = math.gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return d


def det(rows):
    """Exact integer determinant by expansion along the first row."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * v * det(minor)
    return total


def minor_gcd_snf(data):
    """Second oracle: invariant factors from gcds of k x k minors."""
    R, C = len(data), len(data[0]) if data else 0
    divisors = [1]
    for k in range(1, min(R, C) + 1):
        g = 0
        for rows in itertools.combinations(range(R), k):
            for cols in itertools.combinations(range(C), k):
                sub = [[data[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def units_after_elimination(rng, layers):
    """A matrix whose only +-1 entry is the pivot of its outermost layer.

    The core has small entries, units included.  Each layer adds a column
    and a pivot row p (its unit in the new column, +-2 everywhere else) and
    adds f * p, f in {+-2, +-3}, to every other row, choosing f so that the
    row holds no unit; eliminating p gives the rows back, so their units
    appear only after that elimination step."""
    r, c = rng.randint(1, 3), rng.randint(1, 3)
    m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
    while layers:
        p = [rng.choice((2, -2)) for _ in range(c)] + [rng.choice((1, -1))]
        rows = []
        for row in m:
            options = [
                [a + f * b for a, b in zip(row + [0], p)] for f in (2, -2, 3, -3)
            ]
            options = [new for new in options if not has_unit(new)]
            if not options:
                break
            rows.append(rng.choice(options))
        else:
            m = rows + [p]
            c += 1
            layers -= 1
    rng.shuffle(m)
    order = list(range(c))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in m]


def with_empty_lines(rng, m, rows, cols):
    """m with zero rows and zero columns inserted at random places."""
    m = [list(row) for row in m]
    width = len(m[0]) if m else 0
    for _ in range(cols):
        j = rng.randint(0, width)
        for row in m:
            row.insert(j, 0)
        width += 1
    for _ in range(rows):
        m.insert(rng.randint(0, len(m)), [0] * width)
    return m


def has_unit(values):
    return any(v in (1, -1) for v in values)


def rank_mod(m, p):
    """Rank of the dense matrix m over the integers mod the prime p, by
    dense elimination in numpy (entries and multipliers stay below
    p < 2**31, so int64 holds every product)."""
    import numpy as np

    a = np.array(m, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not len(nonzero):
            continue
        k = r + nonzero[0]
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


class TestSmithNormalForm:
    def test_zero_matrix(self):
        assert dense_snf([[0, 0], [0, 0]]) == []

    def test_example(self):
        assert dense_snf([[2, 4], [6, 8]]) == [2, 4]
        # diagonals that are not a divisibility chain
        assert dense_snf([[2, 0], [0, 3]]) == [1, 6]
        m = [[6, 0, 0], [0, 10, 0], [0, 0, 15]]
        assert dense_snf(m) == [1, 30, 30]

    def test_identity(self):
        assert dense_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_divisibility_chain(self):
        rng = random.Random(7)
        for _ in range(200):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
            f = dense_snf(m)
            assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))

    def test_against_naive_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            m = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
            assert dense_snf(m) == naive_snf(m)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
            assert dense_snf(m) == minor_gcd_snf(m)

    def test_units_only_after_elimination(self):
        # a pass ends only when no entry within its bound is left, and the
        # next pass takes the least |v| over the rows left, so the units that
        # appear only after a step are found
        rng = random.Random(11)
        for k in range(120):
            layers = 1 + k % 3
            m = units_after_elimination(rng, layers)
            assert sum(has_unit(row) for row in m) == 1
            f = dense_snf(m)
            assert f == naive_snf(m)
            if len(m) <= 5 and len(m[0]) <= 5:
                assert f == minor_gcd_snf(m)

    def test_no_unit_entries(self):
        rng = random.Random(12)
        for _ in range(150):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            entries = (0, 0, 2, -2, 3, -3, 6, -6)
            m = [[rng.choice(entries) for _ in range(c)] for _ in range(r)]
            f = dense_snf(m)
            assert f == naive_snf(m)
            if r <= 5 and c <= 5:
                assert f == minor_gcd_snf(m)

    def test_no_unit_entries_at_working_sizes(self):
        # the alphabet of the Berman weights 2,5: no pivot is a unit until
        # Euclid makes one, so every pass after the first runs the Euclid path
        # and nothing is matched
        rng = random.Random(32)
        torsion = 0
        for _ in range(40):
            r, c = rng.randint(10, 20), rng.randint(15, 30)
            m = [[rng.choice((0, 0, 0, 0, 2, -2, 5, -5, 7)) for _ in range(c)] for _ in range(r)]
            matched = set()
            f = dense_snf(m, matched)
            assert f == naive_snf(m)
            assert matched == set()
            torsion += any(v > 1 for v in f)
        assert torsion

    def test_empty_rows_and_columns(self):
        rng = random.Random(13)
        for _ in range(150):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
            m = with_empty_lines(rng, m, rng.randint(0, 2), rng.randint(0, 2))
            f = dense_snf(m)
            assert f == naive_snf(m)
            if len(m) <= 5 and len(m[0]) <= 5:
                assert f == minor_gcd_snf(m)
        assert dense_snf([]) == []
        assert dense_snf([[], []]) == []

    def test_large_entries_exact(self):
        m = [[10**30, 2 * 10**30], [3 * 10**30, 4 * 10**30]]
        f = dense_snf(m)
        assert f == naive_snf(m)

    @pytest.mark.parametrize(
        "m, expected",
        [
            ([[2, 0], [0, 1]], {1}),
            ([[2, 3]], set()),  # its unit appears only after column operations
            ([[2, 4], [6, 8]], set()),  # no +-1 entry
            ([[2, 0, 6, 0], [4, 3, 0, 0], [0, 9, 5, 2], [0, 0, 0, 0]], set()),
            # column 1 holds no +-1 until the pivot on row 0 turns its 3 into 1
            ([[1, 2], [1, 3]], {0, 1}),
            ([[1, 2, 0, 0], [1, 3, 0, 0], [0, 0, 2, 4], [0, 0, 4, 2]], {0, 1}),
        ],
        ids=["unit-first", "unit-after-column-ops", "no-unit", "no-unit-4x4", "unit-made-by-update",
             "unit-made-by-update-then-torsion"],
    )
    def test_matched_unit_pivot_columns(self, m, expected):
        matched = set()
        assert dense_snf(m, matched) == dense_snf(m) == naive_snf(m)
        assert matched == expected

    def test_matched_columns_have_unimodular_minor(self):
        # the columns P of the unit pivots carry a +-1-diagonal triangular
        # minor after row operations, so M[:, P] has |P| invariant factors 1
        rng = random.Random(21)
        recorded = 0
        for _ in range(200):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
            matched = set()
            assert dense_snf(m, matched) == naive_snf(m)
            cols = sorted(matched)
            if cols:
                sub = [[row[j] for j in cols] for row in m]
                assert dense_snf(sub) == [1] * len(cols)
            recorded += len(cols)
        assert recorded

    def test_against_naive_oracle_at_working_sizes(self):
        # 10-25 rows x 15-40 columns, mostly zero: the bound-1 pass queues
        # many columns, its updates make and destroy +-1 entries, and the
        # later passes take what is left
        rng = random.Random(31)
        recorded = torsion = 0
        for _ in range(60):
            r, c = rng.randint(10, 25), rng.randint(15, 40)
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
            matched = set()
            f = dense_snf(m, matched)
            assert f == naive_snf(m)
            cols = sorted(matched)
            sub = [[row[j] for j in cols] for row in m]
            assert naive_snf(sub) == [1] * len(cols)
            recorded += len(cols)
            torsion += any(v > 1 for v in f)
        assert recorded and torsion

    def test_drop_leaves_out_rows(self):
        # M without the rows R, the kept rows keeping their indices: the same
        # factors as the renumbered submatrix, and the same matched columns
        rng = random.Random(28)
        dropped = 0
        for _ in range(200):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
            drop = set(rng.sample(range(r), rng.randint(0, r)))
            sub = [row for i, row in enumerate(m) if i not in drop]
            s, expected = set(), set()
            kept = {i: row for i, row in sparse(m).items() if i not in drop}
            assert smith_normal_form(kept, c, s) == naive_snf(sub)
            dense_snf(sub, expected)
            assert s == expected
            dropped += len(drop)
        assert dropped


def faces_by_definition(op, degree):
    """faces[i][x]: lex index of d_i(x_0..x_d) = (x_0*x_i, .., x_{i-1}*x_i,
    x_{i+1}, .., x_d) for the x-th basis tuple of C_degree, from tuples."""
    n, e = op.n, op.entries
    basis = list(itertools.product(range(n), repeat=degree + 1))
    index = {t: k for k, t in enumerate(itertools.product(range(n), repeat=degree))}
    return [
        [index[tuple(e[x[j]][x[i]] for j in range(i)) + x[i + 1 :]] for x in basis]
        for i in range(degree + 1)
    ]


def boundary_by_definition(ops, weights, degree):
    """Dense d_degree = sum_s w_s sum_i (-1)^i e_{d_i^s x}, entered face by
    face and operation by operation, from faces_by_definition."""
    n = ops[0].n
    out = [[0] * n ** (degree + 1) for _ in range(n**degree)]
    for op, w in zip(ops, weights):
        for i, face in enumerate(faces_by_definition(op, degree)):
            for x, f in enumerate(face):
                out[f][x] += (-1) ** i * w
    return tuple(map(tuple, out))


def _definition_cases():
    # (ops, weights): face 0 enters with the weight sum, so weights that sum
    # to 0 (face 0 drops out), weights that do not, and zero weights
    berman = (BERMAN_TAU, BERMAN_SIGMA)
    cases = [
        pytest.param(berman, w, id=f"berman-{_param_id(w)}") for w in ((1, -1), (2, -2), (1, 1), (2, 5))
    ]
    d3 = tuple(regular_embed(dihedral(3)).images)
    cases.append(pytest.param(d3, (1, 0, -1, 2, 0, 1), id="dihedral:3-1,0,-1,2,0,1"))
    rng = random.Random(29)
    for n in (1, 2, 3):
        racks = enumerate_racks(n).racks
        for weights in ((1, -1), (3, -3), (1, 1), (2, -5), (1, 0, -2)):
            ops = tuple(rng.choice(racks) for _ in weights)
            cases.append(pytest.param(ops, weights, id=f"racks{n}-{_param_id(weights)}"))
    return cases


class TestFaceTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_tables_match_definition(self, n):
        # distributive or not: the recurrence reads only the table
        rng = random.Random(100 + n)
        ops = [make_table(n, [[rng.randrange(n) for _ in range(n)] for _ in range(n)]) for _ in range(4)]
        if n > 1:
            assert any(verify_distributive([op]) is not None for op in ops)
        for op in ops:
            tables = homology._face_tables(op, 4)
            assert len(tables) == 5
            for d in range(5):  # faces 1..d; face 0 reads no table and is not built
                assert tables[d] == faces_by_definition(op, d)[1:]

    @pytest.mark.parametrize("op", [BERMAN_TAU, BERMAN_SIGMA], ids=["tau", "sigma"])
    def test_berman_matches_definition(self, op):
        tables = homology._face_tables(op, 3)
        for d in range(4):
            assert tables[d] == faces_by_definition(op, d)[1:]


class TestBoundaryMatrix:
    def rt2_spec(self, weight=1, max_degree=3):
        return ChainSpec(make_distributive_set([right_trivial(2)]), (weight,), max_degree)

    def test_zero_weights_zero_matrix(self):
        spec = self.rt2_spec(weight=0)
        assert boundary_matrix(spec, 1) == {}
        assert boundary_matrix(spec, 2) == {}

    def test_right_trivial_degree1(self):
        # columns for basis (0,0),(0,1),(1,0),(1,1): 0, (1)-(0), (0)-(1), 0
        M = boundary_matrix(self.rt2_spec(), 1)
        assert dense(M, 2, 4) == ((0, -1, 1, 0), (0, 1, -1, 0))

    def test_z2_image_degree1(self):
        # for the nontrivial image of Z2, d(a,b) = (b) - (a+1 mod 2)
        op = regular_embed(cyclic(2)).images[1]
        spec = ChainSpec(DistributiveSet(2, (op,)), (1,), 2)
        M = boundary_matrix(spec, 1)
        cols = list(zip(*dense(M, 2, 4)))
        for col, (a, b) in zip(cols, itertools.product(range(2), repeat=2)):
            expected = [0, 0]
            expected[b] += 1
            expected[(a + 1) % 2] -= 1
            assert list(col) == expected

    @pytest.mark.parametrize(
        "name, weights, max_degree",
        [
            ("berman", (1, -1), 3),
            ("berman", (1, 1), 3),
            ("berman", (2, 5), 2),
            ("cyclic3", (1, 1, -2), 3),
        ],
        ids=_param_id,
    )
    def test_rows_sorted_without_zeros(self, name, weights, max_degree):
        ops = differential_ops(name)
        spec = ChainSpec(DistributiveSet(ops[0].n, ops), weights, max_degree)
        for d in range(1, max_degree + 1):
            rows = boundary_matrix(spec, d)
            nrows, ncols = shape(spec, d)
            assert list(rows) == sorted(rows) and all(0 <= i < nrows for i in rows)
            for row in rows.values():
                cols = list(row)
                assert cols == sorted(cols) and all(0 <= j < ncols for j in cols)
                assert all(row.values())

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_matrix(self.rt2_spec(max_degree=2), 3)

    @pytest.mark.parametrize("ops, weights", _definition_cases())
    def test_matches_definition(self, ops, weights):
        spec = ChainSpec(DistributiveSet(ops[0].n, ops), weights, 3)
        for d in (1, 2, 3):
            assert dense(boundary_matrix(spec, d), *shape(spec, d)) == boundary_by_definition(ops, weights, d)

    @pytest.mark.parametrize("name, weights, max_degree, expected", DIFFERENTIAL_CASES, ids=_param_id)
    def test_composition_is_zero_matrix(self, name, weights, max_degree, expected):
        # oracle for verify_differential: the dense products d_d d_{d+1}
        ops = differential_ops(name)
        spec = ChainSpec(DistributiveSet(ops[0].n, ops), weights, max_degree)
        mats = [boundary_matrix(spec, d) for d in range(1, max_degree + 1)]
        squares_to_zero = all(mat_mul(lo, hi) == {} for lo, hi in zip(mats, mats[1:]))
        assert verify_differential(spec) == squares_to_zero == expected


def face_identities_by_comprehension(spec, faces):
    """Oracle for verify_differential: each identity compared as two lists."""
    for d in range(1, max(spec.max_degree, 2)):
        for s in faces:
            for t in faces:
                for j in range(1, d + 1):
                    for i in range(j):
                        if [s[d][i][f] for f in t[d + 1][j]] != [t[d][j - 1][f] for f in s[d + 1][i]]:
                            return False
    return True


class TestVerifyDifferential:
    def test_zero_weights_trivially_true(self):
        bad = DistributiveSet(2, (XOR,))  # deliberately unvalidated
        assert verify_differential(ChainSpec(bad, (0,), 3))

    def test_berman_weights(self):
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        assert verify_differential(ChainSpec(S, (1, -1), 3))

    def test_xor_fails(self):
        bad = DistributiveSet(2, (XOR,))
        assert not verify_differential(ChainSpec(bad, (1,), 3))

    def test_anticommutation_tracks_distributivity(self):
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        assert distributive_witness(BERMAN_TAU, BERMAN_SIGMA) is None
        assert verify_differential(ChainSpec(S, (1, 1), 2))

    @pytest.mark.parametrize(
        "weights, expected",
        [((1, 1), False), ((1, -1), False), ((2, 3), False), ((1, 0), True)],
        ids=_param_id,
    )
    def test_incompatible_racks_fail_anticommutation(self, weights, expected):
        a, b = INCOMPATIBLE_RACKS
        assert distributive_witness(a, a) is None and distributive_witness(b, b) is None
        assert distributive_witness(a, b) is not None
        assert verify_differential(ChainSpec(DistributiveSet(3, (a, b)), weights, 3)) is expected

    def test_anticommutation_fails_where_weighted_square_vanishes(self):
        # weights 1,1,-1 on (a, b, b) sum to the differential d_a, which squares
        # to zero; only the anticommutator d_a d_b + d_b d_a is nonzero
        a, b = INCOMPATIBLE_RACKS
        spec = ChainSpec(DistributiveSet(3, (a, b, b)), (1, 1, -1), 2)
        d1, d2 = boundary_matrix(spec, 1), boundary_matrix(spec, 2)
        assert mat_mul(d1, d2) == {}
        assert not verify_differential(spec)

    @pytest.mark.parametrize("max_degree", [1, 2, 3])
    def test_equals_distributivity_on_two_points(self, max_degree):
        # on C_2 the face identities are right distributivity of each ordered pair
        tables = [make_table(2, [e[:2], e[2:]]) for e in itertools.product(range(2), repeat=4)]
        for a in tables:
            for b in tables:
                spec = ChainSpec(DistributiveSet(2, (a, b)), (1, 1), max_degree)
                assert verify_differential(spec) == (verify_distributive([a, b]) is None)

    def test_non_distributive_pair_whose_square_vanishes(self):
        # d_A d_B + d_B d_A = 0 here, so the anticommutator alone accepts the pair
        a = make_table(3, [[0, 0, 0]] * 3)
        b = make_table(3, [[1, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert verify_distributive([a, b]) is not None
        spec = ChainSpec(DistributiveSet(3, (a, b)), (1, -1), 2)
        d1, d2 = boundary_matrix(spec, 1), boundary_matrix(spec, 2)
        assert mat_mul(d1, d2) == {}
        assert not verify_differential(spec)
        with pytest.raises(ValueError, match="face identities .* fail: the operations are not distributive"):
            homology_groups(spec)

    def test_random_weights(self):
        rng = random.Random(2012)
        S = make_distributive_set(list(regular_embed(cyclic(3)).images))
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(3))
            assert verify_differential(ChainSpec(S, w, 3))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("max_degree", [1, 2, 3])
    def test_tiny_carriers(self, n, max_degree):
        # at n = 1 every face table gathers one index, and a one-index
        # itemgetter returns it bare rather than in a tuple; at n = 0 every
        # face table is empty
        spec = ChainSpec(DistributiveSet(n, (OpTable(n, ((0,),) * n),)), (1,), max_degree)
        assert verify_differential(spec)
        assert [(h.free_rank, h.torsion) for h in homology_groups(spec)] == [(n, ())] + [(0, ())] * (max_degree - 1)

    def test_agrees_with_comprehension_on_mutated_faces(self):
        # one entry of Berman's face tables changed at a time, degrees <= 3
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), 3)
        faces = homology._weighted_face_tables(spec, 3)
        assert verify_differential(spec, faces) and face_identities_by_comprehension(spec, faces)
        rng = random.Random(38)
        verdicts = []
        for _ in range(60):
            s, d = rng.randrange(2), rng.randint(1, 3)
            face = faces[s][d][rng.randrange(d)]
            x = rng.randrange(len(face))
            kept, face[x] = face[x], rng.randrange(6**d)
            verdicts.append(verify_differential(spec, faces))
            assert verdicts[-1] == face_identities_by_comprehension(spec, faces)
            face[x] = kept
        assert verdicts.count(False) > 50

    @pytest.mark.parametrize("entry", [-1, 3])
    def test_refuses_entries_outside_the_carrier(self, entry):
        bad = OpTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, entry)))  # deliberately unvalidated
        spec = ChainSpec(DistributiveSet(3, (right_trivial(3), bad)), (1, -1), 2)
        message = f"operation 1: entry {entry} is not an int in \\[0, 3\\)"
        with pytest.raises(ValueError, match=message):
            verify_differential(spec)
        with pytest.raises(ValueError, match=message):
            boundary_matrix(spec, 1)
        with pytest.raises(ValueError, match=message):
            homology_groups(spec)


class TestHomologyGroups:
    def test_right_trivial_h0(self):
        spec = ChainSpec(make_distributive_set([right_trivial(2)]), (1,), 2)
        h0 = homology_groups(spec)[0]
        assert h0.free_rank == 1 and h0.torsion == ()

    def test_z2_image_h0(self):
        op = regular_embed(cyclic(2)).images[1]
        spec = ChainSpec(DistributiveSet(2, (op,)), (1,), 2)
        assert homology_groups(spec)[0].free_rank == 1

    def test_zero_weights_full_rank(self):
        spec = ChainSpec(make_distributive_set([right_trivial(2)]), (0,), 3)
        assert [h.free_rank for h in homology_groups(spec)] == [2, 4, 8]

    def test_refuses_broken_differential(self):
        bad = DistributiveSet(2, (XOR,))
        for max_degree in (1, 2):  # at 1 no square of the differential exists
            with pytest.raises(ValueError, match="face identities"):
                homology_groups(ChainSpec(bad, (1,), max_degree))

    def test_dim_budget_before_verification(self):
        # the budget also bounds verify_differential's face tables
        bad = DistributiveSet(2, (XOR,))
        with pytest.raises(ValueError, match="budget"):
            homology_groups(ChainSpec(bad, (1,), 3), dim_budget=4)

    @pytest.mark.parametrize(
        "weights, max_degree, expected",
        [
            # a 216x1296 d_3 that a dense SNF never finished
            ((1, 1), 3, [(1, (3,)), (0, (6,)), (0, (3, 3))]),
            # a d_2 with no +-1 entry (0, +-2, +-5 and 7 only)
            ((2, 5), 2, [(1, (3,)), (0, (21,))]),
            # the 216x1296 d_3 of those weights: Euclid pivots at size
            ((2, 5), 3, [(1, (3,)), (0, (21,)), (0, (3, 3))]),
        ],
        ids=["1,1", "2,5", "2,5-d3"],
    )
    def test_berman_sum_weights_against_modular_ranks(self, weights, max_degree, expected):
        # rank mod p counts the invariant factors that p does not divide
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), weights, max_degree)
        for d in range(1, max_degree + 1):
            m = dense(boundary_matrix(spec, d), *shape(spec, d))
            factors = dense_snf(m)
            assert len(factors) == rank_mod(m, 2**31 - 1)
            for p in (2, 3, 7):
                assert sum(1 for f in factors if f % p) == rank_mod(m, p)
        groups = homology_groups(spec)
        assert [(h.free_rank, h.torsion) for h in groups] == expected

    def test_rank_nullity_consistency(self):
        S = make_distributive_set(list(regular_embed(cyclic(2)).images))
        spec = ChainSpec(S, (1, -1), 3)
        for h in homology_groups(spec):
            d = h.degree
            dim = 2 ** (d + 1)
            r_lo = 0 if d == 0 else len(full_snf(spec, d))
            r_hi = len(full_snf(spec, d + 1))
            assert h.free_rank == dim - r_lo - r_hi

    def test_ranks_invariant_under_relabeling(self):
        S = make_distributive_set(list(regular_embed(cyclic(3)).images))
        moved = make_distributive_set([relabel(op, [2, 0, 1]) for op in S.ops])
        a = homology_groups(ChainSpec(S, (1, 1, -2), 3))
        b = homology_groups(ChainSpec(moved, (1, 1, -2), 3))
        assert [(h.free_rank, h.torsion) for h in a] == [
            (h.free_rank, h.torsion) for h in b
        ]

    def test_top_degree_budget_checked_first(self, monkeypatch):
        # an over-budget run fails before any lower degree is built
        built = []
        face_tables = homology._face_tables
        monkeypatch.setattr(homology, "_face_tables", lambda *a: built.append(a) or face_tables(*a))
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), 3)
        with pytest.raises(ValueError, match="chain dimension 1296 exceeds budget 1000"):
            homology_groups(spec, dim_budget=1000)
        assert built == []

    @pytest.mark.parametrize("max_degree", [1, 3])
    def test_face_tables_built_once_per_weighted_operation(self, monkeypatch, max_degree):
        # the gate and every boundary matrix share one build per operation,
        # through the top degree the gate needs; a zero weight builds nothing
        built = []
        face_tables = homology._face_tables
        monkeypatch.setattr(homology, "_face_tables", lambda *a: built.append(a) or face_tables(*a))
        add6 = make_table(6, [[(x + y) % 6 for y in range(6)] for x in range(6)])
        assert verify_distributive([add6]) is not None
        S = DistributiveSet(6, (BERMAN_TAU, add6, BERMAN_SIGMA))  # deliberately unvalidated
        groups = homology_groups(ChainSpec(S, (1, 0, -1), max_degree))
        top = max(max_degree, 2)
        assert built == [(BERMAN_TAU, top), (BERMAN_SIGMA, top)]
        expected = homology_groups(ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), max_degree))
        assert groups == expected

    def test_drops_rows_matched_by_previous_unit_pivots(self, monkeypatch):
        # the rows that reach elimination: the nonzero rows the builder keeps
        rows = []
        factors = homology.smith_normal_form

        def recorded(kept, cols, matched):
            rows.append(len(kept))
            return factors(kept, cols, matched)

        monkeypatch.setattr(homology, "smith_normal_form", recorded)
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), 3)
        homology_groups(spec)
        assert rows == [6, 36 - 5, 216 - 30]

    @pytest.mark.parametrize(
        "group, expected",
        [
            # (matched, factors) of d_1 and d_2: matched follows the pivot
            # order, and picks the rows the next degree leaves out
            (
                "berman",
                [
                    ([0, 1, 2, 3, 6], [1] * 5),
                    (
                        [1, 2, 6, 9, 16, 23, 24, 27, 31, 36, 38, 39, 43, 44, 45, 49, 60, 63, 67, 78,
                         79, 88, 90, 96, 105, 120, 139, 144, 170, 174],
                        [1] * 30,
                    ),
                ],
            ),
            ("symmetric:3", [([0], [1, 2, 2, 2, 2]), ([0, 1, 2, 3, 4, 5, 6, 14, 21, 30], [1] * 10 + [2] * 20)]),
            ("dihedral:4", [([0], [1]), ([0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 25, 33, 41, 49], [1] * 14)]),
        ],
        ids=["berman", "symmetric:3", "dihedral:4"],
    )
    def test_matched_pivot_columns_pinned(self, monkeypatch, group, expected):
        got = []
        eliminate = homology.smith_normal_form

        def recorded(rows, cols, matched):
            factors = eliminate(rows, cols, matched)
            got.append((sorted(matched), factors))
            return factors

        monkeypatch.setattr(homology, "smith_normal_form", recorded)
        if group == "berman":
            ops, weights = [BERMAN_TAU, BERMAN_SIGMA], (1, -1)
        else:
            ops = list(regular_embed(symmetric(3) if group == "symmetric:3" else dihedral(4)).images)
            weights = tuple(1 if i % 2 == 0 else -1 for i in range(len(ops)))  # alternating, sum 0
        spec = ChainSpec(make_distributive_set(ops), weights, 2)
        homology_groups(spec)
        assert got == expected
        # whatever the pivot order, leaving out the rows d_1 matched keeps d_2's factors
        assert got[1][1] == full_snf(spec, 2)

    @pytest.mark.parametrize(
        "group, weights",
        [
            ("berman", (1, -1)),
            ("berman", (1, 1)),
            ("berman", (2, 5)),  # no +-1 entry: nothing is dropped
            ("symmetric:3", "alternating"),
            ("dihedral:4", "alternating"),
        ],
        ids=_param_id,
    )
    def test_eliminated_rows_are_the_validated_matrix(self, monkeypatch, group, weights):
        # at every degree the rows homology_groups eliminates are those of
        # boundary_matrix without the dropped ones, in the same order
        built = []
        boundary_rows = homology._boundary_rows

        def recorded(spec, d, faces, drop):
            rows = boundary_rows(spec, d, faces, drop)
            built.append((d, set(drop), [(i, list(row.items())) for i, row in rows.items()]))
            return rows

        monkeypatch.setattr(homology, "_boundary_rows", recorded)
        if group == "berman":
            ops = [BERMAN_TAU, BERMAN_SIGMA]
        else:
            ops = list(regular_embed(symmetric(3) if group == "symmetric:3" else dihedral(4)).images)
            weights = tuple(1 if i % 2 == 0 else -1 for i in range(len(ops)))  # alternating, sum 0
        spec = ChainSpec(make_distributive_set(ops), weights, 3)
        homology_groups(spec)
        monkeypatch.undo()  # boundary_matrix builds its rows through the same builder
        assert [d for d, *_ in built] == [1, 2, 3]
        assert any(drop for _, drop, _ in built) == (weights != (2, 5))
        for d, drop, rows in built:
            kept = [(i, list(row.items())) for i, row in boundary_matrix(spec, d).items() if i not in drop]
            assert rows == kept

    @pytest.mark.parametrize(
        "ops, weights",
        [
            ("berman", (1, -1)),
            ("berman", (1, 1)),
            ("berman", (2, 5)),  # no +-1 entry: nothing is dropped
            ("cyclic:3", (1, 2, -1)),
            ("dihedral:3", (1, 0, -1, 2, 0, 1)),
        ],
        ids=_param_id,
    )
    def test_matches_snf_of_full_matrices(self, ops, weights):
        if ops == "berman":
            tables = [BERMAN_TAU, BERMAN_SIGMA]
        else:
            tables = list(regular_embed(cyclic(3) if ops == "cyclic:3" else dihedral(3)).images)
        spec = ChainSpec(make_distributive_set(tables), weights, 3)
        n = spec.S.n
        factors = [[]] + [full_snf(spec, d) for d in (1, 2, 3)]
        expected = [
            (n ** (d + 1) - len(factors[d]) - len(factors[d + 1]), tuple(f for f in factors[d + 1] if f > 1))
            for d in range(3)
        ]
        assert [(h.free_rank, h.torsion) for h in homology_groups(spec)] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_term_homology_of_racks_is_trivial(self, n):
        """The one-term distributive homology of a rack is trivial (Przytycki,
        "Distributivity versus associativity in the homology theory of
        algebraic structures", Demonstratio Math. 44 (2011); Przytycki and
        Sikora, "Distributive products and their homology", Comm. Algebra 42
        (2014)).  Hypotheses: (X, *) is right self-distributive,
        (a * b) * c = (a * c) * (b * c), and every right translation
        x -> x * y is a bijection of X.  Complex: this module's, C_d free on
        X^(d+1) with boundary sum_i (-1)^i d_i.  Conclusion: H_0 = Z and
        H_d = 0 for d >= 1.  (For any b, x -> (x_0 * b, .., x_d * b) is a chain
        map, null-homotopic through x -> (-1)^(d+1) (x_0, .., x_d, b) in
        degrees d >= 1, and an isomorphism when x -> x * b is a bijection.)
        Checked on every rack class with n <= 4 points (1 + 2 + 6 + 19)."""
        for rack in enumerate_racks(n).canonical:
            groups = homology_groups(ChainSpec(make_distributive_set([rack]), (1,), 3))
            assert [(h.free_rank, h.torsion) for h in groups] == [(1, ()), (0, ()), (0, ())]

    # torsion of H_0, H_1, H_2 for {right_trivial(n), r} at weights 1,-1, keyed
    # by the rows of the canonical rack r; no other class with n <= 5 has any
    RACK_TORSION = {
        "021 210 102": ((), (), (3,)),  # R_3: a*b = 2b - a mod 3
        "0000 1132 2321 3213": ((), (), (3,)),
        "0011 1100 3322 2233": ((), (2, 2), (2, 2, 2, 2, 2, 2)),
        "0231 3102 1320 2013": ((), (2,), (2, 2, 4)),
        "00000 11111 22243 33432 44324": ((), (), (3,)),
        "00000 11122 22211 34433 43344": ((), (2, 2), (2,) * 10),
        "00000 11342 24213 32431 43124": ((), (2,), (2, 2, 2, 2, 4)),
        "00043 12211 21122 43330 34404": ((), (), (3,)),
        "00043 21122 12211 43330 34404": ((), (3,), (3, 3, 3, 3, 3)),
        "00043 22222 11111 43330 34404": ((), (), (3,)),
        "00111 11000 34243 42432 23324": ((), (3,), (3, 3, 3, 9)),
        "02341 31420 40213 14032 23104": ((), (), (5,)),
    }

    def test_rack_homology_free_rank_counts_orbits(self):
        """The free part of rack homology (Etingof and Grana, "On rack
        cohomology", J. Pure Appl. Algebra 177 (2003)).  Hypotheses: (X, *) is
        a rack, right self-distributive with every right translation
        x -> x * y a bijection; Orb(X) is the set of classes of x ~ x * y.
        Complex: this module's, for the set {right_trivial(n), *} at weights
        1,-1, the rack complex shifted one degree.  Conclusion: H_d has free rank |Orb(X)|^(d+1).  Checked for d = 0..2 on
        every rack class with n <= 5 points (1 + 2 + 6 + 19 + 74), each
        class's torsion pinned as well."""
        seen = {}
        for n in range(1, 6):
            for rack in enumerate_racks(n).canonical:
                parent = list(range(n))  # union-find over x ~ x * y

                def root(x):
                    while parent[x] != x:
                        x = parent[x]
                    return x

                for x in range(n):
                    for y in range(n):
                        parent[root(x)] = root(rack.entries[x][y])
                orbits = len({root(x) for x in range(n)})
                S = make_distributive_set([right_trivial(n), rack])
                groups = homology_groups(ChainSpec(S, (1, -1), 3))
                key = " ".join("".join(map(str, row)) for row in rack.entries)
                seen[key] = [(h.free_rank, h.torsion) for h in groups]
                torsion = self.RACK_TORSION.get(key, ((), (), ()))
                assert seen[key] == [(orbits ** (d + 1), torsion[d]) for d in range(3)], key
        assert len(seen) == 102
        assert set(self.RACK_TORSION) <= set(seen)
        r3 = make_table(3, [[(2 * b - a) % 3 for b in range(3)] for a in range(3)])
        assert seen[" ".join("".join(map(str, row)) for row in r3.entries)] == [(1, ()), (1, ()), (1, (3,))]

    def test_dim_budget(self):
        S = make_distributive_set([right_trivial(6)])
        with pytest.raises(ValueError, match="budget"):
            homology_groups(ChainSpec(S, (1,), 8), dim_budget=100)
        # max_degree 1 builds no C_2 matrix, but the gate builds C_2 face tables
        with pytest.raises(ValueError, match="chain dimension 216 exceeds budget 100"):
            homology_groups(ChainSpec(S, (1,), 1), dim_budget=100)
        assert homology_groups(ChainSpec(S, (1,), 1), dim_budget=216)[0].free_rank == 1


class TestChainSpec:
    def test_weight_count_must_match_ops(self):
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        with pytest.raises(ValueError, match="1 weights for 2 operations"):
            ChainSpec(S, (1,), 2)

    def test_negative_max_degree(self):
        S = make_distributive_set([right_trivial(2)])
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            ChainSpec(S, (1,), -1)

    @pytest.mark.parametrize(
        "weights, position", [((0.5, -1), 0), ((1, 2.0), 1), ((1, True), 1), (("1", -1), 0)]
    )
    def test_rejects_non_integer_weights(self, weights, position):
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        with pytest.raises(ValueError, match=f"weight {position}: .* is not an integer"):
            ChainSpec(S, weights, 2)

    def test_replace_and_make_validate(self):
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), 2)
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            spec._replace(max_degree=-1)
        with pytest.raises(ValueError, match="weight 1: .* is not an integer"):
            spec._replace(weights=(1, 0.5))
        with pytest.raises(ValueError, match="1 weights for 2 operations"):
            ChainSpec._make((spec.S, (1,), 2))

    def test_replace_keeps_numpy_weights_as_ints(self):
        np = pytest.importorskip("numpy")
        spec = ChainSpec(make_distributive_set([BERMAN_TAU, BERMAN_SIGMA]), (1, -1), 2)
        assert list(map(type, spec._replace(weights=(np.int64(1), -1)).weights)) == [int, int]

    def test_accepts_numpy_integer_weights(self):
        np = pytest.importorskip("numpy")
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        spec = ChainSpec(S, (np.int64(1), np.int64(-1)), 2)
        assert all(type(w) is int for w in spec.weights)  # kept as exact ints
        assert homology_groups(spec) == homology_groups(ChainSpec(S, (1, -1), 2))
