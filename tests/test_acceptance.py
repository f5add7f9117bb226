"""Acceptance suite: one test per criterion, each printing a PASS line.

All criteria produce JSON-able report dicts; the determinism criterion
rebuilds everything from scratch and requires byte-identical serialization.
Random inputs use fixed seeds.
"""
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from multishelf import (
    ChainSpec,
    DistributiveSet,
    boundary_matrix,
    certify_no_nonabelian,
    close_group,
    commutes,
    compose,
    conjugation_condition,
    cyclic,
    dihedral,
    distributive_witness,
    enumerate_racks,
    homology_groups,
    int_matrix,
    invert,
    alpha,
    make_distributive_set,
    regular_embed,
    right_trivial,
    smith_normal_form,
    symmetric,
    verify_differential,
    verify_distributive,
    verify_inverse_images,
)
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU

from test_homology import naive_snf
from test_search import (
    compatible_pairs_brute_force,
    enumerate_racks_brute_force,
    invertible_tables,
)


# ---------------------------------------------------------------- criterion 1
def criterion_1():
    groups = {
        "cyclic:2": cyclic(2),
        "cyclic:3": cyclic(3),
        "cyclic:4": cyclic(4),
        "cyclic:5": cyclic(5),
        "cyclic:6": cyclic(6),
        "dihedral:3": dihedral(3),
        "symmetric:3": symmetric(3),
    }
    report = {}
    for name, G in groups.items():
        E = regular_embed(G)  # construction already re-checks every clause
        hom = all(
            compose(E.images[g1], E.images[g2]) == E.images[G.mul[g1][g2]]
            for g1 in range(G.m)
            for g2 in range(G.m)
        )
        injective = len(set(E.images)) == G.m
        report[name] = {
            "distributive": verify_distributive(E.images) is None,
            "homomorphism": hom,
            "injective": injective,
            "inverse_images": verify_inverse_images(E),
        }
    return report


# ---------------------------------------------------------------- criterion 2
def criterion_2():
    tau, sigma = BERMAN_TAU, BERMAN_SIGMA
    S = make_distributive_set([tau, sigma])
    cl = close_group(S)
    ident = right_trivial(6)
    return {
        "distributive": True,
        "closure_order": cl.order,
        "tau_squared_identity": compose(tau, tau) == ident,
        "sigma_cubed_identity": compose(compose(sigma, sigma), sigma) == ident,
        "tau_sigma_tau_is_sigma_inverse": compose(compose(tau, sigma), tau) == invert(sigma),
        "commutes": commutes(tau, sigma),
        "abelian": cl.abelian,
    }


# ---------------------------------------------------------------- criterion 3
def criterion_3():
    tables = list(invertible_tables(3))
    vecs = [alpha(t) for t in tables]
    mismatches = 0
    distributive_pairs = 0
    for i, a in enumerate(tables):
        va = vecs[i]
        for j, b in enumerate(tables):
            table_side = distributive_witness(a, b) is None
            perm_side = conjugation_condition(va, vecs[j]) is None
            if table_side != perm_side:
                mismatches += 1
            if table_side:
                distributive_pairs += 1
    return {
        "tables": len(tables),
        "ordered_pairs": len(tables) ** 2,
        "mismatches": mismatches,
        "distributive_pairs": distributive_pairs,
    }


# ---------------------------------------------------------------- criterion 4
def criterion_4():
    report = {}
    for n in (1, 2, 3):
        catalog = enumerate_racks(n)
        pairs = compatible_pairs_brute_force(catalog.racks)
        pairs += [(i, i) for i in range(len(catalog.racks))]
        closures_ok = 0
        inverses_ok = 0
        for i, j in sorted(pairs):
            a, b = catalog.racks[i], catalog.racks[j]
            S = make_distributive_set([a, b] if i != j else [a])
            cl = close_group(S)  # revalidates the closure as a distributive set
            closures_ok += 1
            make_distributive_set(list(S.ops) + [invert(a), invert(b)])
            inverses_ok += 1
        report[str(n)] = {
            "racks": len(catalog.racks),
            "pairs_checked": len(pairs),
            "closures_revalidated": closures_ok,
            "inverse_extensions_valid": inverses_ok,
        }
    return report


# ---------------------------------------------------------------- criterion 5
def _all_tables_array(n):
    count = n ** (n * n)
    flat = np.arange(count)
    digits = np.empty((count, n * n), dtype=np.int64)
    for k in range(n * n):
        digits[:, k] = flat % n
        flat = flat // n
    return digits.reshape(count, n, n)


def criterion_5():
    """Exhaustively at n <= 3: any (opA, opB) pair with opB idempotent and
    (opA, opB) distributive must commute.  Vectorized sweep, then a sampled
    cross-check through the library predicates."""
    report = {}
    rng = random.Random(20121001)
    for n in (1, 2, 3):
        A = _all_tables_array(n)
        N = A.shape[0]
        diag = np.arange(n)
        idem_idx = np.nonzero((A[:, diag, diag] == diag).all(axis=1))[0]
        col = np.arange(n)
        triples = list(itertools.product(range(n), repeat=3))
        counterexamples = 0
        checked = 0
        sample_pairs = []
        for bi in idem_idx:
            B = A[bi]
            # distributive opA: filter every table one (a, b, c) triple at a
            # time, (a A b) B c == (a B c) A (b B c); survivors stay ascending
            hits = np.arange(N)
            for a, b, c in triples:
                hits = hits[B[A[hits, a, b], c] == A[hits, B[a, c], B[b, c]]]
            S = A[hits]
            c1 = B[S, col]  # compose(A,B)
            c2 = S[np.arange(len(hits))[:, None, None], B, col]  # compose(B,A)
            comm = (c1 == c2).reshape(len(hits), -1).all(axis=1)
            counterexamples += int(np.count_nonzero(~comm))
            checked += len(hits)
            if len(hits):
                sample_pairs.append((int(rng.choice(list(hits))), int(bi)))
        # cross-check a sample against the library predicates
        from multishelf import OpTable

        for ai, bi in rng.sample(sample_pairs, min(25, len(sample_pairs))):
            opA = OpTable(n, tuple(tuple(int(v) for v in row) for row in A[ai]))
            opB = OpTable(n, tuple(tuple(int(v) for v in row) for row in A[bi]))
            assert distributive_witness(opA, opB) is None
            assert commutes(opA, opB)
        report[str(n)] = {
            "tables": N,
            "idempotent_right_factors": int(len(idem_idx)),
            "distributive_combinations": checked,
            "counterexamples": counterexamples,
        }
    return report


# ---------------------------------------------------------------- criterion 6
def criterion_6():
    report = {}
    for n in (1, 2, 3, 4):
        pruned = enumerate_racks(n).racks
        cert = certify_no_nonabelian(n)
        report[str(n)] = {
            "racks": len(pruned),
            "pruned_equals_unpruned": list(pruned) == enumerate_racks_brute_force(n),
            "compatible_pairs": cert.compatible_pairs,
            "conclusion": cert.conclusion,
        }
    seeded = certify_no_nonabelian(6, seed_pair=(BERMAN_TAU, BERMAN_SIGMA))
    report["6-seeded"] = {
        "conclusion": seeded.conclusion,
        "closure_order": seeded.nonabelian_groups[0]["closure_order"]
        if seeded.nonabelian_groups
        else None,
    }
    return report


# ---------------------------------------------------------------- criterion 7
def criterion_7():
    rng = random.Random(20120201)
    report = {}

    diff_checks = []
    for name, S in (
        ("cyclic:2", make_distributive_set(list(regular_embed(cyclic(2)).images))),
        ("cyclic:3", make_distributive_set(list(regular_embed(cyclic(3)).images))),
        ("berman-d6", make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])),
    ):
        k = len(S.ops)
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            diff_checks.append(
                {"set": name, "weights": list(w), "ok": verify_differential(ChainSpec(S, w, 3))}
            )
    report["differential_checks"] = diff_checks

    agreements = 0
    for _ in range(1000):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
        if smith_normal_form(int_matrix(m)) == naive_snf(m):
            agreements += 1
    report["snf"] = {"matrices": 1000, "oracle_agreements": agreements}

    spec = ChainSpec(make_distributive_set([right_trivial(2)]), (1,), 2)
    h0 = homology_groups(spec)[0]
    report["h0_right_trivial_2"] = {"free_rank": h0.free_rank, "torsion": list(h0.torsion)}

    zero = ChainSpec(make_distributive_set([right_trivial(2)]), (0,), 3)
    report["zero_weight_ranks"] = [h.free_rank for h in homology_groups(zero)]
    return report


def build_reports():
    reports = {}
    timings = {}
    for k, fn in (
        (1, criterion_1),
        (2, criterion_2),
        (3, criterion_3),
        (4, criterion_4),
        (5, criterion_5),
        (6, criterion_6),
        (7, criterion_7),
    ):
        t0 = time.monotonic()
        reports[str(k)] = fn()
        timings[str(k)] = time.monotonic() - t0
    return reports, timings


@pytest.fixture(scope="module")
def first_run():
    return build_reports()


def _report(first_run, k):
    return first_run[0][str(k)]


def _elapsed(first_run, k):
    return first_run[1][str(k)]


def test_criterion_1_regular_embedding_proof(first_run):
    rep = _report(first_run, 1)
    assert all(all(v.values()) for v in rep.values()), rep
    assert _elapsed(first_run, 1) < 2.0
    print("ACCEPTANCE 1: PASS - regular embedding proof for 7 groups, exact")


def test_criterion_2_berman_fixture(first_run):
    rep = _report(first_run, 2)
    assert rep["closure_order"] == 6
    assert rep["tau_squared_identity"] and rep["sigma_cubed_identity"]
    assert rep["tau_sigma_tau_is_sigma_inverse"]
    assert rep["commutes"] is False and rep["abelian"] is False
    assert _elapsed(first_run, 2) < 1.0
    print("ACCEPTANCE 2: PASS - bundled 6x6 pair generates non-abelian order 6")


def test_criterion_3_alpha_equivalence(first_run):
    rep = _report(first_run, 3)
    assert rep["tables"] == 216 and rep["ordered_pairs"] == 216**2
    assert rep["mismatches"] == 0
    assert _elapsed(first_run, 3) < 60.0
    print("ACCEPTANCE 3: PASS - 216^2 pairs, table/permutation forms agree")


def test_criterion_4_closure_suite(first_run):
    rep = _report(first_run, 4)
    for n, r in rep.items():
        assert r["closures_revalidated"] == r["pairs_checked"]
        assert r["inverse_extensions_valid"] == r["pairs_checked"]
    assert _elapsed(first_run, 4) < 60.0
    print("ACCEPTANCE 4: PASS - group closures of rack pairs revalidate, n <= 3")


def test_criterion_5_idempotent_center(first_run):
    rep = _report(first_run, 5)
    for n, r in rep.items():
        assert r["counterexamples"] == 0
        assert r["distributive_combinations"] > 0
    assert _elapsed(first_run, 5) < 60.0
    print("ACCEPTANCE 5: PASS - idempotent right factors always commute, n <= 3")


def test_criterion_6_minimality(first_run):
    rep = _report(first_run, 6)
    for n in ("1", "2", "3", "4"):
        assert rep[n]["conclusion"] == "commutative-only"
        assert rep[n]["pruned_equals_unpruned"]
    assert rep["6-seeded"]["conclusion"] == "nonabelian-found"
    assert rep["6-seeded"]["closure_order"] == 6
    assert _elapsed(first_run, 6) < 600.0
    print("ACCEPTANCE 6: PASS - no non-abelian group below n=5; found at n=6")


def test_criterion_6_n5():
    report = certify_no_nonabelian(5)
    assert report.conclusion == "commutative-only"
    assert (report.racks_found, report.compatible_pairs) == (1708, 42651)
    catalog = enumerate_racks(5)
    assert len(catalog.canonical) == 74  # OEIS A181771
    assert catalog.nodes_pruned == report.nodes_pruned == 14937
    print("ACCEPTANCE 6 (n=5): PASS - commutative-only over 1708 racks in 74 classes")


def test_criterion_7_homology_gates(first_run):
    rep = _report(first_run, 7)
    assert all(c["ok"] for c in rep["differential_checks"])
    assert rep["snf"] == {"matrices": 1000, "oracle_agreements": 1000}
    assert rep["h0_right_trivial_2"] == {"free_rank": 1, "torsion": []}
    assert rep["zero_weight_ranks"] == [2, 4, 8]
    assert _elapsed(first_run, 7) < 300.0
    print("ACCEPTANCE 7: PASS - differential gates, SNF oracle, H0 checks")


def test_criterion_8_determinism(first_run):
    second, _ = build_reports()
    first_bytes = json.dumps(first_run[0], sort_keys=True).encode()
    second_bytes = json.dumps(second, sort_keys=True).encode()
    assert first_bytes == second_bytes
    print("ACCEPTANCE 8: PASS - criteria 1-7 reports byte-identical across runs")
