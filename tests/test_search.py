import hashlib
import itertools
import json
import math
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from multishelf import (
    DistributiveSet,
    OpTable,
    canonical_form,
    certify_no_nonabelian,
    close_group,
    commutes,
    compatibility_graph,
    compose,
    distributive_witness,
    enumerate_racks,
    make_table,
    regular_embed,
    relabel,
    right_trivial,
    seed_catalog,
    symmetric,
    verify_distributive,
)
from multishelf import groups, search
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU, XOR
from multishelf.tables import noninvertible_column, perm_inverse
from multishelf.translate import alpha_inverse


def invertible_tables(n):
    """Yield every invertible table on n points, one per choice of n column
    permutations, in lexicographic order of the column choices."""
    perms = sorted(itertools.permutations(range(n)))
    for cols in itertools.product(perms, repeat=n):
        yield OpTable(n, tuple(tuple(cols[y][x] for y in range(n)) for x in range(n)))


def automorphisms_brute_force(op):
    """The indices of the relabelings fixing op, the k-th permutation in
    lexicographic order as k."""
    perms = sorted(itertools.permutations(range(op.n)))
    return {k for k, p in enumerate(perms) if relabel(op, p) == op}


def canonical_form_set(ops):
    """Reference key of a family of tables: the least (under lex order of
    the sorted table list) simultaneous relabeling, by all n! ``relabel``s."""
    n = ops[0].n
    best = min(tuple(sorted(relabel(op, pi).entries for op in ops)) for pi in itertools.permutations(range(n)))
    return tuple(OpTable(n, e) for e in best)


def quandle_counts(catalog):
    """(quandles, connected quandles) among the class representatives, read
    off their columns: idempotent iff column x fixes x, connected iff the
    column maps reach every point from 0."""
    perms = sorted(itertools.permutations(range(catalog.n)))
    quandles = connected = 0
    for i in catalog.representatives:
        cols = [perms[c] for c in catalog.columns[i]]
        if all(col[x] == x for x, col in enumerate(cols)):
            quandles += 1
            reached, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                new = {col[x] for col in cols} - reached
                reached |= new
                frontier += new
            connected += len(reached) == catalog.n
    return quandles, connected


def _recording_automorphisms(catalog, spread):
    """The catalog with each Aut(r) a frozenset that records, in spread,
    each time it is iterated."""

    class Recorded(frozenset):
        def __iter__(self):
            spread.append(self)
            return super().__iter__()

    return catalog._replace(automorphisms=tuple(map(Recorded, catalog.automorphisms)))


def _pair_document(pair):
    return [list(map(list, op.entries)) for op in pair]


def _columns(ops):
    """The column indices of each table, the k-th permutation of the carrier
    in lexicographic order as k."""
    index = {p: k for k, p in enumerate(sorted(itertools.permutations(range(ops[0].n))))}
    return tuple(tuple(index[c] for c in zip(*op.entries)) for op in ops)


def _tables(n, members):
    """The table of each rack given by its column indices."""
    perms = sorted(itertools.permutations(range(n)))
    return tuple(alpha_inverse([perms[c] for c in cols]) for cols in members)


def _recording_closures(monkeypatch):
    """Record, as (seeds, members), each closure the pair sweep computes on
    column indices through ``search.generated``."""
    closures, close = [], search.generated

    def recorded(*args):
        members = close(*args)
        closures.append((args[0], tuple(members)))
        return members

    monkeypatch.setattr(search, "generated", recorded)
    return closures


def _count_calls(monkeypatch, pairs):
    """Make the catalog of an unseeded search the given rack pairs, in
    order, each table its own class, and record the closures and
    closure keys the search computes."""
    seeds = [seed_catalog(6, tuple(pair)) for pair in pairs]
    catalog = search.RackCatalog(
        6,
        tuple(c for seed in seeds for c in seed.columns),
        tuple(range(2 * len(pairs))),
        tuple(a for seed in seeds for a in seed.automorphisms),
        conj=tuple(groups.conjugation_table(6, None)[1]),
    )
    monkeypatch.setattr(search, "enumerate_racks", lambda n, deadline: catalog)
    closures, keys = _recording_closures(monkeypatch), []
    key = search._closure_key
    monkeypatch.setattr(search, "_closure_key", lambda relabel, members: keys.append(members) or key(relabel, members))
    return closures, keys


def _expire_after(monkeypatch, name):
    """Make the clock pass every deadline once ``search.<name>`` returns;
    the returned list gets one entry per clock read after that."""
    call, reads = getattr(search, name), []

    def call_then_expire(*args):
        result = call(*args)
        monkeypatch.setattr(groups, "time", SimpleNamespace(monotonic=lambda: reads.append(name) or math.inf))
        return result

    monkeypatch.setattr(search, name, call_then_expire)
    return reads


def _count_phases(monkeypatch, *names):
    """Record each call of ``search.<name>`` for the given names."""
    calls = []
    for name in names:
        call = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, name=name, call=call: calls.append(name) or call(*args))
    return calls


def _unreachable(what):
    def fail(*args):
        raise AssertionError(what)

    return fail


def _count_class_checks(monkeypatch):
    """Record the columns of each ``_self_distributive`` check, and fail if
    the search module builds or checks a table."""
    checked = []
    check = search._self_distributive
    monkeypatch.setattr(search, "_self_distributive", lambda cols, *sym: checked.append(cols) or check(cols, *sym))
    for name in ("OpTable", "alpha_inverse", "distributive_witness"):
        monkeypatch.setattr(search, name, _unreachable(f"the search called {name}"))
    return checked


def _is_rack(n, cols):
    """The table oracle: the table with these column indices is self-distributive."""
    table = alpha_inverse([sorted(itertools.permutations(range(n)))[c] for c in cols])
    return distributive_witness(table, table) is None


def enumerate_racks_brute_force(n):
    """Reference enumerator: the self-distributive invertible tables,
    sorted by table encoding."""
    racks = [t for t in invertible_tables(n) if distributive_witness(t, t) is None]
    return sorted(racks, key=lambda t: t.entries)


def enumerate_pruned_full_loop(n, sym):
    """Reference backtrack that visits every candidate p of the free column
    y in turn, rejecting it with the look-up on column p(y) first; the same
    propagation as ``search._enumerate_pruned``."""
    perms, conj = sym[:2]
    fix0 = [q for q, qp in enumerate(perms) if qp[0] == 0]
    column0 = [p for p in range(len(perms)) if all(p <= conj[q][p] for q in fix0)]
    found, pruned = [], 0

    def assign(cols, y, p):
        cols[y] = p
        new = [y]
        while new:
            x = new.pop()
            sx = cols[x]
            for z in range(n):
                sz = cols[z]
                if sz is None:
                    continue
                for w, req in ((perms[sz][x], conj[sz][sx]), (perms[sx][z], conj[sx][sz])):
                    if cols[w] is None:
                        cols[w] = req
                        new.append(w)
                    elif cols[w] != req:
                        return False
        return True

    def extend(cols):
        nonlocal pruned
        if None not in cols:
            found.append(tuple(cols))
            return
        y = cols.index(None)
        assigned = [(z, c) for z, c in enumerate(cols) if c is not None]
        for p in range(len(perms)) if y else column0:
            pp, cp = perms[p], conj[p]
            w = cols[pp[y]]
            if (w is None or w == p) and all(cols[pp[z]] in (None, cp[c]) for z, c in assigned):
                trial = list(cols)
                if assign(trial, y, p):
                    extend(trial)
                    continue
            pruned += 1

    extend([None] * n)
    return found, pruned


def catalog_by_all_relabelings(n):
    """Reference sweep: relabel the first completion of each class by every
    one of the n! permutations with ``relabel``; Aut(r) is the q giving r
    back, and an image's automorphisms are q Aut(r) q^-1.  Returns the
    columns, orbit and automorphism index sets in table order, and
    nodes_pruned."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    found, pruned = search._enumerate_pruned(n, None, groups.conjugation_table(n, None))
    swept = {}  # columns -> (table entries, class, Aut)
    for cls, cols in enumerate(found):
        if cols in swept:
            continue
        rack = alpha_inverse([perms[c] for c in cols])
        images = [relabel(rack, q) for q in perms]
        aut = [perms[k] for k, image in enumerate(images) if image == rack]
        for q, image in zip(perms, images):
            qinv = perm_inverse(q)
            group = {index[tuple(q[a[qinv[x]]] for x in range(n))] for a in aut}
            swept.setdefault(tuple(index[image.column(y)] for y in range(n)), (image.entries, cls, group))
    columns = sorted(swept, key=swept.__getitem__)
    first = {}
    orbit = tuple(first.setdefault(swept[c][1], i) for i, c in enumerate(columns))
    return tuple(columns), orbit, tuple(swept[c][2] for c in columns), pruned


class TestEnumerateRacks:
    def test_n1(self):
        assert len(enumerate_racks(1).racks) == 1

    def test_n2_exactly_two(self):
        catalog = enumerate_racks(2)
        assert set(catalog.racks) == {
            right_trivial(2),
            make_table(2, [[1, 1], [0, 0]]),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pruned_matches_unpruned(self, n):
        assert list(enumerate_racks(n).racks) == enumerate_racks_brute_force(n)

    def test_every_member_is_a_rack(self):
        for rack in enumerate_racks(3).racks:
            assert noninvertible_column(rack) is None
            assert distributive_witness(rack, rack) is None

    def test_bound_enforced(self):
        for fn in (enumerate_racks, certify_no_nonabelian):
            for n in (-2, 0, 7):
                with pytest.raises(ValueError, match=f"n={n} "):
                    fn(n)

    def test_past_deadline_raises(self):
        with pytest.raises(TimeoutError):
            enumerate_racks(3, deadline=time.monotonic() - 1)

    def test_deadline_checked_before_the_first_class(self, monkeypatch):
        # Without a deadline each of the 19 classes is checked once before
        # it is swept.  When the deadline passes just after the backtrack
        # returns, no class may be swept, so none is checked.
        checked = _count_class_checks(monkeypatch)
        enumerate_racks(4)
        assert len(checked) == 19
        checked.clear()
        _expire_after(monkeypatch, "_enumerate_pruned")
        with pytest.raises(TimeoutError):
            enumerate_racks(4, deadline=time.monotonic() + 3600)
        assert checked == []

    def test_deadline_checked_while_the_tables_are_built(self, monkeypatch):
        # Building the S_6 tables takes longer than a 0.05 s budget, so the
        # deadline must stop the build itself, not only the backtrack after it.
        build = search.conjugation_table
        calls = []

        def recorded(*args):
            calls.append("start")
            sym = build(*args)
            calls.append("done")
            return sym

        monkeypatch.setattr(search, "conjugation_table", recorded)
        with pytest.raises(TimeoutError):
            enumerate_racks(6, deadline=time.monotonic())
        assert calls == ["start"]

    def test_catalog_tables_built_on_first_read(self, monkeypatch):
        # The sweep builds no catalog table; the first read of racks builds
        # them all, and later reads return the same tuple.
        monkeypatch.setattr(search, "OpTable", _unreachable("enumerate_racks built a catalog table"))
        catalog = enumerate_racks(4)
        monkeypatch.setattr(search, "OpTable", OpTable)
        assert catalog.racks is catalog.racks

    def test_catalog_defaults_and_one_build_of_its_tables(self):
        catalog = enumerate_racks(4)
        assert all(op is catalog.racks[i] for op, i in zip(catalog.canonical, catalog.representatives))
        bare = search.RackCatalog(catalog.n, catalog.columns, catalog.orbit, catalog.automorphisms)
        assert (bare.nodes_pruned, bare.conj) == (0, ())
        assert bare.racks == catalog.racks and bare.racks is bare.racks

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_backtrack_meets_every_class_once_per_column0_orbit(self, n):
        sym = groups.conjugation_table(n, None)
        found, _ = search._enumerate_pruned(n, None, sym)
        racks = [alpha_inverse([sym[0][c] for c in cols]) for cols in found]
        # The relabelings fixing 0 act on column 0 by conjugation.
        fixing0 = [q for q in itertools.permutations(range(n)) if q[0] == 0]
        orbits = {
            p: frozenset(tuple(q[p[x]] for x in perm_inverse(q)) for q in fixing0)
            for p in itertools.permutations(range(n))
        }
        # The permutation rack a*b = s(a) has every column equal to s, so
        # each column-0 value tried is the column 0 of some rack found.
        column0 = {r.column(0) for r in racks}
        assert len({orbits[p] for p in column0}) == len(column0)
        assert {orbits[p] for p in column0} == set(orbits.values())
        catalog = enumerate_racks(n)
        met = {catalog.orbit[catalog.racks.index(r)] for r in racks}
        assert met == set(catalog.representatives)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_backtrack_matches_full_candidate_loop(self, n):
        # Visiting only the candidates that pass the look-up on column p(y)
        # keeps the completions, their order and the pruned-node count.
        sym = groups.conjugation_table(n, None)
        assert search._enumerate_pruned(n, None, sym) == enumerate_pruned_full_loop(n, sym)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coset_sweep_matches_all_relabelings(self, n):
        catalog = enumerate_racks(n)
        got = (catalog.columns, catalog.orbit, catalog.automorphisms, catalog.nodes_pruned)
        assert got == catalog_by_all_relabelings(n)

    def test_known_isomorphism_class_counts(self):
        # racks on 1..5 points up to relabeling (OEIS A181771): 1, 2, 6, 19, 74
        catalogs = [enumerate_racks(n) for n in (1, 2, 3, 4, 5)]
        assert [len(c.canonical) for c in catalogs] == [1, 2, 6, 19, 74]
        # quandles (OEIS A181769): 1, 1, 3, 7, 22; connected quandles
        # (Vendramin 2012): 1, 0, 1, 1, 3
        assert [quandle_counts(c) for c in catalogs] == [(1, 1), (1, 0), (3, 1), (7, 1), (22, 3)]

    def test_known_counts_n6(self, monkeypatch):
        # OEIS A181771 gives 353 racks on 6 points up to relabeling
        checked = _count_class_checks(monkeypatch)
        catalog = enumerate_racks(6)
        columns = catalog.columns
        assert (len(set(catalog.orbit)), len(columns), len(set(columns))) == (353, 36538, 36538)
        assert catalog.nodes_pruned == 1_050_371
        assert len(checked) == 353  # one check per class
        # quandles (OEIS A181769) and connected quandles (Vendramin 2012) on 6 points
        assert quandle_counts(catalog) == (73, 2)
        # Aut(r) and the class of r are the stabilizer and orbit of S_6 acting on r
        size = Counter(catalog.orbit)
        assert all(len(a) * size[o] == 720 for a, o in zip(catalog.automorphisms, catalog.orbit))
        # the last rack of every 18th class, most of them relabeled away from the class's first
        last = {o: j for j, o in enumerate(catalog.orbit)}
        perms = sorted(itertools.permutations(range(6)))
        for j in [last[i] for i in catalog.representatives[::18]]:
            rack = alpha_inverse([perms[c] for c in columns[j]])
            assert catalog.automorphisms[j] == automorphisms_brute_force(rack)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sweep_returns_racks_in_table_order(self, monkeypatch, n):
        # The sweep sorts on integer keys, which must order the tables.
        perms = sorted(itertools.permutations(range(n)))
        monkeypatch.setattr(search, "OpTable", _unreachable("a catalog table was built"))
        columns = enumerate_racks(n).columns
        entries = [alpha_inverse([perms[c] for c in cols]).entries for cols in columns]
        assert all(a < b for a, b in zip(entries, entries[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_backtrack_completions_are_racks(self, n):
        # The backtrack returns its completions unchecked.
        sym = groups.conjugation_table(n, None)
        found, _ = search._enumerate_pruned(n, None, sym)
        for cols in found:
            table = alpha_inverse([sym[0][c] for c in cols])
            assert distributive_witness(table, table) is None

    @pytest.mark.parametrize("n, classes", [(4, 19), (5, 74)])
    def test_one_check_per_class(self, monkeypatch, n, classes):
        # One completion of each class is checked, on its indices: no table
        # is built, and the class counts are the known ones.
        checked = _count_class_checks(monkeypatch)
        catalog = enumerate_racks(n)
        assert len(checked) == len(set(catalog.orbit)) == classes
        index = {cols: j for j, cols in enumerate(catalog.columns)}
        assert sorted(catalog.orbit[index[cols]] for cols in checked) == catalog.representatives

    def test_failed_check_drops_the_class(self, monkeypatch):
        # Completions that are not racks, ahead of and among the backtrack's,
        # are each checked and dropped with their classes; every rack class
        # is kept as it is.
        full = enumerate_racks(4)
        found, pruned = search._enumerate_pruned(4, None, groups.conjugation_table(4, None))
        non_racks = [cols for cols in list(itertools.product(range(24), repeat=4))[::997] if not _is_rack(4, cols)]
        assert len(non_racks) > 300
        mixed = non_racks[:100] + [c for pair in itertools.zip_longest(found, non_racks[100:]) for c in pair if c is not None]
        monkeypatch.setattr(search, "_enumerate_pruned", lambda n, deadline, sym: (mixed, pruned))
        checked = _count_class_checks(monkeypatch)
        catalog = enumerate_racks(4)
        assert catalog == full
        assert set(non_racks) <= set(checked)
        assert not set(non_racks) & set(catalog.columns)

    def test_index_check_matches_the_table_check(self):
        # On every invertible table on 3 points, the check on column indices
        # agrees with distributive_witness on the table.
        perms, conj = groups.conjugation_table(3, None)
        outcomes = [
            (search._self_distributive(cols, perms, conj), _is_rack(3, cols))
            for cols in itertools.product(range(6), repeat=3)
        ]
        assert all(got == want for got, want in outcomes)
        assert Counter(want for _, want in outcomes) == {False: 203, True: 13}

    @pytest.mark.parametrize("n", [3, 4])
    def test_index_check_is_exact(self, monkeypatch, n):
        # Every invertible table on n points as a completion (216 at n = 3,
        # 331 776 at n = 4): each non-rack must be rejected and each class
        # swept, so the catalog is the backtrack's, field by field.
        full = enumerate_racks(n)
        every = list(itertools.product(range(math.factorial(n)), repeat=n))
        monkeypatch.setattr(search, "_enumerate_pruned", lambda n, deadline, sym: (every, full.nodes_pruned))
        assert enumerate_racks(n) == full

    def test_n6_catalog_pinned(self):
        # sha256 of the whole catalog: columns, classes, automorphism groups
        # (each as a sorted tuple) and pruned nodes.
        catalog = enumerate_racks(6)
        auts = tuple(tuple(sorted(a)) for a in catalog.automorphisms)
        data = repr((catalog.columns, catalog.orbit, auts, catalog.nodes_pruned))
        want = "60af765375312e154032e4f381029f3b6b84c70fb9cb87d72753a4bf960c9710"
        assert hashlib.sha256(data.encode()).hexdigest() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_canonical_matches_canonical_form(self, n):
        catalog = enumerate_racks(n)
        forms = [canonical_form(r) for r in catalog.racks]
        assert catalog.canonical == tuple(sorted(set(forms), key=lambda t: t.entries))
        for i, form in enumerate(forms):
            assert catalog.racks[catalog.orbit[i]] == form

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_sizes(self, n):
        catalog = enumerate_racks(n)
        reps = catalog.representatives
        relabelings = list(itertools.permutations(range(n)))
        sizes = [len({relabel(catalog.racks[i], pi) for pi in relabelings}) for i in reps]
        assert sizes == [catalog.orbit.count(i) for i in reps]
        assert all(math.factorial(n) % k == 0 for k in sizes)
        assert sum(sizes) == len(catalog.racks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_automorphisms(self, n):
        catalog = enumerate_racks(n)
        assert len(catalog.automorphisms) == len(catalog.racks)
        for j, rack in enumerate(catalog.racks):
            assert catalog.automorphisms[j] == automorphisms_brute_force(rack)
            class_size = catalog.orbit.count(catalog.orbit[j])
            assert len(catalog.automorphisms[j]) * class_size == math.factorial(n)

    def test_seeded_automorphisms(self):
        catalog = seed_catalog(6, (BERMAN_TAU, BERMAN_SIGMA))
        relabelings = list(itertools.permutations(range(6)))
        for rack, aut in zip(catalog.racks, catalog.automorphisms):
            assert aut == automorphisms_brute_force(rack)
            class_size = len({relabel(rack, pi) for pi in relabelings})
            assert len(aut) * class_size == math.factorial(6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_columns(self, n):
        perms = sorted(itertools.permutations(range(n)))
        catalog = enumerate_racks(n)
        assert len(catalog.columns) == len(catalog.racks)
        for rack, cols in zip(catalog.racks, catalog.columns):
            assert [perms[c] for c in cols] == [rack.column(y) for y in range(n)]

    @pytest.mark.parametrize("pair", [(BERMAN_TAU, BERMAN_SIGMA), (BERMAN_SIGMA, BERMAN_TAU)], ids=["tau-sigma", "sigma-tau"])
    def test_seeded_tables_and_pruned_nodes(self, pair):
        catalog = seed_catalog(6, pair)
        assert catalog.racks == pair
        assert catalog.nodes_pruned == 0

    def test_seeded_columns(self):
        perms = sorted(itertools.permutations(range(6)))
        catalog = seed_catalog(6, (BERMAN_TAU, BERMAN_SIGMA))
        for rack, cols in zip(catalog.racks, catalog.columns):
            assert [perms[c] for c in cols] == [rack.column(y) for y in range(6)]


class TestSymmetricTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_match_tuple_arithmetic(self, n):
        perms, conj = groups.conjugation_table(n, None)
        assert list(perms) == sorted(itertools.permutations(range(n)))  # index order is lex order
        assert len(conj) == len(perms)
        for a, p in enumerate(perms):
            pinv = perm_inverse(p)
            for b, q in enumerate(perms):
                assert perms[conj[a][b]] == tuple(p[q[x]] for x in pinv)

    def test_n6_rows_match_tuple_arithmetic(self):
        # The rows of the two generators come from tuples, and every other
        # row from gathers: check both generators and a spread of the others.
        perms, conj = groups.conjugation_table(6, None)
        index = {p: k for k, p in enumerate(perms)}
        generators = [index[(1, 0, 2, 3, 4, 5)], index[(1, 2, 3, 4, 5, 0)]]
        for a in generators + list(range(0, 720, 37)) + [719]:
            p = perms[a]
            pinv = perm_inverse(p)
            assert [perms[c] for c in conj[a]] == [tuple(p[q[x]] for x in pinv) for q in perms]


class TestCanonicalForm:
    def test_right_trivial_fixed(self):
        assert canonical_form(right_trivial(4)) == right_trivial(4)

    def test_swap_table_singleton_orbit(self):
        t = make_table(2, [[1, 1], [0, 0]])
        assert canonical_form(t) == t
        assert relabel(t, [1, 0]) == t

    @given(st.permutations(list(range(6))))
    @settings(max_examples=25, deadline=None)
    def test_constant_on_orbits(self, pi):
        assert canonical_form(relabel(BERMAN_TAU, pi)) == canonical_form(BERMAN_TAU)

    def test_idempotent(self):
        c = canonical_form(BERMAN_SIGMA)
        assert canonical_form(c) == c

    @given(st.permutations(list(range(3))), st.integers(0, 12))
    @settings(max_examples=60)
    def test_relabeling_a_rack_yields_a_rack(self, pi, idx):
        racks = enumerate_racks(3).racks
        r = relabel(racks[idx % len(racks)], pi)
        assert noninvertible_column(r) is None
        assert distributive_witness(r, r) is None

    def test_set_canonical_form(self):
        pair = (BERMAN_TAU, BERMAN_SIGMA)
        c = canonical_form_set(pair)
        for pi in itertools.islice(itertools.permutations(range(6)), 0, 120, 17):
            moved = tuple(relabel(op, pi) for op in pair)
            assert canonical_form_set(moved) == c


def compatible_brute_force(a, b):
    """Both ordered distributivity checks pass."""
    return distributive_witness(a, b) is None and distributive_witness(b, a) is None


def compatible_pairs_brute_force(racks):
    """Unordered pairs of distinct racks passing both ordered checks."""
    return [
        (i, j)
        for i, a in enumerate(racks)
        for j, b in enumerate(racks)
        if i < j and compatible_brute_force(a, b)
    ]


class TestCompatibilityGraph:
    def test_n2_complete(self):
        adj = compatibility_graph(enumerate_racks(2))
        assert adj == {0: [1], 1: [0]}

    def test_right_trivial_adjacent_to_all(self):
        catalog = enumerate_racks(3)
        ident_idx = catalog.racks.index(right_trivial(3))
        adj = compatibility_graph(catalog)
        assert len(adj[ident_idx]) == len(catalog.racks) - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_of_representatives_only(self, n):
        catalog = enumerate_racks(n)
        racks = catalog.racks
        adj = compatibility_graph(catalog)
        assert sorted(adj) == [i for i in range(len(racks)) if catalog.orbit[i] == i]
        for i, row in adj.items():
            want = [j for j, b in enumerate(racks) if j != i and compatible_brute_force(racks[i], b)]
            assert row == want

    def test_past_deadline_raises(self):
        catalog = enumerate_racks(3)
        with pytest.raises(TimeoutError):
            compatibility_graph(catalog, deadline=time.monotonic() - 1)

    def test_deadline_checked_once_per_row(self, monkeypatch):
        # The clock is read once before each row and nowhere else.  When it
        # passes the deadline after the first row, the second row's check
        # stops the graph: the clock is read twice.
        catalog = enumerate_racks(4)
        reads = []
        monkeypatch.setattr(groups, "time", SimpleNamespace(monotonic=lambda: reads.append(0) or 0.0))
        compatibility_graph(catalog, deadline=1.0)
        assert len(reads) == len(catalog.representatives) == 19
        ticks, reads = iter([0.0]), []
        monkeypatch.setattr(groups, "time", SimpleNamespace(monotonic=lambda: reads.append(0) or next(ticks, math.inf)))
        with pytest.raises(TimeoutError):
            compatibility_graph(catalog, deadline=1.0)
        assert len(reads) == 2

    def test_n6_rows_pinned(self):
        # sha256 of every row at n = 6 (353 rows, 152 488 entries); the
        # brute-force oracle above stops at n = 5.
        graph = compatibility_graph(enumerate_racks(6))
        assert (len(graph), sum(map(len, graph.values()))) == (353, 152488)
        want = "1265582f8860bb11e4f568c1eda4ef3271fc4b9914566ca8d4aaf0532fe50f05"
        assert hashlib.sha256(repr(sorted(graph.items())).encode()).hexdigest() == want

    def test_berman_pair_mutually_compatible(self):
        assert distributive_witness(BERMAN_TAU, BERMAN_SIGMA) is None
        assert distributive_witness(BERMAN_SIGMA, BERMAN_TAU) is None


class TestCertify:
    def test_n2_commutative_only(self):
        report = certify_no_nonabelian(2)
        assert report.conclusion == "commutative-only"
        assert report.racks_found == 2

    def test_n3_commutative_only(self):
        report = certify_no_nonabelian(3)
        assert report.conclusion == "commutative-only"

    def test_n6_seeded_berman(self, monkeypatch):
        monkeypatch.setattr(search, "conjugation_table", _unreachable("a seeded search built the S_n tables"))
        monkeypatch.setattr(search, "enumerate_racks", _unreachable("a seeded search enumerated racks"))
        # one closure, so no key is needed to tell it from another
        monkeypatch.setattr(search, "_closure_key", _unreachable("a closure key was computed"))
        calls = _count_phases(monkeypatch, "compatibility_graph")
        report = certify_no_nonabelian(6, seed_pair=(BERMAN_TAU, BERMAN_SIGMA))
        assert report.conclusion == "nonabelian-found"
        assert report.nonabelian_groups[0]["closure_order"] == 6
        assert report.seeded
        assert calls == ["compatibility_graph"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unseeded_search_runs_through_the_catalog_and_graph(self, monkeypatch, n):
        calls = _count_phases(monkeypatch, "enumerate_racks", "compatibility_graph")
        certify_no_nonabelian(n)
        assert calls == ["enumerate_racks", "compatibility_graph"]

    def test_relabeled_twins_listed_once(self, monkeypatch):
        # The Berman pair, a relabeling of it, and two generators of the S3
        # regular images: every non-commuting compatible pair among them
        # generates a relabeling of the Berman group.
        pi = (3, 5, 0, 1, 4, 2)
        images = regular_embed(symmetric(3)).images
        berman = close_group(DistributiveSet(6, (BERMAN_TAU, BERMAN_SIGMA))).ops
        assert canonical_form_set(images) == canonical_form_set(berman)
        moved = (relabel(BERMAN_TAU, pi), relabel(BERMAN_SIGMA, pi))
        pairs = [(BERMAN_TAU, BERMAN_SIGMA), moved, images[1:3]]
        closures, keys = _count_calls(monkeypatch, pairs)
        built = _count_phases(monkeypatch, "_relabeling")
        report = certify_no_nonabelian(6)
        assert report.nonabelian_groups == [{"pair": _pair_document(pairs[0]), "closure_order": 6}]
        assert len(closures) == 6
        assert len(keys) == len(closures)  # each closure's key once
        assert built == ["_relabeling"]  # one relabeling for all the keys

    def test_same_order_non_twin_listed(self, monkeypatch):
        # The second closure is made a family of order 6 that no relabeling
        # maps onto the Berman group: its first three members, the identity
        # and the pair, twice.  It is still a distributive family.
        images = regular_embed(symmetric(3)).images
        pairs = [(BERMAN_TAU, BERMAN_SIGMA), images[1:3]]
        closures, keys = _count_calls(monkeypatch, pairs)
        record = search.generated

        def second_changed(*args):
            members = record(*args)
            return members if len(closures) == 1 else members[:3] * 2

        monkeypatch.setattr(search, "generated", second_changed)
        report = certify_no_nonabelian(6)
        assert report.nonabelian_groups == [
            {"pair": _pair_document(pair), "closure_order": 6} for pair in pairs
        ]
        assert (len(closures), len(keys)) == (2, 2)

    def test_closure_keys_match_canonical_form_set(self, monkeypatch):
        # Every closure of the unseeded n = 6 sweep, relabelings of the Berman
        # group, a cyclic group of the same order, and the six rotations of a
        # rack with fewest automorphisms, least at other relabelings: two
        # families get the same key iff the reference canonical forms agree.
        catalogs = []
        enumerate_all = search.enumerate_racks
        monkeypatch.setattr(search, "enumerate_racks", lambda *args: catalogs.append(enumerate_all(*args)) or catalogs[0])
        closures = _recording_closures(monkeypatch)
        built = _count_phases(monkeypatch, "conjugation_table", "_relabeling")
        certify_no_nonabelian(6)
        # one S_6 build; the class sweep's relabeling, then one for all the keys
        assert built == ["conjugation_table", "_relabeling", "_relabeling"]
        berman = close_group(DistributiveSet(6, (BERMAN_TAU, BERMAN_SIGMA))).ops
        moved = [tuple(relabel(op, pi) for op in berman[::-1]) for pi in [(3, 5, 0, 1, 4, 2), (5, 4, 3, 2, 1, 0)]]
        shift = make_table(6, [[(a + 1) % 6] * 6 for a in range(6)])
        catalog, perms = catalogs[0], sorted(itertools.permutations(range(6)))
        rigid = min(range(len(catalog.columns)), key=lambda j: len(catalog.automorphisms[j]))  # |Aut| = 3
        rack = alpha_inverse([perms[c] for c in catalog.columns[rigid]])
        rotated = [(relabel(rack, [(x + k) % 6 for x in range(6)]),) for k in range(6)]
        cyclic = close_group(DistributiveSet(6, (shift,))).ops
        families = [_tables(6, members) for _, members in closures] + [berman, *moved, cyclic, *rotated]
        relabeling = search._relabeling(6, catalog.conj)
        keys = [search._closure_key(relabeling, _columns(ops)) for ops in families]
        forms = [canonical_form_set(ops) for ops in families]
        outcomes = set()
        for (k1, f1), (k2, f2) in itertools.combinations(zip(keys, forms), 2):
            assert (k1 == k2) == (f1 == f2)
            outcomes.add(k1 == k2)
        assert len(closures) > 1 and outcomes == {False, True}

    @pytest.mark.parametrize(
        "pair",
        [
            (BERMAN_TAU, BERMAN_SIGMA),
            (BERMAN_SIGMA, BERMAN_TAU),
            (relabel(BERMAN_TAU, (3, 5, 0, 1, 4, 2)), relabel(BERMAN_SIGMA, (3, 5, 0, 1, 4, 2))),
            (relabel(BERMAN_SIGMA, (5, 4, 3, 2, 1, 0)), relabel(BERMAN_TAU, (5, 4, 3, 2, 1, 0))),
        ],
        ids=["tau-sigma", "sigma-tau", "moved-tau-sigma", "reversed-sigma-tau"],
    )
    def test_index_closure_of_a_seed_pair_matches_close_group(self, monkeypatch, pair):
        # The one closure of a seeded search: the members of close_group, as
        # column indices, in the same order, the seeds after the identity.
        closures = _recording_closures(monkeypatch)
        report = certify_no_nonabelian(6, seed_pair=pair)
        assert [seeds for seeds, _ in closures] == [_columns(pair)]
        assert closures[0][1] == _columns(close_group(DistributiveSet(6, pair)).ops)
        assert report.nonabelian_groups == [{"pair": _pair_document(pair), "closure_order": 6}]

    def test_index_closures_of_the_n6_sweep_match_close_group(self, monkeypatch):
        # Every pair the unseeded n = 6 sweep closes fails to commute as
        # tables, and its index closure has close_group's members in order.
        closures = _recording_closures(monkeypatch)
        certify_no_nonabelian(6)
        assert len(closures) > 1
        for seeds, members in closures:
            a, b = _tables(6, seeds)
            assert not commutes(a, b)
            assert members == _columns(close_group(DistributiveSet(6, (a, b))).ops)

    def test_seed_pair_carrier_must_match_n(self):
        with pytest.raises(ValueError, match="carrier 6, but n=5"):
            certify_no_nonabelian(5, seed_pair=(BERMAN_TAU, BERMAN_SIGMA))

    def test_seeded_incompatible_pair(self):
        a = make_table(3, [[0, 0, 0], [2, 2, 2], [1, 1, 1]])
        b = make_table(3, [[0, 0, 1], [1, 1, 0], [2, 2, 2]])
        report = certify_no_nonabelian(3, seed_pair=(a, b))
        assert (report.racks_found, report.compatible_pairs) == (2, 0)
        assert report.conclusion == "commutative-only"

    def test_distributive_group_of_non_racks(self):
        # The search certifies groups of racks, whose identity is the
        # right-trivial table.  This group of order 2 on 3 points has
        # another identity, e, and neither member is invertible.
        e = make_table(3, [[0, 0, 0], [0, 1, 1], [0, 2, 2]])
        g = make_table(3, [[0, 0, 0], [0, 2, 2], [0, 1, 1]])
        assert verify_distributive([e, g]) is None
        assert compose(e, e) == compose(g, g) == e
        assert compose(e, g) == compose(g, e) == g
        assert noninvertible_column(e) == noninvertible_column(g) == 0

    def test_seed_table_must_be_invertible(self):
        constant = make_table(2, [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="seed pair table 0 is not invertible: column 0 "):
            certify_no_nonabelian(2, seed_pair=(constant, right_trivial(2)))

    def test_seed_table_must_be_self_distributive(self):
        # XOR: (0 ^ 0) ^ 1 = 1, but (0 ^ 1) ^ (0 ^ 1) = 0
        with pytest.raises(ValueError, match=r"seed pair table 1 is not self-distributive: .*\(0, 0, 1\)"):
            certify_no_nonabelian(2, seed_pair=(right_trivial(2), XOR))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compatible_pairs_brute_force(self, n):
        racks = enumerate_racks(n).racks
        assert certify_no_nonabelian(n).compatible_pairs == len(compatible_pairs_brute_force(racks))

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="budget=nan "):
            certify_no_nonabelian(3, budget=float("nan"))

    @pytest.mark.parametrize("budget", [-1, -1e-9, -math.inf])
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=f"budget={budget} "):
            certify_no_nonabelian(3, budget=budget)

    def test_unseeded_search_builds_no_table_for_the_labelled_racks(self, monkeypatch):
        # No table is built: the sweep checks each class on its column
        # indices, no pair closes at n = 5, and the catalog's tables are
        # never read.
        monkeypatch.setattr(search, "OpTable", _unreachable("the search built a labelled table"))
        built, build = [], search.alpha_inverse
        monkeypatch.setattr(search, "alpha_inverse", lambda cols: built.append(cols) or build(cols))
        doc = json.dumps(certify_no_nonabelian(5).to_document(), sort_keys=True)
        want = "466a8f491e6aad3fe1d6ff768e571d020ec3031066111199b7aaca5624e7e5d3"  # as test_report_bytes_pinned
        assert hashlib.sha256(doc.encode()).hexdigest() == want
        assert built == []

    def test_deadline_checked_while_the_rows_are_built(self, monkeypatch):
        # The deadline passes once the catalog is built: the check before the
        # first row is the only clock read after it, and the report counts
        # the racks and no pair.
        reads = _expire_after(monkeypatch, "enumerate_racks")
        report = certify_no_nonabelian(5, budget=3600)
        assert (report.conclusion, report.racks_found, report.compatible_pairs) == ("partial", 1708, 0)
        assert reads == ["enumerate_racks"]

    def test_deadline_checked_before_the_pair_sweep(self, monkeypatch):
        # The deadline passes once the rows are built: the pairs are counted,
        # and no row is swept, so no automorphism group is iterated (the
        # rows only test membership) and no pair is closed.
        spread = []
        catalog = _recording_automorphisms(enumerate_racks(5), spread)
        monkeypatch.setattr(search, "enumerate_racks", lambda n, deadline: catalog)
        graph = search.compatibility_graph

        def graph_then_expire(*args):
            rows = graph(*args)
            monkeypatch.setattr(groups, "time", SimpleNamespace(monotonic=lambda: math.inf))
            return rows

        monkeypatch.setattr(search, "compatibility_graph", graph_then_expire)
        monkeypatch.setattr(search, "generated", _unreachable("a pair was closed after the deadline"))
        report = certify_no_nonabelian(5, budget=3600)
        assert (report.conclusion, report.racks_found, report.compatible_pairs) == ("partial", 1708, 42651)
        assert spread == []

    def test_budget_zero_reports_partial(self):
        report = certify_no_nonabelian(3, budget=0.0)
        assert report.conclusion == "partial"

    def test_report_document_excludes_timing_by_default(self):
        doc = certify_no_nonabelian(2).to_document()
        assert list(doc["statistics"]) == ["nodes_pruned"]  # no timing key

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_skipped_rows_commute(self, n):
        # The pair sweep skips the row of a representative A when Aut(A)
        # commutes with every column of A, i.e. ca[a(y)] == ca[y] for every
        # a in Aut(A) and every y: every partner then commutes with A.
        catalog = enumerate_racks(n)
        racks, perms = catalog.racks, sorted(itertools.permutations(range(n)))
        skipped = 0
        for i, row in compatibility_graph(catalog).items():
            ca = catalog.columns[i]
            if all(ca[perms[a][y]] == ca[y] for a in catalog.automorphisms[i] for y in range(n)):
                skipped += 1
                assert all(commutes(racks[i], racks[j]) for j in row)
        assert skipped > 0

    def test_commutation_on_column_indices(self):
        # For every labelled rack A at n = 4 and every rack B whose columns
        # lie in Aut(A), A;B = B;A iff ca[cb[y](y)] == ca[y] for every y.
        catalog = enumerate_racks(4)
        perms = sorted(itertools.permutations(range(4)))
        outcomes = set()
        for a, ca, aut in zip(catalog.racks, catalog.columns, catalog.automorphisms):
            for b, cb in zip(catalog.racks, catalog.columns):
                if aut.issuperset(cb):
                    got = all(ca[perms[q][y]] == ca[y] for y, q in enumerate(cb))
                    assert got == commutes(a, b)
                    outcomes.add(got)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n, entries", [(1, 0), (2, 2), (3, 24), (4, 316), (5, 5406)])
    def test_commutation_identities_on_every_row(self, n, entries):
        # Both identities of the pair sweep against tables.commutes: Aut(A)
        # commutes with every column of A iff ca[a(y)] == ca[y] for every a
        # in Aut(A) and every y, each a as the table whose every column is a;
        # and a partner B commutes with A iff ca[cb[y](y)] == ca[y] for every y.
        catalog = enumerate_racks(n)
        racks, perms = catalog.racks, sorted(itertools.permutations(range(n)))
        seen, outcomes = 0, set()
        for i, row in compatibility_graph(catalog).items():
            ca, aut = catalog.columns[i], catalog.automorphisms[i]
            centralized = all(ca[perms[a][y]] == ca[y] for a in aut for y in range(n))
            assert centralized == all(commutes(alpha_inverse([perms[a]] * n), racks[i]) for a in aut)
            outcomes.add(centralized)
            for j in row:
                got = all(ca[perms[b][y]] == ca[y] for y, b in enumerate(catalog.columns[j]))
                assert got == commutes(racks[i], racks[j])
                seen += 1
        assert seen == entries
        assert outcomes == ({True} if n < 3 else {False, True})

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1, "85926df9cb1747d78a5d58f1388d104aec4ccf73b242dc66f3f03c2ad2875fba"),
            (2, "e7026ba742ec9073efd41fff4b3e11d175eb9ccce4af163de64d6e49a9b6e236"),
            (3, "5a7a256314032a73d4e75821b44572192fe85490b88733cceed2fb743a4e5362"),
            (4, "70020730de59475dc9d41e0fc2b91de081c411d5ea1d80b70cc7d5e7ac9a4d97"),
            (5, "466a8f491e6aad3fe1d6ff768e571d020ec3031066111199b7aaca5624e7e5d3"),
        ],
    )
    def test_report_bytes_pinned(self, n, digest):
        # The whole report, nodes_pruned included: a faster search must
        # leave every byte of it as it is.
        doc = json.dumps(certify_no_nonabelian(n).to_document(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed_pair, digest",
        [
            (None, "919c5f6dd46cf3343509fb742e19db33611cf83ef67cfcc6ba60c136f0642291"),
            ((BERMAN_TAU, BERMAN_SIGMA), "02867f4800f434ccef887a5effcda30b0f3dc9be8433892493162d2becc5798a"),
            ((BERMAN_SIGMA, BERMAN_TAU), "44ca4c4926187a75083c0d89366ce20c5255b018a65e79f67b7311de409bfea3"),
        ],
        ids=["unseeded", "tau-sigma", "sigma-tau"],
    )
    def test_n6_report_bytes_pinned(self, seed_pair, digest):
        # The reported pair itself, not only the counts: the first
        # non-commuting pair met for the group must stay the one listed.
        doc = json.dumps(certify_no_nonabelian(6, seed_pair=seed_pair).to_document(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_report_document_deterministic(self):
        a = json.dumps(certify_no_nonabelian(3).to_document(), sort_keys=True)
        b = json.dumps(certify_no_nonabelian(3).to_document(), sort_keys=True)
        assert a == b
