"""The benchmark's workloads: seeded inputs, the timed operation, and checks.

A workload has three parts:

* ``setup(mods, seed, work, size)`` builds the inputs from the seed with the
  package just imported (group and fixture construction count as set-up);
* ``run(mods, inputs)`` is the timed operation; it reaches multishelf only
  through module attributes looked up at call time, so a traced pass sees
  its wrapped functions;
* ``check(result, inputs)`` compares each certificate with its reference and
  returns one ``(operation, ok, detail)`` per checked operation.

References come from outside the code where one exists (OEIS A181771, group
orders, invariance of every answer under a relabeling of the carrier) and
otherwise are the outputs of the seed commit of this repository. Checks use
the benchmark's own helpers, never multishelf, so they cannot hide a fault
and do not show up in the traced counts.
"""
from __future__ import annotations

import importlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

MODULES = ("tables", "groups", "embedding", "translate", "shelves", "search",
           "snf", "homology", "formats", "fixtures", "cli")

# Racks on n points up to isomorphism, OEIS A181771.
A181771 = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74, 6: 353}
# Labelled racks from the pruned enumerator (seed commit).
LABELLED_RACKS = {4: 114, 5: 1708}

# The certificate of `multishelf search --n N` in the seed commit's report.
# The report's `statistics` (nodes_pruned) measure the enumerator's work, not
# its answer, so they are left to the traced counters and not checked here.
SEARCH_REPORTS = {
    4: {"n": 4, "racks_found": 114, "compatible_pairs": 661, "nonabelian_groups": [],
        "conclusion": "commutative-only", "seeded": False},
    5: {"n": 5, "racks_found": 1708, "compatible_pairs": 42651, "nonabelian_groups": [],
        "conclusion": "commutative-only", "seeded": False},
}

# Homology groups as (degree, free rank, torsion).
# Berman pair, weights 1,-1: H0 = Z, H1 = Z, H2 = Z + Z/3.
BERMAN_HOMOLOGY = ((0, 1, ()), (1, 1, ()), (2, 1, (3,)))
# Regular-embedding images, weights alternating +1/-1, through degree 1
# (max degree 2); seed commit.
EMBED_HOMOLOGY = {
    "symmetric:3": ((0, 1, (2,) * 4), (1, 1, (2,) * 20)),
    "dihedral:4": ((0, 7, ()), (1, 49, ())),
}

SIZES = {
    "full": {"search_n": 5, "berman_degree": 3, "racks_n": 5,
             "embed": ("symmetric:4", "dihedral:6"), "close": 4,
             "homology": ("symmetric:3", "dihedral:4")},
    "small": {"search_n": 4, "berman_degree": 2, "racks_n": 4,
              "embed": ("symmetric:3", "dihedral:3"), "close": 3,
              "homology": ("symmetric:3",)},
}

# Inputs left out because one run would take too long; each names the
# ROADMAP item that should bring it back.
LEFT_OUT = (
    {"input": "homology --set berman-d6 --weights 1,1 --max-degree 3",
     "cost": "dense SNF of d3 did not finish in 900 s (weights 1,-1 take about 4 s)",
     "restore_with": "ROADMAP open item 3 (sparse SNF)"},
    {"input": "homology --set berman-d6 --weights 1,-1 --max-degree 4",
     "cost": "over 9 min (dense SNF of the 1296x7776 d4)",
     "restore_with": "ROADMAP open item 3 (sparse SNF)"},
    {"input": "search --n 6 (unseeded)",
     "cost": "hours (5 080 586 nodes pruned; 36 538 racks before the pair sweep)",
     "restore_with": "ROADMAP open item 2 (symmetry-reduced search)"},
    {"input": "search --n 5 --budget 0.01",
     "cost": "seconds, because the budget is only read inside the pair loop",
     "restore_with": "ROADMAP aim 3 (user limits hold); add as a budget workload"},
)


class Modules(dict):
    """Short module name -> module ("" is the package); attribute access."""

    __getattr__ = dict.__getitem__


def import_package(src: Path) -> Modules:
    """Import multishelf afresh from ``src`` (drops any loaded copy first)."""
    for name in [n for n in sys.modules if n == "multishelf" or n.startswith("multishelf.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()  # look the files up again, as a fresh interpreter would
    pkg = importlib.import_module("multishelf")
    if Path(pkg.__file__).resolve().parent != (src / "multishelf").resolve():
        raise RuntimeError(f"multishelf imported from {pkg.__file__}, not from {src}")
    mods = Modules({"": pkg})
    for name in MODULES:
        mods[name] = importlib.import_module(f"multishelf.{name}")
    return mods


# --- benchmark-side helpers (independent of the code under test) ----------

def relabel_entries(entries, perm):
    """Table with a*b -> perm(perm^-1(a) * perm^-1(b))."""
    n = len(perm)
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(tuple(perm[entries[inv[a]][inv[b]]] for b in range(n)) for a in range(n))


def regular_images(mul, identity):
    """Tables a *_g b = a b^-1 g b straight from the definition."""
    m = len(mul)
    inv = [next(b for b in range(m) if mul[a][b] == identity) for a in range(m)]
    return tuple(
        tuple(tuple(mul[a][mul[mul[inv[b]][g]][b]] for b in range(m)) for a in range(m))
        for g in range(m)
    )


def seeded_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def group_spec(mods: Modules, spec: str):
    family, k = spec.split(":")
    return getattr(mods.groups, family)(int(k))


def relabeled_group(mods: Modules, G, perm):
    """The same group with element g renamed perm[g]; validated by multishelf."""
    m = G.m
    mul = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            mul[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return mods.groups.group_from_table(m, mul, perm[G.identity])


def groups_of(rows) -> tuple:
    return tuple((g["degree"], g["free_rank"], tuple(g["torsion"])) for g in rows)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


# --- search-n5 --------------------------------------------------------------

def search_setup(mods, seed, work, size):
    # `search --n N` takes no input beyond N; the seed only goes to provenance.
    return {"n": SIZES[size]["search_n"], "report": work / "search.json"}


def search_run(mods, inp):
    code = mods.cli.main(["search", "--n", str(inp["n"]), "--report", str(inp["report"])])
    return {"exit": code, "report": _read(inp["report"])}


def search_check(res, inp):
    want = SEARCH_REPORTS[inp["n"]]
    got = {k: res["report"].get(k) for k in want}
    ok = res["exit"] == 0 and got == want
    return [("search", ok, None if ok else {"exit": res["exit"], "got": got, "want": want})]


# --- homology-berman --------------------------------------------------------

def berman_setup(mods, seed, work, size):
    tau, sigma = mods.fixtures.get_fixture("berman-d6").ops
    perm = seeded_perm(random.Random(seed), tau.n)
    ops = [relabel_entries(op.entries, perm) for op in (tau, sigma)]
    path = work / "berman.json"
    path.write_text(json.dumps({"n": tau.n, "ops": [[list(r) for r in op] for op in ops]}))
    return {"set": path, "out": work / "homology.json", "perm": perm,
            "degree": SIZES[size]["berman_degree"]}


def berman_run(mods, inp):
    code = mods.cli.main(["homology", "--set", str(inp["set"]), "--weights", "1,-1",
                          "--max-degree", str(inp["degree"]), "--out", str(inp["out"])])
    return {"exit": code, "report": _read(inp["out"])}


def berman_check(res, inp):
    want = BERMAN_HOMOLOGY[: inp["degree"]]
    doc = res["report"]
    got = groups_of(doc.get("groups", ()))
    ok = res["exit"] == 0 and got == want and doc.get("weights") == [1, -1]
    return [("homology", ok, None if ok else {"got": got, "want": want, "perm": inp["perm"]})]


# --- classify-embed ---------------------------------------------------------

def classify_setup(mods, seed, work, size):
    rng = random.Random(seed)
    params = SIZES[size]
    embed, homology = {}, {}
    for spec in params["embed"]:
        G = group_spec(mods, spec)
        perm = seeded_perm(rng, G.m)
        embed[spec] = {"base": G, "group": relabeled_group(mods, G, perm), "perm": perm}
    for spec in params["homology"]:
        G = group_spec(mods, spec)
        perm = seeded_perm(rng, G.m)
        homology[spec] = {"group": relabeled_group(mods, G, perm), "perm": perm}
    # generating pair of S_k: the transposition (0 1) and the k-cycle
    k = params["close"]
    spec = f"symmetric:{k}"
    perms = sorted(itertools.permutations(range(k)))
    pair = (perms.index((1, 0) + tuple(range(2, k))), perms.index(tuple(range(1, k)) + (0,)))
    tau, sigma = mods.fixtures.get_fixture("berman-d6").ops
    carrier = seeded_perm(rng, tau.n)
    files = []
    for name, op in (("tau", tau), ("sigma", sigma)):
        path = work / f"{name}.json"
        path.write_text(json.dumps({"n": op.n, "table": [list(r) for r in relabel_entries(op.entries, carrier)]}))
        files.append(str(path))
    return {"racks_n": params["racks_n"], "embed": embed, "homology": homology,
            "close": spec, "close_k": k, "pair": [embed[spec]["perm"][g] for g in pair],
            "seed_pair": files, "report": work / "seeded.json"}


def classify_run(mods, inp):
    res = {}
    catalog = mods.search.enumerate_racks(inp["racks_n"])
    res["racks"] = (len(catalog.racks), len(catalog.canonical))
    images = {}
    for spec, e in inp["embed"].items():
        images[spec] = mods.embedding.regular_embed(e["group"]).images
    res["embed"] = {spec: tuple(op.entries for op in ims) for spec, ims in images.items()}
    a, b = (images[inp["close"]][g] for g in inp["pair"])
    closure = mods.shelves.close_group(mods.shelves.DistributiveSet(a.n, (a, b)))
    res["close"] = (closure.order, closure.abelian, closure.kind)
    res["homology"] = {}
    for spec, h in inp["homology"].items():
        ims = mods.embedding.regular_embed(h["group"]).images
        ops = [ims[h["perm"][g]] for g in range(len(ims))]  # weights follow the elements
        S = mods.shelves.make_distributive_set(ops)
        weights = tuple(1 if i % 2 == 0 else -1 for i in range(len(ops)))
        chain = mods.homology.ChainSpec(S, weights, 2)
        res["homology"][spec] = tuple(
            (g.degree, g.free_rank, tuple(g.torsion)) for g in mods.homology.homology_groups(chain)
        )
    code = mods.cli.main(["search", "--n", "6", "--seed-pair", *inp["seed_pair"],
                          "--report", str(inp["report"])])
    res["seeded"] = {"exit": code, "report": _read(inp["report"])}
    return res


def _expected_images(e):
    """Images of the relabeled group, from the definition on the base group."""
    base = regular_images(e["base"].mul, e["base"].identity)
    want = [None] * len(base)
    for g, table in enumerate(base):
        want[e["perm"][g]] = relabel_entries(table, e["perm"])
    return tuple(want)


def classify_check(res, inp):
    out = []
    n = inp["racks_n"]
    want = (LABELLED_RACKS[n], A181771[n])
    out.append(("enumerate_racks", res["racks"] == want, {"got": res["racks"], "want": want}))
    for spec, e in inp["embed"].items():
        ok = res["embed"][spec] == _expected_images(e)
        out.append((f"regular_embed {spec}", ok, {"perm": e["perm"]}))
    want = (math.factorial(inp["close_k"]), False, "group")  # |S_k|, non-abelian
    out.append(("close_group", res["close"] == want, {"got": res["close"], "want": want}))
    for spec, got in res["homology"].items():
        want = EMBED_HOMOLOGY[spec]
        out.append((f"homology {spec}", got == want, {"got": got, "want": want}))
    doc = res["seeded"]["report"]
    ok = (res["seeded"]["exit"] == 1 and doc["conclusion"] == "nonabelian-found"
          and doc["racks_found"] == 2 and doc["compatible_pairs"] == 1 and doc["seeded"]
          and [g["closure_order"] for g in doc["nonabelian_groups"]] == [6])
    out.append(("search --n 6 seeded", ok, {"got": res["seeded"]}))
    return [(name, ok, None if ok else detail) for name, ok, detail in out]


WORKLOADS = {
    "search-n5": (search_setup, search_run, search_check),
    "homology-berman": (berman_setup, berman_run, berman_check),
    "classify-embed": (classify_setup, classify_run, classify_check),
}
