"""Command-line front end.

Exit codes: 0 = success / certified, 1 = a witness falsified the property
under test (or a non-abelian group was found), 2 = budget exhausted /
partial result.  Malformed input files report the offending field, and
unreadable ones their path and the reason, on an ``error:`` line; both
exit 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import fixtures as fx
from .embedding import regular_embed, verify_inverse_images
from .formats import (
    group_document,
    load_group,
    load_set,
    load_table,
    save_table,
    table_document,
    write_document,
)
from .groups import FiniteGroup, cyclic, dihedral, symmetric
from .homology import (
    CONVENTION,
    DEFAULT_DIM_BUDGET,
    DEFAULT_MAX_DEGREE,
    ChainSpec,
    DimensionBudgetError,
    homology_groups,
)
from .shelves import DistributivityError
from .search import _check_budget, _check_seed, _check_size, certify_no_nonabelian
from .tables import compose
from .translate import alpha, conjugation_condition

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARTIAL = 2


@contextmanager
def _named(*words: object) -> Iterator[None]:
    """Prefix a ValueError raised inside with the flag and values it concerns."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{' '.join(map(str, words))}: {e}") from e


def _parse_group(spec: str) -> FiniteGroup:
    for prefix, factory in (("cyclic", cyclic), ("dihedral", dihedral), ("symmetric", symmetric)):
        if spec.startswith(prefix + ":"):
            with _named("--group", spec):
                return factory(int(spec.split(":", 1)[1]))
    return load_group(spec)


def _cmd_fixtures(args) -> int:
    if args.name == "list":
        for name in fx.fixture_names():
            print(f"{name}  sha256={fx.fixture(name)[2]}")
        return EXIT_OK
    ops, doc, checksum = fx.fixture(args.name)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        set_path = outdir / f"{args.name}.json"
        write_document(doc, set_path)
        names = ["tau", "sigma"] if args.name == "berman-d6" else [
            f"op{i}" for i in range(len(ops))
        ]
        for name, op in zip(names, ops):
            save_table(op, outdir / f"{name}.json")
        # written bytes must hash back to the bundled checksum
        if fx.document_checksum(json.loads(set_path.read_text())) != checksum:
            print("checksum mismatch between bundled and written fixture", file=sys.stderr)
            return EXIT_WITNESS
        print(f"wrote {set_path}  sha256={checksum}")
    else:
        write_document(doc)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        S = load_set(args.set)
    except DistributivityError as e:
        write_document({"valid": False, "pair": list(e.pair), "witness": list(e.triple)}, args.out)
        return EXIT_WITNESS
    write_document({"valid": True, "n": S.n, "count": len(S.ops)}, args.out)
    return EXIT_OK


def _cmd_compose(args) -> int:
    op1, op2 = map(load_table, args.ops)
    with _named("--ops", *args.ops):
        op = compose(op1, op2)
    write_document(table_document(op), args.out)
    return EXIT_OK


def _cmd_embed_regular(args) -> int:
    G = _parse_group(args.group)
    E = regular_embed(G)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = [f"op_{g}.json" for g in range(len(E.images))]
    for name, op in zip(files, E.images):
        save_table(op, outdir / name)
    manifest = {
        "group": group_document(G),
        "images": files,
        "verification": {
            "distributive": True,  # regular_embed raised otherwise
            "inverse_images": verify_inverse_images(E),
        },
    }
    write_document(manifest, outdir / "manifest.json")
    print(f"wrote {len(files)} tables and manifest to {outdir}")
    return EXIT_OK


def _cmd_alpha(args) -> int:
    op = load_table(args.op)
    with _named("--op", args.op):
        cols = alpha(op)
    print("\n".join(" ".join(map(str, col)) for col in cols))
    return EXIT_OK


def _cmd_check_conjugation(args) -> int:
    cols = []
    for path, op in zip(args.ops, list(map(load_table, args.ops))):  # read both files first
        with _named("--ops", path):
            cols.append(alpha(op))
    with _named("--ops", *args.ops):
        w = conjugation_condition(*cols)
    if w is None:
        write_document({"holds": True}, args.out)
        return EXIT_OK
    write_document({"holds": False, "witness": list(w)}, args.out)
    return EXIT_WITNESS


def _cmd_search(args) -> int:
    with _named("--n", args.n):
        _check_size(args.n)
    with _named("--budget", args.budget):
        _check_budget(args.budget)
    seed = tuple(map(load_table, args.seed_pair)) if args.seed_pair else None
    for k, path in enumerate(args.seed_pair or ()):
        with _named("--seed-pair", path):
            _check_seed(args.n, seed[k], k)  # the search checks them again, but names no file
    report = certify_no_nonabelian(args.n, budget=args.budget, seed_pair=seed)
    write_document(report.to_document(), args.report)
    if report.conclusion == "nonabelian-found":
        return EXIT_WITNESS
    if report.conclusion == "partial":
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_homology(args) -> int:
    S = load_set(args.set)
    with _named("--weights", args.weights):
        weights = tuple(int(w) for w in args.weights.split(","))
        ChainSpec(S, weights)
    with _named("--max-degree", args.max_degree):
        spec = ChainSpec(S, weights, args.max_degree)
    try:
        groups = homology_groups(spec, dim_budget=args.dim_budget)
    except DimensionBudgetError as e:
        flags = f"--max-degree {args.max_degree} --dim-budget {args.dim_budget}"
        raise ValueError(f"{flags}: {e}") from e
    doc = {
        "convention": CONVENTION,
        "basis_order": "lexicographic tuples over {0..n-1}",
        "n": S.n,
        "weights": list(weights),
        "groups": [
            {"degree": h.degree, "free_rank": h.free_rank, "torsion": list(h.torsion)}
            for h in groups
        ],
    }
    write_document(doc, args.out)
    return EXIT_OK


@functools.cache  # main parses with one parser per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multishelf")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fixtures", help="emit a bundled fixture (or 'list')")
    sp.add_argument("name")
    sp.add_argument("--out", help="directory to write table/set files into")
    sp.set_defaults(func=_cmd_fixtures)

    sp = sub.add_parser("validate", help="validate a set file as a distributive set")
    sp.add_argument("--set", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("compose", help="compose two tables (left applied first)")
    sp.add_argument("--ops", nargs=2, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_compose)

    sp = sub.add_parser("embed-regular", help="regular embedding of a group")
    sp.add_argument("--group", required=True, help="cyclic:k | dihedral:k | symmetric:k | file")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_embed_regular)

    sp = sub.add_parser("alpha", help="print column permutations of an invertible table")
    sp.add_argument("--op", required=True)
    sp.set_defaults(func=_cmd_alpha)

    sp = sub.add_parser("check-conjugation", help="conjugation form of distributivity")
    sp.add_argument("--ops", nargs=2, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_check_conjugation)

    sp = sub.add_parser("search", help="certify absence of non-abelian groups of racks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=float, help="seconds before reporting partial")
    sp.add_argument("--seed-pair", nargs=2, metavar="FILE")
    sp.add_argument("--report", help="report file (default stdout)")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("homology", help="multi-term distributive homology")
    sp.add_argument("--set", required=True)
    sp.add_argument("--weights", required=True, help="comma-separated integers")
    sp.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    sp.add_argument("--dim-budget", type=int, default=DEFAULT_DIM_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_homology)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:  # includes SchemaError, DistributivityError
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_WITNESS
    except OSError as e:
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_WITNESS


if __name__ == "__main__":
    raise SystemExit(main())
