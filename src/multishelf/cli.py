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


# name -> (handler, help, arguments as (flag, keywords)), in the order of the usage line
COMMANDS = {
    "fixtures": (_cmd_fixtures, "emit a bundled fixture (or 'list')", [
        ("name", {}), ("--out", {"help": "directory to write table/set files into"})]),
    "validate": (_cmd_validate, "validate a set file as a distributive set", [
        ("--set", {"required": True}), ("--out", {})]),
    "compose": (_cmd_compose, "compose two tables (left applied first)", [
        ("--ops", {"nargs": 2, "required": True}), ("--out", {})]),
    "embed-regular": (_cmd_embed_regular, "regular embedding of a group", [
        ("--group", {"required": True, "help": "cyclic:k | dihedral:k | symmetric:k | file"}),
        ("--out", {"required": True})]),
    "alpha": (_cmd_alpha, "print column permutations of an invertible table", [("--op", {"required": True})]),
    "check-conjugation": (_cmd_check_conjugation, "conjugation form of distributivity", [
        ("--ops", {"nargs": 2, "required": True}), ("--out", {})]),
    "search": (_cmd_search, "certify absence of non-abelian groups of racks", [
        ("--n", {"type": int, "required": True}),
        ("--budget", {"type": float, "help": "seconds before reporting partial"}),
        ("--seed-pair", {"nargs": 2, "metavar": "FILE"}),
        ("--report", {"help": "report file (default stdout)"})]),
    "homology": (_cmd_homology, "multi-term distributive homology", [
        ("--set", {"required": True}),
        ("--weights", {"required": True, "help": "comma-separated integers"}),
        ("--max-degree", {"type": int, "default": DEFAULT_MAX_DEGREE}),
        ("--dim-budget", {"type": int, "default": DEFAULT_DIM_BUDGET}),
        ("--out", {})]),
}


@functools.cache  # one parser per set of commands and process
def build_parser(commands: tuple[str, ...] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser of ``commands``.  Each ``add_argument`` costs a help formatter, so ``main``
    builds one command's parser when it can; its usage line still names every command (a
    metavar on the full parser would rename the command in its errors)."""
    p = argparse.ArgumentParser(prog="multishelf")
    metavar = None if commands == tuple(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in commands:
        func, summary, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(tuple(argv[:1]) if argv and argv[0] in COMMANDS else tuple(COMMANDS)).parse_args(argv)
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
