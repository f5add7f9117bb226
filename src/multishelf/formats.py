"""JSON file formats for tables, sets, and groups.

Documents are canonical: fixed field order, decimal integers, trailing
newline, so save/load round trips are byte-stable.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Union

from .groups import FiniteGroup, IdentityError, group_from_table
from .shelves import DistributiveSet, make_distributive_set
from .tables import OpTable, make_table

PathLike = Union[str, Path]


class SchemaError(ValueError):
    """A document does not match the expected schema."""

    def __init__(self, path: str, field: str, message: str):
        self.path = path
        self.field = field
        super().__init__(f"{path}: field '{field}': {message}")


def _read_json(path: PathLike) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # JSON text is UTF-8
        raise SchemaError(str(path), "<document>", f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(str(path), "<document>", "top level must be an object")
    return doc


def _require(doc: dict, path: PathLike, field: str, kind: type):
    if field not in doc:
        raise SchemaError(str(path), field, "missing")
    v = doc[field]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise SchemaError(str(path), field, f"expected {kind.__name__}")
    return v


def _carrier_size(doc: dict, path: PathLike, field: str) -> int:
    n = _require(doc, path, field, int)
    if n < 1:
        raise SchemaError(str(path), field, f"carrier size must be >= 1, got {n}")
    return n


def write_document(doc: dict, path: Optional[PathLike] = None) -> None:
    """Write the canonical text of ``doc`` to ``path``, or to stdout without one."""
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def table_document(op: OpTable) -> dict:
    return {"n": op.n, "table": [list(row) for row in op.entries]}


def save_table(op: OpTable, path: PathLike) -> None:
    write_document(table_document(op), path)


def load_table(path: PathLike) -> OpTable:
    doc = _read_json(path)
    n = _carrier_size(doc, path, "n")
    table = _require(doc, path, "table", list)
    try:
        return make_table(n, table)
    except (ValueError, TypeError) as e:
        raise SchemaError(str(path), "table", str(e)) from e


def set_document(S: DistributiveSet) -> dict:
    return {"n": S.n, "ops": [[list(row) for row in op.entries] for op in S.ops]}


def load_set(path: PathLike) -> DistributiveSet:
    """Load a family of tables; raises DistributivityError with the witness."""
    doc = _read_json(path)
    n = _carrier_size(doc, path, "n")
    raw_ops = _require(doc, path, "ops", list)
    ops = []
    for k, raw in enumerate(raw_ops):
        try:
            ops.append(make_table(n, raw))
        except (ValueError, TypeError) as e:
            raise SchemaError(str(path), f"ops[{k}]", str(e)) from e
    return make_distributive_set(ops, n=n)


def group_document(G: FiniteGroup) -> dict:
    return {"m": G.m, "mul": [list(row) for row in G.mul], "identity": G.identity}


def load_group(path: PathLike) -> FiniteGroup:
    doc = _read_json(path)
    m = _carrier_size(doc, path, "m")
    mul = _require(doc, path, "mul", list)
    identity = _require(doc, path, "identity", int)
    try:
        return group_from_table(m, mul, identity)
    except IdentityError as e:
        raise SchemaError(str(path), "identity", str(e)) from e
    except (ValueError, TypeError) as e:
        raise SchemaError(str(path), "mul", str(e)) from e
