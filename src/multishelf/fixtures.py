"""Bundled example tables.

``berman-d6``: the pair of 6x6 tables (a reflection and a 3-cycle) that
generate a non-abelian distributive group of order 6 on a six-element
carrier — the smallest carrier where that is possible.

``xor``: XOR on {0,1}; invertible but not self-distributive, useful as a
negative fixture.

Each fixture's canonical set document has a pinned sha256; ``fixture``
refuses a fixture whose tables no longer hash to it, so in-package data and
files written from it cannot drift.
"""
from __future__ import annotations

import json
import sys

from .formats import set_document
from .shelves import DistributiveSet, make_distributive_set
from .tables import OpTable

BERMAN_TAU = OpTable(
    6,
    (
        (1, 1, 3, 5, 5, 3),
        (0, 0, 4, 2, 2, 4),
        (3, 3, 5, 1, 1, 5),
        (2, 2, 0, 4, 4, 0),
        (5, 5, 1, 3, 3, 1),
        (4, 4, 2, 0, 0, 2),
    ),
)

BERMAN_SIGMA = OpTable(
    6,
    (
        (2, 4, 2, 4, 2, 4),
        (5, 3, 5, 3, 5, 3),
        (4, 0, 4, 0, 4, 0),
        (1, 5, 1, 5, 1, 5),
        (0, 2, 0, 2, 0, 2),
        (3, 1, 3, 1, 3, 1),
    ),
)

XOR = OpTable(2, ((0, 1), (1, 0)))

_FIXTURE_OPS: dict[str, tuple[OpTable, ...]] = {
    "berman-d6": (BERMAN_TAU, BERMAN_SIGMA),
    "xor": (XOR,),
}

_FIXTURE_SHA256 = {
    "berman-d6": "a8c6c94ea76f17d0775b460c36b712d3ce18821e7ae023971da1c897bc9f9cee",
    "xor": "81ecf75270c6a7168fc96cf138c145f0a48ef7cf5785338bd7bcd1d719fb7610",
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURE_OPS)


def fixture(name: str) -> tuple[tuple[OpTable, ...], dict, str]:
    """The fixture's tables, set document and pinned sha256; raises if the
    document does not hash to that sha256."""
    if name not in _FIXTURE_OPS:
        raise KeyError(f"unknown fixture '{name}', have {fixture_names()}")
    ops = _FIXTURE_OPS[name]
    doc = set_document(DistributiveSet(ops[0].n, ops))
    digest = document_checksum(doc)
    if digest != _FIXTURE_SHA256[name]:
        raise ValueError(
            f"fixture '{name}' hashes to {digest}, pinned {_FIXTURE_SHA256[name]}"
        )
    return ops, doc, digest


def document_checksum(doc: dict) -> str:
    """sha256 of a JSON document serialized with sorted keys, from CPython's
    built-in SHA-256 module (``_sha2`` from Python 3.12, ``_sha256`` before),
    which ``hashlib`` also falls back to without OpenSSL.  ``hashlib``,
    which loads OpenSSL, is imported only when that module is missing."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    return sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def get_fixture(name: str) -> DistributiveSet:
    """Fixture as a distributive set, revalidated on load; ``fixture(name)[0]``
    gives the tables of a deliberately non-distributive fixture."""
    return make_distributive_set(fixture(name)[0])
