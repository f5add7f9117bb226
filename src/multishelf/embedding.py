"""The regular embedding of a finite group into the monoid of tables on itself.

Element g maps to the table a *_g b = a b^-1 g b on carrier {0..m-1}.  The
construction re-checks every clause it relies on (identity image, pairwise
distributivity, homomorphism, injectivity), so building an embedding doubles
as an executable proof.  Injectivity is read off the identity column: the
entry of image g in the identity row there is g itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup
from .shelves import verify_distributive
from .tables import OpTable, compose, invert, right_trivial


@dataclass(frozen=True)
class RegularEmbedding:
    group: FiniteGroup
    images: tuple[OpTable, ...]


def _image_table(G: FiniteGroup, g: int) -> OpTable:
    m = G.m
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            conj = G.mul[G.mul[G.inv[b]][g]][b]  # b^-1 g b
            row.append(G.mul[a][conj])
        rows.append(tuple(row))
    return OpTable(m, tuple(rows))


def regular_embed(G: FiniteGroup) -> RegularEmbedding:
    """Build the embedding and verify its defining properties.

    A failed check is an internal error: the construction guarantees them
    for any valid group.
    """
    images = tuple(_image_table(G, g) for g in range(G.m))
    if images[G.identity] != right_trivial(G.m):
        raise AssertionError("identity image is not the right-trivial table")
    witness = verify_distributive(images)
    if witness is not None:
        raise AssertionError(f"image set not distributive, witness {witness}")
    for g1 in range(G.m):
        for g2 in range(G.m):
            if compose(images[g1], images[g2]) != images[G.mul[g1][g2]]:
                raise AssertionError(f"homomorphism fails at ({g1},{g2})")
    for g in range(G.m):
        col = images[g].column(G.identity)
        if col != tuple(G.mul[a][g] for a in range(G.m)):
            raise AssertionError(f"injectivity column wrong for {g}")
    return RegularEmbedding(G, images)


def verify_inverse_images(E: RegularEmbedding) -> bool:
    """True iff the image of g^-1 is the composition inverse of the image of g."""
    G = E.group
    return all(E.images[G.inv[g]] == invert(E.images[g]) for g in range(G.m))
