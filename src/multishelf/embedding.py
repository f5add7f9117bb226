"""The regular embedding of a finite group into the monoid of tables on itself.

Element g maps to the table a *_g b = a b^-1 g b on carrier {0..m-1}.  The
construction re-checks every clause it relies on (identity image, pairwise
distributivity, homomorphism, injectivity), so building an embedding doubles
as an executable proof.  The homomorphism is checked on a generating set
only: if images[g] ; images[s] = images[g s] for every g and every generator
s, then images[s_1 ... s_k] = images[s_1] ; ... ; images[s_k] by induction on
k, and composition is associative, so the images compose as the group
multiplies.  Injectivity is read off the identity column: the entry of image
g in the identity row there is g itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup
from .shelves import verify_distributive
from .tables import OpTable, compose, greedy_generators, invert, right_trivial


@dataclass(frozen=True)
class RegularEmbedding:
    group: FiniteGroup
    images: tuple[OpTable, ...]


def _image_table(G: FiniteGroup, g: int) -> OpTable:
    mul = G.mul
    conj = [mul[mul[G.inv[b]][g]][b] for b in range(G.m)]  # b^-1 g b
    return OpTable(G.m, tuple(tuple([row[c] for c in conj]) for row in mul))


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
    # the least element not yet generated, until G is generated
    gens = greedy_generators(range(G.m), G.identity, lambda h, s: G.mul[h][s], G.m)
    for g in range(G.m):
        for s in gens:
            if compose(images[g], images[s]) != images[G.mul[g][s]]:
                raise AssertionError(f"homomorphism fails at ({g},{s})")
    for g in range(G.m):
        col = images[g].column(G.identity)
        if col != tuple(G.mul[a][g] for a in range(G.m)):
            raise AssertionError(f"injectivity column wrong for {g}")
    return RegularEmbedding(G, images)


def verify_inverse_images(E: RegularEmbedding) -> bool:
    """True iff the image of g^-1 is the composition inverse of the image of g."""
    G = E.group
    return all(E.images[G.inv[g]] == invert(E.images[g]) for g in range(G.m))
