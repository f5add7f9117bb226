"""Finite binary-operation tables: the composition monoid, distributive
sets, the regular group embedding, rack search, and distributive homology."""

from .tables import (
    OpTable,
    commutes,
    compose,
    distributive_witness,
    is_idempotent,
    make_table,
    relabel,
    right_trivial,
)
from .groups import (
    FiniteGroup,
    are_isomorphic,
    cyclic,
    dihedral,
    group_from_table,
    is_abelian,
    symmetric,
)
from .embedding import RegularEmbedding, regular_embed, verify_inverse_images
from .translate import alpha, alpha_inverse, conjugation_condition
from .shelves import (
    ClosureBudgetError,
    ClosureResult,
    DistributiveSet,
    DistributivityError,
    close_group,
    make_distributive_set,
    verify_distributive,
)
from .search import (
    RackCatalog,
    SearchReport,
    canonical_form,
    certify_no_nonabelian,
    compatibility_graph,
    enumerate_racks,
    seed_catalog,
)
from .snf import smith_normal_form
from .homology import (
    ChainSpec,
    HomologyGroup,
    boundary_matrix,
    homology_groups,
    verify_differential,
)

__version__ = "0.1.0"
