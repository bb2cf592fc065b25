"""Homomorphism-counting laboratory for finite relational structures, rooted
trees and towers of finite groups."""

from .errors import (
    CapExceededError,
    HomcountError,
    InvariantViolationError,
    ParseError,
    SignatureMismatchError,
)
from .sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    FactorisationSystem,
    Morphism,
    MorphismClass,
    Signature,
    Structure,
    are_isomorphic,
    canonical_form,
    disjoint_union,
    embedding_class,
    pushout,
    validate_morphism,
)
from .homsearch import CountResult, count_morphisms, hom_count
from .quotposet import (
    FinitePoset,
    QuotientPoset,
    quotient_poset,
    set_partitions,
)
from .stirling import (
    KernelDecomposition,
    generic_count,
    kernel_decomposition,
    stirling_number,
)
from .lovasz import (
    DistinguishResult,
    HomProfile,
    decide_isomorphic_by_counting,
    distinguish,
    embeddings_via_mobius,
    enumerate_structures,
    hom_profile,
)
from .trees import (
    FiniteTree,
    RationalTreeSpec,
    count_tree_morphisms,
    distinguish_trees,
    enumerate_trees,
    truncate,
)
from .cklogic import (
    CkVerdict,
    TreeDecomposition,
    ck_profile_equal,
    enumerate_tw_lt_k,
    tree_decomposition,
    treewidth,
    wl_equivalent,
)
from .profinite import (
    FiniteGroup,
    GroupHom,
    Tower,
    continuous_hom_count,
    count_group_homs,
    cyclic_group,
    direct_product,
    distinguish_towers,
    surjection_profile,
)

__version__ = "0.1.0"
