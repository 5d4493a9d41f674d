"""Finite monoids, simple semigroups, and the two-object categories that connect them."""

from .check import Check
from .core import (
    FiniteSemigroup,
    Monoid,
    Subset,
    adjoin_identity,
    as_semigroup,
    dump_cayley,
    find_identity,
    generated_subsemigroup,
    idempotents,
    is_group,
    parse_cayley,
    sub_semigroup,
    validate_semigroup,
)
from .ideals import (
    GroupHandle,
    IdealSubset,
    canonical_minimal_pair,
    group_handle_from_subset,
    group_of,
    group_of_intersection,
    is_simple,
    kernel,
    minimal_left_ideals,
    minimal_right_ideals,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
    subset_product,
)
from .bimodule import (
    Bimodule,
    TensorSet,
    free_action_check,
    group_quotient,
    mult_bijection_check,
    regular_bimodule,
    tensor,
    validate_bimodule,
)
from .rees import (
    ReesMatrixSemigroup,
    expand,
    rees_decomposition,
    rees_from_json_dict,
    rees_round_trip,
    rees_to_json_dict,
    verify_rees_iso,
)
from .twocat import (
    Standardization,
    TwoObjectCategory,
    category_from_json_dict,
    category_from_monoid,
    category_from_simple,
    category_isomorphic,
    category_to_json_dict,
    compose_categories,
    extract_simple,
    groupoid_from_group,
    ideal_slices,
    is_reduced,
    karoubi_pair,
    minimal_ideal_correspondence,
    relabel,
    reverse,
    slot_bimodule,
    standardize,
    validate_category,
    verify_category_iso,
)
from .connectivity import (
    ConnectivityResult,
    GroupInvariantProfile,
    are_connected,
    connecting_category,
    group_isomorphism,
    groups_isomorphic,
    profile,
    table_isomorphism,
)
from .corpus import CorpusSpec, dump_corpus, generate, standard_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
