"""grpd: analysis of finite groupoids (magmas).

Measures how far a binary operation is from associativity (associative
spectrum, index of nonassociativity), computes the binary part of the
generated clone, checks variety memberships, and ships a verified
catalog of reference tables with a claim harness over all of it.
"""

from .bracketings import (
    catalan,
    enumerate_bracketings,
    left_assoc,
    left_depth_sequence,
    parse_bracketing,
    right_assoc,
)
from .catalog import (
    CatalogEntry,
    build_ak,
    build_chain_groupoid,
    build_f2_cp,
    catalog_get,
    catalog_list,
)
from .claims import ClaimResult, run_claims
from .clone import (
    BinaryClonePart,
    ProxyVerdict,
    binary_clone_part,
    binary_minimality_proxy,
    binary_term_table,
    f2_table,
    find_relational_witness,
    generates_basic,
    is_trivial_clone,
)
from .core import (
    Groupoid,
    Isomorphism,
    Partition,
    SubsetWitness,
    dual,
    enumerate_partitions,
    find_isomorphism,
    generate_subuniverse,
    is_congruence,
    is_idempotent,
    parse_groupoid,
    quotient,
    write_groupoid,
)
from .errors import GuardError, ParseError
from .nonassoc import ShReport, check_sh_factor_property, is_minimal_sh, ns_index
from .search import SearchSummary, search_tables
from .spectrum import (
    OpTable,
    SpectrumReport,
    nulla_satisfied,
    spectrum,
    spectrum_ak_oracle,
    term_function,
)
from .terms import (
    Identity,
    Term,
    evaluate,
    in_A,
    in_B,
    in_Cp,
    in_D,
    in_D_cap_A,
    is_absorption,
    is_left_regular_band,
    is_left_zero,
    is_rect_band,
    is_right_regular_band,
    is_right_zero,
    is_semigroup,
    parse_identity,
    parse_term,
    satisfies_D_scheme,
    satisfies_identity,
    scheme_identity,
    term_to_string,
)

__version__ = "0.1.0"
