"""Ghost automorphisms of decorated dual graphs.

Decides smoothness of moduli points from decorated dual graphs, computes
ages of ghost automorphisms, and enumerates the junior (non-canonical)
strata for small prime levels.
"""

from .graphs import (
    Dart,
    GraphError,
    Multigraph,
    SizeBoundExceeded,
    betti1,
    canonical_code,
    contract_edges,
    enumerate_base_graphs,
    fundamental_circuits,
    is_tree_like,
    separating_edges,
    spanning_tree,
)
from .cochains import (
    CochainError,
    EvenFunction,
    OneCochain,
    ZeroCochain,
    boundary,
    cut,
    cut_basis,
    delta,
    in_image_delta,
    pairing,
    solve_boundary,
    solve_delta,
)
from .decorated import (
    DecoratedGraph,
    DecorationError,
    admissible_k,
    gamma0,
    gamma_nu,
    gamma_p,
    genus_labeling,
    multidegree,
    parse_decorated,
    root_count,
    serialize_decorated,
    stabilizer_order,
    total_genus,
)
from .ghosts import (
    AgeReport,
    GhostGroup,
    age,
    alpha_beta,
    cover_decompose,
    generated_by_qr,
    ghost_group,
    inverse,
    is_junior,
    is_supported,
    lifts,
    minimal_age_report,
    qr_subgroup,
    stratum_age,
    vine_witness,
)
from .classify import (
    StratumClass,
    classify_junior,
    contracts_to,
    prop_k_symmetry,
    reduce_step,
    vine_notation,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
