"""Exact computational topology of moment-angle complexes.

Three layers share one bitmask representation of simplicial complexes:
integral and modular (co)homology on exact linear algebra, the subset
decomposition of the ambient cohomology with its induced-map machinery
for wedge-splitting verdicts, and the rational cluster geometry whose
pointwise evaluators certify the splitting construction.
"""

from momentangle.clusters import (
    MembershipViolation,
    PartitionedSmashPoint,
    SuspensionPoint,
    anchored,
    cluster_radii,
    cluster_radius,
    contract_toward_center,
    damped_coordinate,
    enumerate_balanced_splits,
    factor_tagging_map,
    in_cluster_region,
    in_partitioned_smash,
    in_smashed_complex,
    in_split_region,
    max_cluster_radius,
    normalized_spread,
    partition_from_point,
    pinch_map,
    pinch_on_suspension,
    pinched_composite,
    radial_gauge,
    radial_gauge_inverse,
    split_center,
    split_region_statistics,
    split_tags,
    tagging_homotopy,
    tagging_map,
)
from momentangle.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle_complex,
    flag_from_graph,
    full_mask,
    full_skeleton,
    mask_vertices,
    new_complex,
    random_complex,
    shifted_join,
    simplex,
    single_non_face,
    vertex_mask,
)
from momentangle.golod import (
    CrossProductMap,
    NullCertificate,
    PairReport,
    TheoremVerdict,
    cup_product,
    cup_products_vanish,
    iota_pair,
    iter_disjoint_pairs,
    null_certificate,
    pair_certificates,
    splitting_verdict,
)
from momentangle.hochster import (
    HochsterSummand,
    PoincareSeries,
    TruncationError,
    WedgeModel,
    hochster_decomposition,
    koszul_oracle,
    poincare_series,
    series_from_decomposition,
    wedge_model,
)
from momentangle.homology import (
    ChainComplex,
    CochainCalculator,
    HomologyGroup,
    InducedMap,
    connectivity_certificate,
    reduced_cohomology,
    reduced_homology,
)
from momentangle.linalg import (
    IntMatrix,
    SmithForm,
    field_nullspace,
    field_rank,
    rank_mod_p,
    smith_normal_form,
)

__version__ = "0.1.0"
