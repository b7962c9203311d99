"""Distance-regular Cayley graphs over Z_{p^s} + Z_p.

Construction and exact certification of distance-regular Cayley graphs,
Schur-ring verification of distance modules, exact cyclotomic Fourier
analysis, transversal designs and difference sets, and an exhaustive
kernel-accelerated census of connection sets with family reconciliation.
"""

from .cayley import (
    CayleyGraph,
    DistancePartition,
    SymmetricSet,
    build,
    distance_partition,
    edge_list,
    is_connected,
    to_graph6,
)
from .classify import CensusReport, census, construct_family
from .drg import FamilyTag, IntersectionArray, SrgParams, check_drg, recognize, srg_params
from .groups import (
    GroupDescriptor,
    Subgroup,
    atom_partition,
    automorphism_group,
    cyclic_group,
    inverse_pairs,
    pair_group,
    parse_group,
    product_group,
    subgroups_of_order,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyGraph",
    "CensusReport",
    "DistancePartition",
    "FamilyTag",
    "GroupDescriptor",
    "IntersectionArray",
    "SrgParams",
    "Subgroup",
    "SymmetricSet",
    "atom_partition",
    "automorphism_group",
    "build",
    "census",
    "check_drg",
    "construct_family",
    "cyclic_group",
    "distance_partition",
    "edge_list",
    "inverse_pairs",
    "is_connected",
    "pair_group",
    "parse_group",
    "product_group",
    "recognize",
    "srg_params",
    "subgroups_of_order",
    "to_graph6",
    "__version__",
]
