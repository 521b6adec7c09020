"""Exact-arithmetic Hopf algebras of set compositions and the geometry of the
braid and adjoint braid arrangements: chamber enumeration, Steinmann
relations, Dynkin elements, and reconstruction of Steinmann functionals.
"""

from .compositions import (
    GroundSet,
    SetComposition,
    SetPartition,
    composition,
    concat,
    enumerate_compositions,
    enumerate_partitions,
    ground,
    leq,
    opposite,
    ordered_bell,
    partition,
    quotient_factors,
    relabel,
    restrict,
    standard_ground,
)
from .errors import DomainError, GroundMismatchError, ResourceBoundError
from .preposets import (
    AdjointFamily,
    Preposet,
    TwoBlock,
    adjoint_closure,
    adjoint_signature,
    classify,
    coprobes,
    preposet,
    preposet_of,
    transitive_closure,
    two_block,
    two_block_product,
)
from .ratgeom import Point, cone_member, pair
from .hopf import (
    BasisElement,
    TensorElement,
    antipode,
    basis_vector,
    change_basis,
    comultiply,
    cone_element,
    eulerian_series,
    multiply,
    pairing,
    preposet_expansion,
    tits,
    tits_h,
)
from .zie import (
    Tree,
    ZieDualElement,
    ZieElement,
    antisym,
    bracket,
    cobracket,
    debracket,
    embed_U,
    leaf,
    node,
    p_eval,
    project_Ustar,
    reduce_tree,
)
from .braid import (
    PwcFunction,
    braid_signature,
    cone,
    eval_function,
    face,
    pointwise_product,
    support_matches_cone,
)
from .arrangement import (
    AdjointChamber,
    AdjointFace,
    chamber_count,
    chamber_index,
    enumerate_chambers,
    hyperplane_splits,
)
from .functionals import (
    ChamberFunctional,
    ChamberSum,
    FunctionalTensor,
    SteinmannRelation,
    c_functional,
    comb_coefficients,
    derivative,
    dynkin,
    egs_expansion,
    eulerian_element,
    is_steinmann,
    m_functional,
    p_functional,
    realize,
    reconstruct,
    stein_quotient_dim,
    steinmann_basis_coords,
    steinmann_relations,
)

__version__ = "0.1.0"
