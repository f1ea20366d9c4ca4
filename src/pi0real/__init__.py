"""Component groups of real points of connected reductive algebraic groups.

The library computes pi0 of the real points from three pieces of lattice
data: the cocharacter lattice of a maximal torus, the coroot lattice inside
it, and the integer matrix by which the Cartan involution acts.  It also
produces explicit order-at-most-2 torus elements representing the
components, and the first Galois cohomology of the fundamental group.

Exact integer and rational arithmetic throughout; no floating point.
"""

from .components import (
    ComputationError,
    Elementary2Group,
    Representative,
    SplitLattices,
    coboundary_check,
    cocycle_check,
    h1_pi1,
    kernel_embedding_check,
    oracle_check,
    pi0,
    representative,
    representatives,
    split_lattices,
)
from .intlattice import (
    BoundExceeded,
    DimensionMismatch,
    InfiniteIndex,
    Lattice,
    LatticeError,
    NotASublattice,
    QuotientStructure,
    brute_force_quotient,
    hnf,
    kernel_lattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    membership,
    quotient_structure,
    snf,
)
from .realform import (
    Involution,
    InvolutionError,
    build_preset,
    involution_from_eigenspaces,
    involution_from_matrix,
    product_involution,
)
from .rootdata import (
    PresetError,
    RootDatum,
    e7_adjoint,
    product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "ComputationError",
    "DimensionMismatch",
    "Elementary2Group",
    "InfiniteIndex",
    "Involution",
    "InvolutionError",
    "Lattice",
    "LatticeError",
    "NotASublattice",
    "PresetError",
    "QuotientStructure",
    "Representative",
    "RootDatum",
    "SplitLattices",
    "brute_force_quotient",
    "build_preset",
    "coboundary_check",
    "cocycle_check",
    "e7_adjoint",
    "h1_pi1",
    "hnf",
    "involution_from_eigenspaces",
    "involution_from_matrix",
    "kernel_embedding_check",
    "kernel_lattice",
    "lattice_index",
    "lattice_intersect",
    "lattice_sum",
    "membership",
    "oracle_check",
    "pi0",
    "product",
    "product_involution",
    "quotient_structure",
    "representative",
    "representatives",
    "snf",
    "split_lattices",
    "__version__",
]
