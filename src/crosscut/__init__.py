"""Number-theoretic set families, their lattices and nerve complexes, and exact
integer reduced homology."""

from .complexes import (
    SimplicialComplex,
    coprime_free_collapsed,
    face_complex,
    faces_by_dimension,
    nerve,
    strong_collapse,
)
from .families import (
    COPRIME_FREE,
    DISTINCT_PAIR_PRODUCTS,
    DIVISIBILITY_CHAIN,
    ENUMERATION_GUARD,
    NO_DIVISOR_OF_PAIR_PRODUCT,
    PAIRWISE_COPRIME,
    PRIMITIVE,
    PRODUCT_FREE,
    CountTriangle,
    EnumerationGuardError,
    FailureWitness,
    FamilyKind,
    Partition,
    count_triangle,
    is_member,
    kind_from_name,
    maximal_members,
    members,
    partition_components,
    s_multiple,
)
from .homology import HomologyGroup, reduced_homology
from .lattice import TOP, FamilyLattice, crosscut_complex, is_crosscut, mobius
from .numthy import factorize, is_squarefree

__version__ = "0.1.0"
