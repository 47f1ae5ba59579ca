"""Finite abstract simplicial complexes: nerves, face complexes, strong
collapse, and the reduced model of the pairwise-non-coprime complex."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb, gcd
from operator import and_, or_

from . import families
from .cliques import bits, maximal_cliques
from .families import ENUMERATION_GUARD, EnumerationGuardError, FamilyKind
from .numthy import is_squarefree


def _face_mask(face) -> int:
    mask = 0
    for v in face:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex label {v!r} is not a non-negative int")
        mask |= 1 << v
    return mask


def _maximal_faces(masks) -> tuple[int, ...]:
    """The nonempty faces inside no other face, ascending."""
    faces = set(masks) - {0}
    if (low := min(faces, default=0)) < 0:
        raise ValueError(f"face mask {low} is negative")
    kept: list[int] = []
    for f in sorted(faces, key=int.bit_count, reverse=True):
        if all(f & ~g for g in kept):
            kept.append(f)
    return tuple(sorted(kept))


@dataclass(init=False, repr=False, unsafe_hash=True)
class SimplicialComplex:
    """Stored by its facets: vertex masks, bit v set for vertex v, ascending (colex
    order); construction drops empty and non-maximal faces. Vertex labels are
    non-negative ints: any other label, bools included, raises ValueError."""

    facets: tuple[int, ...]

    def __init__(self, faces):
        self.facets = _maximal_faces(map(_face_mask, faces))

    @classmethod
    def from_masks(cls, masks) -> SimplicialComplex:
        """The complex generated by faces given as vertex masks; a negative mask,
        which has no finite vertex set, raises ValueError."""
        c = cls.__new__(cls)
        c.facets = _maximal_faces(masks)
        return c

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(reduce(or_, self.facets, 0)))

    @property
    def dim(self) -> int:
        return max((f.bit_count() for f in self.facets), default=0) - 1

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, bits(f))) + "}" for f in self.facets)
        return f"SimplicialComplex([{inner}])"


def nerve(masks) -> SimplicialComplex:
    """Nerve of distinct positive int masks (else ValueError; no bools): vertex i
    is masks[i], and a face is any index set whose members share an element.

    Built from witness faces: each element e of the union contributes the face
    {i : e in masks[i]}, and every nerve face lies inside one of these.
    Intersections of simplices are simplices, so c's facet cover is good and
    nerve(c.facets) keeps c's homotopy type: the model of choice when the facets
    are few but too large to expand face by face.
    """
    masks = list(masks)
    if bad := [m for m in masks if isinstance(m, bool) or not isinstance(m, int) or m <= 0]:
        raise ValueError(f"nerve needs positive int masks, got {bad[0]!r}")
    if len(set(masks)) != len(masks):
        raise ValueError("nerve expects pairwise distinct masks")
    witness: dict[int, int] = {}
    for i, m in enumerate(masks):
        for e in bits(m):
            witness[e] = witness.get(e, 0) | 1 << i
    return SimplicialComplex.from_masks(witness.values())


def face_complex(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD) -> SimplicialComplex:
    """Complex whose faces are exactly the members of the family."""
    families._check_size(n, guard)
    return SimplicialComplex.from_masks(families.maximal_members(kind, n, guard))


def _dominated_removal(c: SimplicialComplex) -> int | None:
    """Find a vertex to delete: the smallest dominated vertex, except that under
    mutual domination the larger of the pair is deleted."""
    for x in c.vertices:
        if common := reduce(and_, (f for f in c.facets if f >> x & 1)) ^ 1 << x:
            y = bits(common)[0]
            mutual = all(f >> x & 1 for f in c.facets if f >> y & 1)
            return max(x, y) if mutual else x
    return None


def strong_collapse(c: SimplicialComplex) -> SimplicialComplex:
    """Repeatedly delete dominated vertices (x is dominated by y when every facet
    containing x contains y) until none remain."""
    while (victim := _dominated_removal(c)) is not None:
        c = SimplicialComplex.from_masks(f & ~(1 << victim) for f in c.facets)
    return c


def coprime_free_collapsed(n: int) -> SimplicialComplex:
    """Reduced model of the complex of pairwise-non-coprime subsets of 1..n.

    In the full complex a vertex is dominated exactly when its set of prime
    divisors is contained in another vertex's, so one collapse pass keeps 1 and
    the squarefree numbers with no squarefree proper multiple <= n; faces among
    the survivors are still the pairwise-non-coprime sets, and 1, coprime to
    everything, is a clique of its own.
    """
    families._check_size(n)
    maximal_sf = [
        i
        for i in range(2, n + 1)
        if is_squarefree(i)
        and not any(is_squarefree(m) for m in range(2 * i, n + 1, i))
    ]
    cliques = maximal_cliques([1, *maximal_sf], lambda u, v: gcd(u, v) > 1)
    return SimplicialComplex.from_masks(cliques)


def faces_by_dimension(c: SimplicialComplex, d_max: int) -> list[list[int]]:
    """Faces of each dimension 0..d_max as ascending vertex masks. A dimension with
    over 2^ENUMERATION_GUARD faces raises EnumerationGuardError: before any face is
    listed when one facet alone has that many, else once the running union has."""
    if d_max < 0:
        raise ValueError(f"need d_max >= 0, got {d_max}")
    limit = 1 << ENUMERATION_GUARD
    for d in range(d_max + 1):
        if comb(c.dim + 1, d + 1) > limit:
            raise EnumerationGuardError(f"dimension {d} has over 2^{ENUMERATION_GUARD} faces")
    vertex_bits = [[1 << v for v in bits(f)] for f in c.facets]
    levels = []
    for d in range(d_max + 1):
        level: set[int] = set()
        for vs in vertex_bits:
            level.update(map(sum, combinations(vs, d + 1)))
            if len(level) > limit:
                raise EnumerationGuardError(f"dimension {d} has over 2^{ENUMERATION_GUARD} faces")
        levels.append(sorted(level))
    return levels
