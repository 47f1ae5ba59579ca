"""Finite abstract simplicial complexes: nerves, face complexes, strong
collapse, and the reduced model of the pairwise-non-coprime complex."""

from __future__ import annotations

from itertools import combinations
from math import gcd

from . import families
from .cliques import maximal_cliques
from .families import ENUMERATION_GUARD, FamilyKind
from .numthy import is_squarefree


class SimplicialComplex:
    """Stored by facets; construction drops empty faces and non-maximal ones."""

    def __init__(self, faces):
        distinct = {frozenset(f) for f in faces}
        distinct.discard(frozenset())
        facets: list[frozenset[int]] = []
        for f in sorted(distinct, key=len, reverse=True):
            if not any(f < g for g in facets):
                facets.append(f)
        self.facets: tuple[frozenset[int], ...] = tuple(sorted(facets, key=sorted))
        verts = set().union(*facets) if facets else set()
        self.vertices: tuple[int, ...] = tuple(sorted(verts))

    @property
    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def has_face(self, face) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex([{inner}])"


def nerve(sets) -> SimplicialComplex:
    """Nerve of a finite list of nonempty distinct sets: vertex i is sets[i], and a
    face is any index set whose members share a common element.

    Built from witness faces: each element e of the union contributes the face
    {i : e in sets[i]}, and every nerve face lies inside one of these.
    """
    collection = [frozenset(s) for s in sets]
    if any(not s for s in collection):
        raise ValueError("nerve is undefined for an empty set in the collection")
    if len(set(collection)) != len(collection):
        raise ValueError("nerve expects pairwise distinct sets")
    witness: dict[object, list[int]] = {}
    for i, s in enumerate(collection):
        for e in s:
            witness.setdefault(e, []).append(i)
    return SimplicialComplex(witness.values())


def face_complex(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD) -> SimplicialComplex:
    """Complex whose faces are exactly the members of the family."""
    facets = families.maximal_members(kind, n, guard)
    return SimplicialComplex([f.elements() for f in facets])


def _dominated_removal(facets: list[frozenset[int]]) -> int | None:
    """Find a vertex to delete: the smallest dominated vertex, except that under
    mutual domination the larger of the pair is deleted."""
    verts = sorted(set().union(*facets)) if facets else []
    for x in verts:
        containing = [f for f in facets if x in f]
        common = frozenset.intersection(*containing) - {x}
        if not common:
            continue
        y = min(common)
        mutual = all(x in f for f in facets if y in f)
        return max(x, y) if mutual else x
    return None


def strong_collapse(c: SimplicialComplex) -> SimplicialComplex:
    """Repeatedly delete dominated vertices (x is dominated by y when every facet
    containing x contains y) until none remain."""
    facets = list(c.facets)
    while True:
        victim = _dominated_removal(facets)
        if victim is None:
            return SimplicialComplex(facets)
        facets = list(SimplicialComplex([f - {victim} for f in facets]).facets)


def facet_nerve(c: SimplicialComplex) -> SimplicialComplex:
    """Nerve of the facet cover, on one vertex per facet.

    Intersections of simplices are empty or simplices, so the cover is good and
    the nerve carries the homotopy type; it is the model of choice when the
    facets are few but too large to expand face by face.
    """
    return nerve(c.facets)


def coprime_free_collapsed(n: int) -> SimplicialComplex:
    """Reduced model of the complex of pairwise-non-coprime subsets of 1..n.

    In the full complex a vertex is dominated exactly when its set of prime
    divisors is contained in another vertex's, so one collapse pass keeps 1 and
    the squarefree numbers with no squarefree proper multiple <= n; faces among
    the survivors are still the pairwise-non-coprime sets, and 1, coprime to
    everything, is a clique of its own.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    maximal_sf = [
        i
        for i in range(2, n + 1)
        if is_squarefree(i)
        and not any(is_squarefree(m) for m in range(2 * i, n + 1, i))
    ]
    return SimplicialComplex(maximal_cliques([1, *maximal_sf], lambda u, v: gcd(u, v) > 1))


def faces_by_dimension(c: SimplicialComplex, d_max: int) -> list[list[tuple[int, ...]]]:
    """Faces of each dimension 0..d_max as lex-sorted tuples of increasing vertices."""
    if d_max < 0:
        raise ValueError(f"need d_max >= 0, got {d_max}")
    out: list[list[tuple[int, ...]]] = []
    for d in range(d_max + 1):
        level: set[tuple[int, ...]] = set()
        for f in c.facets:
            if len(f) >= d + 1:
                level.update(combinations(sorted(f), d + 1))
        out.append(sorted(level))
    return out
