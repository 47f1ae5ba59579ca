"""Family lattices and their Mobius function; cross-cuts and the cross-cut complex.

The lattice of a simplicial complex c is its faces, the empty face 0 as the bottom,
under a synthetic top TOP = -1 (all bits set): meet is intersection, and the join
of faces is their union when that is a face, else TOP. Its coatoms are c's facets.
A family's lattice is the lattice of its face complex, since a member, a subset
mask with bit x for element x as in families, is literally a face.
"""

from __future__ import annotations

from itertools import combinations

from . import families
from .cliques import bits
from .complexes import SimplicialComplex, nerve
from .families import ENUMERATION_GUARD, EnumerationGuardError, FamilyKind


TOP = -1


class FamilyLattice:
    """All members of a family within 2^[n] under inclusion, plus a synthetic top.
    Kept for mobius, whose value at (bottom, TOP) the bench's count workload times;
    cross-cuts need only the face complex."""

    def __init__(self, kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD):
        self.members: list[int] = families.members(kind, n, guard)
        self.bottom = self.members[0]

    def is_element(self, x) -> bool:
        return type(x) is int and (x == TOP or x in self.members)  # no bool or float

    def leq(self, x, y) -> bool:
        return x & ~y == 0


def mobius(lat: FamilyLattice, x, y) -> int:
    """mu(x,y) in closed form.

    The family is downward closed, so every interval [x, y] below the top is
    Boolean and mu(x,y) = (-1)^(|y|-|x|); mu(x,TOP) is then minus the sum of
    those signs over the members containing x, one pass over the members.
    """
    if bad := [z for z in (x, y) if not lat.is_element(z)]:
        raise ValueError(f"{bad[0]!r} is not an element of the lattice")
    if not lat.leq(x, y):
        raise ValueError("mobius needs a comparable pair x <= y")
    if x == TOP:
        return 1
    if y != TOP:
        return -1 if (y.bit_count() - x.bit_count()) & 1 else 1
    k = x.bit_count()
    return -sum(-1 if (m.bit_count() - k) & 1 else 1 for m in lat.members if x & ~m == 0)


def is_crosscut(c: SimplicialComplex, cut) -> bool:
    """True iff the cut, faces of c or TOP, avoids bottom and top, is an antichain
    (an element repeated is comparable with itself), and meets every maximal chain.
    The walk grows faces rank by rank inside the coatoms outside the cut, so it
    never lists the members; it raises EnumerationGuardError once a rank holds
    over 2^ENUMERATION_GUARD faces."""
    coatoms, cut = c.facets or (0,), list(cut)
    if bad := [x for x in cut if type(x) is not int or x != TOP and all(x & ~f for f in coatoms)]:
        raise ValueError(f"{bad[0]!r} is not an element of the lattice")
    if TOP in cut or 0 in cut or any(a & ~b == 0 for a, b in combinations(sorted(cut), 2)):
        return False
    # a maximal chain avoids the cut exactly when the walk reaches an open coatom
    open_coatoms, level = [f for f in coatoms if f not in cut], {0}
    while level:
        if not level.isdisjoint(open_coatoms):
            return False
        level = {m | 1 << i for m in level for f in open_coatoms if m & ~f == 0 for i in bits(f & ~m)}
        if len(level := level.difference(cut)) > 1 << ENUMERATION_GUARD:
            raise EnumerationGuardError(f"rank {min(level).bit_count()} has over 2^{ENUMERATION_GUARD} faces")
    return True


def crosscut_complex(c: SimplicialComplex, cut) -> SimplicialComplex:
    """One vertex per element of the cut (indexed in mask order), and a face for
    every subset that does not span: its elements share a vertex (a nerve face of
    the cut) or its union is a face (it lies below some facet of c): #vertices +
    #facets generating faces."""
    if not is_crosscut(c, cut := list(cut)):
        raise ValueError("crosscut_complex needs a valid cross-cut")
    order = sorted(cut)
    below = (sum(1 << i for i, x in enumerate(order) if x & ~f == 0) for f in c.facets)
    return SimplicialComplex([*nerve(order).facets, *below])
