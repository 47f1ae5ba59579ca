"""Family lattices: Mobius function, cross-cuts and the cross-cut complex.

The lattice on a downward-closed family is graded by cardinality (covers add one
element), meet is intersection, and the join of a subset is the least member
containing its union, or the synthetic top TOP = -1 (all bits set) when none
does. Members are subset masks, bit x for element x, as in families.
"""

from __future__ import annotations

from itertools import combinations

from . import families
from .cliques import bits
from .complexes import SimplicialComplex, nerve
from .families import ENUMERATION_GUARD, FamilyKind


TOP = -1


class FamilyLattice:
    """All members of a family within 2^[n] under inclusion, plus a synthetic top."""

    def __init__(self, kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD):
        self.kind = kind
        self.n = n
        self.members: list[int] = families.members(kind, n, guard)
        self._masks = set(self.members)
        self.bottom = self.members[0]

    def is_element(self, x) -> bool:
        return type(x) is int and (x == TOP or x in self._masks)  # no bool or float

    def leq(self, x, y) -> bool:
        return x & ~y == 0

    def coatoms(self) -> list[int]:
        """The maximal members: exactly the elements covered by the top."""
        return families._maximal_masks(self.members, self.n)


def _require_elements(lat: FamilyLattice, xs) -> None:
    for x in xs:
        if not lat.is_element(x):
            raise ValueError(f"{x!r} is not an element of the lattice")


def mobius(lat: FamilyLattice, x, y) -> int:
    """mu(x,y) in closed form.

    The family is downward closed, so every interval [x, y] below the top is
    Boolean and mu(x,y) = (-1)^(|y|-|x|); mu(x,TOP) is then minus the sum of
    those signs over the members containing x, one pass over the members.
    """
    _require_elements(lat, [x, y])
    if not lat.leq(x, y):
        raise ValueError("mobius needs a comparable pair x <= y")
    if x == TOP:
        return 1
    if y != TOP:
        return -1 if (y.bit_count() - x.bit_count()) & 1 else 1
    k = x.bit_count()
    return -sum(-1 if (m.bit_count() - k) & 1 else 1 for m in lat._masks if x & ~m == 0)


def is_crosscut(lat: FamilyLattice, cut) -> bool:
    """True iff cut avoids bottom and top, is an antichain (an element repeated is
    comparable with itself), and meets every maximal chain; the chain search visits
    each lattice element at most once."""
    cut = list(cut)
    _require_elements(lat, cut)
    if TOP in cut or 0 in cut or any(a & ~b == 0 for a, b in combinations(sorted(cut), 2)):
        return False
    # walk the ranks from the bottom through members outside the cut: a maximal
    # chain avoids the cut exactly when this reaches a coatom
    allowed = lat._masks.difference(cut)
    coatom_masks = set(lat.coatoms())
    level = {0}
    while level:
        if not coatom_masks.isdisjoint(level):
            return False
        level = {m | 1 << i for m in level for i in bits(~m & ((2 << lat.n) - 2))} & allowed
    return True


def crosscut_complex(lat: FamilyLattice, cut) -> SimplicialComplex:
    """One vertex per element of the cut (indexed in mask order), and a face for
    every subset that does not span. The family is downward closed, so such a
    subset shares an element (a nerve face of the cut) or has a member as its
    union (it lies below some coatom): n + #coatoms generating faces."""
    if not is_crosscut(lat, cut := list(cut)):
        raise ValueError("crosscut_complex needs a valid cross-cut")
    order = sorted(cut)
    below = (sum(1 << i for i, c in enumerate(order) if c & ~m == 0) for m in lat.coatoms())
    return SimplicialComplex([*nerve(order).facets, *below])
