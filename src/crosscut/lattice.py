"""Family lattices: Mobius function, cross-cuts, spanning subsets.

The lattice on a downward-closed family is graded by cardinality (covers add one
element), meet is intersection, and the join of a subset is the least member
containing its union, or the synthetic top when none does. Members are subset
masks, bit x for element x, as in families.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_

from . import families
from .cliques import bits
from .complexes import SimplicialComplex
from .families import ENUMERATION_GUARD, EnumerationGuardError, FamilyKind


class _Top:
    """Synthetic top element, distinct from every member."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


class FamilyLattice:
    """All members of a family within 2^[n] under inclusion, plus a synthetic top."""

    def __init__(self, kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD):
        self.kind = kind
        self.n = n
        self.members: list[int] = families.members(kind, n, guard)
        self._masks = set(self.members)
        self.bottom = self.members[0]

    def is_element(self, x) -> bool:
        return x is TOP or x in self._masks

    def leq(self, x, y) -> bool:
        if y is TOP:
            return True
        if x is TOP:
            return False
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
    if x is TOP:
        return 1
    if y is not TOP:
        return -1 if (y.bit_count() - x.bit_count()) & 1 else 1
    k = x.bit_count()
    return -sum(-1 if (m.bit_count() - k) & 1 else 1 for m in lat._masks if x & ~m == 0)


def is_crosscut(lat: FamilyLattice, cut) -> bool:
    """True iff cut avoids bottom and top, is an antichain, and meets every maximal
    chain; the chain search visits each lattice element at most once."""
    cut = list(cut)
    if any(x is TOP for x in cut):
        return False
    _require_elements(lat, cut)
    cut_masks = set(cut)
    if 0 in cut_masks or any(a & ~b == 0 for a, b in combinations(sorted(cut_masks), 2)):
        return False
    # search for a maximal chain avoiding the cut: bottom -> +1 element covers -> coatom
    coatom_masks = set(lat.coatoms())
    seen = {0}
    stack = [0]
    while stack:
        m = stack.pop()
        if m in coatom_masks:
            return False
        for i in bits(~m & ((2 << lat.n) - 2)):
            nxt = m | 1 << i
            if nxt in seen or nxt in cut_masks or nxt not in lat._masks:
                continue
            seen.add(nxt)
            stack.append(nxt)
    return True


def is_spanning(lat: FamilyLattice, subset) -> bool:
    """True iff the subset's meet is the bottom and its join is the top; the
    family is downward closed, so the join is the top exactly when the union
    is not a member."""
    elems = list(subset)
    if any(x is TOP for x in elems):
        raise ValueError("spanning test expects elements below the top")
    _require_elements(lat, elems)
    return bool(elems) and reduce(and_, elems) == 0 and reduce(or_, elems) not in lat._masks


def crosscut_complex(lat: FamilyLattice, cut, guard: int = ENUMERATION_GUARD) -> SimplicialComplex:
    """The literal cross-cut complex: one vertex per element of the cut (indexed in
    mask order), and a face for every subset that does not span. It tests all
    2^|cut| subsets, so a cut larger than the guard raises EnumerationGuardError."""
    cut = list(cut)
    if len(cut) > guard:
        raise EnumerationGuardError(
            f"a cut of {len(cut)} elements has 2^{len(cut)} subsets, past the guard 2^{guard}"
        )
    if not is_crosscut(lat, cut):
        raise ValueError("crosscut_complex needs a valid cross-cut")
    order = sorted(cut)
    return SimplicialComplex.from_masks(
        f for f in range(1, 1 << len(order)) if not is_spanning(lat, [order[i] for i in bits(f)])
    )
