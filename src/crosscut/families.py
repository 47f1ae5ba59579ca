"""Set families on [n]: membership, exhaustive counting, maximal sets, partition structure.

Eight families are supported, all downward closed: primitive (no element divides
another), pairwise coprime, product-free, coprime-free (all pairs share a factor),
s-multiple (at most s multiples of each element in the set, the element itself
included; s=1 is primitivity), distinct pair products, no divisor of a pair
product, and divisibility chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numthy
from .cliques import maximal_cliques

ENUMERATION_GUARD = 24


class EnumerationGuardError(ValueError):
    """Raised when a request would enumerate past the 2^n guard."""


@dataclass(frozen=True)
class FamilyKind:
    """Tag naming one family; s parametrizes the multiple bound and is None otherwise."""

    name: str
    s: int | None = None

    def __post_init__(self):
        if self.name == "smultiple":
            if self.s is None or self.s < 1:
                raise ValueError("smultiple needs s >= 1")
        elif self.name not in _STATELESS_NAMES:
            raise ValueError(f"unknown family name: {self.name!r}")
        elif self.s is not None:
            raise ValueError(f"{self.name} takes no s parameter")

    def label(self) -> str:
        return f"smultiple(s={self.s})" if self.name == "smultiple" else self.name


_STATELESS_NAMES = frozenset(
    [
        "primitive",
        "coprime",
        "productfree",
        "coprimefree",
        "distinctpairproducts",
        "nodivisorofpairproduct",
        "divisibilitychain",
    ]
)

PRIMITIVE = FamilyKind("primitive")
PAIRWISE_COPRIME = FamilyKind("coprime")
PRODUCT_FREE = FamilyKind("productfree")
COPRIME_FREE = FamilyKind("coprimefree")
DISTINCT_PAIR_PRODUCTS = FamilyKind("distinctpairproducts")
NO_DIVISOR_OF_PAIR_PRODUCT = FamilyKind("nodivisorofpairproduct")
DIVISIBILITY_CHAIN = FamilyKind("divisibilitychain")


def s_multiple(s: int) -> FamilyKind:
    return FamilyKind("smultiple", s)


FAMILY_NAMES = tuple(sorted(_STATELESS_NAMES)) + ("smultiple",)


def kind_from_name(name: str, s: int | None = None) -> FamilyKind:
    """CLI-facing constructor: smultiple requires s, the others forbid it."""
    if name == "smultiple":
        if s is None:
            raise ValueError("family smultiple requires --s")
        return s_multiple(s)
    if s is not None:
        raise ValueError(f"family {name} takes no --s")
    return FamilyKind(name)


@dataclass(frozen=True, order=True)
class BitSubset:
    """Subset of [n] as a bitmask; bit i-1 set iff i is a member."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe size must be >= 1")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the universe")

    @classmethod
    def from_elements(cls, n: int, elements) -> "BitSubset":
        mask = 0
        for i in elements:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside [1..{n}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements()) + "}"


# --- incremental extension rules ------------------------------------------------
#
# Every family here is downward closed, so each member is reachable by adding
# elements in ascending order. A rule takes (state, elements so far, candidate x
# with x > all elements) and returns the successor state, or _REJECT. The same
# fold implements is_member, the counting DFS, and the lattice enumeration.

_REJECT = object()


def _rule_primitive(n: int):
    def can_add(state, elems, x):
        return None if all(x % a for a in elems) else _REJECT

    return None, can_add


def _rule_coprime(n: int):
    def can_add(state, elems, x):
        return None if all(math.gcd(a, x) == 1 for a in elems) else _REJECT

    return None, can_add


def _rule_productfree(n: int):
    # state: frozenset of pair products <= n over elements so far (repeats allowed).
    # x*a for a in the set always exceeds x once 1 is unreachable, so the only
    # add-time checks are x != 1 and x not being a product of two present elements.
    def can_add(state, elems, x):
        if x == 1 or x in state:
            return _REJECT
        fresh = [x * a for a in elems if x * a <= n]
        if x * x <= n:
            fresh.append(x * x)
        return state.union(fresh) if fresh else state

    return frozenset(), can_add


def _rule_coprimefree(n: int):
    def can_add(state, elems, x):
        return None if all(math.gcd(a, x) > 1 for a in elems) else _REJECT

    return None, can_add


def _rule_smultiple(n: int, s: int):
    # state: per-element count of its multiples within the set, aligned with elems.
    def can_add(state, elems, x):
        bumped = []
        for a, c in zip(elems, state):
            if x % a == 0:
                if c + 1 > s:
                    return _REJECT
                bumped.append(c + 1)
            else:
                bumped.append(c)
        bumped.append(1)
        return tuple(bumped)

    return (), can_add


def _rule_distinctpairproducts(n: int):
    # state: products over unordered pairs of distinct elements. Two distinct
    # pairs with a shared element cannot collide, so injectivity of this set is
    # exactly the defining condition on four distinct elements.
    def can_add(state, elems, x):
        fresh = []
        for a in elems:
            p = x * a
            if p in state:
                return _REJECT
            fresh.append(p)
        return state.union(fresh) if fresh else state

    return frozenset(), can_add


def _rule_nodivisorofpairproduct(n: int):
    # condition: for i,j,k in the set with i not in {j,k}, i does not divide j*k
    # (j = k allowed).
    def can_add(state, elems, x):
        xx = x * x
        for i in elems:
            if xx % i == 0:
                return _REJECT
        for j in elems:
            jx = j * x
            for i in elems:
                if i != j and jx % i == 0:
                    return _REJECT
        k = len(elems)
        for a in range(k):
            for b in range(a, k):
                if (elems[a] * elems[b]) % x == 0:
                    return _REJECT
        return None

    return None, can_add


def _rule_divisibilitychain(n: int):
    def can_add(state, elems, x):
        return None if not elems or x % elems[-1] == 0 else _REJECT

    return None, can_add


def _extension_rule(kind: FamilyKind, n: int):
    if kind.name == "smultiple":
        return _rule_smultiple(n, kind.s)
    return {
        "primitive": _rule_primitive,
        "coprime": _rule_coprime,
        "productfree": _rule_productfree,
        "coprimefree": _rule_coprimefree,
        "distinctpairproducts": _rule_distinctpairproducts,
        "nodivisorofpairproduct": _rule_nodivisorofpairproduct,
        "divisibilitychain": _rule_divisibilitychain,
    }[kind.name](n)


def is_member(kind: FamilyKind, s: BitSubset) -> bool:
    """Whether the subset satisfies the family's defining condition.

    Depends only on the elements, never on the universe size; the empty set
    always belongs.
    """
    elems = s.elements()
    bound = elems[-1] if elems else 1
    state, can_add = _extension_rule(kind, bound)
    prefix: tuple[int, ...] = ()
    for x in elems:
        state = can_add(state, prefix, x)
        if state is _REJECT:
            return False
        prefix += (x,)
    return True


def _walk(kind: FamilyKind, n: int, visit) -> None:
    """Depth-first traversal of all nonempty members, elements ascending."""
    init, can_add = _extension_rule(kind, n)

    def rec(elems, mask, state, start):
        for x in range(start, n + 1):
            nxt = can_add(state, elems, x)
            if nxt is _REJECT:
                continue
            grown = elems + (x,)
            gmask = mask | 1 << (x - 1)
            visit(grown, gmask)
            rec(grown, gmask, nxt, x + 1)

    rec((), 0, init, 1)


def _check_guard(n: int, guard: int) -> None:
    if n > guard:
        raise EnumerationGuardError(
            f"n={n} exceeds the enumeration guard {guard}; pass a higher guard to override"
        )


def members(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD) -> list[BitSubset]:
    """Every member of the family within 2^[n], ascending by mask."""
    _check_guard(n, guard)
    masks = [0]
    _walk(kind, n, lambda elems, mask: masks.append(mask))
    masks.sort()
    return [BitSubset(n, m) for m in masks]


@dataclass(frozen=True)
class CountTriangle:
    """Counts by cardinality: rows[n-1][k] members of size k within 2^[n]."""

    family: FamilyKind
    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def count(self, n: int, k: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside 0..{n}")
        return self.rows[n - 1][k]

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n - 1])

    def alternating_sum(self, n: int) -> int:
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(self.rows[n - 1]))


def count_triangle(kind: FamilyKind, n_max: int, guard: int = ENUMERATION_GUARD) -> CountTriangle:
    """The full (n,k) triangle for 1 <= n <= n_max by exhaustive member enumeration.

    One DFS pass aggregates members by (max element, cardinality); row n is the
    cumulative sum over max <= n, plus the empty set at k=0.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_guard(n_max, guard)
    by_max = [[0] * (n_max + 1) for _ in range(n_max + 1)]

    def visit(elems, mask):
        by_max[elems[-1]][len(elems)] += 1

    _walk(kind, n_max, visit)

    rows = []
    acc = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        fresh = by_max[n]
        for k in range(n_max + 1):
            acc[k] += fresh[k]
        rows.append((1,) + tuple(acc[1 : n + 1]))
    return CountTriangle(kind, n_max, tuple(rows))


def small_count_closed_form(kind: FamilyKind, n: int, k: int) -> int:
    """Closed forms for the k=1 and k=2 counts of the three headline families."""
    if n < 2:
        raise ValueError("closed forms need n >= 2")
    if kind == PRIMITIVE:
        if k == 1:
            return n
        if k == 2:
            return sum(i - numthy.divisor_count(i) for i in range(2, n + 1))
    elif kind == PAIRWISE_COPRIME:
        if k == 1:
            return n
        if k == 2:
            return sum(numthy.totient(i) for i in range(2, n + 1))
    elif kind == PRODUCT_FREE:
        if k == 1:
            return n - 1
        if k == 2:
            return math.comb(n, 2) - n - math.isqrt(n) + 2
    raise ValueError(f"no closed form for ({kind.label()}, k={k})")


def maximal_members(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD) -> list[BitSubset]:
    """Members with no one-element extension in the family, ascending by mask.

    The family is downward closed, so a member has an extension exactly when it
    is a one-element deletion of another member. Coprime-free sets bypass subset
    enumeration entirely: the maximal members are {1} plus the maximal cliques
    of the gcd>1 graph on [2..n], so the construction scales to n in the hundreds.
    """
    if kind == COPRIME_FREE:
        cliques = maximal_cliques(range(2, n + 1), lambda u, v: math.gcd(u, v) > 1)
        return sorted(BitSubset.from_elements(n, s) for s in [frozenset([1])] + cliques)
    all_members = members(kind, n, guard)
    masks = [m.mask for m in all_members]
    bits = [1 << i for i in range(n)]
    deletions = {mask ^ bit for mask in masks for bit in bits if mask & bit}
    return [m for m, mask in zip(all_members, masks) if mask not in deletions]


@dataclass(frozen=True)
class Partition:
    """Maximal members split into classes, each with nonempty total intersection."""

    classes: tuple[tuple[BitSubset, ...], ...]

    @property
    def m(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class FailureWitness:
    """A connected component of maximal members whose total intersection is empty."""

    component: tuple[BitSubset, ...]
    pair: tuple[BitSubset, BitSubset] | None


def partition_components(
    kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD
) -> Partition | FailureWitness:
    """Partition the maximal members by the components of their intersection graph.

    Classes must be unions of components (cross-class disjointness) and
    intersecting sets must share a class, so the components are the only
    candidate partition; success is exactly per-component total intersection.
    """
    maximal = maximal_members(kind, n, guard)
    count = len(maximal)
    parent = list(range(count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(count):
        for j in range(i + 1, count):
            if maximal[i].mask & maximal[j].mask:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    components = sorted(groups.values(), key=lambda idxs: maximal[idxs[0]].mask)

    classes = []
    for idxs in components:
        total = maximal[idxs[0]].mask
        for i in idxs[1:]:
            total &= maximal[i].mask
        if total == 0:
            component = tuple(maximal[i] for i in idxs)
            pair = None
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    if maximal[idxs[a]].mask & maximal[idxs[b]].mask == 0:
                        pair = (maximal[idxs[a]], maximal[idxs[b]])
                        break
                if pair:
                    break
            return FailureWitness(component, pair)
        classes.append(tuple(maximal[i] for i in idxs))
    return Partition(tuple(classes))
