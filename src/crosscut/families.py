"""Set families on [n]: membership, exhaustive counting, maximal sets, partition structure.

Eight families are supported, all downward closed: primitive (no element divides
another), pairwise coprime, product-free, coprime-free (all pairs share a factor),
s-multiple (at most s multiples of each element in the set, the element itself
included; s=1 is primitivity), distinct pair products, no divisor of a pair
product, and divisibility chains.

A subset of [n] is an int mask, bit x for element x (bit 0 never set): the
same mask as its face in the face complex. cliques.bits lists its elements.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from typing import NamedTuple

from . import numthy
from .cliques import bits, maximal_cliques

ENUMERATION_GUARD = 24


class EnumerationGuardError(ValueError):
    """Raised when a request would enumerate past the 2^n guard."""


class FamilyKind(NamedTuple("_Kind", [("name", str), ("s", "int | None")])):
    """Tag naming one family; s parametrizes the multiple bound and is None otherwise."""

    __slots__ = ()

    def __new__(cls, name: str, s: int | None = None):
        if name == "smultiple":
            if type(s) is not int or s < 1:  # no bool, float or str
                raise ValueError(f"family smultiple needs an int --s >= 1, got {s!r}")
        elif name not in _RULES:
            raise ValueError(f"unknown family name: {name!r}")
        elif s is not None:
            raise ValueError(f"family {name} takes no --s")
        return super().__new__(cls, name, s)

    def label(self) -> str:
        return f"smultiple(s={self.s})" if self.name == "smultiple" else self.name


# --- incremental extension rules ------------------------------------------------
#
# Every family here is downward closed, so each member is reachable by adding
# elements in ascending order, carrying a mask of the larger elements still
# allowed. A rule over the possible elements (1..n, or a large subset's own for
# is_member) is (candidates, forbid); forbid(mask, x) adds x to the member `mask`
# and returns the mask of the larger elements that would complete a forbidden
# configuration with x (one without x was ruled on at its own largest element).
# Tables fill per element on first use, so an early exit is cheap.

_ONE = 1 << 1  # the mask of {1}


def _mask(elements) -> int:
    return sum(1 << x for x in elements)


def _relation(universe, related):
    """x -> the mask of the y in the universe with related(x, y)."""
    return cache(lambda x: _mask(y for y in universe if related(x, y)))


# x conflicts with a larger y in a fixed graph, so adding x forbids its neighbours.
_CONFLICTS = {
    "primitive": lambda x, y: y % x == 0,
    "coprime": lambda x, y: math.gcd(x, y) > 1,
    "coprimefree": lambda x, y: math.gcd(x, y) == 1,
    "divisibilitychain": lambda x, y: y % x != 0,
}


def _rule_pairwise(kind: FamilyKind, universe):
    conflict = _relation(universe, _CONFLICTS[kind.name])
    return _mask(universe), lambda mask, x: conflict(x)


def _rule_productfree(kind: FamilyKind, universe):
    # Adding x forbids x*a <= n for a in the set or a = x; 1 is never allowed.
    n = max(universe, default=0)

    def forbid(mask, x):
        out = 0
        small = (mask | 1 << x) & ((2 << n // x) - 1)
        while small:
            bit = small & -small
            small ^= bit
            out |= 1 << x * (bit.bit_length() - 1)
        return out

    return _mask(universe) & ~_ONE, forbid


def _rule_smultiple(kind: FamilyKind, universe):
    # Once a divisor a of x in the set has s multiples there, x forbids the rest.
    # Only bits above x are ever read, so a divisor with no multiple above x is left out.
    multiples = _relation(universe, lambda a, m: m % a == 0)
    divisors = cache(
        lambda x: [
            (1 << a, multiples(a)) for a in universe if x % a == 0 and multiples(a) >> x + 1
        ]
    )
    s = kind.s

    def forbid(mask, x):
        grown = mask | 1 << x
        out = 0
        for bit, m in divisors(x):
            if grown & bit and (grown & m).bit_count() == s:
                out |= m
        return out

    return _mask(universe), forbid


def _rule_distinctpairproducts(kind: FamilyKind, universe):
    # A larger y repeats a product only as y*a = x*d with a < d in the set: two products
    # that both hold y differ, and y = c*d/x < x. x's table lists each such pair of the universe
    # with y <= n as (mask of {a, d}, bit of y), each a walking d up to x or the first y past n.
    n = max(universe, default=0)

    @cache
    def pairs(x):
        below = [a for a in universe if a < x]
        table = []
        for i, a in enumerate(below):
            for d in below[i + 1 :]:
                if x * d > n * a:
                    break
                if x * d % a == 0:
                    table.append((1 << a | 1 << d, 1 << x * d // a))
        return table

    def forbid(mask, x):
        out = 0
        for pair, bit in pairs(x):
            if mask & pair == pair:
                out |= bit
        return out

    return _mask(universe), forbid


def _root(x: int) -> int:
    """The least m with x | m*m: the product of p^ceil(e/2) over x's factors p^e."""
    return math.prod(p ** -(-e // 2) for p, e in numthy.factorize(x).items())


def _rule_nodivisorofpairproduct(kind: FamilyKind, universe):
    # condition: for i,j,k in the set with i not in {j,k}, i does not divide j*k
    # (j = k allowed). A larger y completes one with x when y | x*k (k = x or in
    # the set), x | y*k (k = y: root(x) | y; k in the set: x/gcd(x,k) | y) or
    # k | x*y (k in the set).
    divisors = _relation(universe, lambda m, y: m % y == 0)
    multiples = _relation(universe, lambda a, y: y % a == 0)
    root = cache(_root)

    def forbid(mask, x):
        out = divisors(x * x) | multiples(root(x))
        for k in bits(mask):
            g = math.gcd(x, k)
            out |= divisors(x * k) | multiples(x // g) | multiples(k // g)
        return out

    return _mask(universe), forbid


_RULES = {
    **dict.fromkeys(_CONFLICTS, _rule_pairwise),
    "productfree": _rule_productfree,
    "smultiple": _rule_smultiple,
    "distinctpairproducts": _rule_distinctpairproducts,
    "nodivisorofpairproduct": _rule_nodivisorofpairproduct,
}


PRIMITIVE = FamilyKind("primitive")
PAIRWISE_COPRIME = FamilyKind("coprime")
PRODUCT_FREE = FamilyKind("productfree")
COPRIME_FREE = FamilyKind("coprimefree")
DISTINCT_PAIR_PRODUCTS = FamilyKind("distinctpairproducts")
NO_DIVISOR_OF_PAIR_PRODUCT = FamilyKind("nodivisorofpairproduct")
DIVISIBILITY_CHAIN = FamilyKind("divisibilitychain")


def s_multiple(s: int) -> FamilyKind:
    return FamilyKind("smultiple", s)


FAMILY_NAMES = tuple(sorted(_RULES))


kind_from_name = FamilyKind  # the CLI-facing name: smultiple requires s, the others forbid it


_shared_rule = cache(lambda kind, n: _RULES[kind.name](kind, range(1, n + 1)))


def is_member(kind: FamilyKind, subset: int) -> bool:
    """Whether the subset mask satisfies the family's defining condition.

    Depends only on the elements, never on the universe size; the empty set
    always belongs; stops at the first element that an earlier one ruled out.
    Up to n = 2^8 the rule is built once per (kind, n) over [1..n], n a power of two
    past the largest element: forbid bits it adds outside the subset are never read.
    Past that, a table over [1..n] costs O(n) an element, so it covers the subset only.
    """
    if isinstance(subset, bool) or not isinstance(subset, int) or subset < 0 or subset & 1:
        raise ValueError(f"{subset!r} is not a subset mask: a non-int, negative or bit 0 set")
    elems = bits(subset)
    n = 1 << subset.bit_length().bit_length()
    cand, forbid = _shared_rule(kind, n) if n <= 1 << 8 else _RULES[kind.name](kind, elems)
    mask = 0
    for x in elems:
        if not cand >> x & 1:
            return False
        cand &= ~forbid(mask, x)
        mask |= 1 << x
    return True


def _walk(
    kind: FamilyKind, n: int, masks: list[int] | None = None, avoid: int = 0, with_one: bool = False
) -> list[list[int]]:
    """Count each nonempty member avoiding the mask `avoid` in the returned by_max[x][k]
    (x its largest element, k its size), and append its mask to `masks` if given; depth
    first, with_one keeps to the members holding 1. Every candidate still allowed
    extends the member, so a node's last candidate is a leaf, reached without calling the
    rule, and a child with one candidate is a leaf, tallied in place without a call to rec
    (count_triangle(smultiple(3), 22): 309,781 rec calls before, 153,492 after)."""
    cand, forbid = _RULES[kind.name](kind, range(1, n + 1))
    cand &= ~avoid
    by_max = [[0] * (n + 1) for _ in range(n + 1)]

    def rec(mask, cand, k):
        while cand:
            bit = cand & -cand
            cand ^= bit
            x = bit.bit_length() - 1
            by_max[x][k] += 1
            if masks is not None:
                masks.append(mask | bit)
            if cand and (rest := cand & ~forbid(mask, x)):
                if rest & rest - 1:
                    rec(mask | bit, rest, k + 1)
                else:
                    by_max[rest.bit_length() - 1][k + 1] += 1
                    if masks is not None:
                        masks.append(mask | bit | rest)

    if not with_one:
        rec(0, cand, 1)
    elif cand & _ONE:
        rec(0, _ONE, 1)  # {1} alone, a leaf
        rec(_ONE, cand & ~forbid(0, 1) & ~_ONE, 2)
    return by_max


def _check_size(n: int, guard: int | None = None) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if guard is not None and n > guard:
        raise EnumerationGuardError(
            f"n={n} exceeds the enumeration guard {guard}; pass a higher guard to override"
        )


def members(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD, avoid: int = 0) -> list[int]:
    """The mask of every member of the family within 2^[n] that avoids the
    elements in the mask `avoid`, ascending."""
    _check_size(n, guard)
    masks = [0]
    _walk(kind, n, masks, avoid)
    masks.sort()
    return masks


class CountTriangle(NamedTuple):
    """Counts by cardinality: rows[n-1][k] members of size k within 2^[n]."""

    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def _row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside 1..{self.n_max}")
        return self.rows[n - 1]

    def count(self, n: int, k: int) -> int:
        row = self._row(n)
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside 0..{n}")
        return row[k]

    def row_sum(self, n: int) -> int:
        return sum(self._row(n))

    def alternating_sum(self, n: int) -> int:
        return sum(c if k % 2 == 0 else -c for k, c in enumerate(self._row(n)))


# A prime p with n/2 < p <= n divides no other element of [n], and p*a > n for
# every a >= 2. Each family here maps to what such a prime can meet in a
# violation: 0 for none, so a member plus any set of them is a member, and _ONE
# for 1 alone, so a member without 1 plus any set of them is a member.
_FREE_PRIME_MEETS = {
    "coprime": 0,  # gcd(p, y) = 1 for every other y
    "productfree": 0,  # p is no product a*b of elements >= 2, and 1 is never admitted
    "distinctpairproducts": 0,  # p*a = c*d forces p in {c, d}, so the pairs are equal
    "primitive": _ONE,  # 1 and p are p's only divisors, and p has no other multiple
    "smultiple": _ONE,  # p is its own only multiple, and adds one to 1's count
    "nodivisorofpairproduct": _ONE,  # i | p*k for i not in {p, k} means i | k, so i | k*k
}


def count_triangle(kind: FamilyKind, n_max: int, guard: int = ENUMERATION_GUARD) -> CountTriangle:
    """The full (n,k) triangle for 1 <= n <= n_max by exhaustive member enumeration.

    One DFS pass skips the primes that _FREE_PRIME_MEETS maps to 0 and aggregates
    members by (max element, cardinality). Row n is the cumulative sum over max
    <= n times (1 + x)^c: each member takes any subset of the c free primes <= n.
    """
    _check_size(n_max, guard)
    free = numthy.chebyshev_primes(n_max) if _FREE_PRIME_MEETS.get(kind.name) == 0 else []
    by_max = _walk(kind, n_max, avoid=_mask(free))
    by_max[0][0] = 1  # the empty set

    rows = []
    acc = by_max[0]
    for n in range(1, n_max + 1):
        acc = row = [a + b for a, b in zip(acc, by_max[n])]
        for _ in range(sum(p <= n for p in free)):
            row = [a + b for a, b in zip(row, [0, *row[:-1]])]
        rows.append(tuple(row[: n + 1]))
    return CountTriangle(n_max, tuple(rows))


def _maximal_masks(masks: list[int], n: int) -> list[int]:
    """The masks with no one-element extension among them, in their given order.

    One pass per element, largest first (most members extend by a large one),
    drops the masks that it extends.
    """
    found = set(masks)
    for i in reversed(range(1, n + 1)):
        bit = 1 << i
        masks = [m for m in masks if m & bit or m | bit not in found]
    return masks


def maximal_members(kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD) -> list[int]:
    """Members with no one-element extension in the family, ascending by mask.

    Coprime-free sets bypass subset enumeration entirely: the maximal members
    are the maximal cliques of the gcd>1 graph on [1..n], where 1 is isolated,
    so the construction scales to n in the hundreds.

    Elsewhere the walk skips the free primes in (n/2, n] and ORs them back, as
    a maximal member takes every prime that is free for it. Where the primes
    are free only without 1, a second walk lists the few members holding 1,
    and a last filter drops the others that 1 extends.
    """
    _check_size(n)
    if kind == COPRIME_FREE:
        return maximal_cliques(range(1, n + 1), lambda u, v: math.gcd(u, v) > 1)
    one = _FREE_PRIME_MEETS.get(kind.name, 0)  # split off 1 where the primes meet it
    free = _mask(numthy.chebyshev_primes(n)) if kind.name in _FREE_PRIME_MEETS else 0
    masks = [m | free for m in _maximal_masks(members(kind, n, guard, free | one), n)]
    if one:
        _walk(kind, n, masks, with_one=True)
        masks = _maximal_masks(sorted(masks), n)
    return masks


class Partition(NamedTuple):
    """Maximal members split into classes, each with nonempty total intersection."""

    classes: tuple[tuple[int, ...], ...]
    maximal: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.classes)


class FailureWitness(NamedTuple):
    """A connected component of maximal members whose total intersection is empty."""

    component: tuple[int, ...]
    pair: tuple[int, int] | None
    maximal: tuple[int, ...]


def partition_components(
    kind: FamilyKind, n: int, guard: int = ENUMERATION_GUARD
) -> Partition | FailureWitness:
    """Partition the maximal members by the components of their intersection graph.

    Classes must be unions of components (cross-class disjointness) and
    intersecting sets must share a class, so the components are the only
    candidate partition; success is exactly per-component total intersection.
    Either outcome carries every maximal member, ascending by mask.
    """
    maximal = tuple(maximal_members(kind, n, guard))
    parent = list(range(len(maximal)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first: dict[int, int] = {}  # element -> index of the first member holding it
    for i, s in enumerate(maximal):
        for e in bits(s):
            parent[find(i)] = find(first.setdefault(e, i))
    groups: dict[int, list[int]] = {}  # in order of each component's first member
    for i in range(len(maximal)):
        groups.setdefault(find(i), []).append(i)

    classes = []
    for idxs in groups.values():
        component = tuple(maximal[i] for i in idxs)
        total = -1
        for s in component:
            total &= s
        if total == 0:
            pair = next((p for p in combinations(component, 2) if not p[0] & p[1]), None)
            return FailureWitness(component, pair, maximal)
        classes.append(component)
    return Partition(tuple(classes), maximal)
