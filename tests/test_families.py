import math
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscut import families, numthy
from crosscut.cliques import bits
from crosscut.families import (
    COPRIME_FREE,
    DISTINCT_PAIR_PRODUCTS,
    DIVISIBILITY_CHAIN,
    NO_DIVISOR_OF_PAIR_PRODUCT,
    PAIRWISE_COPRIME,
    PRIMITIVE,
    PRODUCT_FREE,
    EnumerationGuardError,
    FailureWitness,
    FamilyKind,
    Partition,
    kind_from_name,
    s_multiple,
)

import oracles
from test_routes import ALL_KINDS, bind, mask_of

bind(globals())  # this module's routes and their references are rows of test_routes.ROUTES


# --- kinds and subsets --------------------------------------------------------


def test_family_names_are_the_rule_table():
    # the CLI's --family choices and help text read this tuple
    assert families.FAMILY_NAMES == (
        "coprime", "coprimefree", "distinctpairproducts", "divisibilitychain",
        "nodivisorofpairproduct", "primitive", "productfree", "smultiple",
    )
    for name in families.FAMILY_NAMES:
        if name == "smultiple":
            assert FamilyKind(name, 2).name == name
            with pytest.raises(ValueError, match="--s"):
                FamilyKind(name)
        else:
            assert FamilyKind(name).name == name
    for name in ("", "Primitive", "coprime ", "smultiples", "pairwisecoprime"):
        with pytest.raises(ValueError, match="unknown family name"):
            FamilyKind(name)


def test_value_types_are_immutable_named_tuples():
    from crosscut.homology import HomologyGroup

    kind = FamilyKind("smultiple", 2)
    assert kind == s_multiple(2) and hash(kind) == hash(s_multiple(2))
    assert kind == ("smultiple", 2)
    tri = families.count_triangle(PRIMITIVE, 4)
    outcome = families.partition_components(PRIMITIVE, 4)
    assert isinstance(outcome, Partition)
    for value, field in [
        (kind, "s"), (HomologyGroup(1), "rank"), (tri, "rows"), (outcome, "classes")
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    rank, torsion = HomologyGroup(0, (2,))
    assert (rank, torsion) == (0, (2,))
    # count is the triangle's own method, not tuple.count
    assert tri.count(4, 2) == 2


def test_family_kind_validation():
    with pytest.raises(ValueError):
        FamilyKind("nonsense")
    with pytest.raises(ValueError):
        FamilyKind("smultiple")
    with pytest.raises(ValueError):
        FamilyKind("smultiple", 0)
    with pytest.raises(ValueError):
        FamilyKind("primitive", 2)
    # s is an int >= 1, as face labels are: no float, bool or string passes
    for s in (2.5, True, "2"):
        with pytest.raises(ValueError, match="--s"):
            FamilyKind("smultiple", s)
    assert s_multiple(3).label() == "smultiple(s=3)"
    assert kind_from_name("coprime") == PAIRWISE_COPRIME
    assert kind_from_name("smultiple", 2) == s_multiple(2)
    with pytest.raises(ValueError):
        kind_from_name("smultiple")
    with pytest.raises(ValueError):
        kind_from_name("primitive", 1)


def test_subset_mask_elements():
    # bit x stands for element x; the oracles keep bit x-1, so masks shift by one
    assert bits(0b100100) == [2, 5]
    sparse = mask_of([2, 99999, 100000])
    assert bits(sparse) == [2, 99999, 100000]
    assert tuple(bits(sparse)) == oracles.mask_elements(100000, sparse >> 1)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_subset_mask_roundtrip(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    elements = bits(mask << 1)
    assert tuple(elements) == oracles.mask_elements(n, mask)
    assert mask_of(elements) == mask << 1
    assert len(elements) == mask.bit_count()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_is_member_rejects_non_subset_masks(kind):
    for mask in (-2, -1, 1, 0b111, False, True, 2.0, "6", None):
        with pytest.raises(ValueError, match=re.escape(f"{mask!r} is not a subset mask")):
            families.is_member(kind, mask)


def test_is_member_stops_at_first_failure(monkeypatch):
    # {1, ..., 3000} fails primitivity at 2, which 1 rules out, so the rules
    # never see an element past 1
    seen = []
    rule = families._RULES["primitive"]

    def counting(kind, universe):
        cand, forbid = rule(kind, universe)

        def logged(mask, x):
            seen.append(x)
            return forbid(mask, x)

        return cand, logged

    monkeypatch.setitem(families._RULES, "primitive", counting)
    assert not families.is_member(PRIMITIVE, (1 << 3001) - 2)
    assert seen == [1]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_downward_closure_exhaustive(kind):
    # removing any one element from a member must leave a member
    for n in (8, 12):
        masks = set(families.members(kind, n))
        for mask in masks:
            m = mask
            while m:
                low = m & -m
                assert (mask ^ low) in masks
                m ^= low


def test_smultiple_one_is_primitivity():
    for n in range(1, 13):
        assert families.members(s_multiple(1), n) == families.members(PRIMITIVE, n)


def test_smultiple_bound_at_least_n_admits_every_subset():
    # s >= n never binds; s == n reaches the bound only at the full set
    for s in (12, 13):
        kind = s_multiple(s)
        tri = families.count_triangle(kind, 12)
        for n in range(1, 13):
            assert tri.rows[n - 1] == tuple(math.comb(n, k) for k in range(n + 1))
        assert families.members(kind, 8) == list(range(0, 1 << 9, 2))
        assert families.maximal_members(kind, 8) == [mask_of(range(1, 9))]
        assert families.is_member(kind, mask_of(range(1, 13)))


# --- count triangles ------------------------------------------------------------


@pytest.mark.parametrize(
    ("kind", "table"),
    [
        (PRIMITIVE, oracles.EXPECTED_PRIMITIVE),
        (PAIRWISE_COPRIME, oracles.EXPECTED_COPRIME),
        (PRODUCT_FREE, oracles.EXPECTED_PRODUCT_FREE),
    ],
    ids=["primitive", "coprime", "productfree"],
)
def test_count_triangle_matches_frozen_tables(kind, table):
    n_max = max(table)
    tri = families.count_triangle(kind, n_max)
    for n, row in table.items():
        for k, want in enumerate(row):
            got = tri.count(n, k) if k <= n else 0
            assert got == want, (kind.label(), n, k)


def _walk_calling_every_candidate(kind, n):
    """The visits (mask, largest element, size) of a walk that calls the rule at
    every member, leaves included."""
    cand, forbid = families._RULES[kind.name](kind, range(1, n + 1))
    visits = []

    def rec(mask, cand, k):
        for x in bits(cand):
            cand ^= 1 << x
            visits.append((mask | 1 << x, x, k))
            rec(mask | 1 << x, cand & ~forbid(mask, x), k + 1)

    rec(0, cand, 1)
    return visits


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_stateless_rules_only_forbid(kind):
    # _walk reaches a node's last candidate without calling the rule, and tallies
    # a child with one candidate in place; its masks match a walk that calls the
    # rule every time, order included, and its tally is the (largest element,
    # size) histogram of that walk's visits. The rooted walk (with_one) matches
    # the visits that hold 1.
    for n in range(1, 15):
        visits = _walk_calling_every_candidate(kind, n)
        for with_one in (False, True):
            kept = [v for v in visits if v[0] & families._ONE] if with_one else visits
            histogram = [[0] * (n + 1) for _ in range(n + 1)]
            for _, x, k in kept:
                histogram[x][k] += 1
            masks = []
            assert families._walk(kind, n, masks, with_one=with_one) == histogram, (n, with_one)
            assert masks == [mask for mask, _, _ in kept], (n, with_one)


def test_root_is_least_m_with_x_dividing_m_squared():
    # nodivisorofpairproduct's rule forbids the multiples of _root(x)
    for x in range(1, 501):
        assert families._root(x) == min(m for m in range(1, x + 1) if m * m % x == 0), x


def _free_prime_additions(kind, n, avoid=0):
    """Each (member avoiding the primes in (n/2, n] and the mask `avoid`,
    nonempty set of those primes, whether their union is a member by the
    oracle predicate)."""
    free = numthy.chebyshev_primes(n)
    free_mask = mask_of(free)
    pred = oracles.oracle_predicate(kind.name, kind.s)
    for mask in families.members(kind, n):
        if mask & (free_mask | avoid):
            continue
        elems = oracles.mask_elements(n, mask >> 1)
        for r in range(1, len(free) + 1):
            for extra in combinations(free, r):
                yield elems, extra, pred(elems + extra)


FOLDED_KINDS = [k for k in ALL_KINDS if families._FREE_PRIME_MEETS.get(k.name) == 0]
UNFOLDED_KINDS = [k for k in ALL_KINDS if k not in FOLDED_KINDS]
SPLIT_KINDS = [k for k in ALL_KINDS if families._FREE_PRIME_MEETS.get(k.name) == families._ONE]


def test_folded_kinds():
    assert FOLDED_KINDS == [PAIRWISE_COPRIME, PRODUCT_FREE, DISTINCT_PAIR_PRODUCTS]
    assert SPLIT_KINDS == [PRIMITIVE, NO_DIVISOR_OF_PAIR_PRODUCT] + [s_multiple(s) for s in range(1, 5)]


@pytest.mark.parametrize("kind", FOLDED_KINDS, ids=lambda k: k.label())
def test_free_primes_sound(kind):
    # the fold is exact iff a member plus any set of the free primes is a member
    for n in range(2, 15):
        for elems, extra, ok in _free_prime_additions(kind, n):
            assert ok, (n, elems, extra)


@pytest.mark.parametrize("kind", SPLIT_KINDS, ids=lambda k: k.label())
def test_free_primes_sound_without_one(kind):
    # maximal_members' split is exact iff a member without 1 plus any set of
    # the free primes is a member
    for n in range(2, 15):
        for elems, extra, ok in _free_prime_additions(kind, n, avoid=mask_of([1])):
            assert ok, (n, elems, extra)


@pytest.mark.parametrize("kind", UNFOLDED_KINDS, ids=lambda k: k.label())
def test_unfolded_families_have_witness(kind):
    # each family left on the plain walk has a member that some free prime breaks;
    # where 1 is the only element a prime p > n/2 interacts with, 1 is in it
    witnesses = [(e, x) for e, x, ok in _free_prime_additions(kind, 14) if not ok]
    assert witnesses
    if kind.name in ("primitive", "smultiple", "nodivisorofpairproduct"):
        assert all(1 in elems for elems, _ in witnesses)
        # {1, p}, or for smultiple(s) 1 with s multiples of it, one of them free
        smallest = min(len(elems) + len(extra) for elems, extra in witnesses)
        assert smallest == (kind.s + 1 if kind.name == "smultiple" else 2)


def test_count_triangle_accessors():
    tri = families.count_triangle(PRIMITIVE, 5)
    assert tri.count(5, 0) == 1
    assert tri.row_sum(5) == 13
    assert tri.alternating_sum(5) == -1
    with pytest.raises(ValueError):
        tri.count(6, 0)
    with pytest.raises(ValueError):
        tri.count(0, 0)
    with pytest.raises(ValueError):
        tri.count(3, 4)
    # row_sum and alternating_sum range-check n as count does, rather than
    # wrapping to a row from the end or reading past the last one
    tri6 = families.count_triangle(PRIMITIVE, 6)
    for n in (0, -2, 7):
        for accessor in (tri6.row_sum, tri6.alternating_sum):
            with pytest.raises(ValueError, match=re.escape(f"n={n} outside 1..6")):
                accessor(n)


def test_cone_families_alternating_sums():
    # -altsum is the reduced Euler characteristic of the face complex: a cone on
    # a free prime for distinctpairproducts and on 1 for divisibilitychain, and
    # for nodivisorofpairproduct the isolated vertex 1 beside a cone on a free prime
    for kind, value in ((DISTINCT_PAIR_PRODUCTS, 0), (DIVISIBILITY_CHAIN, 0), (NO_DIVISOR_OF_PAIR_PRODUCT, -1)):
        tri = families.count_triangle(kind, 24)
        assert [tri.alternating_sum(n) for n in range(2, 25)] == [value] * 23, kind.label()


def test_prime_recurrence_all_three():
    # at a prime p, F(p,k) = F(p-1,k) + F(p-1,k-1) for k >= 3
    for kind in (PRIMITIVE, PAIRWISE_COPRIME, PRODUCT_FREE):
        tri = families.count_triangle(kind, 17)
        for p in (3, 5, 7, 11, 13, 17):
            for k in range(3, p + 1):
                left = tri.count(p, k)
                right = tri.count(p - 1, k) if k <= p - 1 else 0
                right += tri.count(p - 1, k - 1) if k - 1 <= p - 1 else 0
                assert left == right, (kind.label(), p, k)


def test_small_count_closed_forms():
    for kind in (PRIMITIVE, PAIRWISE_COPRIME, PRODUCT_FREE):
        tri = families.count_triangle(kind, 17)
        for n in range(2, 18):
            for k in (1, 2):
                assert oracles.small_count_closed_form(kind.name, n, k) == tri.count(n, k)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_empty_universe_rejected(kind):
    # n < 1 is one ValueError everywhere, the coprime-free clique route included
    for call in (
        families.members,
        families.maximal_members,
        families.partition_components,
        families.count_triangle,
    ):
        for n in (0, -1):
            with pytest.raises(ValueError, match="need n >= 1"):
                call(kind, n)


def test_guard():
    with pytest.raises(EnumerationGuardError):
        families.count_triangle(PRIMITIVE, 25)
    with pytest.raises(EnumerationGuardError):
        families.members(PRIMITIVE, 25)
    # a raised guard admits larger universes on sparse families
    tri = families.count_triangle(DIVISIBILITY_CHAIN, 25, guard=26)
    assert tri.count(25, 1) == 25


# --- maximal members and partitions ---------------------------------------------


def test_maximal_examples():
    prim4 = families.maximal_members(PRIMITIVE, 4)
    assert [bits(s) for s in prim4] == [[1], [2, 3], [3, 4]]
    cf4 = families.maximal_members(COPRIME_FREE, 4)
    assert [bits(s) for s in cf4] == [[1], [3], [2, 4]]
    pf4 = families.maximal_members(PRODUCT_FREE, 4)
    assert [bits(s) for s in pf4] == [[2, 3], [3, 4]]


def test_coprimefree_maximal_large_n_contains_evens():
    coatoms = families.maximal_members(COPRIME_FREE, 100)
    evens = mask_of(range(2, 101, 2))
    assert evens in coatoms


def test_partition_primitive_4():
    out = families.partition_components(PRIMITIVE, 4)
    assert isinstance(out, Partition)
    assert out.m == 2
    assert list(out.maximal) == families.maximal_members(PRIMITIVE, 4)
    assert [[bits(s) for s in cls] for cls in out.classes] == [
        [[1]],
        [[2, 3], [3, 4]],
    ]


def test_partition_thm4_families():
    # primitive splits into {{1}} and the sets containing the top prime;
    # pairwise coprime and product-free give a single class
    for n in range(2, 17):
        out = families.partition_components(PRIMITIVE, n)
        assert isinstance(out, Partition) and out.m == 2, n
        out = families.partition_components(PAIRWISE_COPRIME, n)
        assert isinstance(out, Partition) and out.m == 1, n
        out = families.partition_components(PRODUCT_FREE, n)
        assert isinstance(out, Partition) and out.m == 1, n


def test_partition_thm4_families_to_guard():
    # the same m = 2 / 1 / 1 split for every n up to the enumeration guard
    for n in range(17, 25):
        out = families.partition_components(PRIMITIVE, n)
        assert isinstance(out, Partition) and out.m == 2, n
        out = families.partition_components(PAIRWISE_COPRIME, n)
        assert isinstance(out, Partition) and out.m == 1, n
        out = families.partition_components(PRODUCT_FREE, n)
        assert isinstance(out, Partition) and out.m == 1, n


def test_partition_witness_coprimefree_10():
    out = families.partition_components(COPRIME_FREE, 10)
    assert isinstance(out, FailureWitness)
    assert list(out.maximal) == families.maximal_members(COPRIME_FREE, 10)
    a, b = out.pair
    assert (bits(a), bits(b)) == ([3, 6, 9], [5, 10])
    assert a & b == 0
    elements = [bits(s) for s in out.component]
    assert [2, 4, 6, 8, 10] in elements


def test_partition_coprimefree_small():
    out = families.partition_components(COPRIME_FREE, 4)
    assert isinstance(out, Partition)
    assert out.m == 3


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(ALL_KINDS),
    st.integers(min_value=1, max_value=13),
    st.data(),
)
def test_is_member_sampled_against_oracle(kind, n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    pred = oracles.oracle_predicate(kind.name, kind.s)
    got = families.is_member(kind, mask << 1)
    assert got == pred(oracles.mask_elements(n, mask))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(ALL_KINDS),
    st.integers(min_value=1, max_value=500),
    st.lists(st.integers(min_value=1, max_value=6), max_size=5, unique=True),
)
def test_is_member_large_elements_against_oracle(kind, base, multipliers):
    # multiples of one base give large elements that still divide and share
    # factors; the fold's tables cover the subset's own elements, not 1..max
    elements = sorted(base * m for m in multipliers)
    pred = oracles.oracle_predicate(kind.name, kind.s)
    assert families.is_member(kind, mask_of(elements)) == pred(tuple(elements))


def test_distinct_pair_products_many_elements():
    # products of two distinct primes never repeat; 2 * 3p == 3 * 2p repeats
    # one at the largest elements, so the fold runs through the whole subset
    primes = oracles.primes_upto(2500)[:300]
    p = oracles.primes_upto(5000)[-1]
    assert families.is_member(DISTINCT_PAIR_PRODUCTS, mask_of(primes))
    clash = mask_of(primes + [2 * p, 3 * p])
    assert not families.is_member(DISTINCT_PAIR_PRODUCTS, clash)
    assert families.is_member(DISTINCT_PAIR_PRODUCTS, mask_of(primes + [3 * p]))
