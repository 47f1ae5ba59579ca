"""Every fast route beside the slower reference it must agree with: ROUTES holds
rows (name, fast, reference, cases), and fast(*case) == reference(*case) for each
case. A row's name is the id of the test that checks it, module::test[param] or
module::test, and bind(globals()) defines that test in that module, so a failure
names the row and the case. A new route adds a row test_routes::test_<route>.
Where a filter picks a row's cases, `least` is the fewest it may pick."""

import importlib
import json
import random
from collections import namedtuple
from functools import cache
from itertools import product

import pytest

from crosscut import families, homology
from crosscut.cli import cmd_homology
from crosscut.complexes import (
    SimplicialComplex, coprime_free_collapsed, face_complex, faces_by_dimension, nerve, strong_collapse,
)
from crosscut.families import (
    COPRIME_FREE, DISTINCT_PAIR_PRODUCTS, DIVISIBILITY_CHAIN, NO_DIVISOR_OF_PAIR_PRODUCT,
    PAIRWISE_COPRIME, PRIMITIVE, PRODUCT_FREE, s_multiple,
)
from crosscut.homology import HomologyGroup, reduced_homology
from crosscut.lattice import crosscut_complex, is_crosscut
from crosscut.numthy import chebyshev_primes

import oracles

Route = namedtuple("Route", "name fast reference cases least", defaults=[1])

ALL_KINDS = [PRIMITIVE, PAIRWISE_COPRIME, PRODUCT_FREE, COPRIME_FREE, DISTINCT_PAIR_PRODUCTS,
             NO_DIVISOR_OF_PAIR_PRODUCT, DIVISIBILITY_CHAIN, *map(s_multiple, (1, 2, 3, 4))]
SMALL_KINDS = [PRIMITIVE, PAIRWISE_COPRIME, PRODUCT_FREE, COPRIME_FREE, DIVISIBILITY_CHAIN, s_multiple(2)]
SMOOTH_5 = [m for m in range(1, 1001) if 30**10 % m == 0]  # dense in ab = cd and i | jk

OCTAHEDRON = SimplicialComplex(oracles.labelled(product((1, 2), (3, 4), (5, 6))))
# six-vertex triangulation of the real projective plane: each edge is in two of the triangles
RP2 = SimplicialComplex(oracles.labelled([
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]))


def mask_of(elements) -> int:
    return sum(1 << x for x in elements)


def boundary(c, d):
    """(rows, cols, {col: {row: sign}}) of d_d, built as reduced_homology builds
    it: rows and cols are the ascending (d-1)- and d-face masks, and for d = 0
    the one row 0, the empty face, is the augmentation."""
    rows, cols = [[0], *faces_by_dimension(c, d)][d:]
    return tuple(rows), tuple(cols), homology._boundary(rows, cols)


def _predicate(kind):
    return oracles.oracle_predicate(kind.name, kind.s)


def _greedy(verdict, pool):
    """Each (x, verdict) of a member of up to 170 elements grown greedily from the
    shuffled pool: each step tries every extension that was still a member (one
    that was not stays out, by downward closure) and keeps the first. Two verdicts
    give one list iff they agree on every extension tried."""
    left = list(pool)
    random.Random(0).shuffle(left)
    member, seen = [], []
    while left:
        tried, left = left, []
        for x in tried:
            seen.append((x, ok := verdict(member + [x])))
            if ok:
                left.append(x)
        if left:
            member.append(left.pop(0))
    return seen


def _smultiple_rows(s):
    # one pass over 2^[14] gives every row, as a member within 2^[n] has no element above n
    pred, rows = _predicate(s_multiple(s)), [[0] * (n + 1) for n in range(1, 15)]
    for mask in range(1 << 14):
        if pred(oracles.mask_elements(14, mask)):
            for n in range(max(mask.bit_length(), 1), 15):
                rows[n - 1][mask.bit_count()] += 1
    return tuple(map(tuple, rows))


def _avoided(n):
    one, free = mask_of([1]), mask_of(chebyshev_primes(n))
    return one, free, free | one


def _maximal_by_filter(kind, n):
    full = families.members(kind, n)
    return families._maximal_masks(full, n), [[m for m in full if not m & a] for a in _avoided(n)]


def _maximal_by_extension(n):
    masks = set(families.members(COPRIME_FREE, n))
    return sorted(
        m for m in masks if all(m >> i & 1 or (m | 1 << i) not in masks for i in range(1, n + 1))
    )


@cache
def _pair_forbid(universe):
    return families._RULES["distinctpairproducts"](DISTINCT_PAIR_PRODUCTS, universe)[1]


def _pair_cases():
    """(universe, n, (mask, x) pairs): each member of [14] with every x from its largest
    element on; 200 seeded random subsets of [1..1000], the universe shape is_member
    builds the rule over, each element with the mask of the ones below it."""
    cases = [(range(1, 15), 14, [(mask, x) for x in range(mask.bit_length(), 15)])
             for mask in families.members(DISTINCT_PAIR_PRODUCTS, 14)]
    rng = random.Random(0)
    for _ in range(200):
        elems = tuple(sorted(rng.sample(range(1, 1001), rng.randint(2, 60))))
        cases.append((elems, elems[-1], [(mask_of(elems[:k]), x) for k, x in enumerate(elems)]))
    return cases


ROUTES = [
    Route("test_families::test_pair_products_oracles_agree",
          lambda m: oracles.pair_products_differ(oracles.mask_elements(12, m)),
          lambda m: oracles.is_distinct_pair_products(oracles.mask_elements(12, m)),
          [(m,) for m in range(1 << 12)]),
    Route("test_families::test_coprimefree_maximal_dual_route",
          lambda n: families.maximal_members(COPRIME_FREE, n), _maximal_by_extension,
          [(n,) for n in range(1, 15)]),
    Route("test_families::test_distinct_pair_products_tables_match_pair_scan",
          lambda universe, n, pairs: [_pair_forbid(universe)(mask, x) for mask, x in pairs],
          lambda universe, n, pairs: [oracles.pair_products_forbidden(mask, x, n) for mask, x in pairs],
          _pair_cases()),
    # members_match_oracle stops at n = 10
    Route("test_families::test_distinct_pair_products_members_match_oracle_to_16",
          lambda n: families.members(DISTINCT_PAIR_PRODUCTS, n),
          lambda n: [m << 1 for m in range(1 << n) if oracles.pair_products_differ(oracles.mask_elements(n, m))],
          [(n,) for n in range(11, 17)]),
    *(Route(f"test_families::test_smultiple_count_triangle_matches_oracle_to_14[{s}]",
            lambda s: families.count_triangle(s_multiple(s), 14).rows, _smultiple_rows, [(s,)])
      for s in (1, 2, 3, 4)),
]
for kind in ALL_KINDS:
    ROUTES += [
        Route(f"test_families::test_{test}[{kind.label()}]", fast, ref, [(kind, arg) for arg in args])
        for test, fast, ref, args in [
            ("is_member_matches_oracle",
             lambda kind, n: [families.is_member(kind, m << 1) for m in range(1 << n)],
             lambda kind, n: [_predicate(kind)(oracles.mask_elements(n, m)) for m in range(1 << n)],
             range(1, 11)),
            # the O(k^4) pair-product oracle is too slow at this size
            ("is_member_matches_oracle_on_greedy_members",
             lambda kind, pool: _greedy(lambda elems: families.is_member(kind, mask_of(elems)), pool),
             lambda kind, pool: _greedy(
                 oracles.pair_products_differ if kind == DISTINCT_PAIR_PRODUCTS else _predicate(kind), pool
             ),
             (SMOOTH_5, range(1, 200))),
            ("members_match_oracle", families.members,
             lambda kind, n: sorted(m << 1 for m in oracles.member_masks(kind.name, n, kind.s)), range(1, 11)),
            ("count_triangle_matches_oracle",
             lambda kind, n: families.count_triangle(kind, 10).rows[n - 1],
             lambda kind, n: oracles.counts_by_size(kind.name, n, kind.s), range(1, 11)),
            # rows 11..20 fold 2-4 free primes back in; members walks them all
            ("count_triangle_fold_matches_full_walk",
             lambda kind, n: families.count_triangle(kind, n).rows[n - 1],
             lambda kind, n: tuple(map([m.bit_count() for m in families.members(kind, n)].count, range(n + 1))),
             range(1, 21)),
            ("maximal_members_match_oracle", families.maximal_members,
             lambda kind, n: [m << 1 for m in oracles.maximal_masks(kind.name, n, kind.s)], range(1, 11)),
            # maximal_members walks [n] without the free primes (and without 1 where
            # they meet it); the filter over every member is the reference
            ("maximal_fold_matches_full_walk",
             lambda kind, n: (families.maximal_members(kind, n),
                              [families.members(kind, n, avoid=a) for a in _avoided(n)]),
             _maximal_by_filter, range(1, 21)),
        ]
    ]


def _top(c, cap=float("inf")):
    return min(max(c.dim, 0), cap)  # the dimension of c, 0 if it is void, at most cap


def _by_facet_nerve(c):
    return reduced_homology(strong_collapse(nerve(c.facets)), _top(c))


def _fat_nerve(kind, n):
    # few facets but huge face counts: the facet-cover model must agree with direct expansion
    nc = strong_collapse(nerve(families.maximal_members(kind, n)))
    return [reduced_homology(nc, 2), reduced_homology(strong_collapse(nerve(nc.facets)), 2)]


def _with_collapse(kind, n):
    return (fc := face_complex(kind, n)), strong_collapse(fc)


def _ranks_by_fractions(kind, n):
    """f_d - rank_Q d_d - rank_Q d_{d+1}, the ranks taken from the dense
    boundaries by Fraction elimination, not from the Smith form."""
    out = []
    for c in _with_collapse(kind, n):
        maps = [boundary(c, k) for k in range(_top(c) + 2)]
        ranks = [oracles.rank_over_q(oracles.to_dense(m)) for m in maps]
        out.append([len(maps[k][1]) - ranks[k] - ranks[k + 1] for k in range(_top(c) + 1)])
    return out


ROUTES += [
    Route("test_complexes::test_strong_collapse_idempotent_and_homology_preserving",
          lambda n: (strong_collapse(sc := strong_collapse(c := face_complex(COPRIME_FREE, n))),
                     reduced_homology(sc, _top(c, 3))),
          lambda n: (strong_collapse(c := face_complex(COPRIME_FREE, n)), reduced_homology(c, _top(c, 3))),
          [(n,) for n in range(2, 19)]),
    Route("test_complexes::test_coprime_free_collapsed_matches_face_complex_homology",
          lambda n: reduced_homology(coprime_free_collapsed(n), _top(face_complex(COPRIME_FREE, n), 2)),
          lambda n: reduced_homology(c := face_complex(COPRIME_FREE, n), _top(c, 2)),
          [(n,) for n in range(1, 25)]),
    Route("test_complexes::test_facet_nerve_preserves_homology",
          _by_facet_nerve, lambda c: reduced_homology(c, _top(c)),
          [(OCTAHEDRON,), (face_complex(COPRIME_FREE, 12),), (face_complex(s_multiple(2), 8),),
           (coprime_free_collapsed(30),)]),
    Route("test_complexes::test_facet_nerve_preserves_torsion",
          _by_facet_nerve, lambda c: [HomologyGroup(0), HomologyGroup(0, (2,)), HomologyGroup(0)],
          [(RP2,)]),
    Route("test_complexes::test_facet_nerve_matches_direct_route_on_fat_nerve",
          _fat_nerve, lambda kind, n: [reduced_homology(face_complex(kind, n), 2)] * 2,
          [(s_multiple(3), 8)]),
    *(Route(f"test_homology::test_family_complex_ranks_match_rational_ranks[{kind.label()}]",
            lambda kind, n: [[g.rank for g in reduced_homology(c, _top(c))] for c in _with_collapse(kind, n)],
            _ranks_by_fractions, [(kind, n) for n in range(1, 9)])
      for kind in ALL_KINDS),
    # the command eliminates the strong collapse of the reduced model, not the model
    Route("test_cli::test_homology_coprimefree_matches_reduced_model",
          lambda n: json.loads(cmd_homology(COPRIME_FREE, n, 2, fmt="json")[1])["rows"],
          lambda n: [[d, g.rank, "x".join(map(str, g.torsion)) or "-"]
                     for d, g in enumerate(reduced_homology(coprime_free_collapsed(n), 2))],
          [(n,) for n in range(1, 61)]),
]


_face_complex = cache(face_complex)


def _crosscut_candidates(kind, n):
    """The coatoms, every rank level, and 20 random maximal antichains of the
    members above the bottom; callers keep those that are cross-cuts."""
    above, rng = families.members(kind, n)[1:], random.Random(f"{kind.label()} {n}")
    yield list(_face_complex(kind, n).facets)
    yield from ([m for m in above if m.bit_count() == k] for k in range(1, n + 1))
    for _ in range(20):
        chosen = []
        for m in rng.sample(above, len(above)):
            if all(m & ~c and c & ~m for c in chosen):
                chosen.append(m)
        yield sorted(chosen)


# test_acceptance.ALL_KINDS with s in {None, 2, 3}, n = 1..7, and each candidate
_CUTS = [(kind, n, cut) for kind in ALL_KINDS if kind.s in (None, 2, 3) for n in range(1, 8)
         for cut in _crosscut_candidates(kind, n)]


def _crosscut_faces(kind, n, cut):
    faces = set()
    for f in crosscut_complex(_face_complex(kind, n), cut).facets:
        g = f
        while g:
            faces.add(g)
            g = (g - 1) & f
    return faces


ROUTES += [
    Route("test_lattice::test_alt_sum_matches_brute_force",
          lambda kind, n: families.count_triangle(kind, n).alternating_sum(n),
          lambda kind, n: sum((-1) ** k * c for k, c in enumerate(oracles.counts_by_size(kind.name, n, kind.s))),
          [(kind, n) for kind in SMALL_KINDS for n in range(1, 11)]),
    Route("test_lattice::test_is_crosscut_matches_chain_enumeration",
          lambda kind, n, cut: is_crosscut(_face_complex(kind, n), cut),
          lambda kind, n, cut: oracles.is_crosscut_by_chains(_face_complex(kind, n).facets, cut),
          _CUTS),
    # the candidates of 1 to 12 members that are cross-cuts
    Route("test_lattice::test_crosscut_complex_matches_literal_definition",
          _crosscut_faces,
          lambda kind, n, cut: oracles.crosscut_complex_by_subsets(kind.name, n, cut, kind.s),
          [(kind, n, cut) for kind, n, cut in _CUTS
           if 0 < len(cut) <= 12 and is_crosscut(_face_complex(kind, n), cut)],
          least=501),
    # face complexes, and complexes past the 2^n guard: the reduced coprime-free
    # model to n = 200 and the coprime-free clique complex to n = 100
    Route("test_lattice::test_crosscut_complex_equals_nerve_of_coatoms",
          lambda c: nerve(c.facets),
          lambda c: crosscut_complex(c, c.facets),
          [(_face_complex(kind, n),) for kind in SMALL_KINDS for n in range(2, 7)]
          + [(coprime_free_collapsed(n),) for n in range(25, 201, 25)]
          + [(SimplicialComplex(families.maximal_members(COPRIME_FREE, n)),) for n in (30, 60, 100)]),
]


def check(route):
    assert len(route.cases) >= route.least, route.name
    for case in route.cases:
        assert route.fast(*case) == route.reference(*case), (route.name, case)


def _test(routes):
    """A plain test for the one row module::test, else one parametrised by row."""
    if not routes[0].name.endswith("]"):
        return lambda: check(routes[0])

    def test(route):
        check(route)

    ids = [route.name[route.name.index("[") + 1 : -1] for route in routes]
    return pytest.mark.parametrize("route", routes, ids=ids)(test)


def bind(namespace):
    """Define in a test module the test of each test name among its rows."""
    tests = {}
    for route in ROUTES:
        module, _, test = route.name.partition("::")
        if module == namespace["__name__"]:
            tests.setdefault(test.partition("[")[0], []).append(route)
    namespace.update((name, _test(routes)) for name, routes in tests.items())


def test_every_row_has_cases_a_unique_name_and_its_test():
    assert len({route.name for route in ROUTES}) == len(ROUTES)
    for route in ROUTES:
        assert isinstance(route.cases, list) and len(route.cases) >= max(route.least, 1), route.name
        module, _, test = route.name.partition("::")
        assert callable(getattr(importlib.import_module(module), test.partition("[")[0], None)), route.name


bind(globals())
