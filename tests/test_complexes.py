import re
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscut import complexes, families
from crosscut.cliques import bits, maximal_cliques
from crosscut.complexes import (
    SimplicialComplex,
    coprime_free_collapsed,
    face_complex,
    faces_by_dimension,
    nerve,
    strong_collapse,
)
from crosscut.families import (
    COPRIME_FREE,
    PRIMITIVE,
    PRODUCT_FREE,
    EnumerationGuardError,
    s_multiple,
)
from crosscut.homology import HomologyGroup, reduced_homology

import oracles
from test_routes import OCTAHEDRON, bind

bind(globals())  # this module's routes and their references are rows of test_routes.ROUTES


def mask(*vertices):
    return sum(1 << v for v in vertices)


def has_face(c, face):
    m = mask(*face)
    return any(m & ~f == 0 for f in c.facets)


def test_construction_reduces_to_facets():
    c = SimplicialComplex(oracles.labelled([(1, 2), (2,), (1, 2), (3,), ()]))
    assert c.facets == (mask(1, 2), mask(3))
    assert c.vertices == (1, 2, 3)
    assert c.dim == 1
    assert has_face(c, (1,)) and has_face(c, (1, 2)) and not has_face(c, (1, 3))
    assert has_face(c, ())
    assert SimplicialComplex(oracles.labelled([(0, 2), (0,)])).facets == (mask(0, 2),)


@pytest.mark.parametrize("face", [True, False, 1.0, "3", None, (1, 2)])
def test_masks_must_be_ints(face):
    # checked before the masks are hashed, so True is not taken for the mask 1
    with pytest.raises(ValueError, match=re.escape(f"face mask {face!r} is not an int")):
        SimplicialComplex([mask(1, 2), face])


@pytest.mark.parametrize("label", [-1, "a", 1.0, True, False, None])
def test_vertex_labels_must_be_non_negative_ints(label):
    # maximal_cliques is the one public function that takes vertices by label
    with pytest.raises(ValueError, match=re.escape(f"vertex label {label!r} is not")):
        maximal_cliques([1, label], lambda u, v: True)


@pytest.mark.parametrize("negative", [-1, -3, -(1 << 70)])
def test_negative_masks_are_rejected(negative):
    # a negative int has infinitely many set bits: bits() would never end on it
    with pytest.raises(ValueError, match=f"mask {negative} is negative"):
        SimplicialComplex([mask(1, 2), negative])
    with pytest.raises(ValueError, match=f"mask {negative} is negative"):
        bits(negative)


def test_void_complex():
    c = SimplicialComplex([])
    assert c.facets == ()
    assert c.vertices == ()
    assert c.dim == -1
    assert not has_face(c, ())


def test_equality_and_repr():
    a = SimplicialComplex(oracles.labelled([(1, 2), (3,)]))
    b = SimplicialComplex(oracles.labelled([(3,), (2, 1)]))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != SimplicialComplex(oracles.labelled([(1, 2)]))
    # only another complex compares equal, not its bare facets
    assert a.__eq__(a.facets) is NotImplemented
    assert a != a.facets
    assert repr(a) == "SimplicialComplex([{1,2}, {3}])"


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=0xFF), min_size=0, max_size=8))
def test_facets_form_an_antichain(masks):
    c = SimplicialComplex(masks)
    assert list(c.facets) == sorted(set(c.facets))
    for f in c.facets:
        assert not any(f != g and f & ~g == 0 for g in c.facets)
        assert has_face(c, bits(f))
    for f in masks:
        if f:
            assert has_face(c, bits(f))


def test_nerve_examples():
    # two sets meeting in a point, one disjoint set
    c = nerve([mask(1, 2), mask(2, 3), mask(4)])
    assert c.facets == (mask(0, 1), mask(2))
    assert nerve([]) == SimplicialComplex([])
    for bad in ([mask(1), 0], [mask(1), -1], [True], [mask(1), mask(1)]):
        with pytest.raises(ValueError):
            nerve(bad)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.frozensets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
        unique=True,
    )
)
def test_nerve_faces_are_exactly_common_element_index_sets(sets):
    masks = [mask(*s) for s in sets]
    c = nerve(masks)
    assert c.vertices == tuple(range(len(masks)))
    for r in range(1, len(masks) + 1):
        for idx in combinations(range(len(masks)), r):
            want = bool(frozenset.intersection(*[sets[i] for i in idx]))
            assert has_face(c, idx) == want


def test_face_complex_faces_are_members():
    for kind in (PRIMITIVE, COPRIME_FREE, PRODUCT_FREE, s_multiple(2)):
        for n in range(2, 9):
            c = face_complex(kind, n)
            member = oracles.oracle_predicate(kind.name, kind.s)
            for mask in range(1, 1 << n):
                elems = oracles.mask_elements(n, mask)
                assert has_face(c, elems) == member(elems), (kind.label(), n, elems)


def test_face_complex_of_empty_family_is_void():
    assert face_complex(PRODUCT_FREE, 1) == SimplicialComplex([])


def test_face_complex_checks_the_guard_for_coprime_free():
    # its maximal members come from cliques, which need no guard of their own
    with pytest.raises(EnumerationGuardError):
        face_complex(COPRIME_FREE, 25)
    assert face_complex(COPRIME_FREE, 25, guard=25).facets == tuple(
        families.maximal_members(COPRIME_FREE, 25)
    )


def test_clique_complex():
    c = SimplicialComplex(maximal_cliques([1, 2, 3, 4], lambda u, v: u + v != 5))
    # edges 12,13,24,34 missing 14 and 23: two triangles would need those
    assert c.facets == (mask(1, 2), mask(1, 3), mask(2, 4), mask(3, 4))
    d = SimplicialComplex(maximal_cliques([1, 2, 3], lambda u, v: True))
    assert d.facets == (mask(1, 2, 3),)
    e = SimplicialComplex(maximal_cliques([1, 2], lambda u, v: False))
    assert e.facets == (mask(1), mask(2))


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_maximal_cliques_against_subset_oracle(k, data):
    pairs = list(combinations(range(k), 2))
    edges = {frozenset(p) for p in pairs if data.draw(st.booleans())}
    found = maximal_cliques(range(k), lambda u, v: frozenset((u, v)) in edges)
    assert found == oracles.maximal_cliques_by_subsets(range(k), edges)


def test_maximal_cliques_deeper_than_the_recursion_limit():
    # the even numbers to 2200 under gcd > 1: one clique of 1100 vertices
    found = maximal_cliques(range(2, 2201, 2), lambda u, v: gcd(u, v) > 1)
    assert found == [sum(1 << v for v in range(2, 2201, 2))]


def test_strong_collapse_octahedron_is_minimal():
    assert strong_collapse(OCTAHEDRON) == OCTAHEDRON


def test_strong_collapse_cone_to_point():
    # the apex 9 dominates everything; the deterministic larger-label rule
    # then leaves the smallest remaining vertex standing
    cone = SimplicialComplex(oracles.labelled([(1, 2, 9), (2, 3, 9), (3, 1, 9)]))
    assert strong_collapse(cone) == SimplicialComplex(oracles.labelled([(2,)]))


def test_strong_collapse_mutual_domination_removes_larger():
    edge = SimplicialComplex(oracles.labelled([(1, 2)]))
    assert strong_collapse(edge) == SimplicialComplex(oracles.labelled([(1,)]))


def test_strong_collapse_coprime_free_12():
    c = strong_collapse(face_complex(COPRIME_FREE, 12))
    assert c.facets == (mask(1), mask(6), mask(7), mask(11))


def test_coprime_free_collapsed_small():
    assert coprime_free_collapsed(1) == SimplicialComplex(oracles.labelled([(1,)]))
    assert coprime_free_collapsed(2) == SimplicialComplex(oracles.labelled([(1,), (2,)]))
    c10 = coprime_free_collapsed(10)
    assert c10.facets == (mask(1), mask(7), mask(6, 10))
    with pytest.raises(ValueError):
        coprime_free_collapsed(0)


def test_coprime_free_collapsed_143_vertices():
    composites = [
        30, 42, 58, 62, 66, 70, 74, 77, 78, 82, 85, 86, 87, 91, 93, 94, 95,
        102, 105, 106, 110, 111, 114, 115, 118, 119, 122, 123, 129, 130, 133,
        134, 138, 141, 142, 143,
    ]
    primes = [73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139]
    c = coprime_free_collapsed(143)
    assert list(c.vertices) == sorted([1] + primes + composites)
    # the prime survivors are isolated and 1 is its own facet
    facet_of = {v: [f for f in c.facets if f >> v & 1] for v in c.vertices}
    for p in primes + [1]:
        assert facet_of[p] == [mask(p)]


def test_coprime_free_collapsed_has_octahedron_at_143():
    c = coprime_free_collapsed(143)
    octa = (42, 66, 77, 78, 91, 143)
    present = [f for f in combinations(octa, 3) if has_face(c, f)]
    assert len(present) == 8
    # opposite pairs share no prime, so the three diagonals are missing
    missing = [f for f in combinations(octa, 3) if not has_face(c, f)]
    for f in missing:
        assert any(gcd(a, b) == 1 for a, b in combinations(f, 2))


def test_strong_collapse_of_reduced_model_h2_first_at_143():
    # a second route to the paper's claim that H~2 is first nontrivial at
    # n = 143: strong collapse keeps the homotopy type, and at 143 it leaves
    # the octahedron plus isolated vertices
    for n in range(1, 143):
        c = strong_collapse(coprime_free_collapsed(n))
        assert reduced_homology(c, 2)[2] == HomologyGroup(0), n
    c = strong_collapse(coprime_free_collapsed(143))
    assert [len(level) for level in faces_by_dimension(c, 3)] == [21, 12, 8, 0]
    assert reduced_homology(c, 2)[2] == HomologyGroup(1)
    # the 8 facets of two or more vertices, opposite vertices sharing no prime
    antipodes = {42: 1, 143: 2, 66: 3, 91: 4, 77: 5, 78: 6}
    solid = [[antipodes[v] for v in bits(f)] for f in c.facets if f & f - 1]
    assert SimplicialComplex(oracles.labelled(solid)) == OCTAHEDRON


def test_faces_by_dimension():
    levels = faces_by_dimension(OCTAHEDRON, 3)
    assert [len(level) for level in levels] == [6, 12, 8, 0]
    assert levels[0][0] == mask(1)
    assert levels[1] == sorted(levels[1])
    assert all(f.bit_count() == d + 1 for d, level in enumerate(levels) for f in level)
    with pytest.raises(ValueError):
        faces_by_dimension(OCTAHEDRON, -1)


def test_faces_by_dimension_guard(monkeypatch):
    # with the guard at 2^3, at most 8 distinct faces are listed in one dimension
    monkeypatch.setattr(complexes, "ENUMERATION_GUARD", 3)
    edges = oracles.labelled((2 * i, 2 * i + 1) for i in range(5))
    assert [len(level) for level in faces_by_dimension(SimplicialComplex(edges[:4]), 1)] == [8, 4]
    # ten vertices, two at a time: only the running union passes the limit
    with pytest.raises(EnumerationGuardError, match="dimension 0 "):
        faces_by_dimension(SimplicialComplex(edges), 1)
    # one facet with C(5, 2) = 10 edges is refused before any face is listed
    tetra, simplex4 = (SimplicialComplex(oracles.labelled([range(k)])) for k in (4, 5))
    assert [len(level) for level in faces_by_dimension(tetra, 3)] == [4, 6, 4, 1]
    with pytest.raises(EnumerationGuardError, match="dimension 1 "):
        faces_by_dimension(simplex4, 1)
    assert len(faces_by_dimension(simplex4, 0)[0]) == 5


def test_faces_by_dimension_refuses_levels_past_the_guard():
    # d_max + 1 levels are built, so d_max = 2**40 would ask for 2^40 lists: refused before any
    for d_max in (2**40, 2**24):
        message = rf"asks for {d_max + 1} levels, over 2\^{families.ENUMERATION_GUARD}"
        with pytest.raises(EnumerationGuardError, match=message):
            faces_by_dimension(SimplicialComplex([2]), d_max)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.frozensets(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_faces_by_dimension_counts(faces):
    c = SimplicialComplex(oracles.labelled(faces))
    levels = faces_by_dimension(c, 4)
    for d, level in enumerate(levels):
        direct = set()
        for f in faces:
            direct.update(mask(*face) for face in combinations(f, d + 1))
        assert set(level) == direct


def test_facet_nerve_small_models():
    assert nerve(SimplicialComplex([]).facets) == SimplicialComplex([])
    triangle = SimplicialComplex(oracles.labelled([(1, 2, 3)]))
    assert nerve(triangle.facets) == SimplicialComplex(oracles.labelled([(0,)]))
    two = nerve(SimplicialComplex(oracles.labelled([(1, 2), (3, 4)])).facets)
    assert two == SimplicialComplex(oracles.labelled([(0,), (1,)]))
    # vertices are indices into the sorted facet list
    c = SimplicialComplex(oracles.labelled([(1, 2), (2, 3), (3, 4)]))
    assert nerve(c.facets) == SimplicialComplex(oracles.labelled([(0, 1), (1, 2)]))
