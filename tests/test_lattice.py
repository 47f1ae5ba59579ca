import time

import pytest

from crosscut import homology
from crosscut.cliques import bits
from crosscut.complexes import coprime_free_collapsed, face_complex, nerve, strong_collapse
from crosscut.families import (
    COPRIME_FREE,
    PAIRWISE_COPRIME,
    PRIMITIVE,
    PRODUCT_FREE,
    EnumerationGuardError,
    Partition,
    count_triangle,
    maximal_members,
    partition_components,
    s_multiple,
)
from crosscut.lattice import (
    TOP,
    FamilyLattice,
    crosscut_complex,
    is_crosscut,
    mobius,
)

from test_acceptance import ALL_KINDS
from test_routes import SMALL_KINDS, bind, mask_of

bind(globals())  # this module's routes and their references are rows of test_routes.ROUTES


def test_top_is_a_singleton():
    assert TOP == -1


def test_lattice_basics():
    lat = FamilyLattice(PRIMITIVE, 4)
    assert lat.bottom == 0
    assert lat.members == sorted(lat.members)
    assert lat.is_element(TOP)
    assert lat.is_element(lat.bottom)
    assert not lat.is_element(mask_of([2, 4]))
    for x in (False, True, 0.0, -1.0, "0"):
        assert not lat.is_element(x)
        with pytest.raises(ValueError, match="is not an element"):
            is_crosscut(lat, [x])
    assert lat.leq(lat.bottom, TOP)
    assert not lat.leq(TOP, lat.bottom)
    assert [bits(s) for s in lat.coatoms()] == [[1], [2, 3], [3, 4]]


def test_lattice_rejects_empty_universe():
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            FamilyLattice(PRIMITIVE, n)


def test_coatoms_are_maximal_members():
    # coatoms filter the lattice's own masks; coprime-free maximal members are cliques
    for kind in SMALL_KINDS:
        for n in range(1, 11):
            assert FamilyLattice(kind, n).coatoms() == maximal_members(kind, n), (kind.label(), n)


def test_mobius_examples():
    lat = FamilyLattice(PRIMITIVE, 4)
    empty = lat.bottom
    s23 = mask_of([2, 3])
    assert mobius(lat, empty, empty) == 1
    assert mobius(lat, empty, mask_of([3])) == -1
    assert mobius(lat, empty, s23) == 1
    assert mobius(lat, empty, TOP) == 1
    assert mobius(lat, TOP, TOP) == 1
    with pytest.raises(ValueError):
        mobius(lat, s23, mask_of([4]))
    with pytest.raises(ValueError):
        mobius(lat, TOP, empty)
    with pytest.raises(ValueError):
        mobius(lat, empty, mask_of([2, 4]))


def test_mobius_boolean_intervals():
    # the family is downward closed, so [0, S] is a full boolean lattice
    for kind in SMALL_KINDS:
        lat = FamilyLattice(kind, 6)
        for s in lat.members:
            assert mobius(lat, lat.bottom, s) == (-1) ** s.bit_count(), (kind.label(), s)


def test_mobius_dual_recursion():
    # sum over x <= z <= y of mu(z, y) vanishes unless x = y; this checks both
    # closed-form branches (y a member, and y = TOP) against the definition
    for kind in SMALL_KINDS:
        lat = FamilyLattice(kind, 5)
        elements = list(lat.members) + [TOP]
        for x in elements:
            for y in elements:
                if not lat.leq(x, y):
                    continue
                total = sum(
                    mobius(lat, z, y) for z in elements if lat.leq(x, z) and lat.leq(z, y)
                )
                assert total == (1 if x == y else 0), (kind.label(), x, y)


def test_alt_sum_known_values():
    for kind, value in ((PRIMITIVE, -1), (PAIRWISE_COPRIME, 0), (PRODUCT_FREE, 0)):
        tri = count_triangle(kind, 12)
        assert [tri.alternating_sum(n) for n in range(2, 13)] == [value] * 11
    assert count_triangle(s_multiple(2), 4).alternating_sum(4) == 2
    assert count_triangle(s_multiple(3), 6).alternating_sum(6) == -6
    # the k=0 term is included: dropping the empty set would shift all of these
    assert count_triangle(PRIMITIVE, 2).alternating_sum(2) == -1


def test_alt_sum_equals_one_minus_m():
    # whenever the maximal members partition into m intersecting classes
    for kind in SMALL_KINDS:
        for n in range(2, 11):
            out = partition_components(kind, n)
            if isinstance(out, Partition):
                assert count_triangle(kind, n).alternating_sum(n) == 1 - out.m, (kind.label(), n)


def test_is_crosscut():
    lat = FamilyLattice(PRIMITIVE, 4)
    coatoms = lat.coatoms()
    assert is_crosscut(lat, coatoms)
    s23 = mask_of([2, 3])
    assert not is_crosscut(lat, [s23])
    assert not is_crosscut(lat, [lat.bottom] + coatoms)
    assert not is_crosscut(lat, [TOP] + coatoms)
    # not an antichain: {3} < {2,3}
    assert not is_crosscut(lat, [mask_of([3]), s23])
    # nor is a cut that repeats an element, which is comparable with itself
    repeated = [mask_of([1]), s23, mask_of([3, 4]), mask_of([1])]
    assert not is_crosscut(lat, repeated)
    with pytest.raises(ValueError, match="valid cross-cut"):
        crosscut_complex(lat, repeated)
    with pytest.raises(ValueError):
        is_crosscut(lat, [mask_of([2, 4])])
    # the chain search visits each element once, so it needs no guard of its own
    assert is_crosscut(FamilyLattice(PRIMITIVE, 9), []) is False
    lat = FamilyLattice(PRIMITIVE, 12)
    assert is_crosscut(lat, lat.coatoms())


def test_coatoms_are_a_crosscut_everywhere():
    for kind in SMALL_KINDS:
        for n in range(1, 7):
            if kind == PRODUCT_FREE and n == 1:
                continue  # the only member is the empty set
            lat = FamilyLattice(kind, n)
            assert is_crosscut(lat, lat.coatoms()), (kind.label(), n)


def test_crosscut_complex_example():
    lat = FamilyLattice(PRIMITIVE, 4)
    c = crosscut_complex(lat, lat.coatoms())
    assert c.facets == (1 << 0, 1 << 1 | 1 << 2)
    with pytest.raises(ValueError):
        crosscut_complex(lat, [mask_of([2, 3])])


def test_crosscut_complex_builds_large_coatom_cuts():
    # 36 and 70 coatoms: far too many for the 2^|cut| subsets, but the complex is
    # generated by n + #coatoms faces and its facet nerve has only n vertices
    cases = ((s_multiple(4), 8, 36, 3, 20), (s_multiple(3), 12, 70, 2, 45))
    for kind, n, coatom_count, d, rank in cases:
        lat = FamilyLattice(kind, n)
        coatoms = lat.coatoms()
        assert len(coatoms) == coatom_count
        model = strong_collapse(nerve(crosscut_complex(lat, coatoms).facets))
        assert len(model.vertices) <= n
        groups = homology.reduced_homology(model, max(model.dim, 0))
        assert [g.rank for g in groups] == [rank if k == d else 0 for k in range(len(groups))]
        assert all(not g.torsion for g in groups)
        # the paper's (-1)^(s-1) C(n-2, s-1), and Rota's theorem
        mu = mobius(lat, lat.bottom, TOP)
        assert mu == (-1) ** d * rank == sum((-1) ** k * g.rank for k, g in enumerate(groups))


def test_faces_guard_on_fat_crosscut_complex():
    # the coatom cross-cut complex of smultiple(3) at n = 12 has 12 facets of up
    # to 55 vertices: one facet alone has C(55, 6) > 2^24 faces of dimension 5
    lat = FamilyLattice(s_multiple(3), 12)
    c = crosscut_complex(lat, lat.coatoms())
    assert len(c.facets) == 12 and c.dim == 54
    start = time.monotonic()
    with pytest.raises(EnumerationGuardError, match="dimension 5 "):
        homology.reduced_homology(c, 4)
    assert time.monotonic() - start < 1
    groups = homology.reduced_homology(strong_collapse(nerve(c.facets)), 2)
    assert groups == [homology.HomologyGroup(0), homology.HomologyGroup(0), homology.HomologyGroup(45)]


def test_counting_equals_topology():
    # -altsum(n), mu(bottom, TOP) and the reduced Euler characteristic of the
    # collapsed face complex are one number; {empty set}, the complex with no
    # facets, has chi~ = -1 through H~_{-1}, which reduced_homology does not report
    def euler(c):
        if not c.facets:
            return -1
        groups = homology.reduced_homology(c, max(c.dim, 0))
        return sum((-1) ** d * g.rank for d, g in enumerate(groups))

    for kind in ALL_KINDS:
        for n in range(1, 13):
            alt = count_triangle(kind, n).alternating_sum(n)  # row n folds its own free primes
            mu = mobius(FamilyLattice(kind, n), 0, TOP)
            c = strong_collapse(face_complex(kind, n))
            assert -alt == mu == euler(c), (kind.label(), n)
    tri = count_triangle(COPRIME_FREE, 30, guard=30)
    for n in range(1, 31):
        mu = mobius(FamilyLattice(COPRIME_FREE, n, guard=30), 0, TOP)
        assert -tri.alternating_sum(n) == mu == euler(coprime_free_collapsed(n)), n


def test_rota_crosscut_theorem():
    # mu(bottom, top) equals the alternating sum of reduced Betti numbers of the
    # crosscut complex of the coatoms
    for kind in SMALL_KINDS:
        for n in range(2, 7):
            lat = FamilyLattice(kind, n)
            mu = mobius(lat, lat.bottom, TOP)
            c = crosscut_complex(lat, lat.coatoms())
            groups = homology.reduced_homology(c, max(c.dim, 0))
            rota = sum((-1) ** k * g.rank for k, g in enumerate(groups))
            assert mu == rota, (kind.label(), n)
