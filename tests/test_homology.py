import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscut import homology
from crosscut.cliques import bits
from crosscut.complexes import (
    SimplicialComplex,
    coprime_free_collapsed,
    face_complex,
    faces_by_dimension,
    nerve,
    strong_collapse,
)
from crosscut.families import COPRIME_FREE, ENUMERATION_GUARD, EnumerationGuardError, s_multiple
from crosscut.homology import HomologyGroup, reduced_homology
from crosscut.numthy import chebyshev_primes

import oracles
from test_routes import OCTAHEDRON, RP2, bind, boundary

bind(globals())  # this module's routes and their references are rows of test_routes.ROUTES

# up to six faces on the vertices 1..6, the complexes the random properties draw;
# too few faces for torsion, which first needs RP2's ten triangles, so
# rp2_with_random_complex joins RP2 to them
RANDOM_FACES = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


def snf(m):
    """Invariant factors (units included, d1 | d2 | ...) and rank of the integer
    matrix m, given as rows, from the elimination reduced_homology runs."""
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = v
    factors = homology._divisibility_chain(homology._pivot_values(cols))
    return factors, len(factors)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_boundary_edge_orientation():
    c = SimplicialComplex(oracles.labelled([(3, 7)]))
    bm = rows, cols, _ = boundary(c, 1)
    assert rows == (1 << 3, 1 << 7)
    assert cols == (1 << 3 | 1 << 7,)
    dense = oracles.to_dense(bm)
    assert dense == [[-1], [1]]


def test_boundary_dim_zero_is_augmentation():
    c = SimplicialComplex(oracles.labelled([(1,), (5,)]))
    bm = rows, _, _ = boundary(c, 0)
    assert rows == (0,)
    assert oracles.to_dense(bm) == [[1, 1]]


def test_boundary_column_signs_alternate():
    _, faces, columns = boundary(OCTAHEDRON, 2)
    for j in range(len(faces)):
        signs = [columns[j][i] for i in sorted(columns[j])]
        assert signs == [1, -1, 1]


def test_boundary_composition_is_zero():
    for c in (OCTAHEDRON, RP2, face_complex(COPRIME_FREE, 12), coprime_free_collapsed(30)):
        for d in range(1, max(c.dim, 0) + 1):
            prod = mat_mul(*(oracles.to_dense(boundary(c, k)) for k in (d, d + 1)))
            assert all(v == 0 for row in prod for v in row), d


def test_octahedron_boundary_rank():
    dense = oracles.to_dense(boundary(OCTAHEDRON, 2))
    assert len(dense) == 12 and len(dense[0]) == 8
    assert oracles.rank_over_q(dense) == 7
    assert snf(dense)[1] == 7


def test_smith_normal_form_examples():
    assert snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)
    assert snf([[0, 0], [0, 0]]) == ((), 0)
    assert snf([]) == ((), 0)
    assert snf([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert snf([[2, 4], [4, 2]]) == ((2, 6), 2)
    assert snf([[6]]) == ((6,), 1)
    assert snf([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == ((1, 1, 6), 3)
    assert snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == ((2, 2, 156), 3)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_smith_normal_form_against_minor_oracle(nrows, ncols, data):
    m = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    factors, rank = snf(m)
    assert (factors, rank) == oracles.snf_by_minors(m)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_smith_rank_matches_rational_rank(nrows, ncols, data):
    m = [
        [data.draw(st.integers(min_value=-20, max_value=20)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    assert snf(m)[1] == oracles.rank_over_q(m)


def test_reduced_homology_examples():
    two_points = SimplicialComplex(oracles.labelled([(1,), (2,)]))
    assert reduced_homology(two_points, 2) == [
        HomologyGroup(1), HomologyGroup(0), HomologyGroup(0),
    ]
    point = SimplicialComplex(oracles.labelled([(1,)]))
    assert reduced_homology(point, 1) == [HomologyGroup(0), HomologyGroup(0)]
    simplex = SimplicialComplex(oracles.labelled([(1, 2, 3, 4)]))
    assert reduced_homology(simplex, 3) == [HomologyGroup(0)] * 4
    assert reduced_homology(OCTAHEDRON, 2) == [
        HomologyGroup(0), HomologyGroup(0), HomologyGroup(1),
    ]
    assert reduced_homology(SimplicialComplex([]), 1) == [HomologyGroup(0)] * 2
    with pytest.raises(ValueError):
        reduced_homology(point, -1)


def test_reduced_homology_circle_and_sphere_boundaries():
    circle = SimplicialComplex(oracles.labelled([(1, 2), (2, 3), (1, 3)]))
    assert reduced_homology(circle, 1) == [HomologyGroup(0), HomologyGroup(1)]
    sphere = SimplicialComplex(oracles.labelled([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]))
    assert reduced_homology(sphere, 2) == [
        HomologyGroup(0), HomologyGroup(0), HomologyGroup(1),
    ]


def test_projective_plane_torsion():
    assert reduced_homology(RP2, 2) == [
        HomologyGroup(0), HomologyGroup(0, (2,)), HomologyGroup(0),
    ]


@pytest.mark.parametrize("c", [SimplicialComplex([]), SimplicialComplex([2]), RP2])
def test_reduced_homology_above_dim_is_zero_rows(c):
    # rows above c.dim are padded, not eliminated, so a huge d_max costs nothing
    short = reduced_homology(c, max(c.dim, 0))
    for d_max in (c.dim + 1, c.dim + 5, 300_000):
        assert reduced_homology(c, d_max) == short + [HomologyGroup(0)] * (d_max + 1 - len(short))
    assert faces_by_dimension(c, 300_000)[c.dim + 1 :] == [[]] * (300_000 - c.dim)


def test_reduced_homology_refuses_rows_past_the_guard():
    # d_max + 1 rows are built, so d_max = 2**40 would ask for 8 TiB: refused before any row
    for d_max in (2**40, 1 << ENUMERATION_GUARD):
        message = rf"asks for {d_max + 1} rows, over 2\^{ENUMERATION_GUARD}"
        with pytest.raises(EnumerationGuardError, match=message):
            reduced_homology(SimplicialComplex([2]), d_max)


def test_smultiple_homology_small():
    c = face_complex(s_multiple(2), 5)
    groups = reduced_homology(c, 2)
    assert [g.rank for g in groups] == [0, 3, 0]
    assert all(g.torsion == () for g in groups)
    c6 = face_complex(s_multiple(2), 6)
    assert [g.rank for g in reduced_homology(c6, 2)] == [0, 4, 0]


def test_collapsed_homology_prop7_sample():
    for n in range(4, 31):
        groups = reduced_homology(coprime_free_collapsed(n), 1)
        assert groups[0] == HomologyGroup(len(chebyshev_primes(n)) + 1), n
        assert groups[1] == HomologyGroup(0), n


def test_betti_zero_fast():
    assert reduced_homology(coprime_free_collapsed(10), 0)[0].rank == 2
    assert reduced_homology(SimplicialComplex(oracles.labelled([(1, 2, 3)])), 0)[0].rank == 0
    assert reduced_homology(face_complex(COPRIME_FREE, 3), 0)[0].rank == 2
    assert reduced_homology(SimplicialComplex([]), 0)[0].rank == 0


def test_octahedron_euler_arithmetic():
    levels = faces_by_dimension(OCTAHEDRON, 2)
    assert [len(level) for level in levels] == [6, 12, 8]
    assert (6 - 12 + 8) - 1 == 1
    groups = reduced_homology(OCTAHEDRON, 2)
    assert sum((-1) ** d * g.rank for d, g in enumerate(groups)) == 1


@settings(deadline=None, max_examples=40)
@given(RANDOM_FACES)
def test_random_complex_consistency(faces):
    c = SimplicialComplex(oracles.labelled(faces))
    d = max(c.dim, 0)
    maps = [boundary(c, k) for k in range(d + 2)]
    dense = [oracles.to_dense(m) for m in maps]
    for k in range(1, d + 1):
        prod = mat_mul(dense[k], dense[k + 1])
        assert all(v == 0 for row in prod for v in row)
    ranks = [oracles.rank_over_q(m) for m in dense]
    for k, g in enumerate(reduced_homology(c, d)):
        assert g.rank == len(maps[k][1]) - ranks[k] - ranks[k + 1], k


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(RANDOM_FACES, st.just([bits(f) for f in RP2.facets])),
    st.frozensets(st.sampled_from([0, *range(7, 41)]), min_size=1, max_size=4),
)
def test_isolated_vertices_change_only_h0(faces, new):
    # the premise of scan-h2 reusing a row's H~2 when the next model only adds
    # isolated vertices; RP2 brings torsion into the comparison
    c = SimplicialComplex(oracles.labelled(faces))
    d = c.dim + 1
    base = reduced_homology(c, d)
    plus = reduced_homology(SimplicialComplex(oracles.labelled([*faces, *([v] for v in new)])), d)
    assert plus[0] == HomologyGroup(base[0].rank + len(new))
    assert plus[1:] == base[1:]


def relabel(c, labels):
    return SimplicialComplex(oracles.labelled([labels[v] for v in bits(f)] for f in c.facets))


# an injective relabelling of the vertices 1..6, vertex 0 allowed; it changes
# the mask order of the faces, and with it the column order of the elimination
LABELS = st.lists(st.integers(min_value=0, max_value=40), min_size=7, max_size=7, unique=True)


@settings(deadline=None, max_examples=60)
@given(RANDOM_FACES, LABELS)
def test_homology_invariant_under_relabelling(faces, labels):
    c = SimplicialComplex(oracles.labelled(faces))
    d = max(c.dim, 0)
    assert reduced_homology(relabel(c, labels), d) == reduced_homology(c, d)


@settings(deadline=None, max_examples=30)
@given(LABELS)
def test_projective_plane_torsion_under_relabelling(labels):
    assert reduced_homology(relabel(RP2, labels), 2) == [
        HomologyGroup(0), HomologyGroup(0, (2,)), HomologyGroup(0),
    ]


@st.composite
def rp2_with_random_complex(draw):
    """The faces of a RANDOM_FACES complex plus RP2 relabelled onto six vertices,
    from 7..40 for a disjoint union, or with one of them on a vertex of the
    random complex for a one-vertex wedge; RP2 brings the only torsion."""
    faces = draw(RANDOM_FACES)
    labels = [0, *draw(st.lists(st.integers(7, 40), min_size=6, max_size=6, unique=True))]
    if draw(st.booleans()):
        wedge = draw(st.sampled_from(sorted(set().union(*faces))))
        labels[draw(st.integers(1, 6))] = wedge
    return [*faces, *([labels[v] for v in bits(f)] for f in RP2.facets)]


@settings(deadline=None, max_examples=40)
@given(rp2_with_random_complex(), st.permutations(range(41)))
def test_random_complexes_with_torsion(faces, labels):
    c = SimplicialComplex(oracles.labelled(faces))
    d = c.dim
    groups = reduced_homology(c, d)
    assert [g.torsion for g in groups] == [(), (2,), *[()] * (d - 1)]
    maps = [boundary(c, k) for k in range(d + 2)]
    ranks = [oracles.rank_over_q(oracles.to_dense(m)) for m in maps]
    for k, g in enumerate(groups):
        assert g.rank == len(maps[k][1]) - ranks[k] - ranks[k + 1], k
    assert reduced_homology(relabel(c, labels), d) == groups
    assert reduced_homology(strong_collapse(c), d) == groups
    assert reduced_homology(strong_collapse(nerve(c.facets)), d) == groups


# --- the pruned unit stack keeps every pivot, in order ---------------------------

# prune_every_pivot sets the stack's limit to 0, so _pivot_values prunes it before
# each pivot; inputs this small never reach the real limit
PRUNING = pytest.mark.parametrize(
    "prune_every_pivot", [False, True], ids=["real-limit", "prune-every-pivot"]
)


def assert_pivot_order(cols, prune_every_pivot=False):
    expected = oracles.pivot_values_lifo({j: dict(col) for j, col in cols.items()})
    with pytest.MonkeyPatch.context() as mp:
        if prune_every_pivot:
            mp.setattr(homology, "_PRUNE_FACTOR", 0)
            mp.setattr(homology, "_PRUNE_SLACK", 0)
        assert homology._pivot_values(cols) == expected


@PRUNING
@settings(deadline=None, max_examples=40)
@given(RANDOM_FACES, rp2_with_random_complex())
def test_pivot_order_on_boundaries(prune_every_pivot, faces, with_rp2):
    # with_rp2's d_2 has a non-unit pivot, as its H~1 = Z/2 needs
    for c in (SimplicialComplex(oracles.labelled(f)) for f in (faces, with_rp2)):
        for d in range(c.dim + 2):
            assert_pivot_order(boundary(c, d)[2], prune_every_pivot)


@PRUNING
@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_pivot_order_on_integer_matrices(prune_every_pivot, nrows, ncols, data):
    cols: dict[int, dict[int, int]] = {}
    for i in range(nrows):
        for j in range(ncols):
            v = data.draw(st.integers(min_value=-4, max_value=4))
            if v:
                cols.setdefault(j, {})[i] = v
    assert_pivot_order(cols, prune_every_pivot)


@PRUNING
@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_pivot_order_on_unit_matrices(prune_every_pivot, nrows, ncols, data):
    # cells in -1..1, so most pivots are +-1 and take the unit shortcut on random shapes
    cols: dict[int, dict[int, int]] = {}
    for i in range(nrows):
        for j in range(ncols):
            v = data.draw(st.integers(min_value=-1, max_value=1))
            if v:
                cols.setdefault(j, {})[i] = v
    assert_pivot_order(cols, prune_every_pivot)


@PRUNING
def test_pivot_order_on_coprime_free_d3(prune_every_pivot):
    assert_pivot_order(boundary(coprime_free_collapsed(90), 3)[2], prune_every_pivot)


@PRUNING
@pytest.mark.parametrize("s", [2, 3])
def test_pivot_order_on_smultiple_d4(prune_every_pivot, s):
    # the faces workload's d_4 at n = 15; pruning before every pivot is quadratic, so n = 12
    n = 12 if prune_every_pivot else 15
    c = strong_collapse(face_complex(s_multiple(s), n))
    assert_pivot_order(boundary(c, 4)[2], prune_every_pivot)


def test_pivot_values_memory_on_coprime_free_d3():
    # the elimination's own peak, the same to 0.1 MB on Python 3.10-3.13: 44.2 MB
    # with the unpruned stack of (col, row) tuples (oracles.pivot_values_lifo),
    # 27.9 MB with that stack pruned, 16.0 MB with the pruned flat stack of ints,
    # 12.7 MB without the row index of sets of columns
    cols = boundary(coprime_free_collapsed(120), 3)[2]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        homology._pivot_values(cols)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 14e6, f"{peak / 1e6:.1f} MB"
