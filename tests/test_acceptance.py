"""End-to-end checks for the headline counting and homology results.

One test per claim; the terminal summary prints a PASS/FAIL line for each.
"""

import time
from math import comb

from crosscut import families
from crosscut.cli import cmd_oeis_compare, cmd_scan_h2, cmd_table
from crosscut.complexes import (
    coprime_free_collapsed,
    face_complex,
    nerve,
    strong_collapse,
)
from crosscut.families import (
    COPRIME_FREE,
    FAMILY_NAMES,
    Partition,
    count_triangle,
    kind_from_name,
    maximal_members,
    partition_components,
    s_multiple,
)
from crosscut.homology import HomologyGroup, reduced_homology
from crosscut.lattice import TOP, FamilyLattice, crosscut_complex, mobius
from crosscut.numthy import chebyshev_primes

import oracles
from test_cli import DATA
from test_homology import boundary

PRIMITIVE = kind_from_name("primitive")
COPRIME = kind_from_name("coprime")
PRODUCT_FREE = kind_from_name("productfree")
HEADLINE = (PRIMITIVE, COPRIME, PRODUCT_FREE)
ALL_KINDS = [kind_from_name(name) for name in FAMILY_NAMES if name != "smultiple"]
ALL_KINDS += [s_multiple(2), s_multiple(3)]


def test_criterion_1_tables():
    start = time.monotonic()
    frozen = {
        PRIMITIVE: (17, oracles.EXPECTED_PRIMITIVE),
        COPRIME: (17, oracles.EXPECTED_COPRIME),
        PRODUCT_FREE: (12, oracles.EXPECTED_PRODUCT_FREE),
    }
    for kind, (n_max, table) in frozen.items():
        tri = count_triangle(kind, n_max)
        for n in range(1, n_max + 1):
            row = table[n]
            for k in range(n + 1):
                expected = row[k] if k < len(row) else 0
                assert tri.count(n, k) == expected, (kind.label(), n, k)
        _, text = cmd_table(kind, n_max)
        assert f"{n_max},1,{table[n_max][1]}" in text.splitlines()
    # the contested corner entry, re-derived by exhausting all 2^13 subsets
    assert oracles.counts_by_size("primitive", 13)[7] == 6
    assert count_triangle(PRIMITIVE, 13).count(13, 7) == 6
    assert time.monotonic() - start < 60


def test_criterion_2_alternating_sums():
    for kind, expected in zip(HEADLINE, (-1, 0, 0)):
        tri = count_triangle(kind, 20)
        for n in range(2, 21):
            assert tri.alternating_sum(n) == expected, (kind.label(), n)


def test_criterion_3_closed_forms_and_recurrence():
    for kind in HEADLINE:
        tri = count_triangle(kind, 17)
        for n in range(2, 18):
            for k in (1, 2):
                assert oracles.small_count_closed_form(kind.name, n, k) == tri.count(n, k), (
                    kind.label(), n, k,
                )
        cnt = lambda n, k: tri.count(n, k) if k <= n else 0
        for p in oracles.primes_upto(17):
            for k in range(3, p + 1):
                assert cnt(p, k) == cnt(p - 1, k) + cnt(p - 1, k - 1), (kind.label(), p, k)


def test_criterion_4_partition_and_coatom_nerve():
    for kind, m in zip(HEADLINE, (2, 1, 1)):
        for n in range(2, 17):
            outcome = partition_components(kind, n)
            assert isinstance(outcome, Partition) and outcome.m == m, (kind.label(), n)
            c = strong_collapse(nerve(maximal_members(kind, n)))
            groups = reduced_homology(c, 2)
            assert groups[0] == HomologyGroup(m - 1), (kind.label(), n)
            assert groups[1] == groups[2] == HomologyGroup(0), (kind.label(), n)


def test_criterion_5_coprime_free_betti():
    for n, rank in ((1, 0), (2, 1), (3, 2)):
        assert reduced_homology(coprime_free_collapsed(n), 0)[0].rank == rank
    for n in range(4, 61):
        groups = reduced_homology(coprime_free_collapsed(n), 1)
        assert groups[0] == HomologyGroup(len(chebyshev_primes(n)) + 1), n
        assert groups[1] == HomologyGroup(0), n


def test_criterion_6_scan_h2_to_143():
    start = time.monotonic()
    code, text = cmd_scan_h2(1, 143)
    elapsed = time.monotonic() - start
    assert code == 0
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:144]]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 144)]
    assert all(r[1] == "0" and r[2] == "-" for r in rows[:142])
    assert rows[142] == ["143", "1", "-"]
    assert lines[-1] == "# first nontrivial H~2 at n=143: rank 1, torsion -"
    assert elapsed < 600, elapsed


def test_criterion_7_s_multiple_ranks():
    for s in (2, 3):
        kind = s_multiple(s)
        for n in range(s + 1, 13):
            expected_rank = comb(n - 2, s - 1)
            c = strong_collapse(face_complex(kind, n))
            groups = reduced_homology(c, 3)
            for t, g in enumerate(groups):
                assert g == HomologyGroup(expected_rank if t == s - 1 else 0), (s, n, t)
            alt = count_triangle(kind, n).alternating_sum(n)
            assert alt == (-1) ** s * expected_rank, (s, n)


def test_criterion_8_oracle_equivalence():
    def mat_mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    def euler_sum(c):
        """The sum of (-1)^d rank H~_d over d >= 0, after checking d o d = 0."""
        top = max(c.dim, 0)
        for d in range(1, top + 1):
            prod = mat_mul(*(oracles.to_dense(boundary(c, k)) for k in (d, d + 1)))
            assert all(v == 0 for row in prod for v in row)
        return sum((-1) ** d * g.rank for d, g in enumerate(reduced_homology(c, top)))

    # nerve of the maximal members vs the face complex itself; when the collapsed
    # nerve keeps few-but-fat facets, pass to the facet-cover model before
    # expanding chains
    for kind in ALL_KINDS:
        for n in range(1, 11):
            sets = maximal_members(kind, n)
            if sets == [0]:
                continue  # the only maximal member is empty; there is no cover
            nc = strong_collapse(nerve(sets))
            if sum(comb(f.bit_count(), 4) for f in nc.facets) > 20_000:
                nc = strong_collapse(nerve(nc.facets))
            fc = face_complex(kind, n)
            assert reduced_homology(nc, 2) == reduced_homology(fc, 2), (kind.label(), n)
            if n <= 8:  # counting against topology: -altsum is the reduced Euler sum
                alt = count_triangle(kind, n).alternating_sum(n)
                assert euler_sum(fc) == -alt, (kind.label(), n)

    # strong collapse preserves homology of the pairwise-non-coprime complex
    for n in range(1, 31):
        full = face_complex(COPRIME_FREE, n, guard=30)
        groups = reduced_homology(full, 3)
        assert reduced_homology(strong_collapse(full), 3) == groups, n
        assert reduced_homology(coprime_free_collapsed(n), 3) == groups, n

    # chain-by-chain cross-cut test agrees with the nerve shortcut, and the
    # Mobius value of the full interval equals the complex's Euler sum
    for kind in ALL_KINDS:
        for n in range(1, 7):
            lat = FamilyLattice(kind, n)
            fc = face_complex(kind, n)
            if not fc.facets:
                continue
            cc = crosscut_complex(fc, fc.facets)
            assert cc == nerve(maximal_members(kind, n)), (kind.label(), n)
            assert mobius(lat, lat.bottom, TOP) == euler_sum(cc), (kind.label(), n)

    tri = count_triangle(COPRIME_FREE, 30, guard=30)
    for n in (10, 20, 30):
        assert euler_sum(coprime_free_collapsed(n)) == -tri.alternating_sum(n), n


def test_criterion_9_oeis_rowsums():
    for family, bfile, rows in (
        ("primitive", "b051026.txt", 17),
        ("coprime", "b084422.txt", 17),
        ("productfree", "b326489.txt", 12),
    ):
        code, text = cmd_oeis_compare(kind_from_name(family), DATA / bfile)
        assert code == 0
        lines = text.splitlines()
        assert lines[-1] == "# verdict: pass"
        assert len(lines) == rows + 3  # header + rows + count comment + verdict
