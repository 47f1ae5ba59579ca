"""Maximal clique enumeration (Bron-Kerbosch with pivoting), deterministic output."""

from __future__ import annotations

from collections.abc import Callable, Iterable


def maximal_cliques(
    vertices: Iterable[int], adjacent: Callable[[int, int], bool]
) -> list[frozenset[int]]:
    """All inclusion-maximal cliques of the graph on the vertices whose edges are
    the pairs u < v with adjacent(u, v); the predicate is asked once per pair.

    Isolated vertices come out as singleton cliques. Output is sorted by the
    cliques' sorted vertex tuples, so repeated runs are byte-identical.
    """
    vs = sorted(set(vertices))
    neighbors: dict[int, set[int]] = {v: set() for v in vs}
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if adjacent(u, v):
                neighbors[u].add(v)
                neighbors[v].add(u)
    found: list[frozenset[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found.append(frozenset(r))
            return
        # pivot with the most candidates in p; ties go to the smallest label
        pivot = max(sorted(p | x), key=lambda u: len(p & neighbors[u]))
        for v in sorted(p - neighbors[pivot]):
            bk(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    if vs:
        bk(set(), set(vs), set())
    return sorted(found, key=sorted)
