"""Vertex sets as int masks, and maximal clique enumeration (Bron-Kerbosch with pivoting)."""

from __future__ import annotations

from collections.abc import Callable, Iterable


def bits(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def maximal_cliques(vertices: Iterable[int], adjacent: Callable[[int, int], bool]) -> list[int]:
    """All inclusion-maximal cliques, as ascending vertex masks (bit v for vertex
    v), of the graph on the non-negative int vertices whose edges are the pairs
    u < v with adjacent(u, v); the predicate is asked once per pair. Isolated
    vertices come out as singleton cliques. A bool, a non-int or a negative vertex
    label raises ValueError."""
    vertices = list(vertices)
    # checked before the set is taken, so True is not merged with the vertex 1
    if bad := [v for v in vertices if isinstance(v, bool) or not isinstance(v, int) or v < 0]:
        raise ValueError(f"vertex label {bad[0]!r} is not a non-negative int")
    vs = sorted(set(vertices))
    neighbors = dict.fromkeys(vs, 0)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if adjacent(u, v):
                neighbors[u] |= 1 << v
                neighbors[v] |= 1 << u
    found: list[int] = []
    # Bron-Kerbosch on a stack of (r, p, x), as its depth (a clique's size) is unbounded
    stack = [(0, sum(1 << v for v in vs), 0)] if vs else []
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.append(r)
            continue
        # pivot with the most candidates in p; ties go to the smallest label
        pivot = max(bits(p | x), key=lambda u: (p & neighbors[u]).bit_count())
        for v in bits(p & ~neighbors[pivot]):
            stack.append((r | 1 << v, p & neighbors[v], x & neighbors[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return sorted(found)
