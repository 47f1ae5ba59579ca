"""Exact integer reduced simplicial homology via boundary matrices and Smith
normal form.

The boundary in dimension 0 is the augmentation map (one all-ones row), so
rank H~_d = f_d - rank d_d - rank d_{d+1} holds uniformly and a point has
trivial homology everywhere.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cliques import bits
from .complexes import SimplicialComplex, faces_by_dimension
from .families import ENUMERATION_GUARD, EnumerationGuardError


class HomologyGroup(NamedTuple):
    """One reduced homology group: free rank plus invariant factors > 1."""

    rank: int
    torsion: tuple[int, ...] = ()


def _boundary(rows: list[int], cols: list[int]) -> dict[int, dict[int, int]]:
    """{col: {row: sign}}; omitting the k-th smallest vertex v of sigma gives row
    sigma ^ 1 << v with sign (-1)^k. Columns ascend and each column's rows follow
    k, the order _pivot_values takes its unit pivots in, so this order sets the fill-in."""
    index = {f: i for i, f in enumerate(rows)}
    return {
        j: {index[sigma ^ 1 << v]: -1 if k & 1 else 1 for k, v in enumerate(bits(sigma))}
        for j, sigma in enumerate(cols)
    }


_PRUNE_FACTOR, _PRUNE_SLACK = 4, 1 << 18  # the unit stack's bound, see _pivot_values
_NONE: dict[int, int] = {}


def _pivot_values(cols: dict[int, dict[int, int]]) -> list[int]:
    """Diagonalize {col: {row: value}} in place by integer row and column
    operations; returns the diagonal (not yet a divisibility chain).

    Unit pivots pop off a LIFO of pushes, one per write of +-1, each the col and then
    the row as two entries of one flat list of ints. A push whose entry is not +-1 now
    can only pop as a no-op (a new write of +-1 there pushes above it). Only an entry's
    newest push can pivot, and an older push of the same entry is always a no-op when
    popped. So once the stack outgrows _PRUNE_FACTOR times the pushes that survived its
    last pruning plus _PRUNE_SLACK, it keeps only the pushes still at +-1; every pivot,
    and so the fill-in, stays as it was. A pivot v = +-1 clears its row from the other
    columns exactly (multiplier = entry * v), and the row operations would only zero the
    rest of its column, so they are skipped. One pass over the columns finds those that
    hold the pivot's row. A surviving remainder pivots next: least |v|, then least column."""
    units: list[int] = [
        x for j, col in cols.items() for i, v in col.items() if v in (1, -1) for x in (j, i)
    ]
    limit = _PRUNE_FACTOR * len(units) + 2 * _PRUNE_SLACK  # in entries, two per push
    pivots: list[int] = []
    while True:
        if len(units) > limit:
            pushes = iter(units)
            units[:] = [
                x for j, i in zip(pushes, pushes) if cols.get(j, _NONE).get(i) in (1, -1) for x in (j, i)
            ]
            limit = _PRUNE_FACTOR * len(units) + 2 * _PRUNE_SLACK
        pj = pi = None
        while units:
            i = units.pop()
            j = units.pop()
            if cols.get(j, _NONE).get(i) in (1, -1):
                pj, pi = j, i
                break
        if pj is None:
            # no unit left: pivot on the first entry of least |v|, if any is left
            entries = ((j, i, abs(v)) for j, col in cols.items() for i, v in col.items())
            pj, pi, _ = min(entries, key=lambda e: e[2], default=(None, None, 0))
            if pj is None:
                return pivots
        while True:
            col = cols[pj]
            v = col[pi]
            unit = v in (1, -1)
            # column j -= q * column pj for each column j that holds row pi, in ascending j
            hits = sorted(j for j, target in cols.items() if pi in target and j != pj)
            src = [(i, w) for i, w in col.items() if not unit or i != pi]
            for j in hits:
                target = cols[j]
                q = target.pop(pi) * v if unit else target[pi] // v
                if q:
                    get = target.get
                    for i, w in src:
                        new = get(i)
                        if new is None:
                            new = -q * w
                        else:
                            new -= q * w
                            if not new:
                                del target[i]
                                continue
                        target[i] = new
                        if new in (1, -1):
                            units.append(j)
                            units.append(i)
                if not target:
                    del cols[j]
            if unit:
                break
            leftover = [j for j in hits if pi in cols.get(j, _NONE)]
            if leftover:
                # a remainder smaller than |v| survives; pivot on it instead
                pj = min(leftover, key=lambda j: abs(cols[j][pi]))
                continue
            for i in list(col):
                if i == pi:
                    continue
                q = col[i] // v
                if q:
                    # row i -= q * row pi, and row pi lives only in column pj
                    new = col[i] - q * v
                    if new:
                        col[i] = new
                        if new in (1, -1):
                            units.append(pj)
                            units.append(i)
                    else:
                        del col[i]
            leftover_rows = [i for i in col if i != pi]
            if leftover_rows:
                pi = min(leftover_rows, key=lambda i: abs(col[i]))
                continue
            break
        pivots.append(col.pop(pi))
        del cols[pj]


def _divisibility_chain(pivots: list[int]) -> tuple[int, ...]:
    # units are fixed points of the gcd/lcm pass (gcd(1, a) = 1, lcm(1, a) = a),
    # so only the non-unit pivots go through it
    vals = sorted(abs(v) for v in pivots)
    units = vals.count(1)
    rest = vals[units:]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            g = gcd(a, b)
            rest[i], rest[j] = g, a * b // g
    return (1,) * units + tuple(rest)


def reduced_homology(c: SimplicialComplex, d_max: int) -> list[HomologyGroup]:
    """H~_d for d = 0..d_max: rank f_d - rank d_d - rank d_{d+1}, torsion from the
    invariant factors of d_{d+1}. Only d >= 0 is reported, so {empty set}, the
    complex with no facets, reads 0 everywhere though its H~_{-1} is Z. Over
    2^ENUMERATION_GUARD rows raises EnumerationGuardError before any row is built."""
    if d_max < 0:
        raise ValueError(f"need d_max >= 0, got {d_max}")
    if d_max.bit_length() > ENUMERATION_GUARD:  # d_max + 1 > 2^ENUMERATION_GUARD
        raise EnumerationGuardError(f"d_max {d_max} asks for {d_max + 1} rows, over 2^{ENUMERATION_GUARD}")
    top = min(d_max, c.dim)  # the rows above have no faces: 0, with no elimination
    levels = [[0], *faces_by_dimension(c, top + 1)]  # levels[d + 1] holds the d-faces
    ranks: list[int] = []
    chains: list[tuple[int, ...]] = []
    for d in range(top + 2):
        pivots = _pivot_values(_boundary(levels[d], levels[d + 1]))
        ranks.append(len(pivots))
        chains.append(_divisibility_chain(pivots))
    out = [HomologyGroup(0)] * (d_max + 1)
    for d in range(top + 1):
        rank = len(levels[d + 1]) - ranks[d] - ranks[d + 1]
        out[d] = HomologyGroup(rank, tuple(v for v in chains[d + 1] if v > 1))
    return out
