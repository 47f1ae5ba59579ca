"""Independent reference implementations used only by the tests.

Nothing here reuses the package's incremental machinery: membership predicates
check the defining condition directly on a tuple of elements, counting walks
all 2^n masks, divisor counts and totients count by trial, ranks come from
Fraction Gaussian elimination, and invariant factors from gcds of k x k minors.
The two exceptions are pivot_values_lifo, the Smith elimination with an
unpruned unit stack, against which the package's pivot order is checked, and
pair_products_forbidden, the distinct-pair-products extension rule as a scan of
every pair of the member, against which the rule's per-element pair tables are
checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, isqrt


def labelled(faces) -> list[int]:
    """Vertex masks of faces given as vertex labels, bit v for vertex v."""
    return [sum(1 << v for v in set(face)) for face in faces]


def primes_upto(limit: int) -> list[int]:
    return [
        p for p in range(2, limit + 1) if all(p % d for d in range(2, isqrt(p) + 1))
    ]


def divisor_count(i: int) -> int:
    return sum(1 for d in range(1, i + 1) if i % d == 0)


def totient(i: int) -> int:
    return sum(1 for j in range(1, i + 1) if gcd(i, j) == 1)


def small_count_closed_form(name: str, n: int, k: int) -> int:
    """Closed forms for the k = 1 and k = 2 counts of the three headline families
    within 2^[n], n >= 2: of the pairs {j, i} with j < i, i - d(i) have j not
    dividing i and phi(i) have gcd(j, i) = 1; a product-free set avoids 1, and
    its pairs avoid 1 and the {j, j * j} with j * j <= n."""
    if name == "primitive":
        return n if k == 1 else sum(i - divisor_count(i) for i in range(2, n + 1))
    if name == "coprime":
        return n if k == 1 else sum(totient(i) for i in range(2, n + 1))
    if name == "productfree":
        return n - 1 if k == 1 else comb(n, 2) - n - isqrt(n) + 2
    raise ValueError(f"no closed form for {name}")


# --- membership predicates --------------------------------------------------


def is_primitive(elems) -> bool:
    return all(b % a for a, b in combinations(sorted(elems), 2))


def is_pairwise_coprime(elems) -> bool:
    return all(gcd(a, b) == 1 for a, b in combinations(elems, 2))


def is_product_free(elems) -> bool:
    s = set(elems)
    return all(a * b not in s for a in s for b in s)


def is_coprime_free(elems) -> bool:
    return all(gcd(a, b) > 1 for a, b in combinations(elems, 2))


def is_s_multiple(elems, s: int) -> bool:
    items = set(elems)
    return all(sum(1 for j in items if j % i == 0) <= s for i in items)


def is_distinct_pair_products(elems) -> bool:
    return all(
        i * j != k * l for i, j, k, l in permutations(elems, 4)
    )


def pair_products_differ(elems) -> bool:
    """is_distinct_pair_products in O(k^2) rather than O(k^4): the products of
    two distinct elements all differ. Two pairs that share an element never
    have equal products, so this is the same condition."""
    products = [i * j for i, j in combinations(elems, 2)]
    return len(set(products)) == len(products)


def pair_products_forbidden(mask: int, x: int, n: int) -> int:
    """The mask of the y > x, y <= n, with y*a = x*d for a pair a < d of the
    subset mask (bit e for element e): what adding x to a distinct-pair-products
    member forbids, by a scan of every pair of the member."""
    elems = [e for e in range(mask.bit_length()) if mask >> e & 1]
    out = 0
    for i, a in enumerate(elems):
        for d in elems[i + 1 :]:
            xd = x * d
            if xd > n * a:
                break
            if xd % a == 0:
                out |= 1 << xd // a
    return out


def is_no_divisor_of_pair_product(elems) -> bool:
    items = set(elems)
    return all(
        (j * k) % i for i in items for j in items for k in items if i != j and i != k
    )


def is_divisibility_chain(elems) -> bool:
    ordered = sorted(elems)
    return all(b % a == 0 for a, b in zip(ordered, ordered[1:]))


def oracle_predicate(name: str, s: int | None = None):
    if name == "smultiple":
        return lambda elems: is_s_multiple(elems, s)
    return {
        "primitive": is_primitive,
        "coprime": is_pairwise_coprime,
        "productfree": is_product_free,
        "coprimefree": is_coprime_free,
        "distinctpairproducts": is_distinct_pair_products,
        "nodivisorofpairproduct": is_no_divisor_of_pair_product,
        "divisibilitychain": is_divisibility_chain,
    }[name]


# --- brute-force enumeration over all 2^n masks ------------------------------


def mask_elements(n: int, mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def member_masks(name: str, n: int, s: int | None = None) -> set[int]:
    pred = oracle_predicate(name, s)
    return {mask for mask in range(1 << n) if pred(mask_elements(n, mask))}


def counts_by_size(name: str, n: int, s: int | None = None) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for mask in member_masks(name, n, s):
        counts[bin(mask).count("1")] += 1
    return tuple(counts)


def maximal_masks(name: str, n: int, s: int | None = None) -> list[int]:
    masks = member_masks(name, n, s)
    return sorted(
        m
        for m in masks
        if all(m >> i & 1 or (m | 1 << i) not in masks for i in range(n))
    )


def maximal_cliques_by_subsets(vertices, edges) -> list[int]:
    """Maximal cliques as vertex masks (bit v for vertex v), ascending: every
    subset of the vertices that is a clique and that no outside vertex extends.
    edges holds each adjacent pair as a frozenset."""
    vs = sorted(vertices)

    def is_clique(group) -> bool:
        return all(frozenset(pair) in edges for pair in combinations(group, 2))

    cliques = [
        set(group)
        for r in range(1, len(vs) + 1)
        for group in combinations(vs, r)
        if is_clique(group)
    ]
    return sorted(
        sum(1 << v for v in group)
        for group in cliques
        if not any(is_clique(group | {w}) for w in vs if w not in group)
    )


def crosscut_complex_by_subsets(name: str, n: int, cut, s: int | None = None) -> set[int]:
    """The literal cross-cut complex of a cut given as package masks (bit x for
    element x): every nonempty subset of the cut, as a mask over the cut's indices
    in ascending mask order, whose members share an element or whose union is a
    member; the complex is downward closed, so these are all of its faces."""
    members = {m << 1 for m in member_masks(name, n, s)}
    order = sorted(cut)
    faces = set()
    for f in range(1, 1 << len(order)):
        chosen = [order[i] for i in range(len(order)) if f >> i & 1]
        meet, union = chosen[0], 0
        for c in chosen:
            meet &= c
            union |= c
        if meet or union in members:
            faces.add(f)
    return faces


# --- exact linear algebra oracles --------------------------------------------


def to_dense(b) -> list[list[int]]:
    """A (rows, cols, {col: {row: value}}) boundary as a len(rows) x len(cols)
    list of rows."""
    rows, cols, columns = b
    m = [[0] * len(cols) for _ in rows]
    for j, col in columns.items():
        for i, v in col.items():
            m[i][j] = v
    return m


def rank_over_q(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        factor = m[rank][c]
        m[rank] = [v / factor for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                scale = m[r][c]
                m[r] = [v - scale * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def int_det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * int_det(minor)
    return total


def snf_by_minors(rows) -> tuple[tuple[int, ...], int]:
    """Invariant factors from determinantal divisors: d_k = gcd of k x k minors,
    f_k = d_k / d_{k-1}. Only viable for very small matrices."""
    m = [list(map(int, row)) for row in rows]
    rank = rank_over_q(m)
    if rank == 0:
        return (), 0
    divisors = [1]
    nrows, ncols = len(m), len(m[0])
    for k in range(1, rank + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                g = gcd(g, int_det([[m[r][c] for c in csel] for r in rsel]))
        divisors.append(g)
    factors = tuple(divisors[k] // divisors[k - 1] for k in range(1, rank + 1))
    return factors, rank


def pivot_values_lifo(cols: dict[int, dict[int, int]]) -> list[int]:
    """The package's Smith elimination as it stood before its unit stack was
    pruned, kept verbatim: diagonalize {col: {row: value}} in place by integer
    row and column operations and return the diagonal in pivot order. Its unit
    LIFO keeps every push, stale ones included, so the tests can check that
    pruning the stack leaves each pivot, and the order they come in, unchanged."""
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    units: list[tuple[int, int]] = [
        (j, i) for j, col in cols.items() for i, v in col.items() if v in (1, -1)
    ]

    def col_axpy(dst: int, src: int, q: int) -> None:
        # column dst -= q * column src
        target = cols.setdefault(dst, {})
        for i, v in cols[src].items():
            new = target.get(i, 0) - q * v
            if new:
                if i not in target:
                    rows[i].add(dst)
                target[i] = new
                if new in (1, -1):
                    units.append((dst, i))
            elif i in target:
                del target[i]
                rows[i].discard(dst)
        if not target:
            del cols[dst]

    pivots: list[int] = []
    while True:
        pj = pi = None
        while units:
            j, i = units.pop()
            if cols.get(j, {}).get(i) in (1, -1):
                pj, pi = j, i
                break
        if pj is None:
            best = None
            for j, col in cols.items():
                for i, v in col.items():
                    if best is None or abs(v) < best[2]:
                        best = (j, i, abs(v))
            if best is None:
                return pivots
            pj, pi = best[0], best[1]
        while True:
            v = cols[pj][pi]
            for j in sorted(rows[pi]):
                if j == pj:
                    continue
                q = cols[j][pi] // v
                if q:
                    col_axpy(j, pj, q)
            leftover = sorted(j for j in rows[pi] if j != pj)
            if leftover:
                # a remainder smaller than |v| survives; pivot on it instead
                pj = min(leftover, key=lambda j: abs(cols[j][pi]))
                continue
            col = cols[pj]
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
                            units.append((pj, i))
                    else:
                        del col[i]
                        rows[i].discard(pj)
            leftover_rows = [i for i in col if i != pi]
            if leftover_rows:
                pi = min(leftover_rows, key=lambda i: abs(col[i]))
                continue
            break
        pivots.append(cols[pj][pi])
        del cols[pj]
        del rows[pi]


# --- frozen expected counts ---------------------------------------------------
#
# Hand-checked count triangles, rows padded with zeros out to the widest
# nonzero column. The (13, 7) primitive entry is 6 and not 60: the row must
# alternate-sum to -1 (1 - 13 + 54 - 123 + 156 - 111 + 41 - 6 = -1), and the
# recurrence at the prime 13 forces F(13,7) = F(12,7) + F(12,6) = 0 + 6 = 6.
# The brute-force oracle over all 2^13 masks agrees; see the acceptance tests.

EXPECTED_PRIMITIVE = {
    1: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    2: (1, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    3: (1, 3, 1, 0, 0, 0, 0, 0, 0, 0),
    4: (1, 4, 2, 0, 0, 0, 0, 0, 0, 0),
    5: (1, 5, 5, 2, 0, 0, 0, 0, 0, 0),
    6: (1, 6, 7, 3, 0, 0, 0, 0, 0, 0),
    7: (1, 7, 12, 10, 3, 0, 0, 0, 0, 0),
    8: (1, 8, 16, 15, 5, 0, 0, 0, 0, 0),
    9: (1, 9, 22, 26, 13, 2, 0, 0, 0, 0),
    10: (1, 10, 28, 38, 22, 4, 0, 0, 0, 0),
    11: (1, 11, 37, 66, 60, 26, 4, 0, 0, 0),
    12: (1, 12, 43, 80, 76, 35, 6, 0, 0, 0),
    13: (1, 13, 54, 123, 156, 111, 41, 6, 0, 0),
    14: (1, 14, 64, 161, 227, 180, 74, 12, 0, 0),
    15: (1, 15, 75, 206, 323, 299, 161, 47, 6, 0),
    16: (1, 16, 86, 253, 425, 421, 242, 75, 10, 0),
    17: (1, 17, 101, 339, 678, 846, 663, 317, 85, 10),
}

EXPECTED_COPRIME = {
    1: (1, 1, 0, 0, 0, 0, 0, 0, 0),
    2: (1, 2, 1, 0, 0, 0, 0, 0, 0),
    3: (1, 3, 3, 1, 0, 0, 0, 0, 0),
    4: (1, 4, 5, 2, 0, 0, 0, 0, 0),
    5: (1, 5, 9, 7, 2, 0, 0, 0, 0),
    6: (1, 6, 11, 8, 2, 0, 0, 0, 0),
    7: (1, 7, 17, 19, 10, 2, 0, 0, 0),
    8: (1, 8, 21, 25, 14, 3, 0, 0, 0),
    9: (1, 9, 27, 37, 24, 6, 0, 0, 0),
    10: (1, 10, 31, 42, 26, 6, 0, 0, 0),
    11: (1, 11, 41, 73, 68, 32, 6, 0, 0),
    12: (1, 12, 45, 79, 72, 33, 6, 0, 0),
    13: (1, 13, 57, 124, 151, 105, 39, 6, 0),
    14: (1, 14, 63, 138, 167, 114, 41, 6, 0),
    15: (1, 15, 71, 159, 192, 128, 44, 6, 0),
    16: (1, 16, 79, 183, 228, 157, 56, 8, 0),
    17: (1, 17, 95, 262, 411, 385, 213, 64, 8),
}

EXPECTED_PRODUCT_FREE = {
    1: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    2: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    3: (1, 2, 1, 0, 0, 0, 0, 0, 0, 0),
    4: (1, 3, 2, 0, 0, 0, 0, 0, 0, 0),
    5: (1, 4, 5, 2, 0, 0, 0, 0, 0, 0),
    6: (1, 5, 9, 6, 1, 0, 0, 0, 0, 0),
    7: (1, 6, 14, 15, 7, 1, 0, 0, 0, 0),
    8: (1, 7, 20, 29, 22, 8, 1, 0, 0, 0),
    9: (1, 8, 26, 43, 38, 17, 3, 0, 0, 0),
    10: (1, 9, 34, 68, 76, 47, 15, 2, 0, 0),
    11: (1, 10, 43, 102, 144, 123, 62, 17, 2, 0),
    12: (1, 11, 53, 143, 234, 238, 149, 55, 11, 1),
}
