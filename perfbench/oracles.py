"""Expected values computed without decspace.

Every function here works on plain Python data: the element keys printed
in the coalgebra tables, parent arrays, edge sets.  Nothing is imported from
the library or from its test suite, so a fault in the library cannot leak
into the reference it is compared with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q from the product formula prod (q^(n-i+1) - 1) / (q^i - 1)."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= q ** (n - i + 1) - 1
        den *= q**i - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial [{n},{k}]_{q} is not an integer")
    return num // den


def multinomial(parts) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


# ---------------------------------------------------------------------------
# forests: canonical keys are tuples of trees, a tree is (layer, children)


def forest_parents(key) -> tuple:
    """A parent array (-1 marks a root) for the forest a canonical key encodes."""
    parents: list = []

    def add(tree, parent):
        node = len(parents)
        parents.append(parent)
        for child in tree[1]:
            add(child, node)

    for tree in key:
        add(tree, -1)
    return tuple(parents)


def down_closed_sets(parents) -> int:
    """Node sets that contain the parent of each of their nodes, by brute force."""
    m = len(parents)
    count = 0
    for mask in range(1 << m):
        if all(
            parents[e] == -1 or mask >> parents[e] & 1
            for e in range(m)
            if mask >> e & 1
        ):
            count += 1
    return count


def rooted_forest_classes(max_nodes: int) -> int:
    """Iso classes of rooted forests with at most max_nodes nodes, by brute force."""
    seen = set()
    for m in range(max_nodes + 1):
        for parents in product(range(-1, m), repeat=m):
            if not _acyclic(parents):
                continue
            seen.add(_forest_shape(parents))
    return len(seen)


def _acyclic(parents) -> bool:
    for e in range(len(parents)):
        cur, steps = e, 0
        while cur != -1:
            cur = parents[cur]
            steps += 1
            if steps > len(parents):
                return False
    return True


def _forest_shape(parents):
    children = {e: [] for e in range(len(parents))}
    for e, p in enumerate(parents):
        if p != -1:
            children[p].append(e)

    def shape(e):
        return tuple(sorted(shape(c) for c in children[e]))

    return tuple(sorted(shape(e) for e, p in enumerate(parents) if p == -1))


def forest_nodes(key) -> int:
    return len(forest_parents(key))


def down_closed_chains(parents) -> int:
    """Pairs S1 <= S2 of down-closed node sets: the two-cut layerings."""
    m = len(parents)
    closed = [
        mask
        for mask in range(1 << m)
        if all(
            parents[e] == -1 or mask >> parents[e] & 1
            for e in range(m)
            if mask >> e & 1
        )
    ]
    return sum(1 for s1 in closed for s2 in closed if s1 & ~s2 == 0)


# ---------------------------------------------------------------------------
# graphs: loops allowed, an edge is a pair (u, v) with u <= v


def loop_graph_classes(max_vertices: int) -> int:
    """Iso classes of graphs with loops on at most max_vertices vertices."""
    total = 0
    for m in range(max_vertices + 1):
        universe = [(u, v) for u in range(m) for v in range(u, m)]
        shapes = set()
        for r in range(len(universe) + 1):
            for edges in combinations(universe, r):
                shapes.add(
                    min(
                        tuple(sorted((min(pi[u], pi[v]), max(pi[u], pi[v])) for u, v in edges))
                        for pi in permutations(range(m))
                    )
                )
        total += len(shapes)
    return total


# ---------------------------------------------------------------------------
# coalgebra laws from the tables alone


def coassociativity_defects(comult: dict, delta3: dict, counit: dict) -> list[str]:
    """Check (D x id) D = D3 = (id x D) D and both counit laws on sparse tables.

    ``comult`` maps ((a, b), f) to a coefficient, ``delta3`` maps
    ((a, b, c), f) to one, ``counit`` maps f to one.
    """
    cols: dict = {}
    for (row, f), c in comult.items():
        cols.setdefault(f, {})[row] = c
    left: dict = {}
    right: dict = {}
    for f, col in cols.items():
        for (a, b), c1 in col.items():
            for (x, y), c2 in cols.get(a, {}).items():
                key = ((x, y, b), f)
                left[key] = left.get(key, 0) + c1 * c2
            for (u, v), c2 in cols.get(b, {}).items():
                key = ((a, u, v), f)
                right[key] = right.get(key, 0) + c1 * c2
    target = {k: v for k, v in delta3.items() if v}
    out = []
    if {k: v for k, v in left.items() if v} != target:
        out.append("(D x id) D differs from the three-fold table")
    if {k: v for k, v in right.items() if v} != target:
        out.append("(id x D) D differs from the three-fold table")
    for f, col in cols.items():
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), c in col.items():
            lhs[b] = lhs.get(b, 0) + counit.get(a, 0) * c
            rhs[a] = rhs.get(a, 0) + counit.get(b, 0) * c
        unit = {f: Fraction(1)}
        if {k: v for k, v in lhs.items() if v} != unit:
            out.append(f"(e x id) D is not the identity at {f!r}")
        if {k: v for k, v in rhs.items() if v} != unit:
            out.append(f"(id x e) D is not the identity at {f!r}")
    return out

