"""Graphs with an ordered partition of the vertex set into possibly empty
parts.

Objects keep their full edge set (edges may run between parts); the outer
faces delete an outer part and pass to the induced subgraph on the remaining
vertices, the inner faces merge adjacent parts without touching edges.  The
vertex set is always {0..m-1}; deletions compress labels order-preservingly,
which keeps the face maps strictly simplicial.  Canonical forms are computed
by exhaustive minimization over relabellings (fine at <= 4 vertices).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from ..simplicial import TruncSimpGrpd
from .sets import _perm_inverse, layered_space


def _edge_universe(m: int):
    return tuple((u, v) for u in range(m) for v in range(u, m))


@lru_cache(maxsize=None)
def _graphs(m: int):
    universe = _edge_universe(m)
    out = []
    for r in range(len(universe) + 1):
        for edges in combinations(universe, r):
            out.append(tuple(edges))
    return tuple(out)


def _apply_perm_edges(edges, pi):
    return tuple(
        sorted(
            (min(pi[u], pi[v]), max(pi[u], pi[v]))
            for (u, v) in edges
        )
    )


@lru_cache(maxsize=None)
def _graph_canon(obj):
    m, edges, lay = obj
    best = None
    for pi in permutations(range(m)):
        inv = _perm_inverse(pi)
        cand = (
            m,
            _apply_perm_edges(edges, pi),
            tuple(lay[inv[j]] for j in range(m)),
        )
        if best is None or cand < best:
            best = cand
    return best if best is not None else (0, (), ())


def _keeps_edges(x, y, pi):
    return _apply_perm_edges(x[1], pi) == y[1]


def _g_induced(obj, keep):
    """The induced subgraph on the surviving labels."""
    pos = {e: p for p, e in enumerate(keep)}
    return (tuple(sorted((pos[u], pos[v]) for (u, v) in obj[1] if u in pos and v in pos)),)


def _g_union(pair):
    (m1, e1, l1), (m2, e2, l2) = pair
    edges = e1 + tuple((m1 + u, m1 + v) for (u, v) in e2)
    return (m1 + m2, tuple(sorted(edges)), l1 + l2)


def graphs_G(max_vertices: int, N: int) -> TruncSimpGrpd:
    """Graphs graded by vertex count, with ordered vertex partitions per
    level and the disjoint-union monoidal rule."""
    return layered_space(
        "graphs", "G", lambda m: [(edges,) for edges in _graphs(m)], _keeps_edges,
        lambda k: _graph_canon, _g_induced, _g_union, (0, (), ()), max_vertices, N,
    )


def render_graph_key(key) -> str:
    """Rendering ``m:uv,uv`` of a graph iso class, e.g. K2 is ``2:01``."""
    m, edges, _ = key
    return f"{m}:" + ",".join(f"{u}{v}" for (u, v) in edges)
