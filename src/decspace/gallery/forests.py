"""Rooted forests with admissible layerings.

A level-k object is a labelled rooted forest on {0..m-1} together with a
layer assignment into {1..k} that weakly increases from root to leaf.  The
simplicial structure counts cuts from the leaf side: d_0 deletes the leafmost
layer, d_k deletes the root layer (whose complement becomes a forest of
crowns), and the inner faces merge adjacent layers.  With this orientation
the pair of outer faces of a 2-layered forest is (crown part, root part),
the classical cut coproduct.

Deleted labels are closed up by the unique order-preserving relabelling onto
an initial segment, which is what makes the face maps strictly simplicial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from ..simplicial import TruncSimpGrpd
from .sets import layered_space


@lru_cache(maxsize=None)
def _labeled_forests(m: int):
    """All acyclic parent tuples on {0..m-1} (-1 marks a root)."""
    out = []
    for parents in iproduct(range(-1, m), repeat=m):
        if any(parents[e] == e for e in range(m)):
            continue
        ok = True
        for e in range(m):
            seen = set()
            cur = e
            while cur != -1:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parents[cur]
            if not ok:
                break
        if ok:
            out.append(parents)
    return tuple(out)


def _admissible(obj):
    """A layer never decreases from root to leaf."""
    _, parents, lay = obj
    return all(p == -1 or lay[e] >= lay[p] for e, p in enumerate(parents))


@lru_cache(maxsize=None)
def _forest_canon(obj):
    m, parents, lay = obj
    children: dict = {e: [] for e in range(m)}
    roots = []
    for e in range(m):
        if parents[e] == -1:
            roots.append(e)
        else:
            children[parents[e]].append(e)

    def enc(e):
        return (lay[e], tuple(sorted(enc(c) for c in children[e])))

    return tuple(sorted(enc(r) for r in roots))


def _keeps_parents(x, y, pi):
    px, py = x[1], y[1]
    return all(py[pi[e]] == (-1 if p == -1 else pi[p]) for e, p in enumerate(px))


def _h_induced(obj, keep):
    """The parent tuple on the surviving labels; orphaned nodes become roots."""
    parents = obj[1]
    pos = {e: p for p, e in enumerate(keep)}
    return (
        tuple(
            -1 if parents[e] == -1 or parents[e] not in pos else pos[parents[e]]
            for e in keep
        ),
    )


def _h_union(pair):
    (m1, p1, l1), (m2, p2, l2) = pair
    parents = p1 + tuple(-1 if p == -1 else m1 + p for p in p2)
    return (m1 + m2, parents, l1 + l2)


def forests_H(max_nodes: int, N: int) -> TruncSimpGrpd:
    """Forests with admissible cuts, graded by node count; ships the
    disjoint-union monoidal rule."""
    return layered_space(
        "forests", "H", lambda m: [(p,) for p in _labeled_forests(m)], _keeps_parents,
        lambda k: _forest_canon, _h_induced, _h_union, (), max_nodes, N,
        admissible=_admissible, mirrored=True,
    )


def _render_tree(t) -> str:
    return "(" + "".join(_render_tree(c) for c in t[1]) + ")"


def render_forest_key(key) -> str:
    """Nested-parenthesis rendering of a forest iso class; '0' is empty."""
    return "".join(_render_tree(t) for t in key) or "0"
