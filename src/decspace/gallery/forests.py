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
from itertools import permutations, product as iproduct

from ..groupoids import FiniteGroupoid
from ..simplicial import TruncSimpGrpd, simplicial_space
from .sets import _perm_compose, _perm_inverse, layered_rules, union_amap


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


def _layerings(parents, k: int):
    m = len(parents)
    out = []
    for lay in iproduct(range(1, k + 1), repeat=m):
        if all(parents[e] == -1 or lay[e] >= lay[parents[e]] for e in range(m)):
            out.append(lay)
    return out


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


@lru_cache(maxsize=None)
def _forest_isos(x, y):
    m, px, lx = x
    my, py, ly = y
    if m != my or sorted(lx) != sorted(ly):
        return ()
    out = []
    for pi in permutations(range(m)):
        if all(ly[pi[e]] == lx[e] for e in range(m)) and all(
            (py[pi[e]] == -1) if px[e] == -1 else (py[pi[e]] == pi[px[e]])
            for e in range(m)
        ):
            out.append(pi)
    return tuple(out)


def _h_level(k: int, bound: int) -> FiniteGroupoid:
    objects = []
    for m in range(bound + 1):
        for parents in _labeled_forests(m):
            for lay in _layerings(parents, k):
                objects.append((m, parents, lay))
    return FiniteGroupoid(
        f"H_{k}",
        objects,
        _forest_isos,
        _perm_compose,
        _perm_inverse,
        lambda x: tuple(range(x[0])),
        grade=lambda x: x[0],
        canon_key=_forest_canon,
    )


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
    X = simplicial_space(
        "forests",
        (_h_level(k, max_nodes) for k in range(N + 1)),
        *layered_rules(_h_induced, mirrored=True),
        max_nodes,
        key_renderer=render_forest_key,
    )
    X.mu = (_h_union, union_amap)
    X.unit_key = ()
    return X


def _render_tree(t) -> str:
    return "(" + "".join(_render_tree(c) for c in t[1]) + ")"


def render_forest_key(key) -> str:
    """Nested-parenthesis rendering of a forest iso class; '0' is empty."""
    return "".join(_render_tree(t) for t in key) or "0"
