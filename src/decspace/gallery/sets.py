"""Layered structures (finite sets here, forests and graphs through
``layered_space``), strings of monotone injections, and the decalage
comparison between layered sets and injection strings.

A level-k object of a layered family is a structure on {0..m-1} with a layer
assignment into {1..k}; merging adjacent layers, deleting an outer layer (with
canonical order-compression of the surviving labels) and inserting an empty
layer give strictly simplicial structure maps.  For the binomial family the
structure is empty: iso classes are layer-size tuples and automorphisms are
layer-preserving permutations, so this is the monoidal nerve of finite sets
under disjoint union in a strict skeletal presentation.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product as iproduct

from ..groupoids import FiniteGroupoid, GroupoidFunctor, discrete_groupoid
from ..simplicial import SimpMap, TruncSimpGrpd, dec, simplicial_space
from .fatnerve import string_nerve, string_nerve_rules


def _perm_compose(g, f):
    return tuple(g[v] for v in f)


def _perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _ordinal(a):
    return tuple(range(a))


def _restrict_perm(pi, keep_src, keep_tgt):
    pos = {e: i for i, e in enumerate(keep_tgt)}
    return tuple(pos[pi[e]] for e in keep_src)


def _arrow_id(x, y, d):
    return d


def _keep_outside(drop):
    """Outer-face arrow rule: restrict the permutation to the labels outside
    the dropped layer."""

    def amap(x, y, pi):
        keep_x = [e for e, l in enumerate(x[-1]) if l != drop]
        keep_y = [e for e, l in enumerate(y[-1]) if l != drop]
        return _restrict_perm(pi, keep_x, keep_y)

    return amap


def layered_rules(induced, mirrored: bool = False):
    """Face and degeneracy rules of a family of objects (m, ..., layers) on
    the labels {0..m-1}, with label permutations as arrows.

    An inner face merges two adjacent layers and a degeneracy inserts an
    empty one; both keep every label.  The outer faces delete layer 1 (d_0)
    or layer k (d_k), close up the surviving labels order-preservingly, and
    keep ``induced(obj, keep)``, the middle of the object restricted to the
    surviving labels ``keep``.  ``mirrored`` counts layers from the other
    end, so d_0 deletes layer k.
    """

    def face(n, i):
        j = n - i if mirrored else i
        if 0 < j < n:
            return (
                lambda obj: obj[:-1] + (tuple(l if l <= j else l - 1 for l in obj[-1]),),
                _arrow_id,
            )
        drop, shift = (1, 1) if j == 0 else (n, 0)

        def omap(obj):
            lay = obj[-1]
            keep = [e for e, l in enumerate(lay) if l != drop]
            return (len(keep),) + induced(obj, keep) + (tuple(lay[e] - shift for e in keep),)

        return omap, _keep_outside(drop)

    def degen(n, i):
        j = n - i if mirrored else i
        return (
            lambda obj: obj[:-1] + (tuple(l if l <= j else l + 1 for l in obj[-1]),),
            _arrow_id,
        )

    return face, degen


def union_amap(xs, ys, ds):
    """Arrow rule of the disjoint-union monoidal map: the second permutation
    shifted past the first object's labels."""
    pi1, pi2 = ds
    m1 = xs[0][0]
    return pi1 + tuple(m1 + v for v in pi2)


# ---------------------------------------------------------------------------
# layered structures, and layered finite sets


def layered_space(
    name, level_name, middles, keeps, canon_key, induced, union, unit_key,
    grade_bound: int, N: int, admissible=None, mirrored: bool = False,
) -> TruncSimpGrpd:
    """The layered family whose level k, named ``{level_name}_{k}``, holds
    the objects ``(m, *middle, layers)``: m up to ``grade_bound``, a middle
    tuple from ``middles(m)`` and a layering into {1..k} that
    ``admissible(obj)`` accepts (any, when None), in lexicographic order,
    keyed by ``canon_key(k)``.  Arrows x -> y are the layer-preserving
    permutations pi with ``keeps(x, y, pi)``, in lexicographic order,
    memoized per pair of objects by a ``functools.cache`` made per space.
    Faces and degeneracies are ``layered_rules(induced, mirrored)``; the
    monoidal rule is ``union`` with ``union_amap``, unit ``unit_key``."""

    def search(x, y):
        m, lx, ly = x[0], x[-1], y[-1]
        if y[0] != m:
            return ()
        perms = [()]
        for lay in lx:
            perms = [p + (v,) for p in perms for v in range(m) if ly[v] == lay and v not in p]
        return tuple(pi for pi in perms if keeps(x, y, pi))

    hom = cache(search)
    levels = []
    for k in range(N + 1):
        objects = [
            (m, *middle, lay)
            for m in range(grade_bound + 1)
            for middle in middles(m)
            for lay in iproduct(range(1, k + 1), repeat=m)
        ]
        levels.append(
            FiniteGroupoid(
                f"{level_name}_{k}",
                objects if admissible is None else filter(admissible, objects),
                hom,
                _perm_compose,
                _perm_inverse,
                lambda x: _ordinal(x[0]),
                grade=lambda x: x[0],
                canon_key=canon_key(k),
            )
        )
    X = simplicial_space(name, levels, *layered_rules(induced, mirrored), grade_bound)
    X.mu = (union, union_amap)
    X.unit_key = unit_key
    return X


def _b_union(pair):
    (m1, l1), (m2, l2) = pair
    return (m1 + m2, l1 + l2)


def binomial_B(max_size: int, N: int) -> TruncSimpGrpd:
    """The binomial family: finite sets graded by size, layered per level.

    Ships the disjoint-union monoidal rule (shift-relabelled union, which is
    strictly natural) and canonical keys equal to layer-size tuples.
    """
    return layered_space(
        "binomial", "B", lambda m: [()], lambda x, y, pi: True,
        lambda k: lambda x: tuple(x[1].count(j) for j in range(1, k + 1)),
        lambda obj, keep: (), _b_union, (0,), max_size, N,
    )


# ---------------------------------------------------------------------------
# strings of monotone injections


def _injection_strings(max_size: int, N: int) -> TruncSimpGrpd:
    """Strings of monotone injections between the ordinals 0..max_size, an
    injection a -> b stored as its image tuple, with ladders of bijections
    (all commuting ones) as morphisms."""
    perms = [tuple(permutations(range(a))) for a in range(max_size + 1)]
    return string_nerve(
        "injections",
        "I",
        range(max_size + 1),
        lambda a: [(b, img) for b in range(a, max_size + 1) for img in combinations(range(b), a)],
        lambda a, b: perms[a] if a == b else (),
        _perm_compose,
        _perm_inverse,
        _ordinal,
        N,
        max_size,
        grade=lambda x: x[0][-1],
        canon_key=lambda x: x[0],
    )


def _i_union(pair):
    (sa, fa), (sb, fb) = pair
    sizes = tuple(a + b for a, b in zip(sa, sb))
    maps = tuple(
        tuple(f[e] for e in range(sa[j])) + tuple(sa[j + 1] + g[e] for e in range(sb[j]))
        for j, (f, g) in enumerate(zip(fa, fb))
    )
    return (sizes, maps)


def _i_union_amap(xs, ys, ds):
    (sa, _), _ = xs
    p, q = ds
    return tuple(
        phi + tuple(sa[j] + v for v in psi)
        for j, (phi, psi) in enumerate(zip(p, q))
    )


def injections_I(max_size: int, N: int):
    """Strings of monotone injections between ordinals, with all commuting
    ladders of bijections as morphisms (an equivalent strict skeleton of the
    fat nerve of finite sets and injections).

    Returns (space, dec_equivalence) where the second component is the strict
    levelwise equivalence from the bottom decalage of the binomial family,
    sending a layered set to its flag of layer-prefix subsets.
    """
    I = _injection_strings(max_size, N)
    I.mu = (_i_union, _i_union_amap)
    I.unit_key = (0, 0)
    B_plus = binomial_B(max_size, N + 1)
    DecB, _ = dec(B_plus, "bottom")

    def omap_level(j):
        def omap(obj):
            m, layers = obj
            subsets = [
                [e for e in range(m) if layers[e] <= t + 1] for t in range(j + 1)
            ]
            sizes = tuple(len(s) for s in subsets)
            maps = []
            for t in range(1, j + 1):
                pos = {e: p for p, e in enumerate(subsets[t])}
                maps.append(tuple(pos[e] for e in subsets[t - 1]))
            return (sizes, tuple(maps))

        return omap

    def amap_level(j):
        def amap(x, y, pi):
            mx, lx = x
            my, ly = y
            phis = []
            for t in range(j + 1):
                sx = [e for e in range(mx) if lx[e] <= t + 1]
                sy = [e for e in range(my) if ly[e] <= t + 1]
                pos = {e: p for p, e in enumerate(sy)}
                phis.append(tuple(pos[pi[e]] for e in sx))
            return tuple(phis)

        return amap

    comps = tuple(
        GroupoidFunctor(DecB.level(j), I.level(j), omap_level(j), amap_level(j), name="flag")
        for j in range(N + 1)
    )
    equiv = SimpMap("flag[DecBot(binomial)->injections]", DecB, I, comps)
    return I, equiv


def oi_space(max_size: int, N: int) -> TruncSimpGrpd:
    """Strings of monotone injections with only identity morphisms (the fat
    nerve of ordered sets and monotone injections is discrete)."""
    I = _injection_strings(max_size, N)
    return simplicial_space(
        "ordered-injections",
        (discrete_groupoid(f"OI_{k}", L.objects, grade=L.grade) for k, L in enumerate(I.levels)),
        *string_nerve_rules(_perm_compose, _ordinal),
        max_size,
    )


def oi_to_i(max_size: int, N: int) -> SimpMap:
    """The forgetful map from ordered injection strings to injection strings."""
    OI = oi_space(max_size, N)
    I, _ = injections_I(max_size, N)

    def amap(x, y, d):
        return tuple(map(_ordinal, x[0]))

    comps = tuple(
        GroupoidFunctor(OI.level(k), I.level(k), lambda x: x, amap, name="forget")
        for k in range(N + 1)
    )
    return SimpMap("forget[OI->I]", OI, I, comps)
