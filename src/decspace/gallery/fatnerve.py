"""Fat nerves of finite category presentations.

Level k is the groupoid of strings of k composable arrows, with commuting
ladders of isomorphisms as morphisms.  Meant for small categories (groups,
posets, handmade examples); the bigger families ship specialized strict
skeleta instead.  ``string_nerve`` builds every such nerve: the fat nerve
here, the injection strings and the strings of injective linear maps.
"""

from __future__ import annotations

from functools import cache

from ..errors import InvalidCategory
from ..groupoids import FiniteGroupoid, ladders
from ..simplicial import TruncSimpGrpd, simplicial_space


def string_nerve_rules(compose, identity):
    """Face and degeneracy rules of a nerve whose level-n objects are strings
    (nodes, arrows) of n composable arrows, with ladders (one arrow per node)
    as morphisms.

    d_0 and d_n drop an end; an inner d_i replaces arrows i-1 and i by their
    composite ``compose(g, f)`` (g after f); s_i inserts ``identity(node)``
    after node i.  Ladders drop or duplicate entry i.
    """

    def face(n, i):
        if i == 0:
            omap = lambda x: (x[0][1:], x[1][1:])
        elif i == n:
            omap = lambda x: (x[0][:-1], x[1][:-1])
        else:
            omap = lambda x: (
                x[0][:i] + x[0][i + 1 :],
                x[1][: i - 1] + (compose(x[1][i], x[1][i - 1]),) + x[1][i + 1 :],
            )
        return omap, lambda x, y, d: d[:i] + d[i + 1 :]

    def degen(n, i):
        return (
            lambda x: (x[0][: i + 1] + x[0][i:], x[1][:i] + (identity(x[0][i]),) + x[1][i:]),
            lambda x, y, d: d[: i + 1] + d[i:],
        )

    return face, degen


def string_nerve(
    name: str,
    level_name: str,
    starts,
    out,
    isos,
    compose,
    inverse,
    identity,
    N: int,
    grade_bound: int = 0,
    grade=None,
    canon_key=None,
    bucket_key=None,
) -> TruncSimpGrpd:
    """The nerve of strings of composable arrows, truncated at level N.

    Level k, named ``{level_name}_{k}``, holds the strings (nodes, arrows) of
    k arrows that start at a node of ``starts`` and take each next step from
    the (target, arrow) pairs ``out(node)``, in lexicographic order of those
    choices.  A morphism is a ladder of isomorphisms ``isos(x, y)`` (a
    sequence), one per node, whose squares commute under the arrow
    composition ``compose(g, f)``; ladders compose, invert and start at
    ``identity(node)`` entrywise.  Hom-sets are memoized per pair of strings
    by a ``functools.cache`` that lives and dies with the space.
    """

    def ladder_isos(s, t):
        (xs, fs), (ys, gs) = s, t
        return ladders(
            [isos(x, y) for x, y in zip(xs, ys)],
            lambda j, a: compose(gs[j - 1], a),
            lambda j, b: compose(b, fs[j - 1]),
        )

    hom = cache(ladder_isos)
    strings = [((x,), ()) for x in starts]
    levels = []
    for k in range(N + 1):
        if k:
            strings = [
                (xs + (y,), fs + (f,)) for xs, fs in strings for y, f in out(xs[-1])
            ]
        levels.append(
            FiniteGroupoid(
                f"{level_name}_{k}",
                strings,
                hom,
                lambda g, f: tuple(map(compose, g, f)),
                lambda d: tuple(map(inverse, d)),
                lambda s: tuple(map(identity, s[0])),
                grade=grade,
                canon_key=canon_key,
                bucket_key=bucket_key,
            )
        )
    return simplicial_space(name, levels, *string_nerve_rules(compose, identity), grade_bound)


class FinCat:
    """Finite 1-category presentation.

    ``hom[(x, y)]`` lists arrow ids, ``compose[(g, f)]`` gives g . f, and
    ``identities[x]`` the identity arrow.  ``validate`` checks totality,
    associativity and unit laws by enumeration.
    """

    def __init__(self, name, objects, hom, compose, identities):
        self.name = name
        self.objects = tuple(objects)
        self.hom = {k: tuple(v) for k, v in hom.items()}
        self.compose = dict(compose)
        self.identities = dict(identities)
        self._endpoints = {}
        for (x, y), arrows in self.hom.items():
            for f in arrows:
                if f in self._endpoints:
                    raise InvalidCategory(f"arrow id {f!r} used twice")
                self._endpoints[f] = (x, y)

    def source(self, f):
        return self._endpoints[f][0]

    def target(self, f):
        return self._endpoints[f][1]

    def arrows(self):
        return tuple(self._endpoints)

    def validate(self) -> None:
        for x in self.objects:
            e = self.identities.get(x)
            if e is None or self._endpoints.get(e) != (x, x):
                raise InvalidCategory(f"missing identity at {x!r}")
        for g in self.arrows():
            for f in self.arrows():
                if self.source(g) != self.target(f):
                    continue
                h = self.compose.get((g, f))
                if h is None or self._endpoints[h] != (self.source(f), self.target(g)):
                    raise InvalidCategory(f"composition undefined for {g!r} after {f!r}")
        for f in self.arrows():
            x, y = self._endpoints[f]
            if self.compose[(f, self.identities[x])] != f or self.compose[(self.identities[y], f)] != f:
                raise InvalidCategory(f"unit law fails at {f!r}")
        for h in self.arrows():
            for g in self.arrows():
                if self.source(h) != self.target(g):
                    continue
                for f in self.arrows():
                    if self.source(g) != self.target(f):
                        continue
                    if self.compose[(self.compose[(h, g)], f)] != self.compose[(h, self.compose[(g, f)])]:
                        raise InvalidCategory("associativity fails")

    def isos(self):
        """Arrow ids that are invertible, with their inverses."""
        out = {}
        for f in self.arrows():
            x, y = self._endpoints[f]
            for g in self.hom.get((y, x), ()):
                if (
                    self.compose[(g, f)] == self.identities[x]
                    and self.compose[(f, g)] == self.identities[y]
                ):
                    out[f] = g
                    break
        return out


def group_category(name, elements, mul, unit) -> FinCat:
    """One-object category with arrow set a finite group."""
    hom = {("*", "*"): tuple(elements)}
    compose = {(g, f): mul(g, f) for g in elements for f in elements}
    return FinCat(name, ("*",), hom, compose, {"*": unit})


def poset_category(spec) -> FinCat:
    leq = spec.closure()
    hom = {}
    for (a, b) in leq:
        hom.setdefault((a, b), []).append((a, b))
    compose = {}
    for (a, b) in leq:
        for (c, d) in leq:
            if b == c:
                compose[((c, d), (a, b))] = (a, d)
    identities = {a: (a, a) for a in spec.elements}
    return FinCat("poset-cat", spec.elements, hom, compose, identities)


def fat_nerve(cat: FinCat, N: int) -> TruncSimpGrpd:
    """Strings of composable arrows with componentwise-iso ladder morphisms."""
    cat.validate()
    isos = cat.isos()
    iso_by_pair: dict = {}
    for f in isos:
        iso_by_pair.setdefault((cat.source(f), cat.target(f)), []).append(f)

    # object iso classes of the category, for bucketing string objects
    parent = {x: x for x in cat.objects}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (x, y), fs in iso_by_pair.items():
        if fs and find(x) != find(y):
            parent[find(x)] = find(y)
    obj_class = {x: find(x) for x in cat.objects}

    return string_nerve(
        f"fatnerve({cat.name})",
        f"{cat.name}-nerve",
        cat.objects,
        lambda x: [(cat.target(f), f) for f in cat.arrows() if cat.source(f) == x],
        lambda x, y: iso_by_pair.get((x, y), ()),
        lambda g, f: cat.compose[(g, f)],
        isos.__getitem__,
        cat.identities.__getitem__,
        N,
        bucket_key=lambda s: tuple(obj_class[x] for x in s[0]),
    )
