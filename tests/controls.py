"""Sub-space negative controls, and small groupoid constructions that only
tests use.

``without_class(X, n, key)`` deletes one iso class of n-simplices together
with every simplex that has a member of it as an iterated face.  For a class
of non-degenerate simplices the rest is closed under faces and degeneracies,
so every square of the result still commutes, and a checker can only reject
it inside the fibre comparison.
"""

from decspace.groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    identity_functor,
    iso_classes,
    product_list,
    terminal_groupoid,
)
from decspace.simplicial import SimpMap, simplicial_space


def without_class(X, n, key):
    """X with the iso class ``key`` of X_n deleted, and every simplex above
    it: a simplex of X_m (m > n) goes when one of its faces has gone.  The
    levels are full subgroupoids; faces and degeneracies keep X's rules."""
    dropped = next(c for c in iso_classes(X.level(n)) if c.key == key)
    gone = set(dropped.members)
    levels = list(X.levels)
    for m in range(n, X.N + 1):
        L = X.level(m)
        if m > n:
            faces = [X.face(m, i) for i in range(m + 1)]
            gone = {x for x in L.objects if any(d.obj(x) in gone for d in faces)}
        levels[m] = FiniteGroupoid(
            f"{L.name}-{key}",
            [x for x in L.objects if x not in gone],
            L.hom,
            L.compose,
            L.inverse,
            L.identity,
            grade=L.grade,
            canon_key=L.canon_key,
            bucket_key=L.bucket_key,
        )
    return simplicial_space(
        f"{X.name}-{key}@{n}",
        levels,
        lambda m, i: (X.face(m, i).obj, X.face(m, i).arr),
        lambda m, i: (X.degeneracy(m, i).obj, X.degeneracy(m, i).arr),
        X.grade_bound,
    )


def name_functor(S, s):
    """The functor 1 -> S picking out the object s."""
    return GroupoidFunctor(terminal_groupoid(), S, lambda x: s, lambda x, y, d: S.identity(s), name=f"<{s!r}>")


def tuple_functor(functors, source, target, name=""):
    """(F_1, ..., F_k): source -> product target, componentwise."""
    return GroupoidFunctor(
        source,
        target,
        lambda x: tuple(F.obj(x) for F in functors),
        lambda x, y, d: tuple(F.arr(x, y, d) for F in functors),
        name=name,
    )


def product(G, H, grade_bound=None):
    """G x H, the two-factor ``product_list``."""
    return product_list([G, H], grade_bound=grade_bound)


def identity_simp_map(X):
    """The identity map X -> X."""
    return SimpMap("id", X, X, tuple(identity_functor(L) for L in X.levels))


def indiscrete_groupoid(name, objects):
    """Every hom-set a singleton."""
    return FiniteGroupoid(
        name,
        objects,
        lambda x, y: ((x, y),),
        lambda g, f: (f[0], g[1]),
        lambda d: (d[1], d[0]),
        lambda x: (x, x),
        canon_key=lambda x: 0,
    )
