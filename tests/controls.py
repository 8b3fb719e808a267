"""Sub-space and re-graded negative controls, and small groupoid
constructions that only tests use.

``without_class(X, n, key)`` deletes one iso class of n-simplices together
with every simplex that has a member of it as an iterated face.  For a class
of non-degenerate simplices the rest is closed under faces and degeneracies,
so every square of the result still commutes, and a checker can only reject
it inside the fibre comparison.

``regraded(X, grade)`` keeps every object, arrow and structure rule of X and
changes only the grading, so a validator can only reject it on a grade rule.
"""

from fractions import Fraction

from decspace.coalgebra import SparseMat
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
    return _with_levels(X, f"{X.name}-{key}@{n}", levels, X.grade_bound)


def regraded(X, grade, grade_bound=None):
    """X with the grade of an object x of X_n set to ``grade(n, x, old)``,
    where ``old`` is its grade in X; the grade bound is X's unless given."""
    levels = [
        FiniteGroupoid(
            L.name,
            L.objects,
            L.hom,
            L.compose,
            L.inverse,
            L.identity,
            grade=lambda x, n=n, L=L: grade(n, x, L.grade(x)),
            canon_key=L.canon_key,
            bucket_key=L.bucket_key,
        )
        for n, L in enumerate(X.levels)
    ]
    bound = X.grade_bound if grade_bound is None else grade_bound
    return _with_levels(X, f"{X.name}-regraded", levels, bound)


def _with_levels(X, name, levels, grade_bound):
    """The space on ``levels`` whose faces and degeneracies keep X's rules."""
    return simplicial_space(
        name,
        levels,
        lambda m, i: (X.face(m, i).obj, X.face(m, i).arr),
        lambda m, i: (X.degeneracy(m, i).obj, X.degeneracy(m, i).arr),
        grade_bound,
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


def class_bijection_inverse(M):
    """Inverse of a matrix whose columns are unit vectors forming a bijection
    of keys (as produced by a levelwise equivalence)."""
    inv = SparseMat()
    seen = {}
    for (r, c), v in M.entries.items():
        if v != 1 or r in seen:
            raise ValueError("matrix is not a class bijection")
        seen[r] = c
        inv.add(c, r, Fraction(1))
    return inv
