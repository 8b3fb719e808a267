"""Finite groupoids, functors, equivalence testing, homotopy pullbacks and
fibres, and exact homotopy cardinality.

A groupoid is stored as a set of hashable object payloads together with a
hom-set enumerator ``hom(x, y) -> tuple of arrow data``; arrow data composes
through groupoid-supplied callables.  Hom-sets are enumerated lazily so that
large groupoids (thousands of objects) stay workable: most algorithms only
ever touch hom-sets inside an iso class.

Pullback squares are checked fibrewise: a strictly commuting square is a
homotopy pullback iff for each object of the base corner the induced functor
between homotopy fibres is an equivalence.  This is equivalent to the
comparison functor into the constructed pullback being an equivalence (the
literal route is also implemented, and the two are cross-checked in tests),
but it never materializes the full pullback groupoid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .errors import NonCommutingSquare, ObjectNotFound, TargetMismatch
from .report import CheckReport


def _ordkey(x):
    """Deterministic total order on heterogeneous payloads."""
    return repr(x)


class FiniteGroupoid:
    """Finite groupoid with lazily enumerated hom-sets.

    Parameters
    ----------
    objects : iterable of hashable payloads
    hom : (x, y) -> tuple of arrow data (all isomorphisms x -> y); arrow
        data must be hashable, since fibres index hom-sets by transported
        arrows and ladder searches index choices by their keys
    compose : (g, f) -> g . f on arrow data
    inverse : arrow data -> arrow data
    identity : object -> arrow data
    grade : object -> int, size grading (defaults to 0)
    canon_key : object -> hashable, or None.  When present, equal keys must
        hold exactly for isomorphic objects; iso classes are then read off
        without any arrow search.
    bucket_key : object -> hashable iso-invariant, used to cut down pair
        searches when no canonical form is available.
    """

    def __init__(
        self,
        name: str,
        objects: Iterable,
        hom: Callable,
        compose: Callable,
        inverse: Callable,
        identity: Callable,
        grade: Callable | None = None,
        canon_key: Callable | None = None,
        bucket_key: Callable | None = None,
    ):
        self.name = name
        self.objects = tuple(objects)
        self._object_set = {x: x for x in self.objects}
        self.hom = hom
        self.compose = compose
        self.inverse = inverse
        self.identity = identity
        self.grade = grade if grade is not None else (lambda x: 0)
        self.canon_key = canon_key
        self._bucket_key = bucket_key
        self._classes = None

    def __repr__(self):
        return f"FiniteGroupoid({self.name!r}, {len(self.objects)} objects)"

    def has_object(self, x) -> bool:
        return x in self._object_set

    def some_iso(self, x, y):
        h = self.hom(x, y)
        return h[0] if h else None

    def bucket_key(self, x):
        if self.canon_key is not None:
            return self.canon_key(x)
        if self._bucket_key is not None:
            return self._bucket_key(x)
        return self.grade(x)

    def arrows(self):
        """Iterate all arrows as (src, tgt, data) triples."""
        for x in self.objects:
            for y in self.objects:
                for d in self.hom(x, y):
                    yield (x, y, d)


class GroupoidFunctor:
    """Functor between finite groupoids, given by object and arrow maps.

    ``amap(x, y, data)`` receives the arrow's endpoints alongside its data and
    returns the target arrow data.
    """

    def __init__(self, source, target, omap, amap, name: str = ""):
        self.source = source
        self.target = target
        self._omap = omap
        self._amap = amap
        self.name = name
        self._preimages = None

    def obj(self, x):
        return self._omap(x)

    def arr(self, x, y, data):
        return self._amap(x, y, data)

    def preimages(self, s):
        """The source objects whose image has the target bucket key of ``s``,
        in object order.  Bucket keys are iso-invariant, so the homotopy
        fibre over ``s`` only has objects from here.  The index of every
        bucket is built on first use and lives as long as the functor."""
        if self._preimages is None:
            key = self.target.bucket_key
            self._preimages = {}
            for x in self.source.objects:
                self._preimages.setdefault(key(self.obj(x)), []).append(x)
        return self._preimages.get(self.target.bucket_key(s), ())

    def __repr__(self):
        return f"GroupoidFunctor({self.name or '?'}: {self.source.name} -> {self.target.name})"


def identity_functor(G: FiniteGroupoid, name: str = "id") -> GroupoidFunctor:
    return GroupoidFunctor(G, G, lambda x: x, lambda x, y, d: d, name=name)


def compose_functors(G2: GroupoidFunctor, G1: GroupoidFunctor, name: str = "") -> GroupoidFunctor:
    """G2 after G1."""
    return GroupoidFunctor(
        G1.source,
        G2.target,
        lambda x: G2.obj(G1.obj(x)),
        lambda x, y, d: G2.arr(G1.obj(x), G1.obj(y), G1.arr(x, y, d)),
        name=name or f"{G2.name}.{G1.name}",
    )


@dataclass(frozen=True)
class IsoClass:
    rep: object
    members: tuple
    aut_order: int
    key: object


class IsoClassTable:
    """Iso classes of a groupoid: representative, members, |Aut| per class."""

    def __init__(self, classes: list[IsoClass]):
        self.classes = tuple(classes)
        self._index = {}
        for i, c in enumerate(self.classes):
            for m in c.members:
                self._index[m] = i

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def index_of(self, obj) -> int:
        return self._index[obj]

    def cardinality(self) -> Fraction:
        return sum((Fraction(1, c.aut_order) for c in self.classes), Fraction(0))


def iso_classes(G: FiniteGroupoid) -> IsoClassTable:
    """Iso classes of G, via canonical keys when available, else arrow search.

    Representatives are the smallest member of each class; classes are sorted
    by canonical key (or by representative) so the table is deterministic.
    """
    if G._classes is not None:
        return G._classes
    # a canonical key is the bucket key and decides membership on its own;
    # otherwise isomorphism is an equivalence relation, so one arrow search
    # against the first member of each class already found in the bucket
    # decides it: at most (bucket size) x (classes in bucket) searches
    canon = G.canon_key is not None
    buckets: dict = {}
    for x in G.objects:
        found = buckets.setdefault(G.bucket_key(x), [])
        for members in found:
            if canon or G.some_iso(members[0], x) is not None:
                members.append(x)
                break
        else:
            found.append([x])
    classes = []
    for key, found in buckets.items():
        for members in found:
            members.sort(key=_ordkey)
            rep = members[0]
            classes.append(IsoClass(rep, tuple(members), len(G.hom(rep, rep)), key if canon else rep))
    classes.sort(key=lambda c: _ordkey(c.key))
    table = IsoClassTable(classes)
    G._classes = table
    return table


def groupoid_cardinality(G: FiniteGroupoid) -> Fraction:
    """Homotopy cardinality: sum over iso classes of 1/|Aut|."""
    return iso_classes(G).cardinality()


def validate_groupoid(G: FiniteGroupoid) -> CheckReport:
    """Check the groupoid axioms by enumeration.  Never raises."""
    report = CheckReport("validate_groupoid", G.name, 0, 0)
    try:
        arrows = list(G.arrows())
    except Exception as exc:  # malformed ids are reported, not raised
        report.record("enumerate arrows", False, f"enumeration failed: {exc}")
        return report
    ok = True
    for x in G.objects:
        try:
            e = G.identity(x)
        except Exception as exc:
            report.record("identities", False, f"no identity at {x!r}: {exc}")
            ok = False
            break
        if e not in G.hom(x, x):
            report.record("identities", False, f"identity of {x!r} not among arrows")
            ok = False
            break
    else:
        report.record("identities", True)
    if not ok:
        return report

    for (x, y, d) in arrows:
        if G.compose(d, G.identity(x)) != d or G.compose(G.identity(y), d) != d:
            report.record("unit laws", False, f"identity not neutral on {x!r}->{y!r}")
            break
    else:
        report.record("unit laws", True)

    bad = None
    for (x, y, d) in arrows:
        try:
            inv = G.inverse(d)
        except Exception as exc:
            bad = f"no inverse for arrow {x!r}->{y!r}: {exc}"
            break
        if inv not in G.hom(y, x):
            bad = f"inverse of {x!r}->{y!r} is not an arrow {y!r}->{x!r}"
            break
        if G.compose(inv, d) != G.identity(x) or G.compose(d, inv) != G.identity(y):
            bad = f"arrow {x!r}->{y!r} has no two-sided inverse"
            break
    report.record("groupoid condition", bad is None, bad)
    if bad is not None:
        return report

    bad = None
    for (x, y, f) in arrows:
        for z in G.objects:
            for g in G.hom(y, z):
                gf = G.compose(g, f)
                if gf not in G.hom(x, z):
                    bad = f"composite of {x!r}->{y!r}->{z!r} escapes hom-set"
                    break
                for w in G.objects:
                    for h in G.hom(z, w):
                        if G.compose(h, gf) != G.compose(G.compose(h, g), f):
                            bad = f"associativity fails at {x!r}->{y!r}->{z!r}->{w!r}"
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    report.record("associativity", bad is None, bad)

    for x in G.objects:
        try:
            G.grade(x)
        except Exception:
            report.record("grading", False, f"grade undefined at {x!r}")
            return report
    report.record("grading", True)
    return report


def generating_arrows(G: FiniteGroupoid):
    """A generating family of arrows: per class, Aut(rep) and one arrow from
    the representative to each member.  Two functors that agree on objects and
    on this family agree on every arrow."""
    out = []
    for cls in iso_classes(G):
        rep = cls.rep
        for d in G.hom(rep, rep):
            out.append((rep, rep, d))
        for m in cls.members:
            if m != rep:
                out.append((rep, m, G.some_iso(rep, m)))
    return out


def functors_equal(F: GroupoidFunctor, G: GroupoidFunctor) -> str | None:
    """None if the two functors agree, else a description of a disagreement.

    Arrow maps are compared on a generating family only; agreement there
    implies agreement everywhere since both sides are functors.
    """
    A = F.source
    for x in A.objects:
        if F.obj(x) != G.obj(x):
            return f"object maps differ at {x!r}"
    for (x, y, d) in generating_arrows(A):
        if F.arr(x, y, d) != G.arr(x, y, d):
            return f"arrow maps differ on {x!r}->{y!r}"
    return None


def functor_defect(F: GroupoidFunctor) -> str | None:
    """None if F is a functor on a generating family, else a description.

    Every generating arrow must map into the hom-set between the images of
    its ends, the identity of each class representative r to the identity of
    F r, and every composite of two automorphisms of r to the composite of
    their images.
    """
    A, B = F.source, F.target
    for (x, y, d) in generating_arrows(A):
        if F.arr(x, y, d) not in B.hom(F.obj(x), F.obj(y)):
            return f"image of an arrow {x!r}->{y!r} is not in the target hom-set"
    for cls in iso_classes(A):
        r = cls.rep
        if F.arr(r, r, A.identity(r)) != B.identity(F.obj(r)):
            return f"identity of {r!r} is not sent to an identity"
        aut = A.hom(r, r)
        images = [F.arr(r, r, a) for a in aut]
        for a, fa in zip(aut, images):
            for b, fb in zip(aut, images):
                if F.arr(r, r, A.compose(a, b)) != B.compose(fa, fb):
                    return f"composition in Aut({r!r}) is not preserved"
    return None


def is_equivalence(F: GroupoidFunctor) -> tuple[bool, str | None]:
    """Essential surjectivity plus hom-set bijections.

    In a groupoid every nonempty hom-set is a torsor over the source
    automorphism group and F is equivariant on it, so hom-set bijectivity
    for all pairs is equivalent to: no two source classes collapse in the
    target, and on every class representative r the group map
    Aut(r) -> Aut(F r) is a bijection, i.e. |Aut| agrees and the map is
    injective.  Returns (verdict, witness); the witness names a missed
    class, a pair with a hom-set size mismatch, or a non-injective
    automorphism map.
    """
    A, B = F.source, F.target
    tableA = iso_classes(A)
    tableB = iso_classes(B)
    assigned: dict = {}
    for ia, cls in enumerate(tableA):
        img = F.obj(cls.rep)
        try:
            ib = tableB.index_of(img)
        except KeyError:
            return False, f"image {img!r} is not an object of {B.name}"
        bcls = tableB.classes[ib]
        if cls.aut_order != bcls.aut_order:
            return (
                False,
                f"hom-set sizes differ: |Aut({cls.rep!r})|={cls.aut_order} vs "
                f"|Aut({img!r})|={bcls.aut_order}",
            )
        if ib in assigned:
            other = tableA.classes[assigned[ib]].rep
            return (
                False,
                f"hom-set sizes differ: {other!r} and {cls.rep!r} are not "
                f"isomorphic but their images are",
            )
        assigned[ib] = ia
    for ib, cls in enumerate(tableB):
        if ib not in assigned:
            return False, f"object class of {cls.rep!r} not reached"
    for cls in tableA:
        r = cls.rep
        if len({F.arr(r, r, d) for d in A.hom(r, r)}) != cls.aut_order:
            return False, f"Aut({r!r}) -> Aut({F.obj(r)!r}) is not injective"
    return True, None


# ---------------------------------------------------------------------------
# constructions


def terminal_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(
        "1",
        ("*",),
        lambda x, y: ((),),
        lambda g, f: (),
        lambda d: (),
        lambda x: (),
        canon_key=lambda x: "*",
    )


def ladders(choices, before, after) -> tuple:
    """Every tuple (g_0, ..., g_k) with g_j from the sequence ``choices[j]``
    and, for j > 0, ``before(j, g_{j-1}) == after(j, g_j)``, in
    lexicographic order of the choices: the hom-sets of strings whose
    morphisms are commuting ladders, each link one square read as an
    equation between its two sides.

    Each link indexes ``choices[j]`` by ``after`` once, and each surviving
    prefix reads its continuations with one lookup, so the search costs
    the choices plus its output rather than prefixes times choices; it
    stops as soon as no prefix survives.  Keys must be hashable."""
    if any(not c for c in choices):
        return ()
    out = [(g,) for g in choices[0]] if choices else [()]
    for j in range(1, len(choices)):
        if not out:
            break
        index: dict = {}
        for g in choices[j]:
            index.setdefault(after(j, g), []).append(g)
        out = [p + (g,) for p in out for g in index.get(before(j, p[-1]), ())]
    return tuple(out)


def product_list(factors: list[FiniteGroupoid], grade_bound: int | None = None, name: str = "") -> FiniteGroupoid:
    """Product groupoid with tuple objects and tuple arrows.

    The grade of a tuple is the sum of component grades; when ``grade_bound``
    is given only tuples within the bound are enumerated.
    """
    factors = list(factors)
    graded = [[(x, f.grade(x)) for x in f.objects] for f in factors]
    # per factor, the (object, grade) pairs that fit in the room left by a
    # prefix, in object order; each grade is read once, not once per prefix
    fitting = [{} for _ in factors]

    def fits(idx, room):
        if room is None:
            return graded[idx]
        try:
            return fitting[idx][room]
        except KeyError:
            kept = [xg for xg in graded[idx] if xg[1] <= room]
            fitting[idx][room] = kept
            return kept

    def gen(prefix, glev, idx):
        if idx == len(factors):
            yield prefix
            return
        room = None if grade_bound is None else grade_bound - glev
        for x, g in fits(idx, room):
            yield from gen(prefix + (x,), glev + g, idx + 1)

    objects = list(gen((), 0, 0))

    def hom(xs, ys):
        return tuple(itertools.product(*(f.hom(x, y) for f, x, y in zip(factors, xs, ys))))

    def compose(g, f):
        return tuple(fac.compose(a, b) for fac, a, b in zip(factors, g, f))

    def inverse(d):
        return tuple(fac.inverse(a) for fac, a in zip(factors, d))

    def identity(xs):
        return tuple(fac.identity(x) for fac, x in zip(factors, xs))

    def grade(xs):
        return sum(fac.grade(x) for fac, x in zip(factors, xs))

    canon = None
    if all(f.canon_key is not None for f in factors):
        canon = lambda xs: tuple(f.canon_key(x) for f, x in zip(factors, xs))
    return FiniteGroupoid(
        name or "x".join(f.name for f in factors),
        objects,
        hom,
        compose,
        inverse,
        identity,
        grade=grade,
        canon_key=canon,
        bucket_key=lambda xs: tuple(f.bucket_key(x) for f, x in zip(factors, xs)),
    )


def homotopy_pullback(p: GroupoidFunctor, q: GroupoidFunctor):
    """Homotopy pullback of the cospan p: X -> S <- Y :q.

    Objects are triples (x, y, sigma) with sigma: p(x) -> q(y) an arrow of S;
    arrows are pairs (g, h) compatible with the connecting isomorphisms.
    Returns (P, proj_X, proj_Y).
    """
    if p.target is not q.target:
        raise TargetMismatch("pullback needs a common target")
    X, Y, S = p.source, q.source, p.target
    objects = [
        (x, y, sigma)
        for x in X.objects
        for y in Y.objects
        for sigma in S.hom(p.obj(x), q.obj(y))
    ]

    def hom(o1, o2):
        x1, y1, s1 = o1
        x2, y2, s2 = o2
        out = []
        for g in X.hom(x1, x2):
            lhs = S.compose(s2, p.arr(x1, x2, g))
            for h in Y.hom(y1, y2):
                if lhs == S.compose(q.arr(y1, y2, h), s1):
                    out.append((g, h))
        return tuple(out)

    P = FiniteGroupoid(
        f"({X.name} x_{S.name} {Y.name})",
        objects,
        hom,
        lambda g, f: (X.compose(g[0], f[0]), Y.compose(g[1], f[1])),
        lambda d: (X.inverse(d[0]), Y.inverse(d[1])),
        lambda o: (X.identity(o[0]), Y.identity(o[1])),
        grade=lambda o: max(X.grade(o[0]), Y.grade(o[1])),
        bucket_key=lambda o: (X.bucket_key(o[0]), Y.bucket_key(o[1])),
    )
    proj_x = GroupoidFunctor(P, X, lambda o: o[0], lambda o1, o2, d: d[0], name="pr1")
    proj_y = GroupoidFunctor(P, Y, lambda o: o[1], lambda o1, o2, d: d[1], name="pr2")
    return P, proj_x, proj_y


def homotopy_fibre(p: GroupoidFunctor, s) -> FiniteGroupoid:
    """Homotopy fibre of p: X -> S over the object s of S.

    This is the pullback of p against the name functor 1 -> S at s, with the
    contractible component dropped from the payload: objects are pairs
    (x, sigma: p(x) -> s), with x from ``p.preimages(s)``.

    An arrow (x1, s1) -> (x2, s2) is an arrow g: x1 -> x2 with
    s2 . p(g) = s1, i.e. p(g) = s2^{-1} . s1; the p-images of each parent
    hom-set are indexed once per object pair, and each s2 is inverted once,
    making repeated hom-set queries cheap.
    """
    X, S = p.source, p.target
    if not S.has_object(s):
        raise ObjectNotFound(f"{s!r} is not an object of {S.name}")
    objects = [(x, sigma) for x in p.preimages(s) for sigma in S.hom(p.obj(x), s)]

    @cache
    def transported(x1, x2):
        table: dict = {}
        for g in X.hom(x1, x2):
            table.setdefault(p.arr(x1, x2, g), []).append(g)
        return {k: tuple(v) for k, v in table.items()}

    inverse = cache(S.inverse)

    def hom(o1, o2):
        x1, s1 = o1
        x2, s2 = o2
        want = S.compose(inverse(s2), s1)
        return transported(x1, x2).get(want, ())

    return FiniteGroupoid(
        f"fib({p.name or p.source.name}@{s!r})",
        objects,
        hom,
        X.compose,
        X.inverse,
        lambda o: X.identity(o[0]),
        grade=lambda o: X.grade(o[0]),
        bucket_key=lambda o: X.bucket_key(o[0]),
    )


# ---------------------------------------------------------------------------
# pullback squares


@dataclass
class GroupoidSquare:
    """Strictly commuting square of groupoids with the cone corner marked.

    ``top: A -> Y``, ``left: A -> X``, ``right: Y -> S``, ``bottom: X -> S``;
    the cone corner is A and the pullback property is asked of the cospan
    ``bottom, right``.
    """

    top: GroupoidFunctor
    left: GroupoidFunctor
    right: GroupoidFunctor
    bottom: GroupoidFunctor
    desc: str = ""

    @property
    def cone(self) -> FiniteGroupoid:
        return self.top.source


def _check_square_commutes(sq: GroupoidSquare) -> None:
    around1 = compose_functors(sq.bottom, sq.left)
    around2 = compose_functors(sq.right, sq.top)
    defect = functors_equal(around1, around2)
    if defect is not None:
        raise NonCommutingSquare(f"{sq.desc or 'square'}: {defect}")


def is_pullback_square(
    sq: GroupoidSquare, method: str = "fibrewise", glue_bound: int | None = None
) -> tuple[bool, str | None]:
    """Decide whether a strictly commuting square is a homotopy pullback.

    The fibrewise method compares, for one object per iso class of the X
    corner, the homotopy fibre of ``left`` with the homotopy fibre of
    ``right`` over its image; the comparison functor is induced by ``top``
    and ``bottom``.  The literal method constructs the homotopy pullback of
    the cospan and tests the comparison functor from the cone (with identity
    connecting arrows, valid because squares commute strictly).

    ``glue_bound`` makes the check relative to a grade bound: a pullback
    point (x, y, sigma) is only required to be hit when the object it would
    glue to fits under the bound, measured as
    grade(x) + grade(y) - grade(overlap in the cospan target).  This is the
    truncation discipline for squares both of whose legs delete grade (the
    Segal-type squares); squares with a grade-preserving leg need no bound.

    Raises NonCommutingSquare if the two composites differ.
    """
    _check_square_commutes(sq)
    if method == "literal":
        return _is_pullback_literal(sq, glue_bound)
    return _is_pullback_fibrewise(sq, glue_bound)


def full_subgroupoid(G: FiniteGroupoid, objects) -> FiniteGroupoid:
    """The full subgroupoid of G on ``objects``, with G's name, arrows,
    grading and keys."""
    return FiniteGroupoid(
        G.name,
        objects,
        G.hom,
        G.compose,
        G.inverse,
        G.identity,
        grade=G.grade,
        canon_key=G.canon_key,
        bucket_key=G._bucket_key,
    )


def fibrewise_equivalence(
    left: GroupoidFunctor, compare: Callable
) -> tuple[bool, str | None]:
    """Test a comparison functor out of every homotopy fibre of ``left``.

    For one representative ``xbar`` per iso class of ``left.target``, builds
    the fibre of ``left`` over ``xbar`` and asks ``compare(xbar, fib)`` for a
    functor out of it; the verdict holds when every such functor is an
    equivalence.  Returns the first failure as "fibre over xbar: witness".
    """
    for cls in iso_classes(left.target):
        xbar = cls.rep
        fib = homotopy_fibre(left, xbar)
        ok, wit = is_equivalence(compare(xbar, fib))
        if not ok:
            return False, f"fibre over {xbar!r}: {wit}"
    return True, None


def _is_pullback_fibrewise(sq: GroupoidSquare, glue_bound: int | None) -> tuple[bool, str | None]:
    X = sq.left.target
    Y = sq.top.target
    S = sq.right.target

    def compare(xbar, fib_a):
        s_obj = sq.bottom.obj(xbar)
        fib_y = homotopy_fibre(sq.right, s_obj)
        if glue_bound is not None:
            allowance = glue_bound - X.grade(xbar) + S.grade(s_obj)
            fib_y = full_subgroupoid(fib_y, [o for o in fib_y.objects if Y.grade(o[0]) <= allowance])
        return GroupoidFunctor(
            fib_a,
            fib_y,
            lambda o: (sq.top.obj(o[0]), sq.bottom.arr(sq.left.obj(o[0]), xbar, o[1])),
            lambda o1, o2, d: sq.top.arr(o1[0], o2[0], d),
            name="fibre-comparison",
        )

    return fibrewise_equivalence(sq.left, compare)


def _is_pullback_literal(sq: GroupoidSquare, glue_bound: int | None) -> tuple[bool, str | None]:
    A = sq.cone
    X = sq.left.target
    Y = sq.top.target
    S = sq.right.target
    P, _, _ = homotopy_pullback(sq.bottom, sq.right)
    if glue_bound is not None:
        P = full_subgroupoid(P, [
            o
            for o in P.objects
            if X.grade(o[0]) + Y.grade(o[1]) - S.grade(sq.bottom.obj(o[0])) <= glue_bound
        ])
    kappa = GroupoidFunctor(
        A,
        P,
        lambda a: (sq.left.obj(a), sq.top.obj(a), S.identity(sq.bottom.obj(sq.left.obj(a)))),
        lambda a1, a2, d: (sq.left.arr(a1, a2, d), sq.top.arr(a1, a2, d)),
        name="pullback-comparison",
    )
    return is_equivalence(kappa)


# ---------------------------------------------------------------------------
# small constructors, mostly for tests and validation


def discrete_groupoid(name: str, objects, grade=None) -> FiniteGroupoid:
    return FiniteGroupoid(
        name,
        objects,
        lambda x, y: ((),) if x == y else (),
        lambda g, f: (),
        lambda d: (),
        lambda x: (),
        grade=grade,
        canon_key=lambda x: x,
    )


def group_as_groupoid(name: str, elements, mul, inv, unit) -> FiniteGroupoid:
    """One-object groupoid with automorphism group given by a finite group."""
    return FiniteGroupoid(
        name,
        ("*",),
        lambda x, y: tuple(elements),
        mul,
        inv,
        lambda x: unit,
    )
