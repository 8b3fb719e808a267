"""Truncated strict simplicial groupoids and the pullback axiom checkers.

A ``TruncSimpGrpd`` holds levels X_0..X_N with strict face and degeneracy
functors.  All checkers report relative to the truncation level and grade
bound; a report never claims an unconditional statement.

Squares are instantiated from simplex-category data (:mod:`decspace.delta`)
and decided by the fibrewise pullback test in :mod:`decspace.groupoids`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from . import delta
from .delta import DeltaMap, DeltaSquare
from .errors import LevelOutOfRange, NonCommutingSquare, TruncationMismatch
from .groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    GroupoidSquare,
    compose_functors,
    fibrewise_equivalence,
    functor_defect,
    functors_equal,
    homotopy_fibre,
    identity_functor,
    is_equivalence,
    is_pullback_square,
    ladders,
    product_list,
    terminal_groupoid,
)
from .report import CheckReport


@dataclass
class TruncSimpGrpd:
    """Levels X_0..X_N with strict face/degeneracy functors.

    ``faces[(n, i)]``: X_n -> X_{n-1} for 0 <= i <= n <= N;
    ``degens[(n, i)]``: X_n -> X_{n+1} for 0 <= i <= n < N.
    Optional monoidal data: ``mu``, the (omap, amap) pair of the monoidal
    functor X_n x X_n -> X_n (the same at every level), and the key of the
    unit basis element.  ``monoidal`` builds the SimpMap from ``mu``.

    ``verdicts`` memoizes square verdicts of this space by
    ``(DeltaSquare, glue bound)``, ``decs`` the ``dec`` result per side, and
    ``evaluated`` the functor X(f) per simplex map f.  None is an init
    field, so every new space (``replace``, ``truncate``, ``dec``, a
    corruption) starts empty.
    """

    name: str
    N: int
    levels: tuple[FiniteGroupoid, ...]
    faces: dict
    degens: dict
    grade_bound: int
    mu: object = None
    unit_key: object = None
    verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    decs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    evaluated: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def monoidal(self) -> SimpMap | None:
        """mu: X x X -> X on the product at the space's grade bound, built on
        first use; None when the space has no monoidal rule."""
        if self.mu is None:
            return None
        P = product_simplicial(self, self, grade_bound=self.grade_bound)
        comps = tuple(
            GroupoidFunctor(P.level(n), self.level(n), *self.mu, name="mu")
            for n in range(self.N + 1)
        )
        return SimpMap(f"mu[{self.name}]", P, self, comps)

    def level(self, n: int) -> FiniteGroupoid:
        if not 0 <= n <= self.N:
            raise LevelOutOfRange(f"level {n} outside truncation 0..{self.N}")
        return self.levels[n]

    def face(self, n: int, i: int) -> GroupoidFunctor:
        if not (1 <= n <= self.N and 0 <= i <= n):
            raise LevelOutOfRange(f"face d_{i} at level {n} out of range")
        return self.faces[(n, i)]

    def degeneracy(self, n: int, i: int) -> GroupoidFunctor:
        if not (0 <= n < self.N and 0 <= i <= n):
            raise LevelOutOfRange(f"degeneracy s_{i} at level {n} out of range")
        return self.degens[(n, i)]


@dataclass
class SimpMap:
    """Strictly natural map of truncated simplicial groupoids (same level)."""

    name: str
    source: TruncSimpGrpd
    target: TruncSimpGrpd
    components: tuple[GroupoidFunctor, ...]

    def __post_init__(self):
        if self.source.N != self.target.N:
            raise TruncationMismatch(
                f"{self.name}: source level {self.source.N} != target level {self.target.N}"
            )

    def component(self, n: int) -> GroupoidFunctor:
        return self.components[n]

    def naturality_defect(self) -> str | None:
        """None if strictly natural with every face and degeneracy."""
        X, Y = self.source, self.target
        for n in range(1, X.N + 1):
            for i in range(n + 1):
                lhs = compose_functors(self.components[n - 1], X.face(n, i))
                rhs = compose_functors(Y.face(n, i), self.components[n])
                defect = functors_equal(lhs, rhs)
                if defect is not None:
                    return f"naturality fails on d_{i} at level {n}: {defect}"
        for n in range(X.N):
            for i in range(n + 1):
                lhs = compose_functors(self.components[n + 1], X.degeneracy(n, i))
                rhs = compose_functors(Y.degeneracy(n, i), self.components[n])
                defect = functors_equal(lhs, rhs)
                if defect is not None:
                    return f"naturality fails on s_{i} at level {n}: {defect}"
        return None


def _tabulated(source, target, omap, amap, name) -> GroupoidFunctor:
    """The functor with object rule ``omap`` evaluated at most once per
    object: the table fills on first use and keeps each image as the target's
    own object, so images share their payloads with the target level."""
    table: dict = {}

    def obj(x):
        try:
            return table[x]
        except KeyError:
            y = omap(x)
            y = table[x] = target._object_set.get(y, y)
            return y

    return GroupoidFunctor(source, target, obj, amap, name=name)


def simplicial_space(name, levels, face, degen, grade_bound) -> TruncSimpGrpd:
    """The space with the given levels X_0..X_N whose face d_i: X_n -> X_{n-1}
    and degeneracy s_i: X_n -> X_{n+1} have the (omap, amap) pairs
    ``face(n, i)`` and ``degen(n, i)``; each rule is called once per pair,
    and each object rule at most once per object (see ``_tabulated``)."""
    levels = tuple(levels)
    N = len(levels) - 1
    faces = {
        (n, i): _tabulated(levels[n], levels[n - 1], *face(n, i), name=f"d_{i}")
        for n in range(1, N + 1)
        for i in range(n + 1)
    }
    degens = {
        (n, i): _tabulated(levels[n], levels[n + 1], *degen(n, i), name=f"s_{i}")
        for n in range(N)
        for i in range(n + 1)
    }
    return TruncSimpGrpd(name, N, levels, faces, degens, grade_bound)


# ---------------------------------------------------------------------------
# validation and evaluation


def validate_simplicial(X: TruncSimpGrpd) -> CheckReport:
    """Verify functoriality of the structure maps, all simplicial identities
    and the grade conditions strictly.

    Functoriality and functor equality are checked on all objects and on a
    generating family of arrows; once the structure maps are functors, that
    suffices for equality.
    """
    report = CheckReport("validate_simplicial", X.name, X.N, X.grade_bound)

    bad = None
    structure_maps = [(f"face d_{i} at level {n}", F) for (n, i), F in X.faces.items()]
    structure_maps += [(f"degeneracy s_{i} at level {n}", F) for (n, i), F in X.degens.items()]
    for desc, F in structure_maps:
        defect = functor_defect(F)
        if defect is not None:
            bad = f"{desc}: {defect}"
            break
    report.record("faces and degeneracies are functors", bad is None, bad)

    def eq(desc, F, G):
        defect = functors_equal(F, G)
        report.record(desc, defect is None, defect)

    for n in range(2, X.N + 1):
        for j in range(n + 1):
            for i in range(j):
                eq(
                    f"d_{i} d_{j} = d_{j-1} d_{i} at level {n}",
                    compose_functors(X.face(n - 1, i), X.face(n, j)),
                    compose_functors(X.face(n - 1, j - 1), X.face(n, i)),
                )
    for n in range(X.N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                eq(
                    f"s_{i} s_{j} = s_{j+1} s_{i} at level {n}",
                    compose_functors(X.degeneracy(n + 1, i), X.degeneracy(n, j)),
                    compose_functors(X.degeneracy(n + 1, j + 1), X.degeneracy(n, i)),
                )
    for n in range(X.N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = compose_functors(X.face(n + 1, i), X.degeneracy(n, j))
                if i == j or i == j + 1:
                    eq(f"d_{i} s_{j} = id at level {n}", lhs, identity_functor(X.level(n)))
                elif i < j:
                    eq(
                        f"d_{i} s_{j} = s_{j-1} d_{i} at level {n}",
                        lhs,
                        compose_functors(X.degeneracy(n - 1, j - 1), X.face(n, i)),
                    )
                else:
                    eq(
                        f"d_{i} s_{j} = s_{j} d_{i-1} at level {n}",
                        lhs,
                        compose_functors(X.degeneracy(n - 1, j), X.face(n, i - 1)),
                    )

    bad = None
    for n in range(1, X.N + 1):
        for i in range(n + 1):
            F = X.face(n, i)
            for x in F.source.objects:
                gx, gy = F.source.grade(x), F.target.grade(F.obj(x))
                if gy > gx:
                    bad = f"face d_{i} at level {n} raises grade at {x!r}"
                    break
                if 0 < i < n and gy != gx:
                    bad = f"inner face d_{i} at level {n} not grade-preserving at {x!r}"
                    break
            if bad:
                break
        if bad:
            break
    report.record("faces grade-compatible", bad is None, bad)

    bad = None
    for n in range(X.N):
        for i in range(n + 1):
            F = X.degeneracy(n, i)
            for x in F.source.objects:
                if F.target.grade(F.obj(x)) != F.source.grade(x):
                    bad = f"degeneracy s_{i} at level {n} changes grade at {x!r}"
                    break
            if bad:
                break
        if bad:
            break
    report.record("degeneracies grade-preserving", bad is None, bad)

    bad = None
    for L in X.levels:
        for x in L.objects:
            if L.grade(x) > X.grade_bound:
                bad = f"object {x!r} exceeds grade bound"
                break
        if bad:
            break
    report.record("grade bound", bad is None, bad)
    return report


def evaluate(X: TruncSimpGrpd, f: DeltaMap) -> GroupoidFunctor:
    """The contravariant action X(f): X_cod -> X_dom for any monotone map.

    Applies the generator images in turn, in one functor; strictness makes
    the result independent of the chosen decomposition.  Built once per
    space and kept in ``X.evaluated``, with its preimage index.
    """
    if f in X.evaluated:
        return X.evaluated[f]
    if f.dom > X.N or f.cod > X.N:
        raise LevelOutOfRange(f"{f} does not fit in truncation 0..{X.N}")
    gens = []
    for gen in reversed(delta.generator_decomposition(f)):
        if gen.cod == gen.dom + 1:      # coface d^i at [gen.cod]
            missing = next(v for v in range(gen.cod + 1) if v not in set(gen.images))
            gens.append(X.face(gen.cod, missing))
        else:                           # codegeneracy s^j onto [gen.cod]
            rep = next(j for j in range(gen.dom) if gen(j) == gen(j + 1))
            gens.append(X.degeneracy(gen.cod, rep))

    def omap(x):
        for G in gens:
            x = G.obj(x)
        return x

    def amap(x, y, d):
        for G in gens:
            x, y, d = G.obj(x), G.obj(y), G.arr(x, y, d)
        return d

    F = X.evaluated[f] = GroupoidFunctor(X.level(f.cod), X.level(f.dom), omap, amap, name=f"X({f})")
    return F


# ---------------------------------------------------------------------------
# squares


def _instantiate(X: TruncSimpGrpd, dsq: DeltaSquare) -> GroupoidSquare:
    """Apply X to a commuting square in the simplex category.

    The cone of the groupoid square is the level at the square's pushout
    corner; contravariance swaps the roles of the four sides.
    """
    return GroupoidSquare(
        top=evaluate(X, dsq.right),
        left=evaluate(X, dsq.bottom),
        right=evaluate(X, dsq.top),
        bottom=evaluate(X, dsq.left),
        desc=dsq.desc,
    )


def _square_desc(dsq: DeltaSquare) -> str:
    d = dsq.right.cod
    return (
        f"X{d} -> X{dsq.right.dom} over X{dsq.top.dom} "
        f"[{dsq.desc or 'square'}: active {dsq.left}, inert {dsq.top}]"
    )


def _record(report: CheckReport, desc: str, decide, memo: dict | None = None, key=None) -> None:
    """Record the ``(passed, witness)`` that ``decide()`` returns under
    ``desc``; every square verdict of the checkers goes through here.  With a
    ``memo``, the verdict is kept under ``key`` and decided at most once.  A
    square that does not commute is a failure with a witness, not an
    exception."""
    memo = {} if memo is None else memo
    if key not in memo:
        try:
            memo[key] = decide()
        except NonCommutingSquare as exc:
            memo[key] = False, f"square does not commute: {exc}"
    report.record(desc, *memo[key])


def _run_squares(
    X: TruncSimpGrpd, check: str, squares: list[DeltaSquare], glue_bound: int | None = None
) -> CheckReport:
    """Record the verdict of each square on X, deciding each
    ``(square, glue bound)`` at most once per space (see ``X.verdicts``)."""
    report = CheckReport(check, X.name, X.N, X.grade_bound)
    for dsq in squares:
        decide = lambda: is_pullback_square(_instantiate(X, dsq), glue_bound=glue_bound)
        _record(report, _square_desc(dsq), decide, X.verdicts, (dsq, glue_bound))
    return report


def check_segal(X: TruncSimpGrpd) -> CheckReport:
    """Pullback test for the outer-face squares characterizing Segal objects.

    Both legs of a Segal square delete grade, so the pullback is compared at
    the space's grade bound (glued objects over the bound are not required).
    """
    return _run_squares(X, "segal", delta.segal_axiom_squares(X.N), glue_bound=X.grade_bound)


def check_decomposition(X: TruncSimpGrpd) -> CheckReport:
    """Pullback test for all active-inert pushout squares within truncation."""
    return _run_squares(X, "decomposition", delta.decomposition_axiom_squares(X.N))


def segal_power(X: TruncSimpGrpd, r: int, grade_bound: int | None = None) -> FiniteGroupoid:
    """The iterated pullback X_1 x_{X_0} ... x_{X_0} X_1 with r factors.

    Objects are ((a_1..a_r), (sigma_1..sigma_{r-1})) with
    sigma_i: d_0(a_i) -> d_1(a_{i+1}) an arrow of X_0.  With a grade bound,
    only strings whose would-be glued object fits under the bound are kept
    (grades add along the string and overlaps sit in X_0, so the glued grade
    is the sum of the edge grades less the grades of the overlaps).
    """
    X1, X0 = X.level(1), X.level(0)
    d0, d1 = X.face(1, 0), X.face(1, 1)

    objects = []

    def extend(edges, sigmas, glue):
        # glue is the grade of the glued string so far.  Appending a adds
        # grade(a) - grade(d_0 prev) >= 0: faces never raise grade and the
        # connecting X_0 iso preserves it, so grade(a) >= grade(d_1 a) =
        # grade(d_0 prev).  A prefix over the bound has no completion under it.
        if grade_bound is not None and glue > grade_bound:
            return
        if len(edges) == r:
            objects.append((edges, sigmas))
            return
        for a in X1.objects:
            if not edges:
                extend((a,), (), X1.grade(a))
            else:
                end = d0.obj(edges[-1])
                step = X1.grade(a) - X0.grade(end)
                for s in X0.hom(end, d1.obj(a)):
                    extend(edges + (a,), sigmas + (s,), glue + step)

    extend((), (), 0)

    def hom(o1, o2):
        (e1, s1), (e2, s2) = o1, o2

        def before(i, f):
            return X0.compose(s2[i - 1], d0.arr(e1[i - 1], e2[i - 1], f))

        def after(i, g):
            return X0.compose(d1.arr(e1[i], e2[i], g), s1[i - 1])

        return ladders([X1.hom(a, b) for a, b in zip(e1, e2)], before, after)

    return FiniteGroupoid(
        f"SegalPower({X.name},{r})",
        objects,
        hom,
        lambda g, f: tuple(X1.compose(a, b) for a, b in zip(g, f)),
        lambda d: tuple(X1.inverse(a) for a in d),
        lambda o: tuple(X1.identity(a) for a in o[0]),
        grade=lambda o: max((X1.grade(a) for a in o[0]), default=0),
        bucket_key=lambda o: tuple(X1.bucket_key(a) for a in o[0]),
    )


def _edge_inclusions(X: TruncSimpGrpd, r: int) -> list[GroupoidFunctor]:
    return [evaluate(X, DeltaMap(1, r, (i - 1, i))) for i in range(1, r + 1)]


def segal_comparison(X: TruncSimpGrpd, r: int, W: FiniteGroupoid) -> GroupoidFunctor:
    """X_r -> segal_power(X, r); connecting arrows are identities since the
    simplicial identities hold strictly."""
    edges = _edge_inclusions(X, r)
    X0 = X.level(0)
    d0 = X.face(1, 0)

    def omap(x):
        es = tuple(e.obj(x) for e in edges)
        sigmas = tuple(X0.identity(d0.obj(es[i])) for i in range(r - 1))
        return (es, sigmas)

    def amap(x, y, d):
        return tuple(e.arr(x, y, d) for e in edges)

    return GroupoidFunctor(X.level(r), W, omap, amap, name=f"segal-cmp-{r}")


def check_segal_direct(X: TruncSimpGrpd, r: int) -> bool:
    """Equivalence test of the r-fold Segal comparison functor (1 <= r <= N)."""
    if not 1 <= r <= X.N:
        raise LevelOutOfRange(f"r={r} outside truncation")
    if r == 1:
        return True
    W = segal_power(X, r, grade_bound=X.grade_bound)
    ok, _ = is_equivalence(segal_comparison(X, r, W))
    return ok


def check_decomposition_active(X: TruncSimpGrpd) -> CheckReport:
    """The active-map pullback criterion: for every active g: [n] -> [m]
    within truncation, the square  X_m -> prod X_{m_i}  over  X_n -> prod X_1
    is a pullback.  Agrees with check_decomposition.

    Product corners are never materialized: fibres of a product functor over
    a component point are products of component fibres.
    """
    if X.N < 1:
        raise LevelOutOfRange("need at least one level")
    report = CheckReport("decomposition-active", X.name, X.N, X.grade_bound)
    for data in delta.active_map_squares(X.N):
        g = data.g
        n, m = g.dom, g.cod
        desc = f"X{m} -> prod(X{','.join(str(w.dom) for w in data.windows)}) over X{n} [active {g}]"
        left = evaluate(X, g)
        windows = [evaluate(X, w) for w in data.windows]
        edges = [evaluate(X, e) for e in data.edges]
        splits = [evaluate(X, s) for s in data.splits]

        def compare(xbar, fib_a):
            fib_y = product_list(
                [homotopy_fibre(split, edge.obj(xbar)) for split, edge in zip(splits, edges)],
                name="prod-fibre",
            )

            def omap(o):
                a, tau = o
                la = left.obj(a)
                return tuple(
                    (windows[i].obj(a), edges[i].arr(la, xbar, tau)) for i in range(n)
                )

            def amap(o1, o2, d):
                return tuple(windows[i].arr(o1[0], o2[0], d) for i in range(n))

            return GroupoidFunctor(fib_a, fib_y, omap, amap, name="active-fibre-cmp")

        _record(report, desc, lambda: fibrewise_equivalence(left, compare))
    return report


def check_cartesian(F: SimpMap, maps: list[DeltaMap]) -> CheckReport:
    """Naturality squares of F on the listed simplex maps are pullbacks."""
    X, Y = F.source, F.target
    report = CheckReport(f"cartesian[{F.name}]", X.name, X.N, X.grade_bound)
    for dm in maps:
        if dm.dom > X.N or dm.cod > X.N:
            raise LevelOutOfRange(f"{dm} outside truncation")
        desc = f"naturality of {F.name} on {dm}"
        sq = GroupoidSquare(
            top=F.component(dm.cod),
            left=evaluate(X, dm),
            right=evaluate(Y, dm),
            bottom=F.component(dm.dom),
            desc=desc,
        )
        _record(report, desc, lambda: is_pullback_square(sq))
    return report


def _unique_active(n: int) -> DeltaMap:
    if n == 0:
        return DeltaMap(1, 0, (0, 0))
    return DeltaMap(1, n, (0, n))


def check_culf(F: SimpMap) -> CheckReport:
    """Cartesian on all active maps: the naturality square of F on the
    unique active map [1] -> [n] is a pullback for every n in the
    truncation."""
    report = check_cartesian(F, [_unique_active(n) for n in range(F.source.N + 1)])
    report.check = f"culf[{F.name}]"
    return report


def check_conservative(F: SimpMap) -> CheckReport:
    """Cartesian on all degeneracy maps within truncation."""
    maps = [
        delta.codegeneracy(i, n)
        for n in range(F.source.N)
        for i in range(n + 1)
    ]
    report = check_cartesian(F, maps)
    report.check = f"conservative[{F.name}]"
    return report


def check_ulf(F: SimpMap) -> CheckReport:
    """Cartesian on all active (inner) face maps within truncation."""
    maps = [
        delta.coface(i, n)
        for n in range(2, F.source.N + 1)
        for i in range(1, n)
    ]
    report = check_cartesian(F, maps)
    report.check = f"ulf[{F.name}]"
    return report


def check_fibration(F: SimpMap, side: str = "bottom") -> CheckReport:
    """Cartesian on every bottom (resp. top) face map within truncation."""
    if side == "bottom":
        maps = [delta.coface(0, n) for n in range(1, F.source.N + 1)]
    elif side == "top":
        maps = [delta.coface(n, n) for n in range(1, F.source.N + 1)]
    else:
        raise ValueError("side must be 'bottom' or 'top'")
    report = check_cartesian(F, maps)
    report.check = f"{side}-fibration[{F.name}]"
    return report


def _segal_power_map(F: SimpMap, WX: FiniteGroupoid, WY: FiniteGroupoid) -> GroupoidFunctor:
    """segal_power(X, r) -> segal_power(Y, r) induced by F: F_1 on the edges,
    F_0 on the connecting arrows."""
    F1, F0 = F.component(1), F.component(0)
    d0, d1 = F.source.face(1, 0), F.source.face(1, 1)

    def omap(o):
        es, sigmas = o
        conns = zip(es, es[1:], sigmas)
        return (
            tuple(F1.obj(a) for a in es),
            tuple(F0.arr(d0.obj(a), d1.obj(b), s) for a, b, s in conns),
        )

    def amap(o1, o2, ds):
        return tuple(F1.arr(a, b, d) for a, b, d in zip(o1[0], o2[0], ds))

    return GroupoidFunctor(WX, WY, omap, amap, name=f"segal-power[{F.name}]")


def check_relatively_segal(F: SimpMap) -> CheckReport:
    """For 2 <= n <= N, the square comparing the Segal maps of source and
    target is a pullback:  X_n -> segal_power(X, n)  over
    Y_n -> segal_power(Y, n), with F_n and the induced map as sides."""
    X, Y = F.source, F.target
    if X.N < 2:
        raise LevelOutOfRange("relative Segal check needs two levels")
    report = CheckReport(f"relatively-segal[{F.name}]", X.name, X.N, X.grade_bound)
    for n in range(2, X.N + 1):
        WX = segal_power(X, n, grade_bound=X.grade_bound)
        WY = segal_power(Y, n, grade_bound=Y.grade_bound)
        desc = f"X{n} -> Segal power over Y{n} (n={n})"
        sq = GroupoidSquare(
            top=segal_comparison(X, n, WX),
            left=F.component(n),
            right=_segal_power_map(F, WX, WY),
            bottom=segal_comparison(Y, n, WY),
            desc=desc,
        )
        _record(report, desc, lambda: is_pullback_square(sq))
    return report


# ---------------------------------------------------------------------------
# decalage


def truncate(X: TruncSimpGrpd, M: int) -> TruncSimpGrpd:
    if M > X.N:
        raise LevelOutOfRange(f"cannot extend truncation {X.N} to {M}")
    return TruncSimpGrpd(
        X.name,
        M,
        X.levels[: M + 1],
        {k: v for k, v in X.faces.items() if k[0] <= M},
        {k: v for k, v in X.degens.items() if k[0] < M},
        X.grade_bound,
    )


def dec(X: TruncSimpGrpd, side: str = "bottom") -> tuple[TruncSimpGrpd, SimpMap]:
    """Decalage: delete X_0 and shift everything one place down.

    For the bottom flavour the deleted bottom face maps become the dec map
    back to X; for the top flavour the deleted top face maps do.  Built once
    per side and kept in ``X.decs``, with the decalage's own verdict memo.
    """
    if X.N < 1:
        raise LevelOutOfRange("decalage needs at least one level")
    if side not in ("bottom", "top"):
        raise ValueError("side must be 'bottom' or 'top'")
    if side in X.decs:
        return X.decs[side]
    M = X.N - 1
    levels = X.levels[1:]
    s = 1 if side == "bottom" else 0  # index shift of the kept structure maps
    faces = {(n, i): X.face(n + 1, i + s) for n in range(1, M + 1) for i in range(n + 1)}
    degens = {(n, i): X.degeneracy(n + 1, i + s) for n in range(M) for i in range(n + 1)}
    comps = tuple(X.face(k + 1, 0 if s else k + 1) for k in range(M + 1))
    name = f"DecBot({X.name})" if s else f"DecTop({X.name})"
    Y = TruncSimpGrpd(name, M, levels, faces, degens, X.grade_bound)
    X.decs[side] = Y, SimpMap(f"dec-{side}[{X.name}]", Y, truncate(X, M), comps)
    return X.decs[side]


def dec_of_map(F: SimpMap, side: str = "bottom") -> SimpMap:
    """The induced map between the decalages of source and target."""
    src, _ = dec(F.source, side)
    tgt, _ = dec(F.target, side)
    return SimpMap(
        f"dec-{side}[{F.name}]",
        src,
        tgt,
        tuple(F.components[k + 1] for k in range(src.N + 1)),
    )


def check_decalage(X: TruncSimpGrpd) -> CheckReport:
    """Four-way characterization of the decomposition property via decalage.

    (a) the pushout-square check; (b) both decalages Segal and both dec maps
    cartesian on active maps; (c) same with conservativity only; (d) same
    with the two degeneracy squares.  The four verdicts agree for honest
    simplicial groupoids; the agreement record makes that testable.
    """
    if X.N < 3:
        raise LevelOutOfRange("decalage characterization needs three levels")
    report = CheckReport("decalage-characterization", X.name, X.N, X.grade_bound)

    verdict_a = check_decomposition(X).passed
    dec_b, map_b = dec(X, "bottom")
    dec_t, map_t = dec(X, "top")
    segal_both = check_segal(dec_b).passed and check_segal(dec_t).passed
    verdict_b = segal_both and check_culf(map_b).passed and check_culf(map_t).passed
    verdict_c = (
        segal_both
        and check_conservative(map_b).passed
        and check_conservative(map_t).passed
    )
    degeneracy_squares = delta.decomposition_axiom_squares(2)
    verdict_d = segal_both and _run_squares(X, "degeneracy-squares", degeneracy_squares).passed

    report.record("(a) pushout squares", verdict_a)
    report.record("(b) decalages Segal + dec maps cartesian on active maps", verdict_b)
    report.record("(c) decalages Segal + dec maps conservative", verdict_c)
    report.record("(d) decalages Segal + degeneracy squares", verdict_d)
    agree = len({verdict_a, verdict_b, verdict_c, verdict_d}) == 1
    report.record(
        "four-way agreement",
        agree,
        None if agree else f"verdicts differ: {verdict_a, verdict_b, verdict_c, verdict_d}",
    )
    return report


def check_extra_pullbacks(X: TruncSimpGrpd) -> CheckReport:
    """Degeneracy/face and degeneracy/degeneracy squares that are pullbacks
    for every space passing the decomposition check."""
    report = CheckReport("extra-pullbacks", X.name, X.N, X.grade_bound)
    pre = check_decomposition(X).passed
    report.record("precondition: decomposition check", pre, None if pre else "precondition unmet")
    if pre:
        for dsq in delta.extra_pullback_squares(X.N):
            _record(report, dsq.desc, lambda: is_pullback_square(_instantiate(X, dsq)))
    return report


# ---------------------------------------------------------------------------
# products, terminal space, corruptions


def product_simplicial(X: TruncSimpGrpd, Y: TruncSimpGrpd, grade_bound: int | None = None) -> TruncSimpGrpd:
    """Levelwise product with componentwise structure maps; grade adds.

    When a grade bound is given, pairs over the bound are dropped; structure
    maps stay within the bound because faces never raise grade.
    """
    if X.N != Y.N:
        raise TruncationMismatch("product needs equal truncation levels")
    bound = grade_bound if grade_bound is not None else X.grade_bound + Y.grade_bound
    levels = tuple(
        product_list([X.level(n), Y.level(n)], grade_bound=bound, name=f"({X.name}x{Y.name})_{n}")
        for n in range(X.N + 1)
    )

    def pair(F, G):
        return (
            lambda xs: (F.obj(xs[0]), G.obj(xs[1])),
            lambda xs, ys, ds: (F.arr(xs[0], ys[0], ds[0]), G.arr(xs[1], ys[1], ds[1])),
        )

    return simplicial_space(
        f"{X.name}x{Y.name}",
        levels,
        lambda n, i: pair(X.face(n, i), Y.face(n, i)),
        lambda n, i: pair(X.degeneracy(n, i), Y.degeneracy(n, i)),
        bound,
    )


def terminal_space(N: int) -> TruncSimpGrpd:
    """The one-point simplicial groupoid."""
    ident = lambda n, i: (lambda x: x, lambda x, y, d: d)
    return simplicial_space("1", [terminal_groupoid()] * (N + 1), ident, ident, 0)


def constant_map_to_point(X: TruncSimpGrpd) -> SimpMap:
    T = terminal_space(X.N)
    comps = tuple(
        GroupoidFunctor(X.level(n), T.level(n), lambda x: "*", lambda x, y, d: (), name="const")
        for n in range(X.N + 1)
    )
    return SimpMap(f"const[{X.name}]", X, T, comps)


def corrupted_variant(X: TruncSimpGrpd, seed: int) -> tuple[TruncSimpGrpd, str]:
    """Deterministically perturbed copy of X for negative controls.

    An inner face functor is replaced by a constant functor: inner faces feed
    every checker family (the pushout squares directly, the decalage
    characterizations through the Segal squares of the two decalages), which
    is what makes perturbed instances usable as agreement controls.
    """
    if X.N < 2:
        raise LevelOutOfRange(f"{X.name} has no inner face to corrupt: levels 0..{X.N}")
    rng = random.Random(seed)
    new_faces = dict(X.faces)
    inner = [(n, i) for n in range(2, X.N + 1) for i in range(1, n)]
    n, i = inner[rng.randrange(len(inner))]
    target = X.level(n - 1)
    c = max(target.objects, key=lambda o: (target.grade(o), repr(o)))
    new_faces[(n, i)] = GroupoidFunctor(
        X.level(n), target, lambda x: c, lambda a, b, d: target.identity(c), name="const"
    )
    desc = f"inner face d_{i} at level {n} replaced by a constant functor"
    return (
        TruncSimpGrpd(
            f"{X.name}~corrupt{seed}",
            X.N,
            X.levels,
            new_faces,
            dict(X.degens),
            X.grade_bound,
        ),
        desc,
    )
