"""Exact-rational incidence coalgebra of a truncated decomposition space.

Basis elements are iso classes of the level-1 groupoid, identified by their
canonical keys.  The comultiplication sends a basis element f to the homotopy
sum over the fibre of the inner face d_1 of the pairs of outer faces; a
homotopy sum contributes 1/|Aut| per iso class of the fibre, so every
coefficient is an exact rational.  The same coefficient can be computed as
cardinality(fibre of (d_1, d_2, d_0)) / (|Aut a| |Aut b|); both routes are
implemented and tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import delta
from .errors import (
    CanonicalizationMissing,
    GradeOverflow,
    LevelOutOfRange,
    MonoidalStructureMissing,
)
from .groupoids import (
    GroupoidFunctor,
    groupoid_cardinality,
    homotopy_fibre,
    iso_classes,
)
from .gallery.vect import staircases
from .linalg_fq import check_field, general_linear, gl_order
from .report import CheckReport
from .simplicial import SimpMap, TruncSimpGrpd, check_culf, evaluate


@dataclass(frozen=True)
class BasisElement:
    key: object
    rep: object
    aut_order: int
    grade: int


@dataclass
class SparseVec:
    """Finite map key -> nonzero rational."""

    entries: dict = field(default_factory=dict)

    def add(self, key, value: Fraction) -> None:
        v = self.entries.get(key, Fraction(0)) + value
        if v == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = v

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self.entries == other.entries


@dataclass
class SparseMat:
    """Finite map (row key, column key) -> nonzero rational."""

    entries: dict = field(default_factory=dict)

    def add(self, row, col, value: Fraction) -> None:
        v = self.entries.get((row, col), Fraction(0)) + value
        if v == 0:
            self.entries.pop((row, col), None)
        else:
            self.entries[(row, col)] = v

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def column(self, col) -> dict:
        return {r: v for (r, c), v in self.entries.items() if c == col}

    def columns(self) -> dict:
        out: dict = {}
        for (r, c), v in self.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseMat) and self.entries == other.entries


def _level1_canon(X: TruncSimpGrpd):
    canon = X.level(1).canon_key
    if canon is None:
        raise CanonicalizationMissing(f"{X.name} has no canonical form on level 1")
    return canon


def basis(X: TruncSimpGrpd, grade_bound: int) -> list[BasisElement]:
    """Iso classes of X_1 up to the grade bound, sorted by canonical key."""
    if grade_bound > X.grade_bound:
        raise GradeOverflow(
            f"requested bound {grade_bound} exceeds construction bound {X.grade_bound}"
        )
    _level1_canon(X)
    X1 = X.level(1)
    out = []
    for cls in iso_classes(X1):
        g = X1.grade(cls.rep)
        if g <= grade_bound:
            out.append(BasisElement(cls.key, cls.rep, cls.aut_order, g))
    return out


def coeff_vector(F: GroupoidFunctor, grade_bound: int) -> SparseVec:
    """Homotopy-sum coefficients of F: M -> Y: at [y], sum of 1/|Aut m| over
    iso classes of M with F(m) isomorphic to y."""
    Y = F.target
    if Y.canon_key is None:
        raise CanonicalizationMissing(f"{Y.name} has no canonical form")
    vec = SparseVec()
    for cls in iso_classes(F.source):
        y = F.obj(cls.rep)
        if Y.grade(y) > grade_bound:
            continue
        vec.add(Y.canon_key(y), Fraction(1, cls.aut_order))
    return vec


def coeff_vector_via_fibre(F: GroupoidFunctor, grade_bound: int) -> SparseVec:
    """Independent route: coefficient at [y] is cardinality(fibre over y)
    divided by |Aut(y)|."""
    Y = F.target
    if Y.canon_key is None:
        raise CanonicalizationMissing(f"{Y.name} has no canonical form")
    vec = SparseVec()
    for cls in iso_classes(Y):
        if Y.grade(cls.rep) > grade_bound:
            continue
        card = groupoid_cardinality(homotopy_fibre(F, cls.rep))
        if card:
            vec.add(cls.key, card / cls.aut_order)
    return vec


def comultiplication(X: TruncSimpGrpd, grade_bound: int) -> SparseMat:
    """Matrix of the comultiplication: column at [f] collects, per iso class
    of the d_1-fibre over f, the pair of outer faces weighted by 1/|Aut|.
    This is delta_n at n = 2."""
    if X.N < 2:
        raise LevelOutOfRange("comultiplication needs two levels")
    return delta_n(X, 2, grade_bound)


def counit(X: TruncSimpGrpd, grade_bound: int) -> SparseVec:
    """Coefficient at [f] is the cardinality of the fibre of s_0 over f,
    read off delta_n at n = 0."""
    return SparseVec({col: v for (_, col), v in delta_n(X, 0, grade_bound).entries.items()})


def delta_n(X: TruncSimpGrpd, n: int, grade_bound: int) -> SparseMat:
    """Generalized comultiplication: span through X_n with the n-fold outer
    face tuple; rows are n-tuples of basis keys.  delta_0 is the counit (with
    empty-tuple rows) and delta_1 the identity matrix."""
    if n > X.N or n < 0:
        raise LevelOutOfRange(f"delta_{n} outside truncation 0..{X.N}")
    canon = _level1_canon(X)
    active = delta.DeltaMap(1, n, (0, n)) if n >= 1 else delta.DeltaMap(1, 0, (0, 0))
    collapse = evaluate(X, active)
    edges = [evaluate(X, delta.DeltaMap(1, n, (i - 1, i))) for i in range(1, n + 1)]
    mat = SparseMat()
    for f in basis(X, grade_bound):
        fib = homotopy_fibre(collapse, f.rep)
        for cls in iso_classes(fib):
            y, _ = cls.rep
            row = tuple(canon(e.obj(y)) for e in edges)
            mat.add(row, f.key, Fraction(1, cls.aut_order))
    return mat


def check_coassociativity(X: TruncSimpGrpd, grade_bound: int) -> CheckReport:
    """Exact matrix identities for coassociativity and the counit laws."""
    if X.N < 3:
        raise LevelOutOfRange("coassociativity check needs three levels")
    report = CheckReport("coassociativity", X.name, X.N, X.grade_bound)
    dmat = comultiplication(X, grade_bound)
    d3 = delta_n(X, 3, grade_bound)
    eps = counit(X, grade_bound)
    keys = {b.key for b in basis(X, grade_bound)}

    overflow = [
        (row, col)
        for (row, col) in dmat.entries
        if row[0] not in keys or row[1] not in keys
    ]
    report.record(
        "grade closure of the comultiplication",
        not overflow,
        None if not overflow else f"coefficient outside tables at {overflow[0]!r}",
    )
    if overflow:
        return report

    cols = dmat.columns()
    t1 = SparseMat()
    t2 = SparseMat()
    for fkey, col in cols.items():
        for (a, b), c1 in col.items():
            for (x, y), c2 in cols.get(a, {}).items():
                t1.add((x, y, b), fkey, c1 * c2)
            for (u, v), c2 in cols.get(b, {}).items():
                t2.add((a, u, v), fkey, c1 * c2)

    report.record(
        "(Delta x id) Delta = Delta_3",
        t1 == d3,
        None if t1 == d3 else "matrices differ",
    )
    report.record(
        "(id x Delta) Delta = Delta_3",
        t2 == d3,
        None if t2 == d3 else "matrices differ",
    )

    left_ok = right_ok = True
    left_wit = right_wit = None
    for fkey, col in cols.items():
        lhs = SparseVec()
        rhs = SparseVec()
        for (a, b), c in col.items():
            if eps[a]:
                lhs.add(b, eps[a] * c)
            if eps[b]:
                rhs.add(a, eps[b] * c)
        unit = SparseVec({fkey: Fraction(1)})
        if lhs != unit and left_ok:
            left_ok, left_wit = False, f"(eps x id) Delta misses identity at {fkey!r}"
        if rhs != unit and right_ok:
            right_ok, right_wit = False, f"(id x eps) Delta misses identity at {fkey!r}"
    report.record("(eps x id) Delta = id", left_ok, left_wit)
    report.record("(id x eps) Delta = id", right_ok, right_wit)
    return report


def pushforward_hom(F: SimpMap, grade_bound: int) -> SparseMat:
    """Matrix of the level-1 pushforward: column at [f] is the unit vector at
    [F_1 f] (structure maps never raise grade)."""
    canonY = _level1_canon(F.target)
    F1 = F.component(1)
    mat = SparseMat()
    for f in basis(F.source, grade_bound):
        img = F1.obj(f.rep)
        if F.target.level(1).grade(img) > grade_bound:
            raise GradeOverflow(f"image of {f.key!r} exceeds the requested bound")
        mat.add(canonY(img), f.key, Fraction(1))
    return mat


def class_bijection_inverse(M: SparseMat) -> SparseMat:
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


def matrix_compose(A: SparseMat, B: SparseMat) -> SparseMat:
    """(A B)[r, c] = sum_m A[r, m] B[m, c]."""
    by_col_a: dict = {}
    for (r, m), v in A.entries.items():
        by_col_a.setdefault(m, []).append((r, v))
    out = SparseMat()
    for (m, c), w in B.entries.items():
        for r, v in by_col_a.get(m, ()):
            out.add(r, c, v * w)
    return out


def homomorphism_check(
    M: SparseMat, X: TruncSimpGrpd, Y: TruncSimpGrpd, grade_bound: int
) -> CheckReport:
    """Exact coalgebra-homomorphism identities for a level-1 matrix M:
    Delta_Y M = (M x M) Delta_X and eps_Y M = eps_X."""
    report = CheckReport("coalgebra-homomorphism", f"{X.name}->{Y.name}", X.N, grade_bound)
    dX = comultiplication(X, grade_bound)
    dY = comultiplication(Y, grade_bound)
    lhs = matrix_compose(dY, M)
    rhs = SparseMat()
    mcols: dict = {}
    for (r, c), v in M.entries.items():
        mcols.setdefault(c, []).append((r, v))
    for ((a, b), f), v in dX.entries.items():
        for c, w1 in mcols.get(a, ()):
            for d, w2 in mcols.get(b, ()):
                rhs.add((c, d), f, v * w1 * w2)
    ok = lhs == rhs
    report.record("Delta_Y M = (M x M) Delta_X", ok, None if ok else "matrices differ")

    eX = counit(X, grade_bound)
    eY = counit(Y, grade_bound)
    push = SparseVec()
    for (g, f), w in M.entries.items():
        if eY[g]:
            push.add(f, eY[g] * w)
    ok = push == eX
    report.record("eps_Y M = eps_X", ok, None if ok else "counits differ")
    return report


def multiplication(X: TruncSimpGrpd, grade_bound: int) -> SparseMat:
    """Matrix of the monoidal pushforward on level 1: delta_a . delta_b is the
    unit vector at [mu(a, b)].  Columns are pairs within the grade bound."""
    if X.monoidal is None:
        raise MonoidalStructureMissing(f"{X.name} carries no monoidal map")
    canon = _level1_canon(X)
    mu1 = X.monoidal.component(1)
    mat = SparseMat()
    elems = basis(X, grade_bound)
    for a in elems:
        for b in elems:
            if a.grade + b.grade > grade_bound:
                continue
            prod = mu1.obj((a.rep, b.rep))
            mat.add(canon(prod), (a.key, b.key), Fraction(1))
    return mat


def check_bialgebra(X: TruncSimpGrpd, grade_bound: int) -> CheckReport:
    """The monoidal map is cartesian on active maps, the comultiplication is
    multiplicative, and the counit is multiplicative."""
    if X.monoidal is None:
        raise MonoidalStructureMissing(f"{X.name} carries no monoidal map")
    report = CheckReport("bialgebra", X.name, X.N, X.grade_bound)
    culf = check_culf(X.monoidal)
    report.record(
        "monoidal map cartesian on active maps",
        culf.passed,
        None if culf.passed else (culf.first_failure().witness or culf.first_failure().desc),
    )

    mult = multiplication(X, grade_bound)
    prod_key = {}
    for (ckey, pair), _ in mult.entries.items():
        prod_key[pair] = ckey
    dmat = comultiplication(X, grade_bound)
    cols = dmat.columns()
    eps = counit(X, grade_bound)
    elems = basis(X, grade_bound)

    ok, wit = True, None
    for a in elems:
        for b in elems:
            if a.grade + b.grade > grade_bound:
                continue
            ck = prod_key[(a.key, b.key)]
            lhs = cols.get(ck, {})
            rhs: dict = {}
            for (x, y), c1 in cols.get(a.key, {}).items():
                for (u, v), c2 in cols.get(b.key, {}).items():
                    row = (prod_key[(x, u)], prod_key[(y, v)])
                    rhs[row] = rhs.get(row, Fraction(0)) + c1 * c2
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                ok, wit = False, f"Delta(d_a d_b) differs at ({a.key!r}, {b.key!r})"
                break
        if not ok:
            break
    report.record("Delta(delta_a . delta_b) = Delta(delta_a) . Delta(delta_b)", ok, wit)

    ok, wit = True, None
    for a in elems:
        for b in elems:
            if a.grade + b.grade > grade_bound:
                continue
            if eps[prod_key[(a.key, b.key)]] != eps[a.key] * eps[b.key]:
                ok, wit = False, f"counit not multiplicative at ({a.key!r}, {b.key!r})"
                break
        if not ok:
            break
    report.record("counit multiplicative", ok, wit)
    return report


# ---------------------------------------------------------------------------
# Hall numbers


@dataclass(frozen=True)
class HallResult:
    coefficient: Fraction
    gaussian: Fraction
    match: bool


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Product formula prod_{i=1..k} (q^{n-i+1} - 1)/(q^i - 1), exactly."""
    out = Fraction(1)
    for i in range(1, k + 1):
        out *= Fraction(q ** (n - i + 1) - 1, q**i - 1)
    assert out.denominator == 1
    return int(out)


def hall_number(q: int, n: int, k: int) -> HallResult:
    """Comultiplication coefficient of the S-construction of Vect_q at
    (F^n; F^k, F^{n-k}), against the Gaussian binomial.

    The coefficient is the number of short exact sequences on the fixed
    skeletal spaces, the level-2 staircases with layers (k, n-k), divided by
    |GL_k| |GL_{n-k}|: the connecting-isomorphism freedom in the homotopy
    fibre cancels the base-change freedom exactly (the group acts freely), so
    this count is the homotopy cardinality of the d_1-fibre over F^n.  At
    k = 0 or k = n the sequences are the automorphisms of F^n.
    """
    check_field(q)
    if not 0 <= k <= n <= 3:
        raise LevelOutOfRange("supported range is 0 <= k <= n <= 3")
    if k in (0, n):
        pairs = len(general_linear(n, q))
    else:
        pairs = sum(1 for _ in staircases(q, (k, n - k)))
    coefficient = Fraction(pairs, gl_order(k, q) * gl_order(n - k, q))
    gaussian = Fraction(gaussian_binomial(n, k, q))
    return HallResult(coefficient, gaussian, coefficient == gaussian)
