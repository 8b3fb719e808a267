"""The simplex category as data: monotone maps, the active-inert factorization
system, pushouts of active maps along inert ones, and the enumeration of the
squares the simplicial checkers decide: the Segal squares, the active-inert
pushouts and the extra degeneracy/face and degeneracy/degeneracy squares.
Each is a ``DeltaSquare``, which checks on construction that it commutes, so
a mis-indexed square fails here and not in a checker.

Objects are the nonempty finite ordinals [n] = {0,...,n}, represented by their
top index n.  A map [m] -> [n] is stored as its tuple of images.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import LevelOutOfRange, NotActive, NotComposable, NotInert


@dataclass(frozen=True)
class DeltaMap:
    """Monotone map [dom] -> [cod], given by the images of 0..dom."""

    dom: int
    cod: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise ValueError("ordinal indices must be >= 0")
        if len(self.images) != self.dom + 1:
            raise ValueError("images must list dom+1 values")
        if any(not 0 <= v <= self.cod for v in self.images):
            raise ValueError("image out of range")
        if any(a > b for a, b in zip(self.images, self.images[1:])):
            raise ValueError("map is not monotone")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return self.dom == self.cod and self.images == tuple(range(self.dom + 1))

    def __str__(self) -> str:
        return format_map(self)


def format_map(f: DeltaMap) -> str:
    """Textual notation ``[m]->[n]:(i0,...,im)`` used in reports and the CLI."""
    return "[%d]->[%d]:(%s)" % (f.dom, f.cod, ",".join(str(v) for v in f.images))


def parse_map(text: str) -> DeltaMap:
    head, _, tail = text.partition(":")
    lhs, _, rhs = head.partition("->")
    dom = int(lhs.strip().strip("[]"))
    cod = int(rhs.strip().strip("[]"))
    body = tail.strip().strip("()")
    images = tuple(int(v) for v in body.split(",")) if body else ()
    return DeltaMap(dom, cod, images)


def identity(n: int) -> DeltaMap:
    return DeltaMap(n, n, tuple(range(n + 1)))


def coface(i: int, n: int) -> DeltaMap:
    """d^i : [n-1] -> [n], the injection missing i."""
    if not 0 <= i <= n or n < 1:
        raise ValueError("coface index out of range")
    return DeltaMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))


def codegeneracy(i: int, n: int) -> DeltaMap:
    """s^i : [n+1] -> [n], the surjection repeating i."""
    if not 0 <= i <= n:
        raise ValueError("codegeneracy index out of range")
    return DeltaMap(n + 1, n, tuple(range(i + 1)) + tuple(range(i, n + 1)))


def compose(g: DeltaMap, f: DeltaMap) -> DeltaMap:
    """g after f (pointwise)."""
    if f.cod != g.dom:
        raise NotComposable(f"cannot compose {g} after {f}")
    return DeltaMap(f.dom, g.cod, tuple(g(v) for v in f.images))


def classify(f: DeltaMap) -> str:
    """One of 'active', 'inert', 'neither', 'both'.

    Active maps preserve both endpoints; inert maps are distance preserving.
    """
    active = f(0) == 0 and f(f.dom) == f.cod
    inert = all(f(i + 1) == f(i) + 1 for i in range(f.dom))
    if active and inert:
        return "both"
    if active:
        return "active"
    if inert:
        return "inert"
    return "neither"


def is_active(f: DeltaMap) -> bool:
    return classify(f) in ("active", "both")


def is_inert(f: DeltaMap) -> bool:
    return classify(f) in ("inert", "both")


def active_inert_factorize(f: DeltaMap) -> tuple[DeltaMap, DeltaMap]:
    """Unique factorization f = i . g with g active and i inert.

    The active part has codomain [f(m) - f(0)]; the inert part is the window
    inclusion onto [f(0), f(m)].
    """
    lo, hi = f(0), f(f.dom)
    g = DeltaMap(f.dom, hi - lo, tuple(v - lo for v in f.images))
    i = DeltaMap(hi - lo, f.cod, tuple(range(lo, hi + 1)))
    return g, i


@dataclass(frozen=True)
class DeltaSquare:
    """Commuting square in the simplex category.

    ``top: A -> B``, ``left: A -> C``, ``right: B -> D``, ``bottom: C -> D``
    with right . top == bottom . left; ``desc`` is a human-readable label.
    """

    top: DeltaMap
    left: DeltaMap
    right: DeltaMap
    bottom: DeltaMap
    desc: str = ""

    def __post_init__(self):
        if compose(self.right, self.top) != compose(self.bottom, self.left):
            raise ValueError("square does not commute")


def pushout_active_inert(g: DeltaMap, i: DeltaMap) -> DeltaSquare:
    """Pushout of an active map g along an inert map i with common domain.

    Writes i as [n] >-> [a] v [n] v [b] and returns the identity-extension
    square whose parallel active side is id_a v g v id_b.
    """
    if not is_active(g):
        raise NotActive(f"{g} is not active")
    if not is_inert(i):
        raise NotInert(f"{i} is not inert")
    if g.dom != i.dom:
        raise NotComposable("pushout needs a common domain")
    n, k, m = g.dom, g.cod, i.cod
    a = i(0)
    b = m - i(n)

    def extended(x: int) -> int:
        if x < a:
            return x
        if x <= a + n:
            return a + g(x - a)
        return x - n + k

    g_ext = DeltaMap(m, a + k + b, tuple(extended(x) for x in range(m + 1)))
    i_ext = DeltaMap(k, a + k + b, tuple(range(a, a + k + 1)))
    return DeltaSquare(
        top=i,
        left=g,
        right=g_ext,
        bottom=i_ext,
        desc=f"pushout of {g} along {i}",
    )


def generator_decomposition(f: DeltaMap) -> list[DeltaMap]:
    """Write f as a sequence of generators.

    The returned list is applied left to right (the composite is
    ``last . ... . first``): all codegeneracies first with descending index,
    then cofaces with ascending index.
    """
    gens: list[DeltaMap] = []
    dup_positions = [j for j in range(f.dom) if f(j) == f(j + 1)]
    level = f.dom
    for j in reversed(dup_positions):
        gens.append(codegeneracy(j, level - 1))
        level -= 1
    hit = set(f.images)
    missing = [v for v in range(f.cod + 1) if v not in hit]
    for v in missing:
        gens.append(coface(v, level + 1))
        level += 1
    return gens


def compose_sequence(gens: list[DeltaMap], dom: int) -> DeltaMap:
    out = identity(dom)
    for g in gens:
        out = compose(g, out)
    return out


def all_maps(dom: int, cod: int):
    """All monotone maps [dom] -> [cod]."""
    for images in combinations_with_replacement(range(cod + 1), dom + 1):
        yield DeltaMap(dom, cod, images)


def all_active_maps(dom: int, cod: int):
    for f in all_maps(dom, cod):
        if is_active(f):
            yield f


def decomposition_axiom_squares(n_max: int) -> list[DeltaSquare]:
    """The active-inert pushout squares whose corners fit in levels <= n_max.

    Two degeneracy squares (the active s^0 against the two outer cofaces of
    [2]) plus, for every inner coface d^i of [n] with n+1 <= n_max, its
    pushouts along both outer cofaces.  All inner indices are emitted, which
    gives the checkers better counterexample localization.
    """
    if n_max < 2:
        raise LevelOutOfRange("decomposition squares need at least two levels")
    s0 = codegeneracy(0, 0)
    squares = [
        pushout_active_inert(s0, coface(0, 2)),
        pushout_active_inert(s0, coface(2, 2)),
    ]
    for n in range(2, n_max):
        for i in range(1, n):
            g = coface(i, n)
            squares.append(pushout_active_inert(g, coface(0, n)))
            squares.append(pushout_active_inert(g, coface(n, n)))
    return squares


def extra_pullback_squares(n_max: int) -> list[DeltaSquare]:
    """The degeneracy squares whose corners fit in levels <= n_max: for each
    n with n+2 <= n_max, s^i against d^j (i < j) and s^{i+1} against d^j
    (j <= i) with cone [n+1], then s^i against s^{j-1} (i < j) with cone [n].
    They are pullbacks in every decomposition space."""
    s, d = codegeneracy, coface
    squares = []
    for n in range(n_max - 1):
        below = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 2)]
        squares += [
            DeltaSquare(s(i, n), d(j + 1, n + 2), d(j, n + 1), s(i, n + 1),
                        f"s_{i}/d_{j} square at level {n + 1} (i<j)")
            for i, j in below
        ]
        squares += [
            DeltaSquare(s(i, n), d(j, n + 2), d(j, n + 1), s(i + 1, n + 1),
                        f"s_{i+1}/d_{j} square at level {n + 1} (j<=i)")
            for i in range(n + 1)
            for j in range(i + 1)
        ]
        squares += [
            DeltaSquare(s(i, n + 1), s(j, n + 1), s(j - 1, n), s(i, n),
                        f"s_{i}/s_{j-1} square at level {n} (i<j)")
            for i, j in below
        ]
    return squares


def segal_axiom_squares(n_max: int) -> list[DeltaSquare]:
    """The outer-face squares on X_{n+1} for 0 < n with n+1 <= n_max."""
    if n_max < 2:
        raise LevelOutOfRange("Segal squares need at least two levels")
    squares = []
    for n in range(1, n_max):
        squares.append(
            DeltaSquare(
                top=coface(n, n),
                left=coface(0, n),
                right=coface(0, n + 1),
                bottom=coface(n + 1, n + 1),
                desc=f"Segal square at n={n}",
            )
        )
    return squares


@dataclass(frozen=True)
class ActiveMapSquareData:
    """Data for one active-map pullback square.

    For an active g: [n] -> [m] split as g_1 v ... v g_n, carries the pieces
    needed to build the square  X_m -> prod X_{m_i}  over  X_n -> prod X_1:
    the window inclusions [m_i] >-> [m] and the edge inclusions [1] >-> [n].
    """

    g: DeltaMap
    splits: tuple[DeltaMap, ...]
    windows: tuple[DeltaMap, ...]
    edges: tuple[DeltaMap, ...]


def active_map_squares(n_max: int) -> list[ActiveMapSquareData]:
    """All active maps [n] -> [m] with n, m <= n_max, with their splittings."""
    if n_max < 1:
        raise LevelOutOfRange("active-map squares need at least one level")
    out = []
    for n in range(0, n_max + 1):
        for m in range(0, n_max + 1):
            for g in all_active_maps(n, m):
                splits = []
                windows = []
                edges = []
                for i in range(1, n + 1):
                    lo, hi = g(i - 1), g(i)
                    mi = hi - lo
                    splits.append(DeltaMap(1, mi, (0, mi)))
                    windows.append(DeltaMap(mi, m, tuple(range(lo, hi + 1))))
                    edges.append(DeltaMap(1, n, (i - 1, i)))
                out.append(
                    ActiveMapSquareData(g, tuple(splits), tuple(windows), tuple(edges))
                )
    return out
