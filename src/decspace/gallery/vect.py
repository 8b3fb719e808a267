"""Exact-sequence staircases over a finite field.

A level-n object is a triangular grid of skeletal spaces A_{ij} = F_q^{d_ij}
(0 <= i <= j <= n, zero on the diagonal) with injective horizontal and
surjective vertical elementary maps, commuting squares, and image = kernel
exactness for every i < j < k.  Because the whole staircase is stored, every
structure map is plain reindexing along a simplex-category map (faces erase
all entries containing an index, degeneracies duplicate a row and column with
identity maps), which is strictly functorial on the nose.

Enumeration is exhaustive and meant for total dimension <= 2 at q in {2, 3};
at dimension 3, ``comultiplication(vect_S(2, 3, 2), 3)`` takes 7.0 s in a
fresh process on a 2-CPU x86-64 machine.  ``staircases`` is the one
enumeration of exact staircases: the Hall numbers count its level-2 output,
the short exact sequences on fixed skeletal spaces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product as iproduct

from .. import delta
from ..groupoids import FiniteGroupoid, GroupoidFunctor, ladders
from ..linalg_fq import (
    all_matrices,
    check_field,
    eye,
    factor_through,
    general_linear,
    image_key,
    injective_matrices,
    is_injective,
    is_invertible,
    kernel_basis,
    mat_inv,
    mat_mul,
    rank,
    span_key,
)
from ..simplicial import SimpMap, TruncSimpGrpd, dec, simplicial_space
from .fatnerve import string_nerve


def _dim(obj, i, j):
    return obj[1][i][j - i]


def _h(obj, i, j):
    return obj[2][i][j - i]


def _v(obj, i, j):
    return obj[3][i][j - i - 1]


def _mul(a, b, rows, mid, cols, q):
    if rows == 0:
        return ()
    if mid == 0 or cols == 0:
        return tuple((0,) * cols for _ in range(rows))
    return mat_mul(a, b, q)


def _row_comp(obj, i, j1, j2, q):
    cur = eye(_dim(obj, i, j1))
    for j in range(j1, j2):
        cur = _mul(_h(obj, i, j), cur, _dim(obj, i, j + 1), _dim(obj, i, j), _dim(obj, i, j1), q)
    return cur


def _col_comp(obj, i1, i2, j, q):
    cur = eye(_dim(obj, i1, j))
    for i in range(i1, i2):
        cur = _mul(_v(obj, i, j), cur, _dim(obj, i + 1, j), _dim(obj, i, j), _dim(obj, i1, j), q)
    return cur


def _gap_validate(obj, q) -> bool:
    n = obj[0]
    for i in range(n + 1):
        if _dim(obj, i, i) != 0:
            return False
    for i in range(n):
        for j in range(i, n):
            if not is_injective(_h(obj, i, j), q) and _dim(obj, i, j) > 0:
                return False
    for i in range(n):
        for j in range(i + 1, n + 1):
            v = _v(obj, i, j)
            if rank(v, q) != _dim(obj, i + 1, j):
                return False
    # elementary squares commute
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _mul(_v(obj, i, j + 1), _h(obj, i, j), _dim(obj, i + 1, j + 1), _dim(obj, i, j + 1), _dim(obj, i, j), q)
            rhs = _mul(_h(obj, i + 1, j), _v(obj, i, j), _dim(obj, i + 1, j + 1), _dim(obj, i + 1, j), _dim(obj, i, j), q)
            if lhs != rhs:
                return False
    # image = kernel for every i < j < k
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                path_h = _row_comp(obj, i, j, k, q)
                path_v = _col_comp(obj, i, j, k, q)
                img = image_key(path_h, q) if _dim(obj, i, j) else ()
                ker = _kernel_key(path_v, _dim(obj, j, k), _dim(obj, i, k), q)
                if img != ker:
                    return False
    return True


def _kernel_key(v, rows, cols, q):
    """Canonical span of the kernel of v, robust at zero shapes."""
    if cols == 0:
        return ()
    if rows == 0:
        return span_key(eye(cols), q)
    return span_key(kernel_basis(v, q), q)


def _compositions(n, bound):
    if n == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _compositions(n - 1, bound - head):
            yield (head,) + tail


def staircases(q, dims):
    """Every staircase whose layers have dimensions dims, built row by row.

    Each vertical surjection is read from an index of the surjective r x c
    matrices by kernel, kept in ``all_matrices`` order and filled on first
    use per shape within this call."""
    n = len(dims)
    pref = [0, *accumulate(dims)]
    grid = tuple(
        tuple(pref[j] - pref[i] for j in range(i, n + 1)) for i in range(n + 1)
    )

    def dim(i, j):
        return grid[i][j - i]

    surjections = {}

    def by_kernel(r, c):
        if (r, c) not in surjections:
            index = surjections[(r, c)] = {}
            for v in all_matrices(r, c, q):
                if rank(v, q) == r:
                    index.setdefault(_kernel_key(v, r, c, q), []).append(v)
        return surjections[(r, c)]

    row0_choices = [[tuple(() for _ in range(dim(0, 1)))]]
    for j in range(1, n):
        row0_choices.append(list(injective_matrices(dim(0, j + 1), dim(0, j), q)))

    def row_comp_partial(row_h, i, j1, j2):
        cur = eye(dim(i, j1))
        for j in range(j1, j2):
            cur = _mul(row_h[j - i], cur, dim(i, j + 1), dim(i, j), dim(i, j1), q)
        return cur

    def build_rows(h_rows, v_rows, i):
        # h_rows holds rows 0..min(i, n-1); v_rows holds rows < i
        if i == n:
            obj = (n, grid, tuple(tuple(r) for r in h_rows), tuple(tuple(r) for r in v_rows))
            if _gap_validate(obj, q):
                yield obj
            return

        def choose_v(j, vs):
            if j > n:
                if i + 1 < n:
                    # derive the next row of horizontal maps through the
                    # surjections just chosen
                    h_next = []
                    for jj in range(i + 1, n):
                        upper = _mul(
                            vs[jj + 1 - i - 1],
                            h_rows[i][jj - i],
                            dim(i + 1, jj + 1),
                            dim(i, jj + 1),
                            dim(i, jj),
                            q,
                        )
                        g = factor_through(vs[jj - i - 1], upper, q)
                        if g is None:
                            return
                        h_next.append(g)
                    yield from build_rows(h_rows + [h_next], v_rows + [vs], i + 1)
                else:
                    yield from build_rows(h_rows, v_rows + [vs], i + 1)
                return
            if j == i + 1:
                yield from choose_v(j + 1, vs + [()])
                return
            target_kernel = (
                image_key(row_comp_partial(h_rows[i], i, i + 1, j), q)
                if dim(i, i + 1)
                else ()
            )
            for v in by_kernel(dim(i + 1, j), dim(i, j)).get(target_kernel, ()):
                yield from choose_v(j + 1, vs + [v])

        yield from choose_v(i + 1, [])

    for hs in iproduct(*row0_choices):
        yield from build_rows([list(hs)], [], 0)


def _v_level_objects(n, bound, q):
    if n == 0:
        return [(0, ((0,),), (), ())]
    objects = []
    for cs in _compositions(n, bound):
        objects.extend(staircases(q, cs))
    return objects


@lru_cache(maxsize=None)
def _gap_isos(q, x, y):
    """Commuting tuples of invertible matrices between two staircases."""
    n = x[0]
    if x[1] != y[1]:
        return ()
    dims = x[1]

    def dim(i, j):
        return dims[i][j - i]

    out = []

    # row 0 links g_{0,j} to g_{0,j+1} by h_y(0,j) g_{0,j} = g_{0,j+1} h_x(0,j)
    def before(j, f):
        return _mul(_h(y, 0, j), f, dim(0, j + 1), dim(0, j), dim(0, j), q)

    def after(j, g):
        return _mul(g, _h(x, 0, j), dim(0, j + 1), dim(0, j), dim(0, j), q)

    def propagate(row0):
        rows = [row0]
        for i in range(1, n):
            prev = rows[-1]
            cur = []
            for j in range(i + 1, n + 1):
                g = factor_through(
                    _v(x, i - 1, j),
                    _mul(_v(y, i - 1, j), prev[j - i], dim(i, j), dim(i - 1, j), dim(i - 1, j), q),
                    q,
                )
                if g is None or not is_invertible(g, q):
                    return
                cur.append(g)
            for j in range(i + 1, n):
                lhs = _mul(cur[j - i], _h(x, i, j), dim(i, j + 1), dim(i, j), dim(i, j), q)
                rhs = _mul(_h(y, i, j), cur[j - i - 1], dim(i, j + 1), dim(i, j), dim(i, j), q)
                if lhs != rhs:
                    return
            rows.append(cur)
        out.append(tuple(tuple(r) for r in rows))

    if n == 0:
        return ((),)
    for row0 in ladders([general_linear(dim(0, j), q) for j in range(1, n + 1)], before, after):
        propagate(row0)
    return tuple(out)


def _g_entry(gs, i, j):
    return gs[i][j - i - 1]


def _gap_compose(q):
    def compose(g, f):
        # entrywise product; mat_mul handles the empty (0 x 0) entries
        return tuple(
            tuple(mat_mul(a, b, q) for a, b in zip(rg, rf))
            for rg, rf in zip(g, f)
        )

    return compose


def _gap_identity(obj):
    n = obj[0]
    return tuple(
        tuple(eye(_dim(obj, i, j)) for j in range(i + 1, n + 1)) for i in range(n)
    )


def _gap_inverse(q):
    def inverse(gs):
        return tuple(
            tuple(mat_inv(m, q) if m else m for m in row) for row in gs
        )

    return inverse


def _reindex_obj(obj, dmap, q):
    m = dmap.dom
    dims = tuple(
        tuple(_dim(obj, dmap(a), dmap(b)) for b in range(a, m + 1)) for a in range(m + 1)
    )
    hs = tuple(
        tuple(_row_comp(obj, dmap(a), dmap(b), dmap(b + 1), q) for b in range(a, m))
        for a in range(m)
    )
    vs = tuple(
        tuple(_col_comp(obj, dmap(a), dmap(a + 1), dmap(b), q) for b in range(a + 1, m + 1))
        for a in range(m)
    )
    return (m, dims, hs, vs)


def _reindex_arr(gs, dmap, obj_src):
    m = dmap.dom
    out = []
    for a in range(m):
        row = []
        for b in range(a + 1, m + 1):
            if dmap(a) < dmap(b):
                row.append(_g_entry(gs, dmap(a), dmap(b)))
            else:
                row.append(())
        out.append(tuple(row))
    return tuple(out)


def vect_S(q: int, max_total_dim: int, N: int) -> TruncSimpGrpd:
    """Exact-sequence staircases over F_q, graded by total dimension."""
    check_field(q)
    levels = []
    for n in range(N + 1):
        objs = _v_level_objects(n, max_total_dim, q)
        levels.append(
            FiniteGroupoid(
                f"V_{n}",
                objs,
                lambda x, y, q=q: _gap_isos(q, x, y),
                _gap_compose(q),
                _gap_inverse(q),
                _gap_identity,
                grade=lambda x: x[1][0][-1],
                canon_key=lambda x: x[1],
            )
        )

    def reindex(dm):
        return (lambda obj: _reindex_obj(obj, dm, q), lambda x, y, d: _reindex_arr(d, dm, x))

    return simplicial_space(
        f"vect(q={q})",
        levels,
        lambda n, i: reindex(delta.coface(i, n)),
        lambda n, i: reindex(delta.codegeneracy(i, n)),
        max_total_dim,
    )


# ---------------------------------------------------------------------------
# the fat nerve of injective maps, and the bottom-decalage comparison


def mono_nerve(q: int, bound: int, N: int) -> TruncSimpGrpd:
    """Strings of injective linear maps between skeletal F_q spaces, with
    commuting ladders of invertible matrices as morphisms."""
    check_field(q)
    return string_nerve(
        f"mono(q={q})",
        "mono",
        range(bound + 1),
        lambda a: [(b, m) for b in range(a, bound + 1) for m in injective_matrices(b, a, q)],
        lambda a, b: general_linear(a, q) if a == b else (),
        lambda g, f: mat_mul(g, f, q),
        lambda a: mat_inv(a, q),
        eye,
        N,
        bound,
        grade=lambda x: x[0][-1],
        canon_key=lambda x: x[0],
    )


def mono_projection(q: int, bound: int, N: int) -> SimpMap:
    """The bottom-row projection from the bottom decalage of the staircase
    family to the nerve of injective maps; a strict levelwise equivalence."""
    V = vect_S(q, bound, N + 1)
    DecV, _ = dec(V, "bottom")
    nerve = mono_nerve(q, bound, N)

    def omap(obj):
        n = obj[0]
        dims = tuple(_dim(obj, 0, j) for j in range(1, n + 1))
        mats = tuple(_h(obj, 0, j) for j in range(1, n))
        return (dims, mats)

    def amap(x, y, gs):
        n = x[0]
        return tuple(_g_entry(gs, 0, j) for j in range(1, n + 1))

    comps = tuple(
        GroupoidFunctor(DecV.level(k), nerve.level(k), omap, amap, name="bottom-row")
        for k in range(N + 1)
    )
    return SimpMap(f"bottom-row[vect(q={q})]", DecV, nerve, comps)
