"""Exact linear algebra over the prime fields F_2 and F_3.

Matrices are tuples of row tuples; a linear map F^c -> F^r is an r x c
matrix acting on column vectors.  Everything is enumerated explicitly, which
is fine at the dimensions this package works at (<= 3).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from .errors import UnsupportedField

SUPPORTED_FIELDS = (2, 3)


def check_field(q: int) -> None:
    if q not in SUPPORTED_FIELDS:
        raise UnsupportedField(f"q={q} not supported; expected one of {SUPPORTED_FIELDS}")


def eye(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a, b, q: int):
    ra = len(a)
    rb = len(b)
    cb = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(rb)) % q for j in range(cb))
        for i in range(ra)
    )


def mat_vec(a, v, q: int):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % q for row in a)


def transpose(a):
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def _row_reduce(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """In-place row echelon; returns (reduced rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % q != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], q - 2, q) if q > 2 else rows[r][c]
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a, q: int) -> int:
    if not a or not a[0]:
        return 0
    _, pivots = _row_reduce([list(r) for r in a], q)
    return len(pivots)


def is_injective(a, q: int) -> bool:
    return rank(a, q) == shape(a)[1]


def is_invertible(a, q: int) -> bool:
    r, c = shape(a)
    return r == c and rank(a, q) == r


def mat_inv(a, q: int):
    n = len(a)
    aug = [list(a[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = _row_reduce(aug, q)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(red[i][n:]) for i in range(n))


def kernel_basis(a, q: int):
    """Basis of the kernel of the map F^c -> F^r given by a."""
    r, c = shape(a)
    if c == 0:
        return ()
    if r == 0:
        return tuple(tuple(1 if i == j else 0 for j in range(c)) for i in range(c))
    red, pivots = _row_reduce([list(row) for row in a], q)
    free = [j for j in range(c) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * c
        v[j] = 1
        for i, p in enumerate(pivots):
            v[p] = (-red[i][j]) % q
        basis.append(tuple(v))
    return tuple(basis)


def span_key(vectors, q: int):
    """Canonical form (reduced echelon rows) of the span of the vectors."""
    vecs = [list(v) for v in vectors if any(x % q for x in v)]
    if not vecs:
        return ()
    red, pivots = _row_reduce(vecs, q)
    return tuple(tuple(r) for r in red[: len(pivots)])


def image_key(a, q: int):
    return span_key(transpose(a), q)


def all_matrices(rows: int, cols: int, q: int):
    if rows == 0 or cols == 0:
        yield tuple(() for _ in range(rows))
        return
    for flat in iproduct(range(q), repeat=rows * cols):
        yield tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))


def injective_matrices(rows: int, cols: int, q: int):
    for a in all_matrices(rows, cols, q):
        if rank(a, q) == cols:
            yield a


@lru_cache(maxsize=None)
def general_linear(n: int, q: int):
    """All invertible n x n matrices (cached; small n only)."""
    return tuple(a for a in all_matrices(n, n, q) if is_invertible(a, q))


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def factor_through(v, f, q: int):
    """Given surjective v: F^c -> F^r and f: F^c -> F^s with ker v <= ker f,
    the unique g with g v = f; None if no such g exists."""
    r, c = shape(v)
    s = len(f)
    if r == 0:
        # target of v is the zero space; g exists iff f is zero
        if all(x % q == 0 for row in f for x in row):
            return tuple(() for _ in range(s))
        return None
    cols_g = []
    for i in range(r):
        target = tuple(1 if j == i else 0 for j in range(r))
        x = solve(v, target, q)
        if x is None:
            return None
        cols_g.append(mat_vec(f, x, q))
    g = tuple(tuple(cols_g[j][i] for j in range(r)) for i in range(s))
    if mat_mul(g, v, q) != f:
        return None
    return g


def solve(a, b, q: int):
    """One solution x of a x = b, or None."""
    r, c = shape(a)
    aug = [list(a[i]) + [b[i]] for i in range(r)]
    red, pivots = _row_reduce(aug, q)
    if c in pivots:
        return None
    x = [0] * c
    for i, p in enumerate(pivots):
        x[p] = red[i][c]
    return tuple(x)
