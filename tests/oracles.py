"""Independent brute-force oracles for the coalgebra tables and for
equivalence testing, and reference routes for ``evaluate`` and for
composing a generator decomposition.

Each table and equivalence oracle enumerates the combinatorics directly on
one concrete representative (cuts of a forest, ordered vertex bipartitions
of a graph, subspaces of F_q^n, every hom-set of a functor) and never touches
the simplicial machinery or the class bookkeeping it is used to check.
``ladder_isos_reference`` is a depth-first hom-set search that shares no
code with ``groupoids.ladders``, and ``layer_perms_reference`` filters every
permutation of the labels, sharing no code with ``gallery.sets.layered_space``.
``staircases_reference`` scans every matrix for each vertical surjection,
where ``gallery.vect.staircases`` reads them from a kernel index.
``fibre_by_scan`` reads every source object, where ``homotopy_fibre`` reads
the functor's preimage index.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct

from decspace import delta
from decspace.gallery.forests import _forest_canon
from decspace.gallery.graphs import _graph_canon
from decspace.gallery.vect import _gap_validate, _kernel_key, _mul
from decspace.groupoids import compose_functors, identity_functor
from decspace.linalg_fq import (
    all_matrices,
    eye,
    factor_through,
    image_key,
    injective_matrices,
    rank,
)


def forest_cut_oracle(parents):
    """Coproduct terms of a forest by direct recursion over admissible cuts.

    A cut is a downward-closed node set D (the root part); the complement is
    the crown.  Emits Counter {(crown class, root-part class): multiplicity}
    over all cuts of the fixed labelled forest.
    """
    m = len(parents)
    terms = Counter()
    for picks in iproduct((False, True), repeat=m):
        ok = all(
            (not picks[e]) or parents[e] == -1 or picks[parents[e]]
            for e in range(m)
        )
        if not ok:
            continue
        root_part = [e for e in range(m) if picks[e]]
        crown = [e for e in range(m) if not picks[e]]
        terms[(_restrict_forest(parents, crown), _restrict_forest(parents, root_part))] += 1
    return terms


def _restrict_forest(parents, keep):
    pos = {e: i for i, e in enumerate(keep)}
    sub_parents = tuple(
        pos[parents[e]] if parents[e] in pos else -1 for e in keep
    )
    layers = tuple(1 for _ in keep)
    return _forest_canon((len(keep), sub_parents, layers))


def graph_bipartition_oracle(m, edges):
    """Graph coproduct terms by enumerating ordered vertex bipartitions."""
    terms = Counter()
    for picks in iproduct((0, 1), repeat=m):
        part_a = [v for v in range(m) if picks[v] == 0]
        part_b = [v for v in range(m) if picks[v] == 1]
        terms[(_induced_graph(edges, part_a), _induced_graph(edges, part_b))] += 1
    return terms


def _induced_graph(edges, keep):
    pos = {v: i for i, v in enumerate(keep)}
    sub = tuple(
        sorted((pos[u], pos[v]) for (u, v) in edges if u in pos and v in pos)
    )
    return _graph_canon((len(keep), sub, tuple(1 for _ in keep)))


def subspace_count_oracle(n, k, q):
    """Number of k-dimensional subspaces of F_q^n (q prime), by closing every
    k-tuple of vectors under addition and scalar multiples and counting the
    distinct spans with q^k elements."""
    vectors = list(iproduct(range(q), repeat=n))

    def span(gens):
        out = {(0,) * n}
        for v in gens:
            out = {tuple((s + c * x) % q for s, x in zip(w, v)) for w in out for c in range(q)}
        return frozenset(out)

    spans = {span(gens) for gens in iproduct(vectors, repeat=k)}
    return sum(1 for S in spans if len(S) == q**k)


def binomial_coefficient(n, a):
    out = Fraction(1)
    for i in range(a):
        out *= Fraction(n - i, i + 1)
    assert out.denominator == 1
    return int(out)


def equivalence_oracle(F):
    """Whether the functor F is an equivalence, by definition: every object
    of the target is isomorphic to an image, and F maps every hom-set
    A(x, y) bijectively onto B(Fx, Fy)."""
    A, B = F.source, F.target
    images = [F.obj(x) for x in A.objects]
    for b in B.objects:
        if not any(B.hom(b, i) for i in images):
            return False
    for x in A.objects:
        for y in A.objects:
            src = A.hom(x, y)
            tgt = set(B.hom(F.obj(x), F.obj(y)))
            img = {F.arr(x, y, d) for d in src}
            if len(img) != len(src) or img != tgt:
                return False
    return True


def fibre_by_scan(F, s):
    """The objects (x, sigma: F x -> s) of the homotopy fibre of F over s,
    from a scan of every source object and its target hom-set to s, in
    source object order."""
    return tuple((x, sigma) for x in F.source.objects for sigma in F.target.hom(F.obj(x), s))


def compose_sequence(gens, dom):
    """The composite ``last . ... . first`` of a list of simplex maps applied
    left to right, starting from the identity of [dom]."""
    out = delta.identity(dom)
    for g in gens:
        out = delta.compose(g, out)
    return out


def evaluate_by_composition(X, f):
    """X(f) as a chain of ``compose_functors`` over the generator images of
    f, starting from the identity functor of X_cod.  ``evaluate`` applies the
    same generators inside one functor; the two must agree."""
    out = identity_functor(X.level(f.cod))
    for gen in reversed(delta.generator_decomposition(f)):
        if gen.cod == gen.dom + 1:
            missing = next(v for v in range(gen.cod + 1) if v not in gen.images)
            out = compose_functors(X.face(gen.cod, missing), out)
        else:
            rep = next(j for j in range(gen.dom) if gen(j) == gen(j + 1))
            out = compose_functors(X.degeneracy(gen.cod, rep), out)
    return out


def ladder_isos_reference(choices, commutes):
    """Every tuple (g_0, ..., g_k) with g_j from ``choices[j]`` and
    ``commutes(j, prefix, g_j)`` true for the entries ``prefix`` chosen
    before it, by depth-first recursion in order of the choices.

    ``commutes`` sees the whole prefix, so one search covers ladders (which
    compare g_j with g_{j-1}) and grids of isomorphisms (which also compare
    an entry with the one above it)."""
    out = []

    def rec(prefix):
        j = len(prefix)
        if j == len(choices):
            out.append(tuple(prefix))
            return
        for g in choices[j]:
            if commutes(j, prefix, g):
                rec(prefix + [g])

    rec([])
    return tuple(out)


def layer_perms_reference(x, y, keeps):
    """Every permutation pi of range(m), in the order of
    ``itertools.permutations``, that sends each label of the layered object
    x = (m, ..., layers) to a label of the same layer of y and passes
    ``keeps(x, y, pi)``."""
    m, lx, ly = x[0], x[-1], y[-1]
    if y[0] != m:
        return ()
    return tuple(
        pi
        for pi in permutations(range(m))
        if all(ly[pi[e]] == lx[e] for e in range(m)) and keeps(x, y, pi)
    )


def keeps_any(x, y, pi):
    return True


def keeps_parents(x, y, pi):
    """pi is a forest isomorphism: roots go to roots, and the parent of e
    goes to the parent of pi(e)."""
    px, py = x[1], y[1]
    return all(
        (py[pi[e]] == -1) if px[e] == -1 else (py[pi[e]] == pi[px[e]])
        for e in range(len(px))
    )


def keeps_edges(x, y, pi):
    """pi is a graph isomorphism: as many edges, and each edge of x goes to
    an edge of y."""
    ex, ey = x[1], y[1]
    eyset = set(ey)
    return len(ex) == len(ey) and all(
        (min(pi[u], pi[v]), max(pi[u], pi[v])) in eyset for (u, v) in ex
    )


def staircases_reference(q, dims):
    """Every staircase whose layers have dimensions ``dims``, built row by row:
    each vertical surjection is found by scanning all matrices of its shape
    for rank and kernel at every prefix, and each finished grid is validated."""
    n = len(dims)
    pref = [0]
    for c in dims:
        pref.append(pref[-1] + c)
    grid = tuple(
        tuple(pref[j] - pref[i] for j in range(i, n + 1)) for i in range(n + 1)
    )

    def dim(i, j):
        return grid[i][j - i]

    row0_choices = [[tuple(() for _ in range(dim(0, 1)))]]
    for j in range(1, n):
        row0_choices.append(list(injective_matrices(dim(0, j + 1), dim(0, j), q)))

    out = []

    def row_comp_partial(row_h, i, j1, j2):
        cur = eye(dim(i, j1))
        for j in range(j1, j2):
            cur = _mul(row_h[j - i], cur, dim(i, j + 1), dim(i, j), dim(i, j1), q)
        return cur

    def build_rows(h_rows, v_rows, i):
        if i == n:
            obj = (n, grid, tuple(tuple(r) for r in h_rows), tuple(tuple(r) for r in v_rows))
            if _gap_validate(obj, q):
                out.append(obj)
            return

        def choose_v(j, vs):
            if j > n:
                if i + 1 < n:
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
                    build_rows(h_rows + [h_next], v_rows + [vs], i + 1)
                else:
                    build_rows(h_rows, v_rows + [vs], i + 1)
                return
            if j == i + 1:
                choose_v(j + 1, vs + [()])
                return
            target_kernel = (
                image_key(row_comp_partial(h_rows[i], i, i + 1, j), q)
                if dim(i, i + 1)
                else ()
            )
            r, c = dim(i + 1, j), dim(i, j)
            for v in all_matrices(r, c, q):
                if rank(v, q) != r:
                    continue
                if _kernel_key(v, r, c, q) == target_kernel:
                    choose_v(j + 1, vs + [v])

        choose_v(i + 1, [])

    for hs in iproduct(*row0_choices):
        build_rows([list(hs)], [], 0)
    return out
