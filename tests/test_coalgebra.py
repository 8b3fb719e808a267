from fractions import Fraction

import pytest

from decspace.coalgebra import (
    SparseMat,
    SparseVec,
    basis,
    check_bialgebra,
    check_coassociativity,
    coeff_vector,
    coeff_vector_via_fibre,
    comultiplication,
    counit,
    delta_n,
    gaussian_binomial,
    hall_number,
    homomorphism_check,
    matrix_compose,
    multiplication,
    pushforward_hom,
)
from decspace.errors import GradeOverflow, LevelOutOfRange, MonoidalStructureMissing, UnsupportedField
from decspace.gallery import binomial_B, forests_H, graphs_G, injections_I, mono_projection, oi_to_i, vect_S
from decspace.gallery.forests import render_forest_key
from decspace.groupoids import GroupoidFunctor
from decspace.simplicial import (
    SimpMap,
    check_culf,
    constant_map_to_point,
    corrupted_variant,
    dec,
    product_simplicial,
)

from controls import class_bijection_inverse, identity_simp_map, name_functor, tuple_functor
from oracles import (
    binomial_coefficient,
    forest_cut_oracle,
    graph_bipartition_oracle,
    subspace_count_oracle,
)


def test_basis_binomial(binomial3):
    b = basis(binomial3, 3)
    assert [e.key for e in b] == [(0,), (1,), (2,), (3,)]
    assert [e.aut_order for e in b] == [1, 1, 2, 6]


def test_basis_forests_two_nodes():
    H = forests_H(2, 2)
    b = basis(H, 2)
    assert {render_forest_key(e.key) for e in b} == {"0", "()", "(())", "()()"}


def test_basis_poset(divisibility_nerve):
    b = basis(divisibility_nerve, 0)
    assert {e.key for e in b} == {(1, 1), (2, 2), (4, 4), (1, 2), (2, 4), (1, 4)}


def test_basis_grade_overflow(binomial3):
    with pytest.raises(GradeOverflow):
        basis(binomial3, 9)


def test_coeff_vector_name(binomial3):
    B1 = binomial3.level(1)
    v = coeff_vector(name_functor(B1, (2, (1, 1))), 3)
    assert v == SparseVec({(2,): Fraction(1)})


def test_coeff_vector_two_routes(binomial3, forests3):
    for X, n, i in ((binomial3, 2, 2), (binomial3, 2, 0), (forests3, 2, 1), (forests3, 1, 0)):
        F = X.face(n, i)
        assert coeff_vector(F, X.grade_bound) == coeff_vector_via_fibre(F, X.grade_bound)


def test_comultiplication_binomial(binomial4):
    mat = comultiplication(binomial4, 4)
    for n in range(5):
        col = mat.column((n,))
        assert col == {
            ((a,), (n - a,)): Fraction(binomial_coefficient(n, a)) for a in range(n + 1)
        }


def test_comultiplication_forest_ladder(forests3):
    mat = comultiplication(forests3, 3)
    ladder = next(
        e.key for e in basis(forests3, 3) if render_forest_key(e.key) == "(())"
    )
    col = mat.column(ladder)
    rendered = {
        (render_forest_key(a), render_forest_key(b)): v for (a, b), v in col.items()
    }
    assert rendered == {
        ("0", "(())"): Fraction(1),
        ("()", "()"): Fraction(1),
        ("(())", "0"): Fraction(1),
    }


def test_comultiplication_forest_oracle(forests3):
    # every tree with <= 3 nodes against direct cut enumeration
    mat = comultiplication(forests3, 3)
    from decspace.gallery.forests import _forest_canon, _labeled_forests

    seen = set()
    for m in range(4):
        for parents in _labeled_forests(m):
            key = _forest_canon((m, parents, tuple(1 for _ in range(m))))
            if key in seen:
                continue
            seen.add(key)
            expected = forest_cut_oracle(parents)
            col = mat.column(key)
            assert col == {
                pair: Fraction(mult) for pair, mult in expected.items()
            }, f"mismatch at {render_forest_key(key)}"


def test_comultiplication_poset(divisibility_nerve):
    mat = comultiplication(divisibility_nerve, 0)
    col = mat.column((1, 4))
    assert col == {
        ((1, 1), (1, 4)): Fraction(1),
        ((1, 2), (2, 4)): Fraction(1),
        ((1, 4), (4, 4)): Fraction(1),
    }


def test_comultiplication_graphs_oracle(graphs3):
    mat = comultiplication(graphs3, 3)
    from decspace.gallery.graphs import _graph_canon, _graphs

    seen = set()
    for m in range(4):
        for edges in _graphs(m):
            key = _graph_canon((m, edges, tuple(1 for _ in range(m))))
            if key in seen:
                continue
            seen.add(key)
            expected = graph_bipartition_oracle(m, edges)
            col = mat.column(key)
            assert col == {pair: Fraction(mult) for pair, mult in expected.items()}


def test_counit_families(binomial3, forests3, divisibility_nerve):
    eps = counit(binomial3, 3)
    assert eps == SparseVec({(0,): Fraction(1)})
    eps = counit(forests3, 3)
    assert eps == SparseVec({(): Fraction(1)})
    eps = counit(divisibility_nerve, 0)
    assert eps == SparseVec({(1, 1): Fraction(1), (2, 2): Fraction(1), (4, 4): Fraction(1)})


def test_delta_n_contracts(binomial3):
    d0 = delta_n(binomial3, 0, 3)
    eps = counit(binomial3, 3)
    assert d0 == SparseMat({((), k): v for k, v in eps.entries.items()})
    d1 = delta_n(binomial3, 1, 3)
    assert d1 == SparseMat(
        {((e.key,), e.key): Fraction(1) for e in basis(binomial3, 3)}
    )
    with pytest.raises(LevelOutOfRange):
        delta_n(binomial3, 7, 3)


def test_delta_3_multinomials(binomial3):
    d3 = delta_n(binomial3, 3, 3)
    col = d3.column((2,))
    expected = {}
    for a in range(3):
        for b in range(3 - a):
            c = 2 - a - b
            expected[((a,), (b,), (c,))] = Fraction(2, 1) / (
                Fraction(
                    [1, 1, 2][a] * [1, 1, 2][b] * [1, 1, 2][c]
                )
            )
    assert col == expected


def test_coassociativity_families(binomial4, forests3, graphs3, vect22, chain_nerve):
    for X, bound in (
        (binomial4, 4),
        (forests3, 3),
        (graphs3, 3),
        (vect22, 2),
        (chain_nerve, 0),
    ):
        rep = check_coassociativity(X, bound)
        assert rep.passed, (X.name, rep.first_failure())


def test_coassociativity_negative_control(forests3):
    Xc, _ = corrupted_variant(forests3, 5)
    rep = check_coassociativity(Xc, 3)
    assert not rep.passed


def test_pushforward_identity(binomial3):
    M = pushforward_hom(identity_simp_map(binomial3), 3)
    assert M == SparseMat({(e.key, e.key): Fraction(1) for e in basis(binomial3, 3)})


def test_reduction_homomorphism():
    I, equiv = injections_I(3, 3)
    B4 = binomial_B(3, 4)
    DecB, dmap = dec(B4, "bottom")
    M = matrix_compose(
        pushforward_hom(dmap, 3), class_bijection_inverse(pushforward_hom(equiv, 3))
    )
    # an injection class goes to its complement size
    for (bkey, ikey), v in M.entries.items():
        assert v == 1
        assert bkey == (ikey[1] - ikey[0],)
    rep = homomorphism_check(M, I, dmap.target, 3)
    assert rep.passed


def _first_projection():
    """pr1: H x H -> H on forests_H(2, 2), which is not CULF."""
    H = forests_H(2, 2)
    P = product_simplicial(H, H, grade_bound=2)
    comps = tuple(
        GroupoidFunctor(P.level(n), H.level(n), lambda o: o[0], lambda x, y, d: d[0])
        for n in range(3)
    )
    return SimpMap("pr1", P, H, comps)


def test_non_culf_projection_breaks_homomorphism():
    F = _first_projection()
    M = pushforward_hom(F, 2)
    rep = homomorphism_check(M, F.source, F.target, 2)
    assert not rep.passed


def _homomorphism_at(F, b):
    return homomorphism_check(pushforward_hom(F, b), F.source, F.target, b)


def test_culf_maps_are_coalgebra_homomorphisms():
    # a CULF map pushes forward to a coalgebra homomorphism: every CULF pass
    # below must come with both identities (comultiplication and counit)
    spaces = (binomial_B(3, 3), forests_H(3, 3), graphs_G(2, 3))
    culf = [F for X in spaces for F in (X.monoidal, dec(X, "bottom")[1], dec(X, "top")[1])]
    culf += [oi_to_i(3, 3), injections_I(3, 3)[1], mono_projection(2, 2, 2)]
    for F in culf:
        assert check_culf(F).passed, F.name
        rep = _homomorphism_at(F, F.source.grade_bound)
        assert [r.passed for r in rep.squares] == [True, True], F.name
    # the point's grade bound is 0, so the constant maps are compared at
    # b = 0, where they keep both identities without being CULF
    for X in spaces:
        F = constant_map_to_point(X)
        assert not check_culf(F).passed
        assert _homomorphism_at(F, 0).passed
    F = _first_projection()
    assert not check_culf(F).passed
    assert [r.passed for r in _homomorphism_at(F, 2).squares] == [False, False]


def test_multiplication_tables(binomial3, forests3):
    M = multiplication(binomial3, 3)
    assert M[((2,), ((1,), (1,)))] == 1
    assert M[((3,), ((1,), (2,)))] == 1
    unit = binomial3.unit_key
    for e in basis(binomial3, 3):
        assert M[(e.key, (unit, e.key))] == 1
    M = multiplication(forests3, 3)
    dot = next(e.key for e in basis(forests3, 3) if render_forest_key(e.key) == "()")
    two = next(e.key for e in basis(forests3, 3) if render_forest_key(e.key) == "()()")
    assert M[(two, (dot, dot))] == 1


def test_multiplication_missing(chain_nerve):
    with pytest.raises(MonoidalStructureMissing):
        multiplication(chain_nerve, 0)


def test_bialgebra_families(binomial3, graphs3):
    assert check_bialgebra(binomial3, 3).passed
    assert check_bialgebra(graphs3, 3).passed
    H = forests_H(3, 3)
    assert check_bialgebra(H, 3).passed


def test_hall_numbers():
    assert hall_number(2, 2, 1).coefficient == 3
    assert hall_number(2, 3, 1).coefficient == 7
    assert hall_number(3, 2, 1).coefficient == 4
    for q in (2, 3):
        for n in range(4):
            for k in range(n + 1):
                res = hall_number(q, n, k)
                assert res.match
                assert res.coefficient == subspace_count_oracle(n, k, q)
    with pytest.raises(UnsupportedField):
        hall_number(5, 2, 1)


def test_subspace_count_oracle():
    # Gaussian binomials [n choose k]_q for n <= 3, k = 0..n, in that order
    counts = {2: [1, 1, 1, 1, 3, 1, 1, 7, 7, 1], 3: [1, 1, 1, 1, 4, 1, 1, 13, 13, 1]}
    for q, expected in counts.items():
        assert [subspace_count_oracle(n, k, q) for n in range(4) for k in range(n + 1)] == expected


def test_hall_matches_machinery_coefficient():
    """hall_number equals the (F^k, F^{n-k}) entry of the F^n column of the
    comultiplication of the S-construction, computed through its d_1-fibre."""
    for q in (2, 3):
        for n in range(3):
            V = vect_S(q, n, 2)
            key = {e.grade: e.key for e in basis(V, n)}
            col = comultiplication(V, n).column(key[n])
            for k in range(n + 1):
                assert col[(key[k], key[n - k])] == hall_number(q, n, k).coefficient, (q, n, k)


def test_gaussian_binomial_symmetry():
    for q in (2, 3):
        for n in range(4):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_two_route_comultiplication(binomial3, forests3, graphs3):
    # coefficient at (a, b) equals cardinality of the triple-face fibre over
    # (f, a, b) divided by |Aut a| |Aut b|
    from decspace.groupoids import (
        groupoid_cardinality,
        homotopy_fibre,
        product_list,
    )

    for X in (binomial3, forests3, graphs3):
        bound = X.grade_bound
        mat = comultiplication(X, bound)
        X1, X2 = X.level(1), X.level(2)
        triple = product_list([X1, X1, X1], name="X1^3")
        F = tuple_functor(
            [X.face(2, 1), X.face(2, 2), X.face(2, 0)], X2, triple, name="(d1,d2,d0)"
        )
        auts = {e.key: e.aut_order for e in basis(X, bound)}
        reps = {e.key: e.rep for e in basis(X, bound)}
        for f in basis(X, bound):
            for a in basis(X, bound):
                for b in basis(X, bound):
                    if a.grade + b.grade != f.grade:
                        continue
                    fib = homotopy_fibre(F, (reps[f.key], reps[a.key], reps[b.key]))
                    card = groupoid_cardinality(fib)
                    expected = card / (auts[a.key] * auts[b.key])
                    assert mat[((a.key, b.key), f.key)] == expected
