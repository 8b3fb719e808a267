"""Property suites: exact algebraic laws checked over the gallery, plus
hypothesis-driven simplex-category and ladder-search properties."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from decspace import delta
from decspace.coalgebra import basis, coeff_vector, coeff_vector_via_fibre, comultiplication, counit
from decspace.gallery import forests_H
from decspace.groupoids import groupoid_cardinality, homotopy_fibre, iso_classes, ladders
from decspace.simplicial import (
    check_culf,
    check_decomposition,
    check_decomposition_active,
    corrupted_variant,
    dec,
)

from oracles import ladder_isos_reference


@st.composite
def monotone(draw, max_n=5):
    m = draw(st.integers(0, max_n))
    n = draw(st.integers(0, max_n))
    vals = draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1))
    return delta.DeltaMap(m, n, tuple(sorted(vals)))


@given(monotone())
@settings(max_examples=120)
def test_factorization_contract(f):
    g, i = delta.active_inert_factorize(f)
    assert delta.is_active(g)
    assert delta.is_inert(i)
    assert delta.compose(i, g) == f
    assert g.dom == f.dom and i.cod == f.cod
    assert g.cod == f.images[-1] - f.images[0]


@given(monotone())
@settings(max_examples=120)
def test_generator_decomposition_recomposes(f):
    assert delta.compose_sequence(delta.generator_decomposition(f), f.dom) == f


@given(monotone(3), monotone(3))
@settings(max_examples=80)
def test_pushout_squares_commute(g, i):
    if not (delta.is_active(g) and delta.is_inert(i) and g.dom == i.dom):
        return
    sq = delta.pushout_active_inert(g, i)
    assert delta.compose(sq.right, sq.top) == delta.compose(sq.bottom, sq.left)


@st.composite
def ladder_problems(draw):
    """Up to five choice sequences of small integers (repeats allowed) and
    two random key tables, one per side of each link."""
    k = draw(st.integers(0, 5))
    choices = [draw(st.lists(st.integers(0, 5), max_size=5)) for _ in range(k)]
    keys = st.lists(st.integers(0, 2), min_size=6, max_size=6)
    before = [draw(keys) for _ in range(k)]
    after = [draw(keys) for _ in range(k)]
    return choices, before, after


@given(ladder_problems())
@settings(max_examples=300)
def test_ladders_match_reference_and_cost_choices_plus_prefixes(problem):
    choices, before_keys, after_keys = problem
    calls = Counter()

    def before(j, g):
        calls["before", j] += 1
        return before_keys[j][g]

    def after(j, g):
        calls["after", j] += 1
        return after_keys[j][g]

    def holds(j, prefix, g):
        return j == 0 or before_keys[j][prefix[-1]] == after_keys[j][g]

    assert ladders(choices, before, after) == ladder_isos_reference(choices, holds)
    # link j is reached when every choice is non-empty and some prefix of
    # length j survives; it indexes choices[j] once and looks up each
    # surviving prefix once, so a prefix-times-choices filter fails here
    expected = Counter()
    if all(choices):
        for j in range(1, len(choices)):
            survivors = ladder_isos_reference(choices[:j], holds)
            if not survivors:
                break
            expected["after", j] = len(choices[j])
            expected["before", j] = len(survivors)
    assert calls == expected


def test_two_route_coefficient_identity(binomial3, forests3, graphs3, vect22):
    for X in (binomial3, forests3, graphs3, vect22):
        for n, i in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            F = X.face(n, i)
            if F.target.canon_key is None:
                continue
            assert coeff_vector(F, X.grade_bound) == coeff_vector_via_fibre(
                F, X.grade_bound
            ), (X.name, n, i)


def test_homotopy_sum_of_fibres(binomial3, forests3, graphs3, vect22, chain_nerve):
    for X in (binomial3, forests3, graphs3, vect22, chain_nerve):
        for n, i in ((1, 0), (2, 1)):
            F = X.face(n, i)
            total = Fraction(0)
            for cls in iso_classes(F.target):
                total += groupoid_cardinality(homotopy_fibre(F, cls.rep)) / cls.aut_order
            assert total == groupoid_cardinality(F.source), (X.name, n, i)


def test_graded_comultiplication(binomial3, forests3, graphs3, vect22):
    for X in (binomial3, forests3, graphs3, vect22):
        grades = {e.key: e.grade for e in basis(X, X.grade_bound)}
        mat = comultiplication(X, X.grade_bound)
        for ((a, b), f) in mat.entries:
            assert grades[a] + grades[b] == grades[f]


def test_counit_identities_from_coassociativity(binomial3):
    # column sums against the counit reduce to the counit law
    mat = comultiplication(binomial3, 3)
    eps = counit(binomial3, 3)
    for f in basis(binomial3, 3):
        lhs = Fraction(0)
        for (a, b), v in mat.column(f.key).items():
            lhs += eps[a] * v if b == f.key else 0
        assert lhs == 1


def test_poset_comultiplication_zero_one(chain_nerve, divisibility_nerve):
    for X in (chain_nerve, divisibility_nerve):
        mat = comultiplication(X, 0)
        assert all(v == 1 for v in mat.entries.values())


def test_decomposition_checker_cross_validation_perturbed(binomial3):
    H2 = forests_H(2, 3)
    spaces = [binomial3, H2]
    for X in spaces:
        for seed in range(5):
            Xc, _ = corrupted_variant(X, seed)
            assert (
                check_decomposition(Xc).passed
                == check_decomposition_active(Xc).passed
            )


def test_dec_culf_product_transfer(binomial3):
    # sources of gallery maps that are cartesian on active maps into
    # decomposition spaces pass the decomposition check themselves
    for side in ("bottom", "top"):
        Y, dmap = dec(binomial3, side)
        assert check_culf(dmap).passed
        assert check_decomposition(Y).passed
