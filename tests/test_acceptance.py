"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact rational; tolerances are equality throughout.  Run
with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from decspace.coalgebra import (
    check_bialgebra,
    check_coassociativity,
    comultiplication,
    hall_number,
    homomorphism_check,
    matrix_compose,
    multiplication,
    pushforward_hom,
)
from decspace.gallery import (
    binomial_B,
    forests_H,
    graphs_G,
    injections_I,
    nerve_of_poset,
    oi_to_i,
    vect_S,
)
from decspace.gallery.forests import _forest_canon, _labeled_forests
from decspace.gallery.graphs import _graph_canon
from decspace.groupoids import (
    groupoid_cardinality,
    homotopy_fibre,
    is_equivalence,
    is_pullback_square,
    iso_classes,
)
from decspace.gallery.posets import chain_poset
from decspace.simplicial import (
    _instantiate,
    check_culf,
    check_decalage,
    check_decomposition,
    check_decomposition_active,
    check_extra_pullbacks,
    check_fibration,
    check_segal,
    check_segal_direct,
    corrupted_variant,
    dec,
)

from controls import class_bijection_inverse
from oracles import binomial_coefficient, forest_cut_oracle, graph_bipartition_oracle

TIMINGS = {}


def _report(criterion, passed, elapsed, detail=""):
    TIMINGS[criterion] = elapsed
    state = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {state} ({elapsed:.1f}s) {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def forests_default():
    return forests_H(4, 3)


@pytest.fixture(scope="module")
def graphs_default():
    return graphs_G(3, 3)


def test_criterion_1_binomial_coefficients():
    t = time.monotonic()
    B = binomial_B(5, 2)
    mat = comultiplication(B, 5)
    ok = True
    for n in range(6):
        col = mat.column((n,))
        expected = {
            ((a,), (n - a,)): Fraction(binomial_coefficient(n, a))
            for a in range(n + 1)
        }
        ok = ok and col == expected
    elapsed = time.monotonic() - t
    _report("1 (binomial coefficients at bound 5)", ok and elapsed < 10, elapsed)


def test_criterion_2_hall_numbers():
    t = time.monotonic()
    ok = True
    for q in (2, 3):
        for n in range(4):
            for k in range(n + 1):
                res = hall_number(q, n, k)
                ok = ok and res.match
    elapsed = time.monotonic() - t
    _report("2 (Hall numbers q=2,3 up to n=3, no cap needed)", ok, elapsed)


def test_criterion_3_forests(forests_default):
    t = time.monotonic()
    H = forests_default
    decomp = check_decomposition(H).passed
    segal = check_segal(H)
    witness_square = not segal.squares[0].passed  # the square over level 0
    mat = comultiplication(H, 4)
    oracle_ok = True
    seen = set()
    for m in range(4):
        for parents in _labeled_forests(m):
            key = _forest_canon((m, parents, tuple(1 for _ in range(m))))
            if key in seen:
                continue
            seen.add(key)
            expected = {p: Fraction(c) for p, c in forest_cut_oracle(parents).items()}
            oracle_ok = oracle_ok and mat.column(key) == expected
    elapsed = time.monotonic() - t
    _report(
        "3 (forests: decomposition, Segal failure witness, cut oracle)",
        decomp and not segal.passed and witness_square and oracle_ok,
        elapsed,
    )


def test_criterion_4_graphs(graphs_default):
    t = time.monotonic()
    G = graphs_default
    decomp = check_decomposition(G).passed
    segal = check_segal(G).passed
    mat = comultiplication(G, 3)
    k2 = _graph_canon((2, ((0, 1),), (1, 1)))
    expected = {p: Fraction(c) for p, c in graph_bipartition_oracle(2, ((0, 1),)).items()}
    oracle_ok = mat.column(k2) == expected
    elapsed = time.monotonic() - t
    _report(
        "4 (graphs: decomposition, Segal failure, bipartition oracle for K2)",
        decomp and not segal and oracle_ok,
        elapsed,
    )


def test_criterion_5_decalage_characterization():
    t = time.monotonic()
    spaces = [
        binomial_B(4, 4),
        injections_I(3, 4)[0],
        forests_H(4, 4),
        graphs_G(3, 4),
        nerve_of_poset(chain_poset(2), 4),
        vect_S(2, 2, 3),  # level 3: the level-4 staircases are out of desk range
    ]
    ok = True
    for X in spaces:
        rep = check_decalage(X)
        agree = rep.squares[4].passed
        positive = all(r.passed for r in rep.squares[:4])
        ok = ok and agree and positive
    controls = [
        (binomial_B(3, 3), (0, 1, 2)),
        (forests_H(2, 3), (0, 1, 2, 3)),
        (graphs_G(2, 3), (0, 1, 2)),
    ]
    count = 0
    for X, seeds in controls:
        for seed in seeds:
            Xc, _ = corrupted_variant(X, seed)
            rep = check_decalage(Xc)
            verdicts = [r.passed for r in rep.squares[:4]]
            ok = ok and rep.squares[4].passed and verdicts == [False] * 4
            count += 1
    elapsed = time.monotonic() - t
    _report(
        f"5 (decalage characterization four-way agreement, {count} negative controls)",
        ok and count == 10,
        elapsed,
    )


def test_criterion_6_coassociativity(forests_default, graphs_default):
    t = time.monotonic()
    runs = [
        (binomial_B(4, 3), 4),
        (injections_I(3, 3)[0], 3),
        (forests_default, 4),
        (graphs_default, 3),
        (vect_S(2, 2, 3), 2),
        (nerve_of_poset(chain_poset(2), 3), 0),
    ]
    ok = True
    for X, bound in runs:
        rep = check_coassociativity(X, bound)
        ok = ok and rep.passed
    elapsed = time.monotonic() - t
    _report("6 (coassociativity and counit laws on all six families)", ok, elapsed)


def test_criterion_7_reduction():
    t = time.monotonic()
    I, equiv = injections_I(4, 3)
    levelwise = all(is_equivalence(equiv.component(k))[0] for k in range(4))
    strict = equiv.naturality_defect() is None
    B5 = binomial_B(4, 4)
    DecB, dmap = dec(B5, "bottom")
    M = matrix_compose(
        pushforward_hom(dmap, 4), class_bijection_inverse(pushforward_hom(equiv, 4))
    )
    hom_ok = homomorphism_check(M, I, dmap.target, 4).passed
    elapsed = time.monotonic() - t
    _report(
        "7 (bottom decalage of the binomial family matches injections; reduction is a homomorphism)",
        levelwise and strict and hom_ok,
        elapsed,
    )


def test_criterion_8_checker_cross_validation(forests_default, graphs_default):
    t = time.monotonic()
    gallery = [
        binomial_B(3, 3),
        injections_I(2, 3)[0],
        forests_H(3, 3),
        graphs_G(2, 3),
        vect_S(2, 2, 3),
        nerve_of_poset(chain_poset(2), 3),
    ]
    ok = True
    for X in gallery:
        ok = ok and (
            check_decomposition(X).passed == check_decomposition_active(X).passed
        )
        square = check_segal(X).passed
        direct = all(check_segal_direct(X, r) for r in (1, 2, 3))
        ok = ok and (square == direct)
    count = 0
    for X in (binomial_B(3, 3), forests_H(2, 3), graphs_G(2, 3), injections_I(2, 3)[0]):
        for seed in range(5):
            Xc, _ = corrupted_variant(X, seed)
            ok = ok and (
                check_decomposition(Xc).passed
                == check_decomposition_active(Xc).passed
            )
            count += 1
    elapsed = time.monotonic() - t
    _report(
        f"8 (decomposition checkers agree on gallery + {count} perturbed; Segal routes agree)",
        ok and count == 20,
        elapsed,
    )


def test_criterion_9_culf_suite(forests_default, graphs_default):
    t = time.monotonic()
    F = oi_to_i(3, 3)
    culf_ok = check_culf(F).passed
    # the forgetful map is cartesian on bottom faces (it is the covariant
    # element construction of the linear-orders presheaf) and fails on top
    # faces; the fibration defect sits on the top side
    top_fails = not check_fibration(F, "top").passed
    bottom_holds = check_fibration(F, "bottom").passed

    I = injections_I(3, 3)[0]
    B = binomial_B(4, 3)
    ok_monoidal = True
    for X, bound in ((B, 4), (I, 3), (forests_default, 4), (graphs_default, 3)):
        ok_monoidal = ok_monoidal and check_bialgebra(X, bound).passed

    # the binomial comultiplication of delta_n is the n-th power of
    # delta_0 x delta_1 + delta_1 x delta_0 in the tensor square
    mult = multiplication(B, 4)
    prod_key = {pair: ckey for (ckey, pair) in mult.entries}
    dmat = comultiplication(B, 4)
    power = {((0,), (1,)): Fraction(1), ((1,), (0,)): Fraction(1)}
    power_ok = dmat.column((1,)) == power
    current = dict(power)
    for n in range(2, 5):
        nxt = {}
        for (a, b), c1 in current.items():
            for (x, y), c2 in power.items():
                key = (prod_key[(a, x)], prod_key[(b, y)])
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        current = {k: v for k, v in nxt.items() if v}
        power_ok = power_ok and current == dmat.column((n,))

    elapsed = time.monotonic() - t
    _report(
        "9 (forgetful injections map CULF with one-sided fibration; monoidal maps give bialgebras; binomial power identity)",
        culf_ok and top_fails and bottom_holds and ok_monoidal and power_ok,
        elapsed,
    )


def test_criterion_10_property_suites(binomial3, forests3):
    t = time.monotonic()
    from decspace.coalgebra import coeff_vector, coeff_vector_via_fibre

    ok = True
    # two-route coefficient identity
    for X in (binomial3, forests3):
        for n, i in ((1, 0), (2, 1), (2, 2)):
            F = X.face(n, i)
            ok = ok and coeff_vector(F, X.grade_bound) == coeff_vector_via_fibre(
                F, X.grade_bound
            )
    # homotopy-sum decomposition of cardinality
    for X in (binomial3, forests3):
        F = X.face(2, 1)
        total = sum(
            (
                groupoid_cardinality(homotopy_fibre(F, cls.rep)) / cls.aut_order
                for cls in iso_classes(F.target)
            ),
            Fraction(0),
        )
        ok = ok and total == groupoid_cardinality(F.source)
    # prism law on pasted pushout squares
    from decspace import delta as dl

    sq_a = dl.pushout_active_inert(dl.coface(1, 2), dl.coface(0, 2))
    sq_b = dl.pushout_active_inert(dl.codegeneracy(0, 1), sq_a.bottom)
    outer = dl.DeltaSquare(
        top=dl.coface(0, 2),
        left=dl.compose(dl.codegeneracy(0, 1), dl.coface(1, 2)),
        right=dl.compose(sq_b.right, sq_a.right),
        bottom=sq_b.bottom,
    )
    for X in (binomial3, forests3):
        right_ok, _ = is_pullback_square(_instantiate(X, sq_a))
        outer_ok, _ = is_pullback_square(_instantiate(X, outer))
        left_ok, _ = is_pullback_square(_instantiate(X, sq_b))
        ok = ok and right_ok and outer_ok and left_ok
    # degeneracy-face pullback lemmas
    for X in (binomial3, forests3):
        ok = ok and check_extra_pullbacks(X).passed
    elapsed = time.monotonic() - t
    _report("10 (property suites: two-route, homotopy sums, prism, extra pullbacks)", ok, elapsed)


def test_total_runtime_budget():
    total = sum(TIMINGS.values())
    print(f"acceptance suite criterion time: {total:.1f}s (budget 300s)")
    assert total < 300, f"acceptance suite too slow: {total:.1f}s"
