import random
from collections import Counter
from dataclasses import replace

import pytest

from decspace import delta
from decspace.errors import LevelOutOfRange
from decspace.gallery import (
    binomial_B,
    forests_H,
    graphs_G,
    injections_I,
    oi_to_i,
    vect_S,
)
from decspace.gallery.sets import layered_rules
from decspace.groupoids import GroupoidFunctor, functors_equal, is_equivalence, is_pullback_square
from decspace.report import CheckReport
from decspace.simplicial import (
    SimpMap,
    _instantiate,
    _record,
    check_cartesian,
    check_conservative,
    check_culf,
    check_decalage,
    check_decomposition,
    check_decomposition_active,
    check_extra_pullbacks,
    check_fibration,
    check_relatively_segal,
    check_segal,
    check_segal_direct,
    check_ulf,
    constant_map_to_point,
    corrupted_variant,
    dec,
    dec_of_map,
    evaluate,
    product_simplicial,
    segal_power,
    simplicial_space,
    terminal_space,
    truncate,
    validate_simplicial,
)

from controls import identity_simp_map, regraded, without_class
from oracles import evaluate_by_composition


def test_validate_families(binomial3, forests3, graphs3, vect22, chain_nerve):
    for X in (binomial3, forests3, graphs3, vect22, chain_nerve):
        rep = validate_simplicial(X)
        assert rep.passed, rep.first_failure()


def test_validate_corrupted_names_identity(forests3):
    Xc, _ = corrupted_variant(forests3, 1)
    rep = validate_simplicial(Xc)
    assert not rep.passed
    assert "=" in rep.first_failure().desc  # a named simplicial identity


def test_validate_rejects_arrow_outside_hom_set():
    X = binomial_B(2, 2)
    F = X.face(1, 0)
    bad = GroupoidFunctor(F.source, F.target, F.obj, lambda x, y, d: ("not an arrow",), name="d_0")
    failure = validate_simplicial(replace(X, faces={**X.faces, (1, 0): bad})).first_failure()
    assert failure.desc == "faces and degeneracies are functors"
    assert failure.witness.startswith("face d_0 at level 1: ")
    assert "not in the target hom-set" in failure.witness


# Negative controls for each rule of validate_simplicial and for naturality.
# Each asserts on the generator, the level and the object that the failing
# witness names, not on the wording of the record.


def _names(text, generator, level, obj):
    return f"{generator} at level {level}" in text and text.endswith(repr(obj))


def test_validate_rejects_face_raising_grade(binomial3):
    # X_0's object graded 1: both faces X_1 -> X_0 raise grade at (0, ())
    Y = regraded(binomial3, lambda n, x, old: 1 if n == 0 else old)
    failure = validate_simplicial(Y).first_failure()
    assert _names(failure.witness, "d_0", 1, (0, ()))


def test_validate_rejects_inner_face_changing_grade(binomial3):
    x = (1, (2,))
    assert binomial3.face(2, 1).obj(x) == (1, (1,))
    Y = regraded(binomial3, lambda n, y, old: 2 if (n, y) == (2, x) else old)
    failure = validate_simplicial(Y).first_failure()
    assert _names(failure.witness, "d_1", 2, x)


def test_validate_rejects_degeneracy_changing_grade(binomial3):
    # every level above 0 graded one higher: faces never raise grade and
    # inner faces keep it, but s_0: X_0 -> X_1 changes it
    Y = regraded(binomial3, lambda n, x, old: old + (n > 0), grade_bound=binomial3.grade_bound + 1)
    failures = [r for r in validate_simplicial(Y).squares if not r.passed]
    assert len(failures) == 1
    assert _names(failures[0].witness, "s_0", 0, (0, ()))


def test_validate_rejects_object_over_the_bound(binomial3):
    failure = validate_simplicial(replace(binomial3, grade_bound=2)).first_failure()
    assert failure.desc == "grade bound"
    assert repr((3, (1, 1, 1))) in failure.witness


def test_validate_rejects_swapped_degeneracies(binomial3):
    S = binomial3.degens
    Y = replace(binomial3, degens={**S, (1, 0): S[(1, 1)], (1, 1): S[(1, 0)]})
    failures = [r for r in validate_simplicial(Y).squares if not r.passed]
    assert failures
    # only identities through a degeneracy fail, and the first one names
    # s_0 at level 1 and an object of X_1 that s_0 and s_1 send apart
    assert all("s_" in r.desc and "=" in r.desc for r in failures)
    first = failures[0]
    assert "s_0" in first.desc and first.desc.endswith("at level 1")
    x = (1, (1,))
    assert S[(1, 0)].obj(x) != S[(1, 1)].obj(x)
    assert first.witness.endswith(repr(x))


def test_naturality_fails_on_exactly_one_degeneracy(binomial3):
    S = binomial3.degens
    target = replace(binomial3, degens={**S, (1, 0): S[(1, 1)]})
    identity = identity_simp_map(binomial3).components
    assert SimpMap("id", binomial3, binomial3, identity).naturality_defect() is None
    defect = SimpMap("id", binomial3, target, identity).naturality_defect()
    assert _names(defect, "s_0", 1, (1, (1,)))


@pytest.mark.parametrize("r", [2, 3])
def test_segal_power_bound_keeps_exactly_the_glued_strings_under_it(r):
    # the bound prunes partial strings; the result must be the unbounded
    # power filtered by glue grade, in the same order
    for X in (graphs_G(2, 3), binomial_B(3, 3)):
        X1, X0, d0 = X.level(1), X.level(0), X.face(1, 0)

        def glue(o):
            edges = o[0]
            return sum(X1.grade(a) for a in edges) - sum(X0.grade(d0.obj(a)) for a in edges[:-1])

        full = segal_power(X, r).objects
        bounded = segal_power(X, r, grade_bound=X.grade_bound).objects
        assert bounded == tuple(o for o in full if glue(o) <= X.grade_bound)
        assert len(bounded) < len(full)


def test_evaluate_identity(binomial3):
    F = evaluate(binomial3, delta.identity(2))
    for x in binomial3.level(2).objects:
        assert F.obj(x) == x


def test_evaluate_composite_matches_pointwise(binomial3):
    f = delta.compose(delta.codegeneracy(0, 1), delta.coface(1, 2))  # id on [1]
    F = evaluate(binomial3, f)
    assert evaluate(binomial3, f) is F  # built once per space
    for x in binomial3.level(1).objects:
        assert F.obj(x) == x


def test_evaluate_decomposition_independent(binomial3, forests3):
    # X(g . f) == X(f) . X(g) for random composable pairs
    rng = random.Random(3)
    for X in (binomial3, forests3):
        for _ in range(20):
            a, b, c = (rng.randrange(0, X.N + 1) for _ in range(3))
            fs = list(delta.all_maps(a, b))
            gs = list(delta.all_maps(b, c))
            if not fs or not gs:
                continue
            f, g = rng.choice(fs), rng.choice(gs)
            lhs = evaluate(X, delta.compose(g, f))
            rhs_outer = evaluate(X, g)
            rhs_inner = evaluate(X, f)
            for x in X.level(c).objects:
                assert lhs.obj(x) == rhs_inner.obj(rhs_outer.obj(x))
            for (s, t, d) in list(X.level(c).arrows())[:40]:
                assert lhs.arr(s, t, d) == rhs_inner.arr(
                    rhs_outer.obj(s), rhs_outer.obj(t), rhs_outer.arr(s, t, d)
                )


@pytest.mark.parametrize(
    "build", [lambda: binomial_B(3, 3), lambda: forests_H(3, 3), lambda: graphs_G(2, 3)],
    ids=["binomial_B(3,3)", "forests_H(3,3)", "graphs_G(2,3)"],
)
def test_evaluate_matches_composition_of_generators(build):
    X = build()
    for a in range(X.N + 1):
        for b in range(X.N + 1):
            for f in delta.all_maps(a, b):
                assert functors_equal(evaluate(X, f), evaluate_by_composition(X, f)) is None, f


@pytest.mark.parametrize(
    "build", [lambda: binomial_B(3, 3), lambda: vect_S(2, 2, 2)], ids=["binomial_B(3,3)", "vect_S(2,2,2)"]
)
def test_evaluate_returns_the_structure_functor_of_a_generator(build):
    X = build()
    for (n, i), F in X.faces.items():
        assert evaluate(X, delta.coface(i, n)) is F, (n, i)
    for (n, i), F in X.degens.items():
        assert evaluate(X, delta.codegeneracy(i, n)) is F, (n, i)
    assert len(X.evaluated) == len(delta.generators(X.N))


def _counting_binomial():
    """binomial_B(3, 3) built through simplicial_space with object rules that
    count their calls per (structure map, object)."""
    calls = Counter()

    def counting(kind, rule):
        def counted_rule(n, i):
            omap, amap = rule(n, i)

            def counted(x):
                calls[(kind, n, i, x)] += 1
                return omap(x)

            return counted, amap

        return counted_rule

    face, degen = layered_rules(lambda obj, keep: ())
    levels = binomial_B(3, 3).levels
    return simplicial_space("binomial", levels, counting("d", face), counting("s", degen), 3), calls


def test_object_rules_run_once_per_structure_map_and_object():
    X, calls = _counting_binomial()
    assert not calls  # building the space evaluates no rule
    assert check_decomposition(X).passed
    assert check_segal(X).passed
    assert check_decomposition_active(X).passed
    assert calls
    assert max(calls.values()) == 1


def test_structure_maps_return_the_target_levels_own_objects():
    X, _ = _counting_binomial()
    for F in (*X.faces.values(), *X.degens.values()):
        own = {id(y) for y in F.target.objects}
        assert all(id(F.obj(x)) in own for x in F.source.objects)


def test_segal_verdicts(binomial3, forests3, graphs3, vect22, chain_nerve, injections3):
    assert check_segal(chain_nerve).passed
    assert check_segal(binomial3).passed
    assert check_segal(injections3[0]).passed
    assert not check_segal(forests3).passed
    assert not check_segal(graphs3).passed
    assert not check_segal(vect22).passed


def test_forests_segal_witness_is_lowest_square(forests3):
    rep = check_segal(forests3)
    assert not rep.squares[0].passed  # the n=1 square over level 0


def test_decomposition_verdicts(binomial3, forests3, graphs3, vect22, chain_nerve):
    for X in (binomial3, forests3, graphs3, vect22, chain_nerve):
        assert check_decomposition(X).passed


def test_decomposition_corrupted_fails(forests3):
    Xc, _ = corrupted_variant(forests3, 0)
    assert not check_decomposition(Xc).passed


def test_segal_implies_decomposition(binomial3, chain_nerve, injections3):
    for X in (binomial3, chain_nerve, injections3[0]):
        assert check_segal(X).passed
        assert check_decomposition(X).passed


def test_active_criterion_agrees(binomial3, forests3, graphs3, chain_nerve):
    for X in (binomial3, forests3, graphs3, chain_nerve):
        assert check_decomposition_active(X).passed == check_decomposition(X).passed


def test_segal_direct_cross_check(binomial3, forests3, graphs3, chain_nerve):
    for X in (binomial3, forests3, graphs3, chain_nerve):
        square_verdict = check_segal(X).passed
        direct = all(check_segal_direct(X, r) for r in (1, 2, 3))
        assert direct == square_verdict
    with pytest.raises(LevelOutOfRange):
        check_segal_direct(binomial3, 9)


def test_check_cartesian_identity(binomial3):
    F = identity_simp_map(binomial3)
    maps = [delta.coface(1, 2), delta.codegeneracy(0, 1)]
    assert check_cartesian(F, maps).passed


def test_projection_not_cartesian_on_inner_face():
    H = forests_H(2, 3)
    P = product_simplicial(H, H, grade_bound=2)
    comps = tuple(
        GroupoidFunctor(P.level(n), H.level(n), lambda o: o[0], lambda x, y, d: d[0])
        for n in range(4)
    )
    F = SimpMap("pr1", P, H, comps)
    assert not check_cartesian(F, [delta.coface(1, 2)]).passed


def test_dec_maps_culf(binomial3, forests3):
    for X in (binomial3, forests3):
        for side in ("bottom", "top"):
            Y, dmap = dec(X, side)
            assert check_segal(Y).passed
            assert check_culf(dmap).passed
            assert check_conservative(dmap).passed
            assert check_ulf(dmap).passed


def test_dec_map_cartesian_on_all_active_maps(binomial3):
    _, dmap = dec(binomial3, "bottom")
    maps = [
        f
        for a in range(3)
        for b in range(3)
        for f in delta.all_active_maps(a, b)
    ]
    assert check_cartesian(dmap, maps).passed


def test_oi_to_i_culf_and_fibrations():
    F = oi_to_i(3, 3)
    assert check_culf(F).passed
    # the forgetful map is a right fibration (orders restrict along
    # injections) but not a left one
    assert check_fibration(F, "bottom").passed
    assert not check_fibration(F, "top").passed


def test_oi_level_zero_not_equivalence():
    F = oi_to_i(2, 2)
    ok, wit = is_equivalence(F.component(0))
    assert not ok
    assert "hom-set sizes differ" in wit


def test_diagonal_not_culf():
    H = forests_H(2, 3)
    P = product_simplicial(H, H, grade_bound=4)
    comps = tuple(
        GroupoidFunctor(H.level(n), P.level(n), lambda x: (x, x), lambda x, y, d: (d, d))
        for n in range(4)
    )
    F = SimpMap("diag", H, P, comps)
    assert not check_culf(F).passed


def test_constant_map_not_conservative():
    H = forests_H(2, 2)
    F = constant_map_to_point(H)
    rep = check_conservative(F)
    assert not rep.passed


def test_ulf_implies_conservative_on_gallery(binomial3, forests3):
    for X in (binomial3, forests3):
        for side in ("bottom", "top"):
            _, dmap = dec(X, side)
            if check_ulf(dmap).passed:
                assert check_conservative(dmap).passed
    mu = forests_H(2, 3).monoidal
    if check_ulf(mu).passed:
        assert check_conservative(mu).passed


def test_dec_of_culf_is_right_fibration():
    B = binomial_B(3, 3)
    mu = B.monoidal
    decmu = dec_of_map(mu, "bottom")
    assert check_fibration(decmu, "bottom").passed


def test_relatively_segal():
    B = binomial_B(2, 3)
    assert check_relatively_segal(identity_simp_map(B)).passed
    I, equiv = injections_I(2, 3)
    assert check_relatively_segal(equiv).passed
    H = forests_H(2, 2)
    assert check_relatively_segal(identity_simp_map(H)).passed
    assert not check_relatively_segal(constant_map_to_point(H)).passed


def test_relatively_segal_over_point_is_segal(binomial3, injections3, forests3, chain_nerve):
    # X -> 1 is relatively Segal exactly when X is Segal; check_segal decides
    # the Segal squares without segal_power, so the two routes share only
    # the pullback engine
    spaces = (binomial3, injections3[0], forests3, graphs_G(2, 3), chain_nerve, vect_S(2, 2, 2))
    verdicts = [check_segal(X).passed for X in spaces]
    assert verdicts == [True, True, False, False, True, False]
    for X, segal in zip(spaces, verdicts):
        assert check_relatively_segal(constant_map_to_point(X)).passed == segal


def test_dec_validates_and_level_error(binomial3):
    for side in ("bottom", "top"):
        Y, _ = dec(binomial3, side)
        assert validate_simplicial(Y).passed
    with pytest.raises(LevelOutOfRange):
        dec(terminal_space(0), "bottom")


def test_decalage_characterization(binomial3, forests3):
    for X in (binomial3, forests3):
        rep = check_decalage(X)
        assert rep.passed
        assert rep.squares[-1].desc == "four-way agreement"
    with pytest.raises(LevelOutOfRange):
        check_decalage(binomial_B(2, 2))


def test_corruption_needs_an_inner_face():
    for N in (0, 1):
        with pytest.raises(LevelOutOfRange):
            corrupted_variant(binomial_B(3, N), 0)


def test_decalage_negative_controls(binomial3):
    for seed in range(3):
        Xc, _ = corrupted_variant(binomial3, seed)
        rep = check_decalage(Xc)
        verdicts = [r.passed for r in rep.squares[:4]]
        assert verdicts == [False] * 4
        assert rep.squares[4].passed  # agreement


def test_extra_pullbacks(binomial3, forests3):
    for X in (binomial3, forests3):
        rep = check_extra_pullbacks(X)
        assert rep.passed and len(rep.squares) > 1


def test_extra_pullbacks_precondition(forests3):
    Xc, _ = corrupted_variant(forests3, 0)
    rep = check_extra_pullbacks(Xc)
    assert not rep.passed
    assert rep.squares[0].witness == "precondition unmet"


EXTRA_FAILURES = {
    0: ["s_2/d_1 square at level 2 (j<=i)"],
    1: ["s_0/d_1 square at level 2 (i<j)", "s_2/d_1 square at level 2 (j<=i)"],
    2: ["s_0/d_1 square at level 2 (i<j)", "s_2/d_1 square at level 2 (j<=i)"],
}


@pytest.mark.parametrize(
    "make",
    [lambda: binomial_B(3, 3), lambda: forests_H(3, 3), lambda: graphs_G(2, 3)],
    ids=["binomial", "forests", "graphs"],
)
def test_extra_squares_fail_on_corrupted_spaces(make):
    # check_extra_pullbacks stops at its precondition on these spaces, so the
    # squares run here through the checker's own record path
    X = make()
    squares = delta.extra_pullback_squares(X.N)
    for seed, expected in EXTRA_FAILURES.items():
        Xc, _ = corrupted_variant(X, seed)
        report = CheckReport("extra", Xc.name, Xc.N, Xc.grade_bound)
        for dsq in squares:
            _record(report, dsq.desc, lambda: is_pullback_square(_instantiate(Xc, dsq)))
        failures = [r for r in report.squares if not r.passed]
        assert [r.desc for r in failures] == expected
        for r in failures:
            assert r.witness.startswith(f"square does not commute: {r.desc}: ")
    assert all(is_pullback_square(_instantiate(X, dsq))[0] for dsq in squares)


def test_product_simplicial(binomial3):
    T = terminal_space(3)
    P = product_simplicial(binomial3, T, grade_bound=3)
    for n in range(4):
        assert len(P.level(n).objects) == len(binomial3.level(n).objects)
    H2 = forests_H(2, 2)
    PP = product_simplicial(H2, H2, grade_bound=2)
    assert validate_simplicial(PP).passed
    assert check_decomposition(PP).passed


def test_culf_pullback_transfer(binomial3):
    # a gallery map cartesian on active maps into a decomposition space has a
    # decomposition source
    mu = binomial3.monoidal
    rep = check_culf(mu)
    assert rep.passed
    assert check_decomposition(mu.source).passed


def _run_every_square_check(X):
    return [check_decomposition(X), check_decalage(X), check_extra_pullbacks(X)]


@pytest.mark.parametrize("n, key", [(2, (2, 1)), (2, (1, 2)), (3, (1, 1, 1))])
def test_subspace_controls_fail_inside_the_fibre(binomial3, n, key):
    # every square of the sub-space commutes, so the only way to reject it is
    # a fibre comparison that misses a class
    _run_every_square_check(binomial3)
    Y = without_class(binomial3, n, key)
    assert validate_simplicial(Y).passed
    failure = check_decomposition(Y).first_failure()
    assert failure is not None
    assert "fibre over" in failure.witness and "not reached" in failure.witness
    assert not check_decomposition_active(Y).passed
    rep = check_decalage(Y)
    assert [r.passed for r in rep.squares[:4]] == [False] * 4
    assert rep.squares[4].passed  # agreement


def test_subspace_positive_control(binomial3):
    _run_every_square_check(binomial3)
    Y = without_class(binomial3, 2, (1, 1))
    assert validate_simplicial(Y).passed
    assert check_decomposition(Y).passed
    assert not check_segal(Y).passed
    assert all(r.passed for r in check_decalage(Y).squares)


@pytest.fixture
def decided(monkeypatch):
    """Counts the is_pullback_square calls of the checkers per square desc."""
    import decspace.simplicial as simplicial

    counts = Counter()
    real = simplicial.is_pullback_square

    def counting(sq, glue_bound=None):
        counts[sq.desc] += 1
        return real(sq, glue_bound=glue_bound)

    monkeypatch.setattr(simplicial, "is_pullback_square", counting)
    return counts


def test_each_square_decided_once_per_space(decided):
    X = binomial_B(3, 3)
    first = _run_every_square_check(X)
    pushouts = {dsq.desc for dsq in delta.decomposition_axiom_squares(X.N)}
    assert {d for d in decided if d.startswith("pushout of")} == pushouts
    assert all(decided[d] == 1 for d in pushouts)
    # the whole memo is keyed by (square, glue bound): Segal squares are
    # decided at the space's grade bound, pushout squares without one
    assert len(X.verdicts) == len(pushouts)
    check_segal(X)
    assert len(X.verdicts) == len(pushouts) + len(delta.segal_axiom_squares(X.N))

    decided.clear()
    assert check_decomposition(X) == first[0]
    assert check_segal(X).passed
    assert not decided


def test_second_decalage_check_decides_no_segal_square_again(decided):
    X = binomial_B(3, 3)
    first = check_decalage(X)
    segal = {dsq.desc for dsq in delta.segal_axiom_squares(X.N - 1)}
    assert all(decided[d] == 2 for d in segal)  # once on each decalage
    assert dec(X, "bottom") is dec(X, "bottom")

    decided.clear()
    assert check_decalage(X) == first
    assert not segal & set(decided)
    # the CULF and conservative squares of the dec maps stay outside the memo
    assert any(d.startswith("naturality of") for d in decided)


def test_second_active_check_builds_no_preimage_index(monkeypatch):
    built = []
    real = GroupoidFunctor.preimages

    def counting(F, s):
        before = F._preimages
        found = real(F, s)
        if F._preimages is not before:
            built.append(F)
        return found

    monkeypatch.setattr(GroupoidFunctor, "preimages", counting)
    X = binomial_B(3, 3)
    first = check_decomposition_active(X)
    assert built
    # one index per functor; generators share names across levels, so
    # functors are told apart by identity
    assert len(built) == len({id(F) for F in built})
    built.clear()
    assert check_decomposition_active(X) == first
    assert not built


def test_new_spaces_start_with_an_empty_memo(binomial3):
    assert check_decomposition(binomial3).passed
    assert binomial3.verdicts
    assert binomial3.evaluated
    dec(binomial3, "top")
    Xt = truncate(binomial3, binomial3.N)
    for Y in (Xt, dec(Xt, "top")[0]):
        assert Y.evaluated == {}
    Xc, _ = corrupted_variant(binomial3, 0)
    Xr = replace(binomial3, faces=Xc.faces)
    for Y in (Xc, Xr):
        assert Y.verdicts == {}
        assert Y.decs == {}
        assert Y.evaluated == {}
        assert not check_decomposition(Y).passed
