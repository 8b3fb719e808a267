import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from decspace.errors import NonCommutingSquare, ObjectNotFound, TargetMismatch
from decspace.gallery import vect_S
from decspace.groupoids import (
    FiniteGroupoid,
    GroupoidFunctor,
    GroupoidSquare,
    discrete_groupoid,
    group_as_groupoid,
    groupoid_cardinality,
    homotopy_fibre,
    homotopy_pullback,
    identity_functor,
    is_equivalence,
    is_pullback_square,
    iso_classes,
    terminal_groupoid,
    validate_groupoid,
)

from controls import indiscrete_groupoid, name_functor, product
from oracles import equivalence_oracle, fibre_by_scan


def z2():
    return group_as_groupoid("BZ2", (0, 1), lambda a, b: (a + b) % 2, lambda a: a, 0)


def perm_groupoid(max_size):
    """Disjoint union of skeletal finite sets with bijections."""
    from itertools import permutations

    return FiniteGroupoid(
        "perms",
        tuple(range(max_size + 1)),
        lambda x, y: tuple(permutations(range(x))) if x == y else (),
        lambda g, f: tuple(g[v] for v in f),
        lambda d: tuple(sorted(range(len(d)), key=lambda i: d[i])),
        lambda x: tuple(range(x)),
        grade=lambda x: x,
        canon_key=lambda x: x,
    )


def arrow_category():
    """Two objects with one non-invertible arrow between them."""
    hom_table = {
        ("a", "a"): ("id_a",),
        ("b", "b"): ("id_b",),
        ("a", "b"): ("f",),
    }
    compose = {
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("f", "id_a"): "f",
        ("id_b", "f"): "f",
    }
    return FiniteGroupoid(
        "arrow-cat",
        ("a", "b"),
        lambda x, y: hom_table.get((x, y), ()),
        lambda g, f: compose[(g, f)],
        lambda d: {"id_a": "id_a", "id_b": "id_b"}.get(d),
        lambda x: f"id_{x}",
    )


def test_validate_terminal():
    assert validate_groupoid(terminal_groupoid()).passed


def test_validate_z2():
    assert validate_groupoid(z2()).passed


def test_validate_arrow_category_fails_groupoid_condition():
    rep = validate_groupoid(arrow_category())
    assert not rep.passed
    bad = rep.first_failure()
    assert bad.desc == "groupoid condition"


def test_iso_classes_terminal():
    table = iso_classes(terminal_groupoid())
    assert len(table) == 1 and table.classes[0].aut_order == 1


def test_iso_classes_z2():
    table = iso_classes(z2())
    assert len(table) == 1 and table.classes[0].aut_order == 2


def test_iso_classes_indiscrete():
    table = iso_classes(indiscrete_groupoid("E2", ("x", "y")))
    assert len(table) == 1 and table.classes[0].aut_order == 1


def test_cardinality_z2():
    assert groupoid_cardinality(z2()) == Fraction(1, 2)


def test_cardinality_indiscrete():
    assert groupoid_cardinality(indiscrete_groupoid("E2", ("x", "y"))) == 1


def test_cardinality_symmetric_groups():
    # sizes 0..3 with bijections: 1 + 1 + 1/2 + 1/6
    assert groupoid_cardinality(perm_groupoid(3)) == Fraction(8, 3)


def test_product_unit_law():
    G = z2()
    P = product(G, terminal_groupoid())
    ok, _ = is_equivalence(
        GroupoidFunctor(G, P, lambda x: (x, "*"), lambda x, y, d: (d, ()), name="unit")
    )
    assert ok


def test_product_z2_z2():
    P = product(z2(), z2())
    table = iso_classes(P)
    assert len(table) == 1 and table.classes[0].aut_order == 4


def test_product_cardinality_multiplicative():
    rng = random.Random(7)
    pool = [z2(), terminal_groupoid(), perm_groupoid(2), indiscrete_groupoid("E2", (0, 1)),
            discrete_groupoid("D3", (0, 1, 2))]
    for _ in range(10):
        G = rng.choice(pool)
        H = rng.choice(pool)
        assert groupoid_cardinality(product(G, H)) == groupoid_cardinality(
            G
        ) * groupoid_cardinality(H)


def test_pullback_of_identities():
    S = perm_groupoid(2)
    ident = identity_functor(S)
    P, _, _ = homotopy_pullback(ident, ident)
    # equivalent to S: compare class count and automorphism orders
    tp = iso_classes(P)
    ts = iso_classes(S)
    assert len(tp) == len(ts)
    assert sorted(c.aut_order for c in tp) == sorted(c.aut_order for c in ts)


def test_pullback_point_over_z2():
    G = z2()
    nm = name_functor(G, "*")
    P, _, _ = homotopy_pullback(nm, nm)
    table = iso_classes(P)
    assert len(table) == 2
    assert all(c.aut_order == 1 for c in table)
    assert groupoid_cardinality(P) == 2


def test_pullback_over_terminal_is_product():
    G, H = z2(), perm_groupoid(2)
    T = terminal_groupoid()
    p = GroupoidFunctor(G, T, lambda x: "*", lambda x, y, d: (), name="!")
    q = GroupoidFunctor(H, T, lambda x: "*", lambda x, y, d: (), name="!")
    P, _, _ = homotopy_pullback(p, q)
    assert groupoid_cardinality(P) == groupoid_cardinality(product(G, H))


def test_pullback_target_mismatch():
    with pytest.raises(TargetMismatch):
        homotopy_pullback(identity_functor(z2()), identity_functor(terminal_groupoid()))


def test_fibre_of_identity_contractible():
    S = perm_groupoid(2)
    fib = homotopy_fibre(identity_functor(S), 2)
    table = iso_classes(fib)
    assert len(table) == 1 and table.classes[0].aut_order == 1


def test_fibre_point_over_z2():
    fib = homotopy_fibre(name_functor(z2(), "*"), "*")
    assert groupoid_cardinality(fib) == 2


def test_fibre_object_not_found():
    with pytest.raises(ObjectNotFound):
        homotopy_fibre(identity_functor(z2()), "nope")


def test_fibre_of_binomial_inner_face(binomial3):
    # ordered splittings of a 2-element set: 4 classes, trivial automorphisms
    d1 = binomial3.face(2, 1)
    two = (2, (1, 1))
    fib = homotopy_fibre(d1, two)
    table = iso_classes(fib)
    assert len(table) == 4
    assert all(c.aut_order == 1 for c in table)


def test_fibre_hom_sets_invert_each_arrow_once(monkeypatch):
    # the largest fibre of the inner face d_1: V_2 -> V_1 of vect_S(2, 2, 2)
    # has 90 objects; its 8,100 hom-set queries need each s2 inverted once
    d1 = vect_S(2, 2, 2).face(2, 1)
    S = d1.target
    s = max((c.rep for c in iso_classes(S)), key=lambda s: len(homotopy_fibre(d1, s).objects))
    real = S.inverse
    inverted = Counter()

    def counting(a):
        inverted[a] += 1
        return real(a)

    monkeypatch.setattr(S, "inverse", counting)
    fib = homotopy_fibre(d1, s)
    assert len(fib.objects) == 90
    for (x1, s1) in fib.objects:
        for (x2, s2) in fib.objects:
            want = S.compose(real(s2), s1)
            assert fib.hom((x1, s1), (x2, s2)) == tuple(
                g for g in d1.source.hom(x1, x2) if d1.arr(x1, x2, g) == want
            )
    assert inverted and max(inverted.values()) == 1


def test_is_equivalence_identity():
    ok, _ = is_equivalence(identity_functor(z2()))
    assert ok


def test_is_equivalence_skeleton_inclusion():
    E = indiscrete_groupoid("E2", ("x", "y"))
    pt = terminal_groupoid()
    F = GroupoidFunctor(pt, E, lambda _: "x", lambda x, y, d: ("x", "x"), name="incl")
    ok, _ = is_equivalence(F)
    assert ok


def test_is_equivalence_z2_to_point_fails():
    F = GroupoidFunctor(z2(), terminal_groupoid(), lambda x: "*", lambda x, y, d: (), name="!")
    ok, wit = is_equivalence(F)
    assert not ok
    assert "hom-set sizes differ" in wit


def cyclic_action(name, n, moduli, keyed=False):
    """Action groupoid of Z_n on a disjoint union of orbits Z_n / d Z_n, one
    per modulus d (each d divides n): objects (orbit, residue), arrows the
    group elements g with residue + g = residue' mod d.  Unkeyed, every
    object sits in one bucket, so iso classes are split by arrow search;
    ``keyed`` makes the orbit index (iso-invariant) the bucket key."""
    return FiniteGroupoid(
        name,
        tuple((i, r) for i, d in enumerate(moduli) for r in range(d)),
        lambda x, y: tuple(
            g for g in range(n) if x[0] == y[0] and (x[1] + g - y[1]) % moduli[x[0]] == 0
        ),
        lambda g, f: (g + f) % n,
        lambda g: (-g) % n,
        lambda x: 0,
        bucket_key=(lambda x: x[0]) if keyed else None,
    )


@st.composite
def cyclic_action_functors(draw, keyed=False):
    """A functor between cyclic action groupoids: the group map g -> k g
    from Z_a to Z_b, and an equivariant map sending orbit i (modulus d) to
    orbit j (modulus e, which must divide k d) at offset s0."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.sampled_from([k for k in range(b) if (k * a) % b == 0]))
    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    src = draw(st.lists(st.sampled_from(divisors(a)), min_size=1, max_size=3))
    tgt = draw(st.lists(st.sampled_from(divisors(b)), min_size=1, max_size=3))
    orbit_map = []
    for d in src:
        js = [j for j, e in enumerate(tgt) if (k * d) % e == 0]
        assume(js)
        j = draw(st.sampled_from(js))
        orbit_map.append((j, draw(st.integers(0, tgt[j] - 1))))
    A, B = cyclic_action("A", a, src, keyed), cyclic_action("B", b, tgt, keyed)

    def omap(x):
        j, s0 = orbit_map[x[0]]
        return (j, (s0 + k * x[1]) % tgt[j])

    return GroupoidFunctor(A, B, omap, lambda x, y, g: (k * g) % b, name=f"x{k}")


@given(cyclic_action_functors())
@settings(max_examples=200, deadline=None)
def test_is_equivalence_matches_hom_set_oracle(F):
    assert is_equivalence(F)[0] == equivalence_oracle(F)


@given(cyclic_action_functors(keyed=True))
@settings(max_examples=100, deadline=None)
def test_preimages_index_every_fibre(F):
    A, B = F.source, F.target
    for s in B.objects:
        key = B.bucket_key(s)
        assert list(F.preimages(s)) == [x for x in A.objects if B.bucket_key(F.obj(x)) == key]
        assert homotopy_fibre(F, s).objects == fibre_by_scan(F, s)


def _square(top, left, right, bottom, desc=""):
    return GroupoidSquare(top=top, left=left, right=right, bottom=bottom, desc=desc)


def test_identity_sides_square_is_pullback():
    G = z2()
    ident = identity_functor(G)
    sq = _square(ident, ident, ident, ident)
    ok, _ = is_pullback_square(sq)
    assert ok


def test_noncommuting_square_raises():
    E = discrete_groupoid("D2", (0, 1))
    ident = identity_functor(E)
    swap = GroupoidFunctor(E, E, lambda x: 1 - x, lambda x, y, d: (), name="swap")
    with pytest.raises(NonCommutingSquare):
        is_pullback_square(_square(ident, ident, ident, swap))


def test_segal_square_of_chain_nerve(chain_nerve):
    X = chain_nerve
    sq = _square(
        X.face(2, 0), X.face(2, 2), X.face(1, 1), X.face(1, 0), desc="nerve Segal"
    )
    ok, _ = is_pullback_square(sq)
    assert ok


def test_forest_segal_square_fails(forests3):
    H = forests3
    sq = _square(H.face(2, 0), H.face(2, 2), H.face(1, 1), H.face(1, 0))
    ok, wit = is_pullback_square(sq, glue_bound=H.grade_bound)
    assert not ok


def test_bz2_collapse_square_is_not_a_pullback():
    G, pt = z2(), terminal_groupoid()
    bang = GroupoidFunctor(G, pt, lambda x: "*", lambda x, y, d: (), name="!")
    collapse = GroupoidFunctor(G, G, lambda x: x, lambda x, y, d: 0, name="collapse")
    sq = _square(collapse, bang, bang, identity_functor(pt))
    for method in ("fibrewise", "literal"):
        ok, wit = is_pullback_square(sq, method=method)
        assert not ok
        assert "is not injective" in wit


def test_fibrewise_agrees_with_literal(binomial3, forests3, graphs3, vect22, chain_nerve):
    squares = []
    for X in (binomial3, chain_nerve, graphs3, vect22):
        squares.append(
            _square(X.face(2, 0), X.face(2, 2), X.face(1, 1), X.face(1, 0))
        )
        squares.append(
            _square(X.degeneracy(1, 1), X.face(1, 0), X.face(2, 0), X.degeneracy(0, 0))
        )
    for X in (graphs3, vect22):
        # a decomposition square: inner face d_1 against the bottom face d_0
        squares.append(_square(X.face(3, 0), X.face(3, 2), X.face(2, 1), X.face(2, 0)))
    H = forests3
    squares.append(_square(H.face(2, 0), H.face(2, 2), H.face(1, 1), H.face(1, 0)))
    for sq in squares:
        for bound in (None, 3):
            fib = is_pullback_square(sq, method="fibrewise", glue_bound=bound)[0]
            lit = is_pullback_square(sq, method="literal", glue_bound=bound)[0]
            assert fib == lit


def test_cardinality_invariant_under_equivalence():
    E = indiscrete_groupoid("E2", ("x", "y"))
    pt = terminal_groupoid()
    F = GroupoidFunctor(pt, E, lambda _: "x", lambda x, y, d: ("x", "x"))
    ok, _ = is_equivalence(F)
    assert ok
    assert groupoid_cardinality(pt) == groupoid_cardinality(E)


def test_pullback_symmetric_up_to_equivalence(binomial3):
    d1 = binomial3.face(2, 1)
    d0 = binomial3.face(1, 0)
    P1, _, _ = homotopy_pullback(d1, d1)
    P2, _, _ = homotopy_pullback(d1, d1)
    swap = GroupoidFunctor(
        P1, P2, lambda o: (o[1], o[0], binomial3.level(1).inverse(o[2])),
        lambda o1, o2, d: (d[1], d[0]), name="swap"
    )
    ok, _ = is_equivalence(swap)
    assert ok


def test_homotopy_sum_decomposition(binomial3, forests3):
    # total cardinality equals the fibre cardinalities weighted by 1/|Aut|
    for X, n, i in ((binomial3, 2, 1), (forests3, 1, 0), (forests3, 2, 2)):
        F = X.face(n, i)
        S = F.target
        total = Fraction(0)
        for cls in iso_classes(S):
            total += groupoid_cardinality(homotopy_fibre(F, cls.rep)) / cls.aut_order
        assert total == groupoid_cardinality(F.source)


def test_prism_law(binomial3, forests3):
    # outer rectangle and right square pullbacks imply the left square is
    # one: built from vertically pasted active-inert pushout squares, whose
    # images strictly commute
    from decspace import delta
    from decspace.simplicial import _instantiate

    rng = random.Random(11)
    cases = []
    for _ in range(40):
        n = rng.randrange(0, 2)
        k1 = rng.randrange(0, 3)
        g1s = list(delta.all_active_maps(n, k1))
        if not g1s:
            continue
        g1 = rng.choice(g1s)
        k2 = rng.randrange(0, 3)
        g2s = list(delta.all_active_maps(k1, k2))
        if not g2s:
            continue
        g2 = rng.choice(g2s)
        m = rng.randrange(n, n + 2)
        iners = [f for f in delta.all_maps(n, m) if delta.is_inert(f)]
        if not iners:
            continue
        i = rng.choice(iners)
        sq_a = delta.pushout_active_inert(g1, i)
        sq_b = delta.pushout_active_inert(g2, sq_a.bottom)
        outer = delta.DeltaSquare(
            top=i,
            left=delta.compose(g2, g1),
            right=delta.compose(sq_b.right, sq_a.right),
            bottom=sq_b.bottom,
        )
        if sq_b.right.cod <= 3:
            cases.append((sq_a, sq_b, outer))
    assert len(cases) >= 10
    checked = 0
    for X in (binomial3, forests3):
        for sq_a, sq_b, outer in cases[:12]:
            right_ok, _ = is_pullback_square(_instantiate(X, sq_a))
            outer_ok, _ = is_pullback_square(_instantiate(X, outer))
            if right_ok and outer_ok:
                left_ok, wit = is_pullback_square(_instantiate(X, sq_b))
                assert left_ok, wit
                checked += 1
    assert checked >= 10
