from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, strategies as st

from decspace.delta import (
    DeltaMap,
    DeltaSquare,
    active_inert_factorize,
    active_map_squares,
    all_active_maps,
    all_maps,
    classify,
    codegeneracy,
    coface,
    compose,
    decode_generator,
    decomposition_axiom_squares,
    extra_pullback_squares,
    format_map,
    generator_decomposition,
    generators,
    identity,
    parse_map,
    pushout_active_inert,
    segal_axiom_squares,
    simplicial_relations,
)
from decspace.errors import LevelOutOfRange, NotActive, NotComposable, NotInert

from oracles import compose_sequence


def monotone_maps(max_n=5):
    return st.integers(0, max_n).flatmap(
        lambda m: st.integers(0, max_n).flatmap(
            lambda n: st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1).map(
                lambda vals: DeltaMap(m, n, tuple(sorted(vals)))
            )
        )
    )


def test_compose_identity():
    f = DeltaMap(1, 3, (0, 2))
    assert compose(identity(3), f) == f
    assert compose(f, identity(1)) == f


def test_compose_simplicial_identity():
    assert compose(codegeneracy(0, 0), coface(0, 1)) == identity(0)


def test_compose_pointwise():
    out = compose(codegeneracy(0, 1), coface(1, 2))
    assert out == identity(1)


def test_compose_mismatch():
    with pytest.raises(NotComposable):
        compose(coface(0, 1), coface(0, 2))


def test_classify_examples():
    assert classify(DeltaMap(2, 3, (0, 1, 3))) == "active"
    assert classify(DeltaMap(1, 3, (1, 2))) == "inert"
    assert classify(DeltaMap(1, 3, (1, 3))) == "neither"
    assert classify(identity(2)) == "both"


def test_factorize_window():
    f = DeltaMap(1, 3, (0, 2))
    g, i = active_inert_factorize(f)
    assert g == DeltaMap(1, 2, (0, 2))
    assert i == DeltaMap(2, 3, (0, 1, 2))
    assert compose(i, g) == f


def test_factorize_trivial_cases():
    f = DeltaMap(1, 3, (1, 2))  # inert
    g, i = active_inert_factorize(f)
    assert g.is_identity() and i == f
    f = DeltaMap(2, 3, (0, 1, 3))  # active
    g, i = active_inert_factorize(f)
    assert i.is_identity() and g == f


def test_factorize_uniqueness_exhaustive():
    # any (active, inert) pair composing to f equals the canonical one; inert
    # maps are window inclusions, so enumerate by window
    for m, n in iproduct(range(6), range(6)):
        for f in all_maps(m, n):
            g0, i0 = active_inert_factorize(f)
            count = 0
            for k in range(n + 1):
                for lo in range(n - k + 1):
                    i = DeltaMap(k, n, tuple(range(lo, lo + k + 1)))
                    shifted = tuple(v - lo for v in f.images)
                    if any(not 0 <= v <= k for v in shifted):
                        continue
                    g = DeltaMap(m, k, shifted)
                    if classify(g) in ("active", "both") and compose(i, g) == f:
                        assert (g, i) == (g0, i0)
                        count += 1
            assert count == 1


def test_pushout_codegeneracy_case():
    sq = pushout_active_inert(codegeneracy(0, 0), coface(0, 2))
    assert sq.right == codegeneracy(1, 1)
    assert sq.bottom == coface(0, 1)


def test_pushout_identity_case():
    g = coface(1, 2)
    sq = pushout_active_inert(g, identity(1))
    assert sq.right == g and sq.bottom == identity(2)


def test_pushout_top_coface_case():
    sq = pushout_active_inert(coface(1, 2), coface(2, 2))
    assert sq.bottom == coface(3, 3)
    assert sq.right == coface(1, 3)


def test_pushout_tag_errors():
    with pytest.raises(NotActive):
        pushout_active_inert(coface(0, 1), coface(0, 1))
    with pytest.raises(NotInert):
        pushout_active_inert(codegeneracy(0, 0), DeltaMap(1, 2, (0, 2)))


def test_pushout_restriction_recovers_active():
    # the active-inert factorization of the composite around the square is
    # (g, inert side): restricting the extension along the window recovers g
    for g_dom, g_cod in iproduct(range(3), range(3)):
        for g in all_active_maps(g_dom, g_cod):
            for m in range(g_dom, 4):
                for i in all_maps(g_dom, m):
                    if classify(i) not in ("inert", "both"):
                        continue
                    sq = pushout_active_inert(g, i)
                    assert compose(sq.right, sq.top) == compose(sq.bottom, sq.left)
                    assert classify(sq.right) in ("active", "both")
                    assert classify(sq.bottom) in ("inert", "both")
                    act, inert = active_inert_factorize(compose(sq.bottom, sq.left))
                    assert act == g
                    assert inert == sq.bottom


def test_generator_decomposition_examples():
    assert generator_decomposition(identity(2)) == []
    assert generator_decomposition(codegeneracy(0, 0)) == [codegeneracy(0, 0)]
    gens = generator_decomposition(DeltaMap(1, 3, (0, 2)))
    assert compose_sequence(gens, 1) == DeltaMap(1, 3, (0, 2))


def test_generator_decomposition_recomposes_exhaustive():
    for m, n in iproduct(range(6), range(6)):
        for f in all_maps(m, n):
            gens = generator_decomposition(f)
            assert compose_sequence(gens, m) == f
            # canonical order: codegeneracies (descending) then cofaces (ascending)
            degen = [g for g in gens if g.cod == g.dom - 1]
            faces = [g for g in gens if g.cod == g.dom + 1]
            assert gens == degen + faces


def test_classify_composites_exhaustive_small():
    for a, b, c in iproduct(range(4), range(4), range(4)):
        for f in all_maps(a, b):
            for g in all_maps(b, c):
                gf = compose(g, f)
                if classify(f) in ("active", "both") and classify(g) in ("active", "both"):
                    assert classify(gf) in ("active", "both")
                if classify(f) in ("inert", "both") and classify(g) in ("inert", "both"):
                    assert classify(gf) in ("inert", "both")


@given(monotone_maps(), monotone_maps())
def test_classify_composites(f, g):
    if f.cod != g.dom:
        return
    gf = compose(g, f)
    if classify(f) in ("active", "both") and classify(g) in ("active", "both"):
        assert classify(gf) in ("active", "both")
    if classify(f) in ("inert", "both") and classify(g) in ("inert", "both"):
        assert classify(gf) in ("inert", "both")


def test_generators_in_order_and_decoded():
    assert generators(2) == [
        coface(0, 1), coface(1, 1), coface(0, 2), coface(1, 2), coface(2, 2),
        codegeneracy(0, 0), codegeneracy(0, 1), codegeneracy(1, 1),
    ]
    assert decode_generator(coface(2, 3)) == ("face", 2, "d_2")
    assert decode_generator(codegeneracy(1, 2)) == ("degeneracy", 1, "s_1")
    for f in (identity(1), DeltaMap(1, 3, (0, 2)), DeltaMap(2, 1, (0, 0, 0))):
        with pytest.raises(ValueError):
            decode_generator(f)


def _kinds(a, b):
    return tuple("d" if g.cod > g.dom else "s" for g in (a, b))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_simplicial_relation_counts(N):
    relations = simplicial_relations(N)
    kinds = [_kinds(a, b) for a, b in relations]
    face_face = sum(comb(n + 1, 2) for n in range(2, N + 1))
    degen_degen = sum(comb(n + 2, 2) for n in range(N - 1))
    mixed = sum((n + 1) * (n + 2) for n in range(N))
    assert kinds.count(("d", "d")) == face_face
    assert kinds.count(("s", "s")) == degen_degen
    assert kinds.count(("d", "s")) == mixed
    assert len(relations) == face_face + degen_degen + mixed
    assert len(simplicial_relations(3)) == 33


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_simplicial_relations_are_the_non_normal_pairs(N):
    # brute force: group every composable pair of generators by its composite;
    # each pair is a relation, listed once, except the normal-form pair of a
    # composite that is not an identity
    relations = simplicial_relations(N)
    assert len(set(relations)) == len(relations)
    by_composite = {}
    for a, b in iproduct(generators(N), repeat=2):
        if a.cod == b.dom:
            by_composite.setdefault(compose(b, a), []).append((a, b))
    for f, pairs in by_composite.items():
        normal = generator_decomposition(f)
        assert compose_sequence(normal, f.dom) == f
        kept = [p for p in pairs if p not in relations]
        assert kept == ([] if f.is_identity() else [tuple(normal)])
    assert len(relations) == sum(len(pairs) - (not f.is_identity()) for f, pairs in by_composite.items())


def test_decomposition_squares_counts():
    assert len(decomposition_axiom_squares(2)) == 2
    assert len(decomposition_axiom_squares(3)) == 4
    assert len(decomposition_axiom_squares(4)) == 8
    with pytest.raises(LevelOutOfRange):
        decomposition_axiom_squares(1)


def test_segal_squares_counts():
    assert len(segal_axiom_squares(2)) == 1
    assert len(segal_axiom_squares(3)) == 2
    assert len(segal_axiom_squares(4)) == 3
    with pytest.raises(LevelOutOfRange):
        segal_axiom_squares(1)


def test_extra_squares_counts_and_order():
    # per cone level n: (n+1)(n+2)/2 squares in each of the three regimes
    assert [len(extra_pullback_squares(m)) for m in (1, 2, 3, 4)] == [0, 3, 12, 30]
    assert [sq.desc for sq in extra_pullback_squares(2)] == [
        "s_0/d_1 square at level 1 (i<j)",
        "s_1/d_0 square at level 1 (j<=i)",
        "s_0/s_0 square at level 0 (i<j)",
    ]


def test_misindexed_extra_square_rejected():
    # s^0 against d^1 at [2] needs d^2 on the far side, not d^1
    DeltaSquare(codegeneracy(0, 1), coface(2, 3), coface(1, 2), codegeneracy(0, 2))
    with pytest.raises(ValueError):
        DeltaSquare(codegeneracy(0, 1), coface(1, 3), coface(1, 2), codegeneracy(0, 2))


def test_active_map_square_data():
    data = active_map_squares(3)
    # count of active maps [n] -> [m] for n, m <= 3 matches brute force
    brute = sum(
        1
        for n in range(4)
        for m in range(4)
        for f in all_maps(n, m)
        if classify(f) in ("active", "both")
    )
    assert len(data) == brute
    for rec in data:
        n, m = rec.g.dom, rec.g.cod
        assert len(rec.splits) == n == len(rec.windows) == len(rec.edges)
        for gi, win, edge in zip(rec.splits, rec.windows, rec.edges):
            assert compose(rec.g, edge) == compose(win, gi)


def test_textual_notation_roundtrip():
    f = DeltaMap(2, 3, (0, 1, 3))
    assert parse_map(format_map(f)) == f
    assert format_map(f) == "[2]->[3]:(0,1,3)"
