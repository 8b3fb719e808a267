import gc
import hashlib
import importlib
import json
import pkgutil
import sys
import weakref
from itertools import permutations
from pathlib import Path

import pytest

from decspace.errors import NotAPoset, UnsupportedField
from decspace.gallery import (
    FinCat,
    binomial_B,
    fat_nerve,
    forests_H,
    graphs_G,
    group_category,
    injections_I,
    mono_nerve,
    mono_projection,
    nerve_of_poset,
    oi_space,
    oi_to_i,
    poset_category,
    vect_S,
)
from decspace.gallery.posets import PosetSpec, chain_poset, divisibility_poset
from decspace.gallery.vect import _compositions, staircases
from decspace.linalg_fq import general_linear, mat_mul
from decspace.groupoids import (
    generating_arrows,
    is_equivalence,
    iso_classes,
    validate_groupoid,
)
from decspace.simplicial import (
    check_culf,
    check_decomposition,
    check_segal,
    corrupted_variant,
    dec,
    product_simplicial,
    segal_power,
    truncate,
    validate_simplicial,
)
from oracles import (
    keeps_any,
    keeps_edges,
    keeps_parents,
    ladder_isos_reference,
    layer_perms_reference,
    staircases_reference,
)


def _z3():
    return group_category("Z3", (0, 1, 2), lambda a, b: (a + b) % 3, 0)


def test_every_constructor_validates(binomial3, forests3, graphs3, vect22, chain_nerve):
    spaces = [
        binomial3,
        forests3,
        graphs3,
        vect22,
        chain_nerve,
        injections_I(2, 3)[0],
        oi_space(2, 3),
        mono_nerve(2, 2, 2),
        fat_nerve(_z3(), 3),
        fat_nerve(poset_category(chain_poset(2)), 3),
    ]
    for X in spaces:
        assert validate_simplicial(X).passed, X.name


def test_level_groupoids_satisfy_axioms():
    # full groupoid axioms by enumeration, at small size
    spaces = [
        binomial_B(2, 2),
        forests_H(2, 2),
        graphs_G(2, 2),
        vect_S(2, 1, 2),
        injections_I(2, 2)[0],
        mono_nerve(2, 1, 2),
        fat_nerve(_z3(), 1),
        fat_nerve(poset_category(chain_poset(2)), 2),
    ]
    for X in spaces:
        for n in range(X.N + 1):
            rep = validate_groupoid(X.level(n))
            assert rep.passed, (X.name, n, rep.first_failure())


def test_canonicalization_soundness(binomial3, forests3, graphs3, vect22):
    # equal canonical keys exactly when an isomorphism exists
    for X in (binomial3, forests3, graphs3, vect22):
        for n in (1, 2):
            L = X.level(n)
            objs = L.objects[:120]
            for x in objs:
                for y in objs:
                    same = L.canon_key(x) == L.canon_key(y)
                    assert same == (L.some_iso(x, y) is not None)


def test_poset_nerve_counts(chain_nerve):
    assert len(chain_nerve.level(2).objects) == 10
    antichain = nerve_of_poset(PosetSpec.from_relations(("a", "b"), ()), 3)
    for n in range(4):
        assert len(antichain.level(n).objects) == 2


def test_poset_file_roundtrip(tmp_path):
    path = tmp_path / "chain3.txt"
    path.write_text("# a chain\n0 < 1\n1 < 2\n\n")
    spec = PosetSpec.from_file(path)
    X = nerve_of_poset(spec, 2)
    assert len(X.level(0).objects) == 3
    bad = tmp_path / "cycle.txt"
    bad.write_text("a < b\nb < a\n")
    with pytest.raises(NotAPoset):
        nerve_of_poset(PosetSpec.from_file(bad), 2)
    for line in ("a < b < c", "< b", "a <", "a", " < "):
        bad.write_text(f"0 < 1\n{line}\n")
        with pytest.raises(NotAPoset):
            PosetSpec.from_file(bad)


def test_fat_nerve_of_poset_matches_ordinary_nerve():
    spec = chain_poset(2)
    cat = poset_category(spec)
    fat = fat_nerve(cat, 3)
    ordinary = nerve_of_poset(spec, 3)
    for n in range(4):
        assert len(fat.level(n).objects) == len(ordinary.level(n).objects)
        ok, _ = is_equivalence(
            _counting_functor(fat.level(n), ordinary.level(n))
        )
    assert check_segal(fat).passed


def _counting_functor(A, B):
    from decspace.groupoids import GroupoidFunctor

    pairing = dict(zip(sorted(A.objects, key=repr), sorted(B.objects, key=repr)))
    return GroupoidFunctor(A, B, lambda x: pairing[x], lambda x, y, d: (), name="count")


def test_fat_nerve_one_object_group():
    X = fat_nerve(_z3(), 3)
    table = iso_classes(X.level(1))
    assert len(table) == 1
    assert table.classes[0].aut_order == 3
    assert check_segal(X).passed


def test_injections_matches_generic_fat_nerve():
    # the monotone-string skeleton is levelwise equivalent to the fat nerve
    # of the category of all injections, at a small bound
    arrows = {}
    compose = {}
    identities = {}
    objects = (0, 1, 2)
    from itertools import permutations

    def injections(a, b):
        out = []
        for img in permutations(range(b), a):
            out.append(("inj", a, b, img))
        return out

    hom = {}
    for a in objects:
        for b in objects:
            maps = injections(a, b)
            if maps:
                hom[(a, b)] = tuple(maps)
    for (a, b), fs in hom.items():
        for f in fs:
            for (c, d), gs in hom.items():
                if c != b:
                    continue
                for g in gs:
                    comp = ("inj", a, d, tuple(g[3][v] for v in f[3]))
                    compose[(g, f)] = comp
    for a in objects:
        identities[a] = ("inj", a, a, tuple(range(a)))
    cat = FinCat("inj<=2", objects, hom, compose, identities)
    generic = fat_nerve(cat, 2)
    I, _ = injections_I(2, 2)
    for n in range(3):
        GA, GB = generic.level(n), I.level(n)
        ta, tb = iso_classes(GA), iso_classes(GB)
        assert sorted(c.aut_order for c in ta) == sorted(c.aut_order for c in tb)
        assert len(ta) == len(tb)


# ---------------------------------------------------------------------------
# hom-sets against a depth-first reference search


def _string_reference(isos, compose):
    """Ladders of ``isos`` at the nodes of two strings whose squares commute."""

    def hom(s, t):
        (xs, fs), (ys, gs) = s, t
        return ladder_isos_reference(
            [isos(x, y) for x, y in zip(xs, ys)],
            lambda j, prefix, g: j == 0 or compose(g, fs[j - 1]) == compose(gs[j - 1], prefix[-1]),
        )

    return hom


def _fat_reference(cat):
    invertible = cat.isos()
    return _string_reference(
        lambda x, y: [f for f in cat.hom.get((x, y), ()) if f in invertible],
        lambda g, f: cat.compose[(g, f)],
    )


def _segal_reference(X):
    X1, X0, d0, d1 = X.level(1), X.level(0), X.face(1, 0), X.face(1, 1)

    def hom(o1, o2):
        (e1, s1), (e2, s2) = o1, o2
        return ladder_isos_reference(
            [X1.hom(a, b) for a, b in zip(e1, e2)],
            lambda i, prefix, g: i == 0
            or X0.compose(s2[i - 1], d0.arr(e1[i - 1], e2[i - 1], prefix[-1]))
            == X0.compose(d1.arr(e1[i], e2[i], g), s1[i - 1]),
        )

    return hom


def _staircase_reference(q):
    """Grids g_ij (0 <= i < j <= n) of invertible matrices commuting with the
    horizontal maps of each row and the vertical maps of each column."""

    def hom(x, y):
        n, dims = x[0], x[1]
        if dims != y[1]:
            return ()
        cells = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
        targets = {}

        def target(t, prefix):
            # h_y g_{i,j-1} and v_y g_{i-1,j} (None off the grid), once per prefix
            key = (t, tuple(prefix))
            if key not in targets:
                i, j = cells[t]
                done = dict(zip(cells, prefix))
                targets[key] = (
                    mat_mul(y[2][i][j - 1 - i], done[i, j - 1], q) if j - 1 > i else None,
                    mat_mul(y[3][i - 1][j - i], done[i - 1, j], q) if i > 0 else None,
                )
            return targets[key]

        def commutes(t, prefix, g):
            i, j = cells[t]
            left, up = target(t, prefix)
            if left is not None and mat_mul(g, x[2][i][j - 1 - i], q) != left:
                return False
            return up is None or mat_mul(g, x[3][i - 1][j - i], q) == up

        grids = ladder_isos_reference([general_linear(dims[i][j - i], q) for i, j in cells], commutes)
        out = []
        for grid in grids:
            entries = iter(grid)
            out.append(tuple(tuple(next(entries) for _ in range(i + 1, n + 1)) for i in range(n)))
        return tuple(out)

    return hom


def _reference_cases():
    """(label, groupoid, reference hom, pairs) for every level of the string
    nerves, the staircases and two Segal powers."""
    inj = _string_reference(
        lambda a, b: list(permutations(range(a))) if a == b else [],
        lambda g, f: tuple(g[v] for v in f),
    )
    mono = _string_reference(
        lambda a, b: general_linear(a, 2) if a == b else (), lambda g, f: mat_mul(g, f, 2)
    )
    z3, chain = _z3(), poset_category(chain_poset(2))
    spaces = [
        ("injections_I(3,2)", injections_I(3, 2)[0], inj),
        ("mono_nerve(2,2,2)", mono_nerve(2, 2, 2), mono),
        ("fat_nerve(Z3,3)", fat_nerve(z3, 3), _fat_reference(z3)),
        ("fat_nerve(chain2,3)", fat_nerve(chain, 3), _fat_reference(chain)),
        ("vect_S(2,2,2)", vect_S(2, 2, 2), _staircase_reference(2)),
        ("vect_S(3,2,2)", vect_S(3, 2, 2), _staircase_reference(3)),
        ("vect_S(2,2,3)", vect_S(2, 2, 3), _staircase_reference(2)),
        ("vect_S(2,3,2)", vect_S(2, 3, 2), _staircase_reference(2)),
    ]
    for label, X, ref in spaces:
        for n in range(X.N + 1):
            yield f"{label}@{n}", X.level(n), ref
    for label, X in (("binomial_B(3,3)", binomial_B(3, 3)), ("graphs_G(2,2)", graphs_G(2, 2))):
        for r in (2, 3):
            yield f"segal_power({label},{r})", segal_power(X, r, X.grade_bound), _segal_reference(X)


def test_hom_sets_match_reference_ladder_search():
    # hom-sets in content and order: between every pair of objects of the
    # levels up to 50 objects, and on the four bigger levels (71, 117, 331
    # and 438 objects; all pairs take seconds to minutes) from each class
    # representative to the first three members of every class
    for label, G, ref in _reference_cases():
        if len(G.objects) > 50:
            classes = iso_classes(G)
            pairs = [(c.rep, y) for c in classes for d in classes for y in d.members[:3]]
        else:
            pairs = [(x, y) for x in G.objects for y in G.objects]
        for x, y in pairs:
            assert G.hom(x, y) == ref(x, y), (label, x, y)


def test_layered_hom_sets_match_reference_permutation_search():
    # hom-sets in content and order: between every pair of objects of the
    # levels up to 100 objects, and on the bigger levels (262 to 1,807
    # objects) from each class representative to the first two members of
    # every class with the same layer sizes
    for X, keeps in (
        (binomial_B(5, 2), keeps_any),
        (forests_H(3, 3), keeps_parents),
        (graphs_G(3, 3), keeps_edges),
    ):
        for G in X.levels:
            if len(G.objects) > 100:
                classes = iso_classes(G)
                pairs = [
                    (c.rep, y)
                    for c in classes
                    for d in classes
                    if sorted(c.rep[-1]) == sorted(d.rep[-1])
                    for y in d.members[:2]
                ]
            else:
                pairs = [(x, y) for x in G.objects for y in G.objects]
            for x, y in pairs:
                assert G.hom(x, y) == layer_perms_reference(x, y, keeps), (G.name, x, y)


@pytest.mark.parametrize("build", [binomial_B, forests_H, graphs_G])
def test_layered_hom_set_memo_lives_and_dies_with_its_space(build):
    X, Y = build(2, 2), build(2, 2)
    x = X.level(2).objects[-1]
    found = X.level(2).hom(x, x)
    assert X.level(1).hom(x, x) is found  # one memo for every level of X
    assert Y.level(2).hom(x, x) == found
    assert Y.level(2).hom(x, x) is not found  # Y searched on its own
    memo = weakref.ref(X.level(2).hom)
    del X, found
    gc.collect()
    assert memo() is None


def test_module_level_caches_are_the_six_expected():
    # found by cache_clear, as perfbench/run.py finds the caches it empties
    # for its cold passes; hom-set memos belong to their spaces instead
    import decspace

    for mod in pkgutil.walk_packages(decspace.__path__, "decspace."):
        importlib.import_module(mod.name)
    found = {
        f"{obj.__module__}.{obj.__qualname__}"
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "decspace" and mod
        for obj in vars(mod).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    assert found == {
        "decspace.linalg_fq.general_linear",
        "decspace.gallery.vect._gap_isos",
        "decspace.gallery.forests._labeled_forests",
        "decspace.gallery.forests._forest_canon",
        "decspace.gallery.graphs._graphs",
        "decspace.gallery.graphs._graph_canon",
    }


def test_binomial_level_one(binomial4):
    b = iso_classes(binomial4.level(1))
    assert [c.aut_order for c in b] == [1, 1, 2, 6, 24]


def test_forests_level_zero(forests3):
    assert len(forests3.level(0).objects) == 1


def test_injections_class_count():
    I, _ = injections_I(2, 2)
    table = iso_classes(I.level(1))
    # domain-size/codomain-size pairs with 0 <= a <= b <= 2
    assert {c.key for c in table} == {(a, b) for b in range(3) for a in range(b + 1)}


def test_monoidal_maps_culf(binomial3, graphs3):
    H = forests_H(2, 3)
    I = injections_I(2, 3)[0]
    for X in (binomial3, H, graphs3, I):
        rep = check_culf(X.monoidal)
        assert rep.passed, X.name
        assert X.monoidal.naturality_defect() is None, X.name
        assert X.monoidal is X.monoidal


def test_monoidal_built_on_first_use():
    X = binomial_B(2, 2)
    assert "monoidal" not in vars(X)
    assert X.monoidal.name == "mu[binomial]"
    assert "monoidal" in vars(X)
    # spaces without a monoidal rule
    others = [
        truncate(X, 1),
        dec(X)[0],
        product_simplicial(X, X),
        corrupted_variant(X, 0)[0],
        nerve_of_poset(chain_poset(2), 2),
    ]
    for Y in others:
        assert Y.monoidal is None, Y.name


def test_oi_to_i_naturality():
    F = oi_to_i(2, 3)
    assert F.naturality_defect() is None


def test_dec_equivalence_naturality_and_levelwise():
    I, equiv = injections_I(3, 3)
    assert equiv.naturality_defect() is None
    for k in range(4):
        ok, wit = is_equivalence(equiv.component(k))
        assert ok, wit


def test_vect_classes(vect22):
    table = iso_classes(vect22.level(1))
    assert [c.aut_order for c in table] == [1, 1, 6]
    assert check_decomposition(vect22).passed
    assert not check_segal(vect22).passed


def test_staircases_match_reference_scan():
    """The kernel-indexed builder yields the same staircases in the same order
    as a scan of every matrix, for every layer-dimension composition."""
    cases = [(2, 1, 3), (2, 2, 3), (2, 3, 2), (3, 1, 2), (3, 2, 2)]
    for q, level, bound in cases:
        for dims in _compositions(level, bound):
            assert list(staircases(q, dims)) == staircases_reference(q, dims), (q, dims)


def test_vect_unsupported_field():
    with pytest.raises(UnsupportedField):
        vect_S(5, 2, 2)


def test_mono_projection_levelwise_equivalence():
    proj = mono_projection(2, 2, 2)
    assert proj.naturality_defect() is None
    for k in range(3):
        ok, wit = is_equivalence(proj.component(k))
        assert ok, wit


def test_dec_top_forests_segal():
    H = forests_H(3, 3)
    Y, dmap = dec(H, "top")
    assert check_segal(Y).passed
    assert check_culf(dmap).passed


# ---------------------------------------------------------------------------
# golden digests of every structure map

GOLDEN_MAPS = Path(__file__).parent / "golden" / "structure_maps.json"


def _digest_spaces():
    return {
        "binomial_B(3,3)": binomial_B(3, 3),
        "injections_I(2,3)": injections_I(2, 3)[0],
        "oi_space(2,3)": oi_space(2, 3),
        "forests_H(3,3)": forests_H(3, 3),
        "graphs_G(2,3)": graphs_G(2, 3),
        "vect_S(2,2,3)": vect_S(2, 2, 3),
        "mono_nerve(2,2,2)": mono_nerve(2, 2, 2),
        "nerve_of_poset(chain2,3)": nerve_of_poset(chain_poset(2), 3),
        "nerve_of_poset(div124,3)": nerve_of_poset(divisibility_poset((1, 2, 4)), 3),
        "fat_nerve(Z3,3)": fat_nerve(_z3(), 3),
        "fat_nerve(chain2,3)": fat_nerve(poset_category(chain_poset(2)), 3),
    }


def _functor_digest(F):
    src = F.source
    objs = [F.obj(x) for x in src.objects]
    arrs = [F.arr(x, y, d) for (x, y, d) in generating_arrows(src)]
    return hashlib.sha256(repr((F.name, objs, arrs)).encode()).hexdigest()


def structure_map_digests() -> dict:
    """sha256 per (space, face or degeneracy or monoidal component, level)."""
    out = {}
    for label, X in _digest_spaces().items():
        for n in range(1, X.N + 1):
            for i in range(n + 1):
                out[f"{label} d_{i}@{n}"] = _functor_digest(X.face(n, i))
        for n in range(X.N):
            for i in range(n + 1):
                out[f"{label} s_{i}@{n}"] = _functor_digest(X.degeneracy(n, i))
        if X.monoidal is not None:
            for n in range(X.N + 1):
                out[f"{label} mu@{n}"] = _functor_digest(X.monoidal.component(n))
    return out


def test_structure_maps_match_golden():
    # recorded before the constructors were rewired; any change to an object
    # or arrow image of a face, degeneracy or monoidal component shows here
    golden = json.loads(GOLDEN_MAPS.read_text())
    assert structure_map_digests() == golden


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_gallery.py  rewrites the golden file
    GOLDEN_MAPS.write_text(json.dumps(structure_map_digests(), indent=1, sort_keys=True) + "\n")
