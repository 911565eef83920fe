"""Cyclic bar complex: b^2 = 0, homology, and the induced coproduct map."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from helpers import (
    bar_differential,
    bar_differential_oracle,
    callback_complex,
    callback_map,
    cc_of_delta_word,
    cc_of_delta_word_oracle,
    chain_map_residuals,
    column,
    cyclic_tuples,
    rational_rank,
    shipped_morphism,
    zero_map,
)

from ainfcat import generation, hochschild, intlinalg
from ainfcat.bimodules import (
    LEFT,
    RIGHT,
    BimoduleHom,
    DiagonalBimodule,
    TensorBimodule,
    YonedaModule,
    mu_composition_map,
    tensor_over_category,
)
from ainfcat.complexes import GradedMap, compose, verify_chain_map
from ainfcat.core import RING_F2, RING_Z, chain_normalize, with_ring
from ainfcat.fixtures import (
    FIXTURES,
    SHIPPED_MORPHISMS,
    cone_algebra,
    dual_numbers,
    ground_ring,
    path_category,
    split_summand_pair,
    triple_product_algebra,
)
from ainfcat.hochschild import (
    ChainMapViolation,
    cc_of_delta,
    hochschild_homology,
    length_filter,
    truncated_cc,
    word_degree,
)
from ainfcat.intlinalg import FinAbGroup, IntMatrix, f2_rank

ALL_FIXTURES = [
    ground_ring,
    dual_numbers,
    path_category,
    cone_algebra,
    split_summand_pair,
    triple_product_algebra,
]


def gen_named(cat, name):
    return next(g for g in cat.generators() if g.name == name)


# -- the differential -------------------------------------------------------


def test_b_on_single_letter_is_minus_mu1():
    cat = cone_algebra(2)
    v = gen_named(cat, "v")
    expected = {(g,): -c for g, c in cat.mu_key((v,)).items()}
    assert column(truncated_cc(cat, 1), (v,)) == expected


def test_b_single_letter_zero_when_mu1_zero():
    cat = dual_numbers()
    e = gen_named(cat, "e")
    assert column(truncated_cc(cat, 1), (e,)) == {}


def test_b_classical_commutator_ground_ring():
    # for a commutative strict algebra the two length-2 collapses cancel
    cat = ground_ring()
    e = gen_named(cat, "e")
    cx = truncated_cc(cat, 3)
    assert column(cx, (e, e)) == {}
    assert list(column(cx, (e, e, e)).values()) in ([1], [-1])


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_b_squared_zero_up_to_length_5(make):
    cat = make()
    cx = truncated_cc(cat, 5)
    for k in cx.degrees():
        bb = cx.matrix(k + 1) @ cx.matrix(k)
        assert not any(chain_normalize(dict(row), cat.ring) for row in bb.entries), k


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_b_never_increases_length_and_raises_degree(make):
    cx = truncated_cc(make(), 5)
    for k in cx.degrees():
        for word in cx.basis[k]:
            assert word_degree(word) == k
            for w1 in column(cx, word):
                assert len(w1) <= len(word)
                assert word_degree(w1) == k + 1


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_truncated_cc_equals_the_word_by_word_oracle(name, ring):
    # the basis is every cyclic word of length <= 5, and each matrix is the
    # one built column by column from the per-word differential
    cat = with_ring(FIXTURES[name](), ring)
    cx = truncated_cc(cat, 5)
    words = {}
    for d in range(1, 6):
        for word in cyclic_tuples(cat, d):
            words.setdefault(word_degree(word), []).append(word)
    assert cx.basis == {k: sorted(v) for k, v in sorted(words.items())}
    oracle = callback_complex(cx.basis, lambda w: bar_differential(cat, w), ring=ring)
    for k in cx.degrees():
        assert cx.matrix(k) == oracle.matrix(k), k


def items_and_lookups(walk, stand_in, word):
    """The terms of walk(stand_in(log), word) in insertion order, and the
    lookups the walk logged on its stand-in."""
    log = []
    return list(walk(stand_in(log), word).items()), log


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bar_differential_equals_the_two_loop_oracle(name, ring):
    cat = with_ring(FIXTURES[name](), ring)

    def stand_in(log):
        return SimpleNamespace(ring=ring, mu_key=lambda key: log.append(key) or cat.mu_key(key))

    for d in range(1, 6):
        for word in cyclic_tuples(cat, d):
            new = items_and_lookups(bar_differential, stand_in, word)
            assert new == items_and_lookups(bar_differential_oracle, stand_in, word), word


def test_truncated_cc_validates():
    for make in ALL_FIXTURES:
        truncated_cc(make(), 3)


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_length_filter_is_the_shorter_truncation(make):
    cat = make()
    big = truncated_cc(cat, 3)
    small = length_filter(big, 2)
    direct = truncated_cc(cat, 2)
    assert small.basis == direct.basis
    for k in direct.degrees():
        assert small.matrix(k) == direct.matrix(k)
        assert small.composite(k) == direct.composite(k)


# -- homology ---------------------------------------------------------------


def test_hochschild_ground_ring():
    res = hochschild_homology(ground_ring(), 3)
    assert res.groups[0] == FinAbGroup(1)
    for k, g in res.groups.items():
        if k != 0:
            assert g.is_trivial(), (k, g)
    assert res.stable[0]


def test_hochschild_empty_category():
    from ainfcat.core import AinfCategory

    cat = AinfCategory(objects=["x"], hom={}, mu={})
    res = hochschild_homology(cat, 3)
    assert all(g.is_trivial() for g in res.groups.values())


def test_hochschild_dual_numbers_vs_rank_oracle():
    cat = dual_numbers()
    cx = truncated_cc(cat, 3)
    res = hochschild_homology(cat, 3)
    for k, g in res.groups.items():
        d_out = cx.matrix(k)
        d_in = cx.matrix(k - 1)
        free = (cx.dim(k) - rational_rank(d_out)) - rational_rank(d_in)
        assert g.free_rank == free, (k, g, free)


@pytest.mark.parametrize("make, N", [(cone_algebra, 2), (triple_product_algebra, 3), (split_summand_pair, 3)])
def test_f2_stable_flags_match_a_gf2_oracle(make, N):
    # the flag holds when the inclusion of the (N-1)-truncation is onto H^k
    # of the N one and the dimensions agree: rank [E | F Z] - rank E, with
    # Z a kernel basis of the small d_k, over sympy's GF(2)
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix

    def gf2(rows, cols, entry):
        return DomainMatrix.from_Matrix(Matrix(rows, cols, lambda i, j: entry(i, j) % 2)).convert_to(GF(2))

    cat = with_ring(make(), "F2")
    big = truncated_cc(cat, N)
    small = length_filter(big, N - 1)
    res = hochschild_homology(cat, N)
    for k in big.degrees():
        dim = len(res.groups[k].torsion)
        E = big.matrix(k - 1)
        Em = gf2(E.rows, E.cols, lambda i, j: E[i, j])
        F = gf2(big.dim(k), small.dim(k), lambda i, j: int(big.basis[k][i] == small.basis[k][j]))
        D = small.matrix(k)
        Z = gf2(D.rows, D.cols, lambda i, j: D[i, j]).nullspace().transpose() if D.rows else F.eye(D.cols, GF(2))
        onto = Em.hstack(F * Z).rank() - Em.rank() if small.dim(k) else 0
        assert res.stable[k] == (len(small.homology_data(k).group.torsion) == dim and onto == dim), k


def test_f2_homology_ranks_each_matrix_once(monkeypatch):
    # the homology of both truncations and the stabilization flag's D and E
    # read one rank per distinct matrix: where the N - 1 truncation keeps
    # every row and column, its matrix is the parent's and so is its rank;
    # only the flag's block matrices are new
    ranked = []

    def counted(A):
        ranked.append((A.rows, A.cols, tuple(tuple(sorted(row.items())) for row in A.entries)))
        return f2_rank(A)

    monkeypatch.setattr(intlinalg, "f2_rank", counted)
    hochschild_homology(with_ring(split_summand_pair(), RING_F2), 5)
    assert ranked and len(ranked) == len(set(ranked))


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
def test_homology_forms_no_d_o_d_on_the_filtered_truncation(monkeypatch, ring):
    # the N - 1 truncation takes its products d o d from the parent's, which
    # validate() formed: no product of two of its matrices is taken again
    small, products = [], []
    filtered, product = hochschild.length_filter, IntMatrix.__matmul__

    def kept(cx, max_length):
        small.append(filtered(cx, max_length))
        return small[-1]

    def counted(A, B):
        if small:
            products.append((A, B))
        return product(A, B)

    monkeypatch.setattr(hochschild, "length_filter", kept)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    hochschild_homology(with_ring(split_summand_pair(), ring), 4)
    [cx] = small
    matrices = [cx.matrix(k) for k in cx.degrees()]
    ours = {id(M) for M in matrices}
    assert products and not [(A, B) for A, B in products if id(A) in ours and id(B) in ours]


def test_triple_groups_factor_only_unit_reduced_spots(monkeypatch):
    # every degree's groups differ between the two truncations, so each
    # flag is read off the groups, which come from the spots with their
    # unit pairs cancelled: no factored matrix is either truncation's own
    factored, built = [], []
    original, truncated = intlinalg.smith_normal_form, hochschild.truncated_cc

    def recording(A, left=True, right=True):
        factored.append(A)
        return original(A, left, right)

    def kept(cat, max_length):
        built.append(truncated(cat, max_length))
        return built[-1]

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    monkeypatch.setattr(hochschild, "truncated_cc", kept)
    res = hochschild_homology(triple_product_algebra(), 5, range(-2, 2))
    [big] = built
    own = [cx.matrix(k) for cx in (big, hochschild.length_filter(big, 4)) for k in cx.degrees()]
    assert not any(res.stable.values())
    assert factored and not [A for A in factored if any(A == M for M in own)]


def test_hochschild_cone_torsion_appears():
    # the cone algebra has 2-torsion in its own cohomology; the cyclic
    # complex at length 1 already sees it through the -mu^1 differential
    res = hochschild_homology(cone_algebra(2), 2)
    assert any(g.torsion for g in res.groups.values())


# -- the induced map on cyclic chains ---------------------------------------


@pytest.mark.parametrize("key", SHIPPED_MORPHISMS)
def test_shipped_morphisms_verify(key):
    from ainfcat.bimodules import verify_bimodule_hom

    name, n = key
    phi = shipped_morphism(name, n)
    report = verify_bimodule_hom(phi, max_inputs=3)
    assert report.passed, (key, str(report))


@pytest.mark.parametrize("key", SHIPPED_MORPHISMS)
def test_cc_of_delta_is_chain_map(key):
    name, n = key
    phi = shipped_morphism(name, n)
    cat = phi.source.cat
    K = phi.target.left.K
    cc = truncated_cc(cat, 3)
    tensor_cx = tensor_over_category(
        YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), 3
    )
    f = cc_of_delta(phi, cc, tensor_cx)  # raises ChainMapViolation on failure
    assert f.shift == n


@pytest.mark.parametrize("key", SHIPPED_MORPHISMS)
def test_cc_of_delta_word_equals_the_rsum_oracle(key):
    phi = shipped_morphism(*key)

    def stand_in(log):
        return SimpleNamespace(n=phi.n, source=phi.source, apply=lambda k, s: log.append((k, s)) or phi.apply(k, s))

    for d in range(1, 6):
        for word in cyclic_tuples(phi.source.cat, d):
            new = items_and_lookups(cc_of_delta_word, stand_in, word)
            assert new == items_and_lookups(cc_of_delta_word_oracle, stand_in, word), word


def over_f2(phi: BimoduleHom) -> BimoduleHom:
    """phi's components over the category reduced mod 2."""
    cat = with_ring(phi.source.cat, RING_F2)
    K = phi.target.left.K
    target = TensorBimodule(YonedaModule(cat, K, LEFT), YonedaModule(cat, K, RIGHT))
    return BimoduleHom(DiagonalBimodule(cat), target, phi.n, phi.components)


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
@pytest.mark.parametrize("key", SHIPPED_MORPHISMS)
def test_cc_of_delta_equals_the_word_by_word_oracle(key, ring):
    # CC(phi) placed term by term equals the image of each word computed
    # block by block, into the tensor complex `ainfcat cardy` builds
    phi = shipped_morphism(*key)
    phi = over_f2(phi) if ring == RING_F2 else phi
    cat = phi.source.cat
    K = phi.target.left.K
    for N in range(1, 6):
        cc = truncated_cc(cat, N)
        tensor_cx = tensor_over_category(YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), N - 1)
        f = cc_of_delta(phi, cc, tensor_cx)
        oracle = callback_map(cc, tensor_cx, phi.n, lambda w: cc_of_delta_word(phi, w))
        for k in cc.degrees():
            assert f.matrix(k) == oracle.matrix(k), (N, k)


def test_cc_of_delta_zero_morphism():
    cat = dual_numbers()
    phi = BimoduleHom(
        source=DiagonalBimodule(cat),
        target=TensorBimodule(YonedaModule(cat, "*", LEFT), YonedaModule(cat, "*", RIGHT)),
        n=0,
        components={},
    )
    cc = truncated_cc(cat, 3)
    tensor_cx = tensor_over_category(YonedaModule(cat, "*", RIGHT), YonedaModule(cat, "*", LEFT), 3)
    f = cc_of_delta(phi, cc, tensor_cx)
    for k in cc.degrees():
        for w in cc.basis[k]:
            assert column(f, w) == {}


def test_cc_of_delta_ground_ring_identity_like():
    phi = shipped_morphism("ground_ring", 0)
    cat = phi.source.cat
    e = gen_named(cat, "e")
    img = cc_of_delta_word(phi, (e, e))
    assert len(img) == 1
    ((w, c),) = img.items()
    assert w.length == 1 and abs(c) == 1


def with_negated_component(phi: BimoduleHom) -> BimoduleHom:
    """phi with one component coefficient flipped (component tables are
    read-only, so the morphism is rebuilt from a mutated copy)."""
    comps = {rs: {k: dict(v) for k, v in t.items()} for rs, t in phi.components.items()}
    (rs, table) = next(iter(sorted(comps.items())))
    key = next(iter(sorted(table, key=str)))
    pg = next(iter(table[key]))
    table[key][pg] = -table[key][pg]
    return BimoduleHom(source=phi.source, target=phi.target, n=phi.n, components=comps)


def test_cc_of_delta_mutation_raises():
    phi = with_negated_component(shipped_morphism("cone_algebra", 0))
    cat = phi.source.cat
    cc = truncated_cc(cat, 3)
    tensor_cx = tensor_over_category(YonedaModule(cat, "*", RIGHT), YonedaModule(cat, "*", LEFT), 3)
    with pytest.raises(ChainMapViolation) as exc:
        cc_of_delta(phi, cc, tensor_cx)
    assert exc.value.witness is not None


# -- chain map checker ------------------------------------------------------


def test_verify_chain_map_zero_and_identity():
    cat = cone_algebra(2)
    cx = truncated_cc(cat, 2)
    ident = callback_map(source=cx, target=cx, shift=0, apply=lambda w: {w: 1})
    assert verify_chain_map(ident).passed
    assert verify_chain_map(zero_map(cx, cx, 1)).passed


def test_verify_chain_map_counterexample():
    cat = cone_algebra(2)
    cx = truncated_cc(cat, 2)
    some_word = cx.basis[min(cx.degrees())][0]

    def broken(w):
        if w == some_word:
            return {}
        return {w: 1}

    bad = callback_map(source=cx, target=cx, shift=0, apply=broken)
    report = verify_chain_map(bad)
    assert not report.passed
    assert report.violations[0].inputs == (some_word,)


def same_report(f: GradedMap):
    """verify_chain_map's report on f, held equal to the label-wise
    oracle's: the same count, the same violations in the same order."""
    report, oracle = verify_chain_map(f), chain_map_residuals(f)
    assert report.checked == oracle.checked
    assert [(v.inputs, v.residual) for v in report.violations] == [(v.inputs, v.residual) for v in oracle.violations]
    return report


def test_verify_chain_map_and_compose_read_products_mod_2():
    # over F2 the residual d f + f d = 2y of a degree-1 map vanishes, and
    # g o f sends a to 2z = 0
    source = callback_complex({0: ["a"], 1: ["b"]}, lambda label: {"b": 1} if label == "a" else {}, ring=RING_F2)
    target = callback_complex({1: ["x"], 2: ["y"]}, lambda label: {"y": 1} if label == "x" else {}, ring=RING_F2)
    assert same_report(callback_map(source, target, 1, lambda label: {"x": 1} if label == "a" else {"y": 1})).passed
    point, pair, end = (callback_complex({0: labels}, lambda label: {}, ring=RING_F2) for labels in (["a"], ["p", "q"], ["z"]))
    f = callback_map(point, pair, 0, lambda label: {"p": 1, "q": 1})
    g_f = compose(callback_map(pair, end, 0, lambda label: {"z": 1}), f)
    assert g_f.matrix(0).is_zero() and column(g_f, "a") == {}


@pytest.mark.parametrize("key", SHIPPED_MORPHISMS)
def test_verify_chain_map_matches_the_label_wise_oracle_on_cc_of_delta(key):
    phi = shipped_morphism(*key)
    cat = phi.source.cat
    K = phi.target.left.K
    for N in (1, 2, 3):
        cc = truncated_cc(cat, N)
        tensor_cx = tensor_over_category(YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), N - 1)
        f = cc_of_delta(phi, cc, tensor_cx)
        assert same_report(f).passed
        assert same_report(compose(mu_composition_map(cat, K, K, tensor_cx), f)).passed


def test_verify_chain_map_matches_the_label_wise_oracle_on_a_mutant():
    phi = with_negated_component(shipped_morphism("cone_algebra", 0))
    cat = phi.source.cat
    cc = truncated_cc(cat, 3)
    tensor_cx = tensor_over_category(YonedaModule(cat, "*", RIGHT), YonedaModule(cat, "*", LEFT), 3)
    f = callback_map(cc, tensor_cx, phi.n, lambda w: cc_of_delta_word(phi, w), name="CC(mutant)")
    assert not same_report(f).passed


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_verify_chain_map_matches_the_label_wise_oracle_on_unit_actions(monkeypatch, name, ring):
    cat = with_ring(FIXTURES[name](), ring)
    checked = []
    monkeypatch.setattr(generation, "verify_chain_map", lambda f: checked.append(f) or same_report(f))
    for K, e in cat.units.items():
        generation.verify_cohomological_unit(cat, K, e)
    assert checked or not cat.units
