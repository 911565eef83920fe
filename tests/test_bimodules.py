"""Bimodule equations, tensor complexes, and the composition chain map."""

from __future__ import annotations

import itertools

import pytest
from dense_verifiers import mixed_tuples
from helpers import (
    callback_complex,
    column,
    identity_hom,
    tensor_differential,
    tensor_op_oracle,
    tensor_words,
    with_negated_bimodule_term,
)

from ainfcat.bimodules import (
    LEFT,
    RIGHT,
    Bimodule,
    BimoduleHom,
    DiagonalBimodule,
    PairGen,
    TensorBimodule,
    TensorWord,
    YonedaModule,
    hom_complex,
    middle_paths,
    mu_composition_map,
    tensor_over_category,
    verify_bimodule,
    verify_bimodule_hom,
)
from ainfcat.complexes import BasedComplex, verify_chain_map
from ainfcat.core import chain_normalize, parity_sign, verify_ainf, with_ring
from ainfcat.fixtures import (
    FIXTURES,
    cone_algebra,
    dual_numbers,
    ground_ring,
    path_category,
    split_summand_pair,
    triple_product_algebra,
)

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


# -- Yoneda modules ---------------------------------------------------------


def test_yoneda_ground_ring():
    cat = ground_ring()
    m = YonedaModule(cat, "*", LEFT)
    e = gen_named(cat, "e")
    assert m.basis("*") == [e]
    # left actions restrict the diagonal bimodule: constant extra sign -1
    assert m.act((e, e)) == {e: -1}


def test_yoneda_two_object_spaces():
    cat = path_category(2)
    yr = YonedaModule(cat, "2", RIGHT)
    f12 = gen_named(cat, "f12")
    assert yr.basis("1") == [f12]


def test_yoneda_dual_numbers_ranks():
    cat = dual_numbers()
    yl = YonedaModule(cat, "*", LEFT)
    degrees = sorted(g.degree for g in yl.basis("*"))
    assert degrees == [0, 1]


def test_yoneda_unknown_object():
    with pytest.raises(KeyError):
        YonedaModule(ground_ring(), "missing", LEFT)


# -- diagonal bimodule ------------------------------------------------------


def test_diagonal_zero_differential():
    cat = ground_ring()
    e = gen_named(cat, "e")
    assert DiagonalBimodule(cat).op((e,), 0) == {}


def test_diagonal_left_action_sign():
    # with no right inputs the sign is (-1)^(0 + 1) = -1
    cat = ground_ring()
    e = gen_named(cat, "e")
    P = DiagonalBimodule(cat)
    assert P.op((e, e), 0) == {e: -1}


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_diagonal_bimodule_satisfies_equation(make):
    cat = make()
    assert verify_ainf(cat, 4).passed
    report = verify_bimodule(DiagonalBimodule(cat), max_inputs=4)
    assert report.passed, str(report)


# -- tensor bimodule --------------------------------------------------------


def test_tensor_bimodule_differential_ground_ring():
    cat = ground_ring()
    P = TensorBimodule(YonedaModule(cat, "*", LEFT), YonedaModule(cat, "*", RIGHT))
    e = gen_named(cat, "e")
    assert P.op((PairGen(e, e),), 0) == {}


def test_tensor_bimodule_vanishes_for_mixed_rs():
    cat = dual_numbers()
    e = gen_named(cat, "e")
    P = TensorBimodule(YonedaModule(cat, "*", LEFT), YonedaModule(cat, "*", RIGHT))
    # r = s = 1 operation is identically zero
    assert P.op((e, PairGen(e, e), e), 1) == {}


@pytest.mark.parametrize("ring", ["Z", "F2"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tensor_bimodule_tables_match_the_oracle(name, ring):
    # the tables against the operation computed on the fly: on every key
    # they hold, chain order included (witness residuals print in it), and
    # on every mixed tuple of length <= 4, where r, s > 0 reads empty
    cat = with_ring(FIXTURES[name](), ring)
    mixed = 0
    for K in cat.objects:
        left, right = YonedaModule(cat, K, LEFT), YonedaModule(cat, K, RIGHT)
        P = TensorBimodule(left, right)
        for key, s in P.op_keys():
            assert list(P.op(key, s).items()) == list(tensor_op_oracle(left, right, key, s).items()), key
        for total in range(4):
            for s in range(total + 1):
                for key in mixed_tuples(cat, P, total - s, s):
                    want = tensor_op_oracle(left, right, key, s)
                    assert list(P.op(key, s).items()) == list(want.items()), key
                    if 0 < s < total:
                        mixed += 1
                        assert not want
    assert mixed


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_tensor_bimodule_satisfies_equation(make):
    cat = make()
    for K in cat.objects:
        P = TensorBimodule(YonedaModule(cat, K, LEFT), YonedaModule(cat, K, RIGHT))
        report = verify_bimodule(P, max_inputs=3)
        assert report.passed, (K, str(report))


def test_table_bimodule_mutation_detected():
    # freeze the diagonal bimodule of dual numbers into tables, then mutate
    cat = dual_numbers()
    diag = DiagonalBimodule(cat)
    spaces = {(a, b): list(diag.basis(a, b)) for a in cat.objects for b in cat.objects}
    ops: dict = {}
    for total in range(0, 4):
        for s in range(0, total + 1):
            r = total - s
            for key in mixed_tuples(cat, diag, r, s):
                out = diag.op(key, s)
                if out:
                    ops.setdefault((r, s), {})[key] = out
    table = Bimodule(cat, spaces, ops)
    assert verify_bimodule(table, max_inputs=3).passed
    e = gen_named(cat, "e")
    bad = with_negated_bimodule_term(table, 1, 0, (e, e), e)
    assert not verify_bimodule(bad, max_inputs=3).passed


# -- bimodule homomorphisms -------------------------------------------------


def test_zero_hom_passes():
    cat = dual_numbers()
    P = DiagonalBimodule(cat)
    Q = TensorBimodule(YonedaModule(cat, "*", LEFT), YonedaModule(cat, "*", RIGHT))
    for n in (0, 1, 2):
        phi = BimoduleHom(source=P, target=Q, n=n, components={})
        assert verify_bimodule_hom(phi, max_inputs=3).passed


@pytest.mark.parametrize("make", [ground_ring, dual_numbers, cone_algebra])
def test_identity_hom_passes(make):
    cat = make()
    phi = identity_hom(DiagonalBimodule(cat))
    report = verify_bimodule_hom(phi, max_inputs=3)
    assert report.passed, str(report)


def test_identity_hom_mutation_fails():
    cat = dual_numbers()
    P = DiagonalBimodule(cat)
    e = gen_named(cat, "e")
    eps = gen_named(cat, "eps")
    comps = {(0, 0): {(e,): {e: 1}, (eps,): {eps: -1}}}
    phi = BimoduleHom(source=P, target=P, n=0, components=comps)
    assert not verify_bimodule_hom(phi, max_inputs=3).passed


# -- tensor product over the category ---------------------------------------


def test_tensor_complex_ground_ring_length0():
    cat = ground_ring()
    yl = YonedaModule(cat, "*", LEFT)
    yr = YonedaModule(cat, "*", RIGHT)
    cx = tensor_over_category(yr, yl, 0)
    assert cx.dim(0) == 1
    w = cx.basis[0][0]
    assert w.length == 0
    assert tensor_differential(yr, yl, w) == {}


def test_tensor_complex_ground_ring_lengths12():
    cat = ground_ring()
    yl = YonedaModule(cat, "*", LEFT)
    yr = YonedaModule(cat, "*", RIGHT)
    cx = tensor_over_category(yr, yl, 2)
    # classical bar pattern: d vanishes on the length-1 word and is an
    # isomorphism from the length-2 word onto it
    assert cx.dim(-1) == 1 and cx.dim(-2) == 1
    w1 = cx.basis[-1][0]
    w2 = cx.basis[-2][0]
    assert tensor_differential(yr, yl, w1) == {}
    img = tensor_differential(yr, yl, w2)
    assert img == {w1: 1} or img == {w1: -1}


def word_by_word(R: YonedaModule, L: YonedaModule, max_length: int) -> BasedComplex:
    """The tensor complex as it was built before its matrices were written
    from term tables: the words of tensor_words, the differential of each
    word by tensor_differential."""
    basis: dict[int, list] = {}
    for w in tensor_words(R, L, max_length):
        basis.setdefault(w.degree, []).append(w)
    return callback_complex(basis, lambda w: tensor_differential(R, L, w), ring=R.cat.ring)


def assert_same_complex(new: BasedComplex, old: BasedComplex):
    assert new.basis == old.basis
    for k in old.degrees():
        assert new.matrix(k) == old.matrix(k), k


@pytest.mark.parametrize("ring", ["Z", "F2"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tensor_complex_equals_the_word_by_word_oracle(name, ring):
    # every nonempty B, every K and every probe object X, N <= 3, on one
    # middle-path table per B as build_universal_complex shares it
    cat = with_ring(FIXTURES[name](), ring)
    for n in range(1, len(cat.objects) + 1):
        for B in itertools.combinations(cat.objects, n):
            paths = middle_paths(cat, B, 3)
            for K, X in itertools.product(cat.objects, repeat=2):
                R, L = YonedaModule(cat, K, RIGHT, objects=B), YonedaModule(cat, X, LEFT, objects=B)
                for N in range(4):
                    assert_same_complex(tensor_over_category(R, L, N, paths), word_by_word(R, L, N))


@pytest.mark.parametrize("ring", ["Z", "F2"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tensor_complex_equals_the_word_by_word_oracle_at_length_4(name, ring):
    # the complex `ainfcat cardy` builds, over every object, at N = 4
    cat = with_ring(FIXTURES[name](), ring)
    for K in cat.objects:
        R, L = YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT)
        assert_same_complex(tensor_over_category(R, L, 4), word_by_word(R, L, 4))


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_tensor_complex_d_squared_zero(make):
    cat = make()
    for K in cat.objects:
        yl = YonedaModule(cat, K, LEFT)
        yr = YonedaModule(cat, K, RIGHT)
        tensor_over_category(yr, yl, 3)  # validate() runs inside


def test_tensor_complex_homology_stabilizes_ground_ring():
    cat = ground_ring()
    yl = YonedaModule(cat, "*", LEFT)
    yr = YonedaModule(cat, "*", RIGHT)
    h0 = []
    for n in range(0, 4):
        cx = tensor_over_category(yr, yl, n)
        h0.append(cx.homology_data(0).group)
    assert all(g.free_rank == 1 and not g.torsion for g in h0)


# -- composition map --------------------------------------------------------


def test_mu_composition_ground_ring():
    cat = ground_ring()
    e = gen_named(cat, "e")
    w = TensorWord(e, (), e)
    assert YonedaModule(cat, "*", RIGHT).act((w.q,) + w.mid + (w.p,)) == {e: 1}


def test_mu_composition_empty_table():
    cat = path_category(2)
    f12 = gen_named(cat, "f12")
    f11 = gen_named(cat, "f11")
    # no mu^3 table: length-1 words collapse to zero
    w = TensorWord(f11, (f12,), gen_named(cat, "f22"))
    assert YonedaModule(cat, "2", RIGHT).act((w.q,) + w.mid + (w.p,)) == {}


@pytest.mark.parametrize("ring", ["Z", "F2"])
@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_mu_composition_is_the_signed_full_collapse(make, ring):
    # the right action of hom(-, K) on a whole word (q, a_1..a_d, p) is mu on
    # it, signed by (-1)^(deg q + sum of the reduced degrees of the a_i)
    cat = with_ring(make(), ring)
    for K in cat.objects:
        right = YonedaModule(cat, K, RIGHT)
        for X in cat.objects:
            for w in tensor_words(right, YonedaModule(cat, X, LEFT), 3):
                key = (w.q,) + w.mid + (w.p,)
                sign = parity_sign(w.q.degree + sum(a.degree + 1 for a in w.mid))
                want = chain_normalize({g: sign * c for g, c in cat.mu_key(key).items()}, cat.ring)
                assert dict(right.act(key)) == want, (ring, X, K, w)


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_mu_composition_is_chain_map(make):
    cat = make()
    for K in cat.objects:
        yr = YonedaModule(cat, K, RIGHT)
        for X in cat.objects:
            cx = tensor_over_category(yr, YonedaModule(cat, X, LEFT), 3)
            report = verify_chain_map(mu_composition_map(yr, X, cx))
            assert report.passed, (X, K, str(report))


def test_hom_complex_is_minus_mu1():
    cat = cone_algebra(2)
    cx = hom_complex(cat, "*", "*")
    cx.validate()
    v = gen_named(cat, "v")
    assert column(cx, v) == {g: -c for g, c in cat.mu_key((v,)).items()}
