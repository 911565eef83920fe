"""The term-driven verifiers against the enumerating oracle.

`verify_ainf`, `verify_bimodule` and `verify_bimodule_hom` build every
nonzero residual from pairs of table terms; `dense_verifiers` evaluates
the same equations on every tuple.  They must agree on `checked`, on the
violations in order, and on the items of every residual in order (the
CLI prints them as witnesses), with and without single-term mutations.
"""

from __future__ import annotations

import random

import pytest
from dense_verifiers import dense_verify_ainf, dense_verify_bimodule, dense_verify_bimodule_hom
from helpers import iter_terms, shipped_morphism, with_negated_bimodule_term, with_negated_term

from ainfcat.bimodules import (
    LEFT,
    RIGHT,
    BimoduleHom,
    DiagonalBimodule,
    TensorBimodule,
    YonedaModule,
    verify_bimodule,
    verify_bimodule_hom,
)
from ainfcat.core import tuple_count, verify_ainf, with_ring
from ainfcat.fixtures import FIXTURES, SHIPPED_MORPHISMS


def as_data(report):
    return report.checked, [(v.inputs, list(v.residual.items())) for v in report.violations]


def assert_same(fast, dense):
    assert as_data(fast) == as_data(dense)


def sample(items, k, seed):
    items = list(items)
    return items if len(items) <= k else random.Random(seed).sample(items, k)


def with_negated_component(phi: BimoduleHom, rs, key, out) -> BimoduleHom:
    comps = {k: {kk: dict(v) for kk, v in t.items()} for k, t in phi.components.items()}
    comps[rs][key][out] = -comps[rs][key][out]
    return BimoduleHom(phi.source, phi.target, phi.n, comps)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_structure_relation(name):
    cat = FIXTURES[name]()
    assert_same(verify_ainf(cat, 6), dense_verify_ainf(cat, 6))
    assert_same(verify_ainf(with_ring(cat, "F2"), 4), dense_verify_ainf(with_ring(cat, "F2"), 4))
    for d, key, out, _ in iter_terms(cat):
        bad = with_negated_term(cat, d, key, out)
        assert_same(verify_ainf(bad, 4), dense_verify_ainf(bad, 4))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_diagonal_bimodule(name):
    cat = FIXTURES[name]()
    P = DiagonalBimodule(cat)
    assert_same(verify_bimodule(P, 4), dense_verify_bimodule(P, 4))
    P2 = DiagonalBimodule(with_ring(cat, "F2"))
    assert_same(verify_bimodule(P2, 3), dense_verify_bimodule(P2, 3))
    terms = [(rs, key, out) for rs, table in sorted(P.ops.items()) for key in table for out in table[key]]
    for (r, s), key, out in sample(terms, 8, name):
        bad = with_negated_bimodule_term(P, r, s, key, out)
        assert_same(verify_bimodule(bad, 3), dense_verify_bimodule(bad, 3))
    for d, key, out, _ in sample(iter_terms(cat), 4, name):
        bad = DiagonalBimodule(with_negated_term(cat, d, key, out))
        assert_same(verify_bimodule(bad, 3), dense_verify_bimodule(bad, 3))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_tensor_bimodule(name):
    cat = FIXTURES[name]()
    for K in cat.objects:
        P = TensorBimodule(YonedaModule(cat, K, LEFT), YonedaModule(cat, K, RIGHT))
        assert_same(verify_bimodule(P, 3), dense_verify_bimodule(P, 3))
    for d, key, out, _ in sample(iter_terms(cat), 3, name):
        bad = with_negated_term(cat, d, key, out)
        K = key[0].source
        P = TensorBimodule(YonedaModule(bad, K, LEFT), YonedaModule(bad, K, RIGHT))
        assert_same(verify_bimodule(P, 3), dense_verify_bimodule(P, 3))


@pytest.mark.parametrize("name,n", SHIPPED_MORPHISMS)
def test_morphism_equation(name, n):
    phi = shipped_morphism(name, n)
    assert_same(verify_bimodule_hom(phi, 4), dense_verify_bimodule_hom(phi, 4))
    for rs, table in sorted(phi.components.items()):
        for key, chain in table.items():
            for out in chain:
                bad = with_negated_component(phi, rs, key, out)
                assert_same(verify_bimodule_hom(bad, 3), dense_verify_bimodule_hom(bad, 3))
    # the same components over a category with one constant negated
    cat = phi.source.cat
    K = phi.target.left.K
    for d, key, out, _ in sample(iter_terms(cat), 2, name):
        bad = with_negated_term(cat, d, key, out)
        target = TensorBimodule(YonedaModule(bad, K, LEFT), YonedaModule(bad, K, RIGHT))
        bad_phi = BimoduleHom(DiagonalBimodule(bad), target, phi.n, phi.components)
        assert_same(verify_bimodule_hom(bad_phi, 3), dense_verify_bimodule_hom(bad_phi, 3))
    # and over F2, where the components reduce mod 2
    cat2 = with_ring(cat, "F2")
    target = TensorBimodule(YonedaModule(cat2, K, LEFT), YonedaModule(cat2, K, RIGHT))
    phi2 = BimoduleHom(DiagonalBimodule(cat2), target, phi.n, phi.components)
    assert_same(verify_bimodule_hom(phi2, 3), dense_verify_bimodule_hom(phi2, 3))


def test_tuple_count_is_the_enumeration_count():
    # the depth-8 structure check of split_summand_pair counts 878,904
    # tuples; the oracle above confirms the count up to depth 6
    cat = FIXTURES["split_summand_pair"]()
    assert tuple_count(cat, 6) == 35154
    assert tuple_count(cat, 8) == 878904
    assert tuple_count(cat, 4, DiagonalBimodule(cat).elements()) == 33399
