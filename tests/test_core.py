"""Structure-relation verifier and sign engine tests."""

from __future__ import annotations

import random

import pytest
from dense_verifiers import ainf_residual
from helpers import apply_mu, composable_tuples, cyclic_tuples, iter_terms, koszul_sign, with_negated_term

from ainfcat.core import (
    Gen,
    NonComposable,
    chain_add,
    rdeg,
    verify_ainf,
    with_ring,
)
from ainfcat.fixtures import (
    cone_algebra,
    dual_numbers,
    ground_ring,
    path_category,
    split_summand_pair,
)

BASIC_FIXTURES = [ground_ring, dual_numbers, path_category, cone_algebra, split_summand_pair]


def test_koszul_identity():
    assert koszul_sign([3, 7, 2], [0, 1, 2]) == 1


def test_koszul_odd_swap():
    assert koszul_sign([1, 1], [1, 0]) == -1


def test_koszul_mixed_swap():
    assert koszul_sign([1, 2], [1, 0]) == 1


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([1], [0, 1])


def compose_perms(sigma, tau):
    # apply tau first, then sigma: item i lands at sigma[tau[i]]
    return [sigma[tau[i]] for i in range(len(tau))]


def permute_by(perm, items):
    out = [None] * len(items)
    for i, x in enumerate(items):
        out[perm[i]] = x
    return out


def test_koszul_composition_property():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        degs = [rng.randint(-2, 3) for _ in range(n)]
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        lhs = koszul_sign(degs, compose_perms(sigma, tau))
        rhs = koszul_sign(permute_by(tau, degs), sigma) * koszul_sign(degs, tau)
        assert lhs == rhs


def test_reduced_degree():
    assert rdeg(Gen("*", "*", "x", 0)) == 1
    assert rdeg(Gen("*", "*", "x", -1)) == 0
    assert rdeg(Gen("*", "*", "x", 3)) == 4


def test_apply_mu_ground_ring():
    cat = ground_ring()
    e = cat.hom[("*", "*")][0]
    out = apply_mu(cat, 2, [{e: 1}, {e: 1}])
    assert out == {e: 1}


def test_apply_mu_dual_numbers_square_zero():
    cat = dual_numbers()
    eps = next(g for g in cat.generators() if g.name == "eps")
    assert apply_mu(cat, 2, [{eps: 1}, {eps: 1}]) == {}


def test_apply_mu_empty_table():
    cat = ground_ring()
    e = cat.hom[("*", "*")][0]
    assert apply_mu(cat, 1, [{e: 1}]) == {}


def test_apply_mu_non_composable():
    cat = path_category(2)
    f12 = next(g for g in cat.generators() if g.name == "f12")
    with pytest.raises(NonComposable):
        apply_mu(cat, 2, [{f12: 1}, {f12: 1}])


@pytest.mark.parametrize("make", BASIC_FIXTURES)
def test_fixture_satisfies_relations(make):
    report = verify_ainf(make(), up_to=4)
    assert report.passed, str(report)


def test_dual_numbers_relation_counts():
    # one object, two generators: 8 composable triples
    cat = dual_numbers()
    assert sum(1 for _ in composable_tuples(cat, 3)) == 8


def test_negated_term_fails():
    cat = ground_ring()
    e = cat.hom[("*", "*")][0]
    bad = with_negated_term(cat, 2, (e, e), e)
    # the unit triple relation becomes c^2 - c^2 = 0 regardless, but the
    # mixed relations in dual numbers do detect sign flips:
    report = verify_ainf(bad, up_to=3)
    # ground ring alone is sign-blind at d = 3; this documents that fact
    assert report.passed


def test_dual_numbers_mutation_detected():
    cat = dual_numbers()
    for d, key, out, _ in list(iter_terms(cat)):
        mutant = with_negated_term(cat, d, key, out)
        assert not verify_ainf(mutant, up_to=4).passed, (d, key, out)


def test_specialized_d1_d2_match_general():
    """(mu^1)^2 = 0 and the Leibniz rule, expanded by hand, agree with the verifier."""
    cat = cone_algebra(2)
    for (x,) in composable_tuples(cat, 1):
        hand = cat.mu_boundary([cat.mu_key((x,))])
        assert hand == ainf_residual(cat, (x,))
    for xs in composable_tuples(cat, 2):
        x1, x2 = xs
        hand: dict = {}
        # inner mu^1 on x1, then on x2, then the full mu^2 under mu^1
        for g, c in cat.mu_key((x1,)).items():
            chain_add(hand, cat.mu_key((g, x2)), c)
        s = -1 if rdeg(x1) % 2 else 1
        for g, c in cat.mu_key((x2,)).items():
            chain_add(hand, cat.mu_key((x1, g)), s * c)
        for g, c in cat.mu_key((x1, x2)).items():
            chain_add(hand, cat.mu_key((g,)), c)
        assert hand == ainf_residual(cat, xs)


def test_cyclic_tuples_close_up():
    cat = path_category(3)
    for tup in cyclic_tuples(cat, 3):
        assert tup[-1].target == tup[0].source


def test_f2_ring_verifies():
    cat = with_ring(dual_numbers(), "F2")
    assert verify_ainf(cat, up_to=4).passed


def test_lookups_are_read_only_and_leave_the_tables_unchanged():
    from ainfcat.bimodules import LEFT, RIGHT, YonedaModule, tensor_over_category
    from helpers import shipped_morphism
    from ainfcat.hochschild import truncated_cc

    phi = shipped_morphism("cone_algebra", 0)
    cat = phi.source.cat

    def snapshot():
        return {d: {key: dict(out) for key, out in table.items()} for d, table in cat.mu.items()}

    before = snapshot()
    verify_ainf(cat, 4)
    truncated_cc(cat, 3)
    tensor_over_category(YonedaModule(cat, "*", RIGHT), YonedaModule(cat, "*", LEFT), 3)
    assert snapshot() == before

    key, out = next(iter(cat.mu[2].items()))
    g = next(iter(out))
    (rs, table), = sorted(phi.components.items())
    comp_key = next(iter(table))
    tensor_key, slot = phi.target.op_keys()[0]
    missing = cat.mu_key((g, g, g, g, g, g, g))
    for lookup in (cat.mu_key(key), phi.apply(comp_key, rs[1]), phi.target.op(tensor_key, slot), missing):
        with pytest.raises(TypeError):
            lookup[g] = 1
    assert not missing
