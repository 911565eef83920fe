"""Unit verification, the universal complex, and generation certificates."""

from __future__ import annotations

import pytest

from ainfcat.bimodules import TensorWord
from ainfcat.fixtures import (
    cone_algebra,
    dual_numbers,
    ground_ring,
    path_category,
    split_summand_pair,
    triple_product_algebra,
    two_object_with_zero,
)
from ainfcat.generation import (
    ClosednessViolation,
    GenerationCertificate,
    MaurerCartanViolation,
    NotACycle,
    build_universal_complex,
    evaluation_morphism,
    generation_test,
    replay_certificate,
    verify_cohomological_unit,
)


def gen_named(cat, name):
    return next(g for g in cat.generators() if g.name == name)


# -- cohomological units ----------------------------------------------------


def test_unit_ground_ring():
    cat = ground_ring()
    assert verify_cohomological_unit(cat, "*", cat.units["*"]).passed


def test_unit_dual_numbers():
    cat = dual_numbers()
    assert verify_cohomological_unit(cat, "*", cat.units["*"]).passed


def test_unit_cone_algebra():
    cat = cone_algebra(2)
    assert verify_cohomological_unit(cat, "*", cat.units["*"]).passed


def test_unit_zero_candidate_fails():
    cat = ground_ring()
    report = verify_cohomological_unit(cat, "*", {})
    assert not report.passed


def test_unit_noncycle_raises():
    cat = cone_algebra(2)
    p = gen_named(cat, "p")
    with pytest.raises(NotACycle):
        verify_cohomological_unit(cat, "*", {p: 1})  # mu^1(p) = 2u != 0


def test_unit_wrong_degree_raises():
    cat = dual_numbers()
    eps = gen_named(cat, "eps")
    with pytest.raises(NotACycle):
        verify_cohomological_unit(cat, "*", {eps: 1})


def test_unit_half_of_unit_fails():
    # q alone is idempotent but does not act as the identity on everything
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    assert verify_cohomological_unit(cat, "K", {eK: 1}).passed
    E11 = gen_named(cat, "E11")
    assert not verify_cohomological_unit(cat, "L", {E11: 1}).passed


# -- the universal twisted complex ------------------------------------------


FIXTURES_FOR_MC = [ground_ring, dual_numbers, path_category, cone_algebra, split_summand_pair, triple_product_algebra]


@pytest.mark.parametrize("make", FIXTURES_FOR_MC)
def test_maurer_cartan_holds(make):
    cat = make()
    build_universal_complex(cat, cat.objects, cat.objects[0], 2)


def test_maurer_cartan_depth3_cone():
    cat = cone_algebra(2)
    tc = build_universal_complex(cat, ["*"], "*", 3)
    assert tc.max_length == 3


def test_universal_complex_n0_shape():
    cat = ground_ring()
    tc = build_universal_complex(cat, ["*"], "*", 0)
    assert [s.length for s in tc.summands] == [0]
    # only the mu^2-style evaluation terms: no pops, and the only scalar
    # entries would involve mu^1 which vanishes here
    assert not tc.pops and not tc.scalars
    evaluation_morphism(tc)


def test_universal_complex_empty_subcategory():
    cat = two_object_with_zero()
    tc = build_universal_complex(cat, ["Z0"], "K", 2)
    assert tc.summands == []
    evaluation_morphism(tc)


def test_evaluation_closed_all_fixtures():
    for make in FIXTURES_FOR_MC:
        cat = make()
        tc = build_universal_complex(cat, cat.objects, cat.objects[0], 2)
        evaluation_morphism(tc)


def test_mutated_differential_detected():
    cat = cone_algebra(2)
    tc = build_universal_complex(cat, ["*"], "*", 2)
    key = sorted(tc.scalars, key=str)[0]
    coef, flag = tc.scalars[key]
    tc.scalars[key] = (-coef, flag)
    with pytest.raises((MaurerCartanViolation, ClosednessViolation)):
        tc.verify_maurer_cartan()
        tc.verify_evaluation()


def test_mutated_pop_detected():
    cat = dual_numbers()
    tc = build_universal_complex(cat, ["*"], "*", 2)
    sigma = next(s for s in tc.summands if s.length == 1)
    (letter, c), = tc.pops[sigma].items()
    tc.pops[sigma] = {letter: -c}
    with pytest.raises((MaurerCartanViolation, ClosednessViolation)):
        tc.verify_maurer_cartan()
        tc.verify_evaluation()


# -- generation certificates -------------------------------------------------


def test_generation_ground_ring():
    cat = ground_ring()
    e = gen_named(cat, "e")
    cert = generation_test(cat, ["*"], "*", {e: 1}, max_length=0)
    assert cert.generated
    assert cert.h == {}
    ((word, coeff),) = cert.tau.items()
    assert word == TensorWord(e, (), e) and coeff == 1


def test_generation_zero_subcategory_inconclusive():
    cat = two_object_with_zero()
    e = gen_named(cat, "e")
    for n in (0, 1, 2):
        cert = generation_test(cat, ["Z0"], "K", {e: 1}, max_length=n)
        assert cert.verdict == "inconclusive"
        assert not cert.rational_only


def test_generation_split_summand_at_length_1():
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=1)
    assert cert.generated
    # replay in a separate pass
    assert replay_certificate(cat, cert, {eK: 1}).generated


def test_generation_monotone_in_bound():
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert0 = generation_test(cat, ["L"], "K", {eK: 1}, max_length=0)
    assert cert0.generated
    for bigger in (1, 2):
        cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=bigger)
        assert cert.generated
        # the smaller witness embeds and still replays at the larger bound
        moved = GenerationCertificate(
            "generated", cert0.K, cert0.B_objects, bigger, tau=cert0.tau, h=cert0.h
        )
        assert replay_certificate(cat, moved, {eK: 1}).generated


def test_generation_cone_algebra_self():
    cat = cone_algebra(2)
    e = dict(cat.units["*"])
    cert = generation_test(cat, ["*"], "*", e, max_length=2)
    assert cert.generated
    assert replay_certificate(cat, cert, e).generated


def test_replay_detects_tampered_tau():
    cat = ground_ring()
    e = gen_named(cat, "e")
    cert = generation_test(cat, ["*"], "*", {e: 1}, max_length=1)
    tampered = GenerationCertificate(
        "generated", cert.K, cert.B_objects, cert.max_length,
        tau={w: 2 * c for w, c in cert.tau.items()}, h=dict(cert.h),
    )
    out = replay_certificate(cat, tampered, {e: 1})
    assert out.verdict == "refuted-at-bound"


def test_replay_refutes_certificate_in_broken_category():
    from ainfcat.core import with_negated_term

    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=2)
    assert cert.generated
    broken = with_negated_term(cat, 2, (eK, eK), eK)
    out = replay_certificate(broken, cert, {eK: 1})
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "category fails the structure relations"
