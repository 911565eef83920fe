"""Unit verification, the universal complex, and generation certificates."""

from __future__ import annotations

import pytest
from helpers import callback_complex, callback_map, column, iter_terms, with_negated_term

from ainfcat.bimodules import TensorWord
from ainfcat.complexes import verify_chain_map
from ainfcat.core import AinfCategory, chain_add, with_ring
from ainfcat.fixtures import (
    cone_algebra,
    dual_numbers,
    ground_ring,
    path_category,
    split_summand_pair,
    triple_product_algebra,
    two_object_with_zero,
)
from ainfcat import generation
from ainfcat.generation import (
    ClosednessViolation,
    GenerationCertificate,
    MaurerCartanViolation,
    NotACycle,
    build_universal_complex,
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
    # q alone is idempotent but does not act as the identity on everything,
    # over Z or mod 2
    for ring in ("Z", "F2"):
        cat = with_ring(split_summand_pair(), ring)
        eK = gen_named(cat, "eK")
        assert verify_cohomological_unit(cat, "K", {eK: 1}).passed
        E11 = gen_named(cat, "E11")
        assert not verify_cohomological_unit(cat, "L", {E11: 1}).passed


@pytest.mark.parametrize("make", [ground_ring, dual_numbers, path_category, cone_algebra, split_summand_pair])
def test_units_pass_mod_2(make):
    cat = with_ring(make(), "F2")
    for K, e in cat.units.items():
        assert verify_cohomological_unit(cat, K, e).passed, K


def test_identity_mod_2_allows_boundaries():
    # x spans H^0; z = d(y) is a boundary, so x -> x + z is the identity on
    # H^0 (f - id induces zero) and x -> z is not (f - id induces x -> x)
    cx = callback_complex({-1: ["y"], 0: ["x", "z"]}, lambda label: {"z": 1} if label == "y" else {}, ring="F2")
    shifted = {"x": {"x": 1, "z": 1}}
    killed = {"x": {"z": 1}}
    for images, rank in ((shifted, 0), (killed, 1)):
        f = callback_map(cx, cx, 0, lambda label, images=images: images.get(label, {label: 1}))
        assert verify_chain_map(f).passed
        f_minus_id = callback_map(cx, cx, 0, lambda label, f=f: chain_add(dict(column(f, label)), {label: 1}, -1))
        hd, below = cx.homology_data(0), cx.homology_data(-1)
        assert hd.induced_rank(f_minus_id.matrix(0), hd) == rank
        assert below.induced_rank(f_minus_id.matrix(-1), below) == 0


# -- the universal twisted complex ------------------------------------------


FIXTURES_FOR_MC = [ground_ring, dual_numbers, path_category, cone_algebra, split_summand_pair, triple_product_algebra]


@pytest.mark.parametrize("make", FIXTURES_FOR_MC)
def test_maurer_cartan_holds(make):
    cat = make()
    build_universal_complex(cat, cat.objects, cat.objects[0], 2)


def test_maurer_cartan_depth3_cone():
    cat = cone_algebra(2)
    cx = build_universal_complex(cat, ["*"], "*", 3)
    assert max(w.length for k in cx.degrees() for w in cx.basis[k]) == 3


def test_universal_complex_n0_shape():
    cat = ground_ring()
    e = gen_named(cat, "e")
    cx = build_universal_complex(cat, ["*"], "*", 0)
    # one word <e||e>, and mu^1 = 0 leaves it a cycle
    assert cx.basis == {0: [TensorWord(e, (), e)]}
    assert column(cx, TensorWord(e, (), e)) == {}


def test_universal_complex_empty_subcategory():
    # Z0 is a zero object: no word passes through it
    cat = two_object_with_zero()
    cx = build_universal_complex(cat, ["Z0"], "K", 2)
    assert cx.basis == {}


def test_evaluation_closed_all_fixtures():
    # build_universal_complex raises ClosednessViolation unless the
    # evaluation into hom(X, K) is a chain map for every probe X
    for make in FIXTURES_FOR_MC:
        cat = make()
        for K in cat.objects:
            build_universal_complex(cat, cat.objects, K, 2)


def test_mutated_differential_detected():
    # every single negated mu term breaks d^2 = 0 or the evaluation map on
    # some realization
    negated = 0
    for make in (cone_algebra, dual_numbers, triple_product_algebra):
        cat = make()
        for d, key, out, _ in iter_terms(cat):
            bad = with_negated_term(cat, d, key, out)
            with pytest.raises((MaurerCartanViolation, ClosednessViolation)):
                build_universal_complex(bad, bad.objects, bad.objects[0], 2)
            negated += 1
    assert negated == 43


def test_violations_are_value_errors():
    assert issubclass(MaurerCartanViolation, ValueError)
    assert issubclass(ClosednessViolation, ValueError)


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


def test_replay_reads_the_homotopy_term():
    # mu^1(v) = -2e on the cone algebra: the solver's tau needs no h, -tau
    # needs h = v, and h = -v leaves mu(tau) - mu^1(h) = -3e
    cat = cone_algebra(2)
    e = dict(cat.units["*"])
    cert = generation_test(cat, ["*"], "*", e, max_length=2)
    assert cert.generated and not cert.h
    v = gen_named(cat, "v")
    minus_tau = {w: -c for w, c in cert.tau.items()}
    repaired = GenerationCertificate("generated", "*", ["*"], 2, tau=minus_tau, h={v: 1})
    assert replay_certificate(cat, repaired, e).generated
    worse = GenerationCertificate("generated", "*", ["*"], 2, tau=minus_tau, h={v: -1})
    out = replay_certificate(cat, worse, e)
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "mu(tau) - mu^1(h) != e"


@pytest.mark.parametrize(
    "middle, detail",
    [(0, "tau is not a cycle"), (5, "tau is not supported on the truncation")],
    ids=["not-a-cycle", "past-the-truncation"],
)
def test_replay_refuses_tau_off_the_degree_0_cycles(middle, detail):
    # <p||p> is a degree-0 word of the N = 2 complex but not a cycle; a word
    # with 5 middle letters lies past the truncation
    cat = cone_algebra(2)
    e = dict(cat.units["*"])
    p = gen_named(cat, "p")
    cert = GenerationCertificate("generated", "*", ["*"], 2, tau={TensorWord(p, (p,) * middle, p): 1})
    out = replay_certificate(cat, cert, e)
    assert out.verdict == "refuted-at-bound"
    assert out.detail == detail


def test_replay_refuses_h_outside_hom_K_K_in_degree_minus_1():
    # mu^1 vanishes on E11 and f1, so only h's support check refuses them
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=2)
    assert cert.generated
    h = {gen_named(cat, "E11"): 5, gen_named(cat, "f1"): 2}
    stray = GenerationCertificate("generated", "K", ["L"], 2, tau=dict(cert.tau), h=h)
    out = replay_certificate(cat, stray, {eK: 1})
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "h is not supported on hom(K, K) in degree -1"


def test_certificates_are_integral():
    # generation_test and replay_certificate both refuse a mod-2 category
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=1)
    f2 = with_ring(cat, "F2")
    for check in (lambda: generation_test(f2, ["L"], "K", {eK: 1}, 1), lambda: replay_certificate(f2, cert, {eK: 1})):
        with pytest.raises(ValueError, match="integral"):
            check()


def test_replay_refutes_certificate_in_broken_category():
    cat = split_summand_pair()
    eK = gen_named(cat, "eK")
    cert = generation_test(cat, ["L"], "K", {eK: 1}, max_length=2)
    assert cert.generated
    broken = with_negated_term(cat, 2, (eK, eK), eK)
    out = replay_certificate(broken, cert, {eK: 1})
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "category fails the structure relations"


def test_replay_refutes_certificate_whose_universal_complex_fails(monkeypatch):
    # an extra mu^4 term leaves the relations up to depth 3 intact but
    # breaks the evaluation map on words of length 2
    cat = cone_algebra(2)
    e = dict(cat.units["*"])
    cert = generation_test(cat, ["*"], "*", e, max_length=2)
    p, u, v = (gen_named(cat, name) for name in ("p", "u", "v"))
    mu = {**cat.mu, 4: {(p, p, p, u): {v: 1}}}
    broken = AinfCategory(objects=list(cat.objects), hom=dict(cat.hom), mu=mu, ring=cat.ring, units=dict(cat.units))
    # checked on every tuple, the relations fail first
    out = replay_certificate(broken, cert, e)
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "category fails the structure relations"
    # checked only to depth 3, the universal complex is what refuses it
    monkeypatch.setattr(generation, "relation_depth", lambda cat: 3)
    out = replay_certificate(broken, cert, e)
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "evaluation fails to be a chain map against *"


def test_generation_and_replay_check_relations_past_depth_3():
    # mu^4(u, u, p, p) = p first breaks the structure relation on 4-tuples
    cat = triple_product_algebra()
    e = dict(cat.units["*"])
    cert = generation_test(cat, ["*"], "*", e, max_length=2)
    assert cert.generated
    u, p = gen_named(cat, "u"), gen_named(cat, "p")
    mu = {**cat.mu, 4: {(u, u, p, p): {p: 1}}}
    broken = AinfCategory(objects=list(cat.objects), hom=dict(cat.hom), mu=mu, ring=cat.ring, units=dict(cat.units))
    with pytest.raises(ValueError, match="category fails the structure relations"):
        generation_test(broken, ["*"], "*", e, max_length=2)
    out = replay_certificate(broken, cert, e)
    assert out.verdict == "refuted-at-bound"
    assert out.detail == "category fails the structure relations"
