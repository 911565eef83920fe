"""Homotopy-equation verification, homotopy solving, and the signed
homology-level comparison."""

from __future__ import annotations

import pytest
from helpers import (
    callback_map,
    column,
    coordinate_columns,
    homotopy_residuals,
    induced_by_generators,
    shipped_morphism,
    zero_map,
)

from ainfcat import cardy, cli, intlinalg
from ainfcat.bimodules import (
    LEFT,
    RIGHT,
    BimoduleHom,
    YonedaModule,
    hom_complex,
    tensor_over_category,
)
from ainfcat.cardy import (
    OpenClosedData,
    homotopy_map,
    mu_cc_map,
    solve_homotopy,
    telescoping_data,
    verify_cardy_on_homology,
    verify_homotopy_equation,
)
from ainfcat.complexes import GradedMap
from ainfcat.core import with_ring
from ainfcat.fixtures import SHIPPED_MORPHISMS, ground_ring
from ainfcat.hochschild import cc_of_delta, truncated_cc
from ainfcat.intlinalg import RationalOnly, Unsolvable
from ainfcat.strata import sign_formula


def setup(fixture, n, N=3):
    phi = shipped_morphism(fixture, n)
    cat = phi.source.cat
    K = phi.target.left.K
    cc = truncated_cc(cat, N)
    tcx = tensor_over_category(
        YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), N
    )
    return phi, cat, K, cc, tcx


def zero_morphism_like(phi):
    return BimoduleHom(source=phi.source, target=phi.target, n=phi.n, components={})


def scaled_composite_data(phi, mu_phi, cat, cc, tcx, scale=1, co_sign=1):
    # OC = scale * mu o CC(phi) into hom(K, K), CO = co_sign * id, beside
    # the mu o CC(mu_phi) that the data carries
    mu_cc = mu_cc_map(mu_phi, cc, tcx)
    mucc = mu_cc_map(phi, cc, tcx)
    hom_cx = mu_cc.target
    oc = callback_map(
        source=cc, target=hom_cx, shift=phi.n,
        apply=lambda w: {g: scale * c for g, c in column(mucc, w).items()},
    )
    co = callback_map(source=hom_cx, target=hom_cx, shift=0, apply=lambda g: {g: co_sign})
    return OpenClosedData(cat=cat, mu_cc=mu_cc, oc=oc, co=co)


# -- the homotopy equation ---------------------------------------------------


@pytest.mark.parametrize(
    "fixture,n",
    [("ground_ring", 0), ("dual_numbers", 0), ("dual_numbers", 1), ("dual_numbers", 2),
     ("cone_algebra", 0), ("cone_algebra", 1), ("cone_algebra", 2), ("split_summand_pair", 0)],
)
def test_telescoping_passes(fixture, n):
    phi, cat, K, cc, tcx = setup(fixture, n)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
    report = verify_homotopy_equation(data, homotopy_map(data, {}))
    assert report.passed, str(report)


def test_mismatched_composition_fails_with_witness():
    phi, cat, K, cc, tcx = setup("cone_algebra", 0)
    data = scaled_composite_data(phi, phi, cat, cc, tcx, scale=1, co_sign=-1)
    report = verify_homotopy_equation(data, homotopy_map(data, {}))
    assert not report.passed
    assert report.violations[0].inputs


def test_all_zero_maps_pass():
    phi, cat, K, cc, tcx = setup("dual_numbers", 1)
    mu_cc = mu_cc_map(zero_morphism_like(phi), cc, tcx)
    hom_cx = mu_cc.target
    data = OpenClosedData(
        cat=cat, mu_cc=mu_cc,
        oc=zero_map(cc, hom_cx, phi.n), co=zero_map(hom_cx, hom_cx, 0),
    )
    assert verify_homotopy_equation(data, homotopy_map(data, {})).passed


def test_open_closed_data_rejects_non_chain_map():
    phi, cat, K, cc, tcx = setup("cone_algebra", 0)
    mu_cc = mu_cc_map(phi, cc, tcx)
    hom_cx = mu_cc.target

    # scaling one generator of a connected complex breaks commutation
    def broken(g):
        return {g: 2 if g.name == "p" else 1}

    with pytest.raises(ValueError):
        OpenClosedData(
            cat=cat, mu_cc=mu_cc,
            oc=zero_map(cc, hom_cx, 0),
            co=callback_map(source=hom_cx, target=hom_cx, shift=0, apply=broken),
        )


def test_open_closed_data_rejects_maps_off_mu_cc():
    # OC must start at the cyclic complex of mu o CC(phi), CO must end on
    # its hom(K, K), and OC must shift degree by phi's n
    phi, cat, K, cc, tcx = setup("dual_numbers", 1)
    mu_cc = mu_cc_map(phi, cc, tcx)
    hom_cx = mu_cc.target
    other_cc = truncated_cc(cat, 3)
    other_hom = hom_complex(cat, K, K)
    for oc, co in [
        (zero_map(other_cc, hom_cx, 1), zero_map(hom_cx, hom_cx, 0)),
        (zero_map(cc, hom_cx, 1), zero_map(hom_cx, other_hom, 0)),
        (zero_map(cc, hom_cx, 0), zero_map(hom_cx, hom_cx, 0)),
    ]:
        with pytest.raises(ValueError):
            OpenClosedData(cat=cat, mu_cc=mu_cc, oc=oc, co=co)
    OpenClosedData(cat=cat, mu_cc=mu_cc, oc=zero_map(cc, hom_cx, 1), co=zero_map(hom_cx, hom_cx, 0))


# -- solving for the homotopy -------------------------------------------------


def test_solve_telescoping_roundtrip():
    phi, cat, K, cc, tcx = setup("cone_algebra", 1)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
    H = solve_homotopy(data)
    assert isinstance(H, GradedMap)
    assert verify_homotopy_equation(data, H).passed


@pytest.mark.parametrize("N, y", [(2, "q"), (3, "q"), (4, "p")])
def test_solve_cone_n1_table_is_pinned(N, y):
    # the exact solution read off the Smith transforms (recorded before the
    # system was built from matrices); at N = 2 and 4 the solution is not
    # unique, so assembling the rows or unknowns in another order can move it
    phi, cat, K, cc, tcx = setup("cone_algebra", 1, N)
    H = solve_homotopy(telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1))
    chains = [(w, column(H, w)) for k in cc.degrees() for w in cc.basis[k]]
    table = [(tuple(g.name for g in w), [(g.name, c) for g, c in chain.items()]) for w, chain in chains if chain]
    sign = -1 if y == "p" else 1
    assert table == [(("p",), [(y, sign)]), (("q",), [(y, -sign)])]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_verify_homotopy_equation_matches_the_word_by_word_oracle(N):
    # the solved H passes; the zero H and the solved H with one word's
    # image doubled fail, on the same words with the same residuals
    phi, cat, K, cc, tcx = setup("cone_algebra", 1, N)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1)
    H = solve_homotopy(data)
    table = {w: column(H, w) for k in cc.degrees() for w in cc.basis[k]}
    w = next(w for w, chain in table.items() if chain)
    doubled = homotopy_map(data, {**table, w: {g: 2 * c for g, c in table[w].items()}})
    for H, passed in ((H, True), (homotopy_map(data, {}), False), (doubled, False)):
        report, oracle = verify_homotopy_equation(data, H), homotopy_residuals(data, H)
        assert report.passed == passed
        assert report.checked == oracle.checked
        assert [(v.inputs, v.residual) for v in report.violations] == [(v.inputs, v.residual) for v in oracle.violations]


def test_solve_no_solution_homology_obstruction():
    phi, cat, K, cc, tcx = setup("cone_algebra", 2)
    data = scaled_composite_data(phi, zero_morphism_like(phi), cat, cc, tcx, scale=1)
    out = solve_homotopy(data)
    assert isinstance(out, Unsolvable)


def test_solve_rational_only_torsion_obstruction():
    # the degree-1 composite on the cone algebra is null-homotopic over Q
    # but its homotopies are half-integral; doubling the discrepancy fixes it
    phi, cat, K, cc, tcx = setup("cone_algebra", 1)
    data1 = scaled_composite_data(phi, zero_morphism_like(phi), cat, cc, tcx, scale=1)
    out1 = solve_homotopy(data1)
    assert isinstance(out1, RationalOnly)
    data2 = scaled_composite_data(phi, zero_morphism_like(phi), cat, cc, tcx, scale=2)
    out2 = solve_homotopy(data2)
    assert isinstance(out2, GradedMap)
    assert verify_homotopy_equation(data2, out2).passed


# -- homology-level comparison -------------------------------------------------


@pytest.mark.parametrize(
    "fixture,n",
    [("ground_ring", 0), ("dual_numbers", 0), ("dual_numbers", 1), ("dual_numbers", 2),
     ("cone_algebra", 0), ("cone_algebra", 1), ("cone_algebra", 2)],
)
def test_cardy_homology_telescoping(fixture, n):
    phi, cat, K, cc, tcx = setup(fixture, n)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
    report = verify_cardy_on_homology(data)
    assert report.passed, (fixture, n, str(report))


def test_homotopy_implies_homology_agreement():
    # any configuration passing the chain-level identity with some H also
    # passes the signed homology comparison
    for fixture, n in [("cone_algebra", 0), ("dual_numbers", 1), ("split_summand_pair", 0)]:
        phi, cat, K, cc, tcx = setup(fixture, n)
        data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
        assert verify_homotopy_equation(data, homotopy_map(data, {})).passed
        assert verify_cardy_on_homology(data).passed


def test_sign_path_unsigned_fails_signed_passes():
    # degree-2 morphism with composite acting by 2 on free homology: with
    # the closed-to-open map negated, the compositions differ by exactly
    # (-1)^(n(n+1)/2) = -1 and only the signed comparison accepts
    phi, cat, K, cc, tcx = setup("even_dual_numbers", 2)
    mu_cc = mu_cc_map(phi, cc, tcx)
    data = telescoping_data(cat, mu_cc, co_sign=-1)
    signed = verify_cardy_on_homology(data)
    assert signed.passed, str(signed)

    # the unsigned comparison is the same check at a degree-0-like shift,
    # emulated by comparing against +id instead
    data_plus = telescoping_data(cat, mu_cc, co_sign=1)
    unsigned_equiv = verify_cardy_on_homology(data_plus)
    assert not unsigned_equiv.passed


def test_global_sign_is_the_recorded_evaluator(monkeypatch):
    # the comparison reads (-1)^(n(n+1)/2) from sign_formula("cardy_global"),
    # so flipping that evaluator turns the signed pass into a failure
    phi, cat, K, cc, tcx = setup("even_dual_numbers", 2)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1)
    calls = []

    def flipped(tag, **kw):
        calls.append((tag, kw))
        return -sign_formula(tag, **kw)

    monkeypatch.setattr(cardy, "sign_formula", flipped)
    assert not verify_cardy_on_homology(data).passed
    assert calls == [("cardy_global", {"n": 2})]


def test_sign_path_n1_exercised():
    # at n = 1 the global sign is also -1; with the shipped morphism the
    # composite vanishes on homology, so the signed comparison holds while
    # the code path applying the sign runs
    phi, cat, K, cc, tcx = setup("cone_algebra", 1)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx))
    report = verify_cardy_on_homology(data)
    assert report.passed


@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_induced_on_homology_matches_the_per_generator_oracle(fixture, n):
    phi, cat, K, cc, tcx = setup(fixture, n)
    for f in (mu_cc_map(phi, cc, tcx), telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1).co_oc):
        for k in cc.degrees():
            hs, ht = cc.homology_data(k), f.target.homology_data(k + f.shift)
            expected = induced_by_generators(f.matrix(k), hs, ht)
            assert coordinate_columns(ht.induced(f.matrix(k), hs)) == expected


def test_cardy_comparison_factors_each_spot_once(monkeypatch):
    """One HomologyData per complex and degree: the cyclic complex at k and
    hom(K, K) at k + n, shared by both induced matrices."""
    built = []
    init = intlinalg.HomologyData.__init__

    def counting(self, d_out, d_in, composite=None):
        built.append((d_out, d_in))
        init(self, d_out, d_in, composite)

    phi, cat, K, cc, tcx = setup("cone_algebra", 1)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1)
    monkeypatch.setattr(intlinalg.HomologyData, "__init__", counting)
    report = verify_cardy_on_homology(data)
    assert len(built) == 2 * len(cc.degrees())
    assert report.checked > 0


# -- the tensor complex one length shorter -------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_mu_cc_over_the_tensor_complex_one_length_shorter(fixture, n, N):
    """CC(phi) sends a word of length d to tensor words with at most d - 1
    middle letters, so the (N - 1)-truncated tensor complex holds its image:
    the map into it has every matrix (no KeyError), and mu o CC(phi) over it
    equals mu o CC(phi) over the N-truncated one."""
    phi, cat, K, cc, tcx = setup(fixture, n, N)
    shorter = tensor_over_category(YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), N - 1)
    cc_phi = cc_of_delta(phi, cc, shorter)
    mu_cc, mu_cc_shorter = mu_cc_map(phi, cc, tcx), mu_cc_map(phi, cc, shorter)
    for k in cc.degrees():
        cc_phi.matrix(k)
        assert mu_cc_shorter.matrix(k) == mu_cc.matrix(k)


@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_cli_cardy_tensor_complex_holds_the_image_of_cc_phi(tmp_path, monkeypatch, capsys, fixture, n):
    """The tensor complex `ainfcat cardy` builds and d o d-checks holds
    every word that CC(phi) reaches: the map into it has every matrix."""
    built = []
    monkeypatch.setattr(
        cli, "mu_cc_map", lambda phi, cc, tcx: built.append((phi, cc, tcx)) or mu_cc_map(phi, cc, tcx)
    )
    path = tmp_path / f"{fixture}.json"
    cli.main(["fixture", fixture, "-o", str(path)])
    cli.main(["cardy", str(path), "--morphism", f"coproduct_n{n}", "--max-length", "3"])
    ((phi, cc, tcx),) = built
    cc_phi = cc_of_delta(phi, cc, tcx)
    for k in cc.degrees():
        cc_phi.matrix(k)


@pytest.mark.parametrize("fixture,n", [("split_summand_pair", 0), ("cone_algebra", 1)])
def test_cc_of_delta_refuses_a_tensor_complex_too_short_for_its_image(fixture, n):
    """At N = 3, CC(phi) reaches tensor words of length 2; a tensor complex
    truncated at N - 2 lacks them, and the chain-map check says so."""
    phi, cat, K, cc, _ = setup(fixture, n, 3)
    short = tensor_over_category(YonedaModule(cat, K, RIGHT), YonedaModule(cat, K, LEFT), 1)
    with pytest.raises(KeyError, match="CC\\(morphism\\) of .* leaves the declared basis"):
        cc_of_delta(phi, cc, short)


def test_homology_comparison_refuses_f2_complexes():
    # over F2 homology is known by its dimensions; there are no class
    # coordinates for the two induced maps to be compared in
    cat = with_ring(ground_ring(), "F2")
    cx = hom_complex(cat, "*", "*")
    identity = GradedMap.from_terms(cx, cx, 0, ((g, g, 1) for gens in cx.basis.values() for g in gens), name="id")
    with pytest.raises(ValueError, match="integral homology coordinates are not defined over F2"):
        verify_cardy_on_homology(telescoping_data(cat, identity))
