"""Homotopy-equation verification, homotopy solving, and the signed
homology-level comparison."""

from __future__ import annotations

import contextlib
import copy
import io
import json
from collections import Counter

import pytest
from helpers import (
    callback_map,
    cardy_comparison_oracle,
    column,
    coordinate_columns,
    homotopy_residuals,
    induced_by_generators,
    shipped_morphism,
    shipped_raw,
    zero_map,
)
from test_golden_stdout import CONE_CARDY_SECTION

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
    generated_submodules,
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
from ainfcat.hochschild import ChainMapViolation, cc_of_delta, truncated_cc
from ainfcat.intlinalg import IntMatrix, RationalOnly, Unsolvable
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


def one_term_map(phi, cc, tcx, word: str, gen: str) -> GradedMap:
    """A map with the endpoints and degree of mu o CC(phi) and one term,
    the cyclic word spelled `word` to the generator `gen`."""
    hom_cx = mu_cc_map(phi, cc, tcx).target
    (g,) = [g for gens in hom_cx.basis.values() for g in gens if g.name == gen]
    def apply(w):
        return {g: 1} if "".join(x.name for x in w) == word else {}

    return callback_map(cc, hom_cx, phi.n, apply, name="mu o CC")


@pytest.mark.parametrize("telescoping", [True, False])
def test_open_closed_data_rejects_a_non_chain_mu_cc(telescoping):
    """On cone_algebra at n = 1, the map (v) -> p is not a chain map: b
    sends (p, v) to a multiple of (v).  Both configurations name
    mu o CC(phi) and that word, the telescoping one also when its OC, the
    same map, would be checked next."""
    phi, cat, K, cc, tcx = setup("cone_algebra", 1, 2)
    broken = one_term_map(phi, cc, tcx, "v", "p")
    hom_cx = broken.target
    with pytest.raises(ChainMapViolation, match=r"^mu o CC\(phi\) map is not a chain map on ") as err:
        if telescoping:
            telescoping_data(cat, broken)
        else:
            OpenClosedData(cat=cat, mu_cc=broken, oc=zero_map(cc, hom_cx, 1), co=zero_map(hom_cx, hom_cx, 0))
    assert err.value.culprit is broken
    assert [x.name for x in err.value.witness] == ["p", "v"]


@pytest.mark.parametrize(
    "tables,morphism,word,gen", [(False, "coproduct_n1", "v", "p"), (True, "coproduct_n2", "vv", "v")]
)
def test_cli_cardy_exits_1_on_a_non_chain_mu_cc(tmp_path, monkeypatch, capsys, tables, morphism, word, gen):
    """mu o CC(phi) is built from the category and phi, not read from the
    cardy section, so a failure of its chain-map check is a failing
    verdict (exit 1), not an input error, with the chain maps read from
    the file or not."""
    raw = shipped_raw("cone_algebra")
    if tables:
        raw["cardy"] = CONE_CARDY_SECTION
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(cli, "mu_cc_map", lambda phi, cc, tcx: one_term_map(phi, cc, tcx, word, gen))
    assert cli.main(["cardy", str(path), "--morphism", morphism, "--max-length", "2"]) == 1
    assert "error: mu o CC(phi) map is not a chain map on " in capsys.readouterr().err


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


def recording_smith_forms(monkeypatch) -> list[tuple[bool, bool]]:
    """The (left, right) transforms of every Smith form run from here on."""
    sides, original = [], intlinalg.smith_normal_form

    def recording(A, left=True, right=True):
        sides.append((left, right))
        return original(A, left, right)

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    return sides


def test_cardy_comparison_factors_nothing_where_the_difference_is_zero(monkeypatch):
    """cone_algebra n = 1 with co_sign -1: the signed CO o OC is
    mu o CC(phi) itself, so in every degree their difference is 0 and
    induces zero with no presentation factored.  One HomologyData per
    complex and degree is built; the groups read only divisors, so no
    Smith form tracks a transform."""
    built = []
    init = intlinalg.HomologyData.__init__

    def counting(self, d_out, d_in, composite=None):
        built.append((d_out, d_in))
        init(self, d_out, d_in, composite)

    phi, cat, K, cc, tcx = setup("cone_algebra", 1)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=-1)
    monkeypatch.setattr(intlinalg.HomologyData, "__init__", counting)
    sides = recording_smith_forms(monkeypatch)
    report = verify_cardy_on_homology(data)
    assert report.passed and report.checked > 0
    assert len(built) == 2 * len(cc.degrees())
    assert all(side == (False, False) for side in sides)
    assert report == cardy_comparison_oracle(data)


def test_cardy_comparison_presents_only_where_a_witness_is_read(monkeypatch):
    """even_dual_numbers n = 2 with co_sign 1 fails: the two sides differ
    by 2 mu o CC(phi).  Only the degrees holding a witness factor their two
    spots, the cyclic complex at k and hom(K, K) at k + n, each by two
    Smith forms, the kernel's (V only) and the relations' (U only)."""
    presented, present = [], intlinalg._present

    def recording(d_out, d_in):
        presented.append((d_out, d_in))
        return present(d_out, d_in)

    monkeypatch.setattr(intlinalg, "_present", recording)
    phi, cat, K, cc, tcx = setup("even_dual_numbers", 2)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=1)
    sides = recording_smith_forms(monkeypatch)
    report = verify_cardy_on_homology(data)
    assert not report.passed
    witnessed = {v.inputs[0] for v in report.violations}
    spots = [cx.homology_data(j) for k in witnessed for cx, j in ((cc, k), (data.mu_cc.target, k + 2))]
    assert Counter(presented) == Counter((hd.d_out, hd.d_in) for hd in spots)
    tracked = sorted(side for side in sides if side != (False, False))
    assert tracked == [(False, True)] * len(spots) + [(True, False)] * len(spots)
    assert report == cardy_comparison_oracle(data)


@pytest.mark.parametrize("co_sign", [1, -1])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_cardy_comparison_matches_the_oracle(fixture, n, N, co_sign):
    """The report that skips degrees whose difference induces zero is the
    one that builds both induced matrices everywhere: passed, checked, and
    each violation's class generator and coordinates."""
    phi, cat, K, cc, tcx = setup(fixture, n, N)
    data = telescoping_data(cat, mu_cc_map(phi, cc, tcx), co_sign=co_sign)
    assert verify_cardy_on_homology(data) == cardy_comparison_oracle(data)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_cardy_comparison_matches_the_oracle_on_a_cardy_section(tmp_path, monkeypatch, N):
    """The same on cone_cardy_tables.json, whose closed complex, OC and CO
    are read from the file, through `ainfcat cardy` itself."""
    reports = []

    def both(data):
        reports.append((verify_cardy_on_homology(data), cardy_comparison_oracle(data)))
        return reports[-1][0]

    raw = shipped_raw("cone_algebra")
    raw["cardy"] = CONE_CARDY_SECTION
    path = tmp_path / "cone_cardy_tables.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(cli, "verify_cardy_on_homology", both)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["cardy", str(path), "--morphism", "coproduct_n2", "--max-length", str(N)])
    ((report, expected),) = reports
    assert report == expected


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


# words of the tensor complex `ainfcat cardy --max-length 3` builds: length
# 2 on the sub-bimodule phi's outputs generate (the full one has 336 words
# on cone_algebra, 28 on the dual numbers, 3 on ground_ring, 155 on
# split_summand_pair)
CARDY_TENSOR_WORDS = {
    ("cone_algebra", 0): 336,
    ("cone_algebra", 1): 84,
    ("cone_algebra", 2): 168,
    ("dual_numbers", 0): 28,
    ("dual_numbers", 1): 28,
    ("dual_numbers", 2): 7,
    ("even_dual_numbers", 2): 28,
    ("ground_ring", 0): 3,
    ("split_summand_pair", 0): 155,
}


@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_cli_cardy_tensor_complex_holds_the_image_of_cc_phi(tmp_path, monkeypatch, capsys, fixture, n):
    """The tensor complex `ainfcat cardy` builds and d o d-checks, on the
    sub-bimodule phi's outputs generate, has the words CARDY_TENSOR_WORDS
    counts and holds every word that CC(phi) reaches: the map into it has
    every matrix."""
    built = []
    monkeypatch.setattr(
        cli, "mu_cc_map", lambda phi, cc, tcx: built.append((phi, cc, tcx)) or mu_cc_map(phi, cc, tcx)
    )
    path = tmp_path / f"{fixture}.json"
    cli.main(["fixture", fixture, "-o", str(path)])
    cli.main(["cardy", str(path), "--morphism", f"coproduct_n{n}", "--max-length", "3"])
    ((phi, cc, tcx),) = built
    assert sum(map(len, tcx.basis.values())) == CARDY_TENSOR_WORDS[(fixture, n)]
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


# -- the sub-bimodule phi's outputs generate ------------------------------------


def kept(module) -> set:
    return {g for gens in module.spaces.values() for g in gens}


def sides(phi):
    """(side, full module, restricted module, the ends of phi's outputs
    on that side) for the right and the left side."""
    right, left = generated_submodules(phi)
    outputs = [pg for table in phi.components.values() for chain in table.values() for pg in chain]
    return [
        (RIGHT, phi.target.right, right, {pg.q for pg in outputs}),
        (LEFT, phi.target.left, left, {pg.p for pg in outputs}),
    ]


@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_generated_submodules_hold_phi_and_are_closed(fixture, n):
    """Each side holds the ends of every output of phi, and every action
    whose module slot it holds is kept whole, with its outputs inside."""
    for side, full, sub, ends in sides(shipped_morphism(fixture, n)):
        slot = 0 if side == LEFT else -1
        inside = kept(sub)
        assert ends <= inside
        assert all(set(gens) <= set(full.spaces[obj]) for obj, gens in sub.spaces.items())
        assert sub.spaces.keys() == full.spaces.keys()
        for d, table in full.actions.items():
            assert sub.actions[d] == {key: out for key, out in table.items() if key[slot] in inside}
            for key, out in sub.actions[d].items():
                assert set(out) <= inside, (side, key)


def test_generated_submodules_of_split_summand_pair_are_all_of_y_k():
    for side, full, sub, _ in sides(shipped_morphism("split_summand_pair", 0)):
        assert sub.spaces == full.spaces and sub.actions == full.actions, side


def test_generated_submodules_of_cone_coproduct_n1_hold_half_of_y_k():
    for side, full, sub, _ in sides(shipped_morphism("cone_algebra", 1)):
        assert (len(kept(sub)), len(kept(full))) == (2, 4), side


def test_tensor_complex_refuses_a_submodule_missing_a_generator_its_action_reaches():
    """cone_algebra's coproduct_n2 has outputs ending in p, u and v on the
    right, and the closure adds q.  Without q the right action leaves the
    words, and the tensor complex says so rather than drop the term."""
    phi = shipped_morphism("cone_algebra", 2)
    (_, _, right, ends), (_, _, left, _) = sides(phi)
    (added,) = kept(right) - ends
    missing = copy.copy(right)
    missing.spaces = {obj: [g for g in gens if g != added] for obj, gens in right.spaces.items()}
    missing.actions = {d: {key: out for key, out in table.items() if key[-1] != added} for d, table in right.actions.items()}
    tensor_over_category(right, left, 3)
    with pytest.raises(KeyError, match="differential of .* leaves the declared basis"):
        tensor_over_category(missing, left, 3)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("fixture,n", SHIPPED_MORPHISMS)
def test_generated_tensor_complex_is_a_restriction_of_the_full_one(fixture, n, N):
    """The complex on the generated sub-bimodule: its basis in each degree
    is a subsequence of the full one, each matrix is the full matrix on
    the kept rows and columns, and mu o CC(phi) is the same map."""
    phi = shipped_morphism(fixture, n)
    cc = truncated_cc(phi.source.cat, N)
    full = tensor_over_category(phi.target.right, phi.target.left, N - 1)
    sub = tensor_over_category(*generated_submodules(phi), N - 1)
    assert set(sub.degrees()) <= set(full.degrees())
    for k in sub.degrees():
        at = iter(full.basis[k])
        assert all(w in at for w in sub.basis[k]), k
    for k in full.degrees():
        rows = [full.index[k + 1][w] for w in sub.basis.get(k + 1, [])]
        cols = {full.index[k][w]: j for j, w in enumerate(sub.basis.get(k, []))}
        restricted = [{cols[j]: c for j, c in full.matrix(k).entries[i].items() if j in cols} for i in rows]
        assert sub.matrix(k) == IntMatrix.from_rows(restricted, len(cols)), k
    on_sub, on_full = mu_cc_map(phi, cc, sub), mu_cc_map(phi, cc, full)
    for k in cc.degrees():
        assert on_sub.matrix(k) == on_full.matrix(k), k


def test_homology_comparison_refuses_f2_complexes():
    # over F2 homology is known by its dimensions; there are no class
    # coordinates for the two induced maps to be compared in
    cat = with_ring(ground_ring(), "F2")
    cx = hom_complex(cat, "*", "*")
    identity = GradedMap.from_terms(cx, cx, 0, ((g, g, 1) for gens in cx.basis.values() for g in gens), name="id")
    with pytest.raises(ValueError, match="integral homology coordinates are not defined over F2"):
        verify_cardy_on_homology(telescoping_data(cat, identity))
