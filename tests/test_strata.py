"""Dimension formulas, facet counts, bijections, and sign evaluators."""

from __future__ import annotations

import pytest
from helpers import disc_facet_count_closed_form

from ainfcat.strata import (
    CODISC,
    annulus,
    bidisc,
    dimension,
    disc,
    enumerate_codim1,
    interpolation,
    punctured_disc,
    sign_formula,
    strata_term_bijection,
)


def test_dimension_formulas():
    assert dimension(disc(2)) == 0
    assert dimension(disc(5)) == 3
    assert dimension(bidisc(1, 0)) == 1
    assert dimension(bidisc(0, 0)) == 0
    assert dimension(punctured_disc(1)) == 0
    assert dimension(punctured_disc(4)) == 3
    assert dimension(annulus(1)) == 1
    assert dimension(interpolation(3)) == 3
    assert dimension(CODISC) == 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        disc(1)
    with pytest.raises(ValueError):
        punctured_disc(0)
    with pytest.raises(ValueError):
        bidisc(-1, 0)


def test_disc_facet_counts():
    expected = {3: 2, 4: 5, 5: 9}
    for d, count in expected.items():
        strata = enumerate_codim1(disc(d))
        assert len(strata) == count
        assert disc_facet_count_closed_form(d) == count


def test_disc_strata_no_duplicates():
    for d in range(2, 7):
        strata = enumerate_codim1(disc(d))
        assert len(strata) == len(set(strata))


def test_punctured_disc_strata_counts():
    # d strata per partition d1 + d2 = d + 1 with d2 >= 2
    for d in range(1, 6):
        strata = enumerate_codim1(punctured_disc(d))
        partitions = max(d - 1, 0)
        assert len(strata) == d * partitions


def test_codim1_dimension_consistency():
    spaces = [disc(3), disc(4), disc(5), bidisc(1, 1), bidisc(2, 1), bidisc(0, 3),
              punctured_disc(2), punctured_disc(4), annulus(1), annulus(3), interpolation(3)]
    for sp in spaces:
        for lab in enumerate_codim1(sp):
            if lab.family == "endpoint":
                continue
            assert sum(lab.dims()) == dimension(sp) - 1, (sp, lab)


def test_annulus_1_has_two_ends():
    strata = enumerate_codim1(annulus(1))
    assert [lab.family for lab in strata] == ["interior", "pair"]


def test_interpolation_endpoints():
    strata = enumerate_codim1(interpolation(2))
    endpoints = [lab for lab in strata if lab.family == "endpoint"]
    assert len(endpoints) == 2


# -- bijections ---------------------------------------------------------------


def test_bijection_disc_arity4():
    report = strata_term_bijection(disc(4), "ainf")
    assert report.passed
    assert len(report.pairs) == 5
    # the five mu^1-type degenerations are strips, not facets
    assert len(report.strip_terms) == 5


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bijection_disc_range(d):
    assert strata_term_bijection(disc(d), "ainf").passed


@pytest.mark.parametrize("rs", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3), (3, 0), (1, 2)])
def test_bijection_bimodule(rs):
    report = strata_term_bijection(bidisc(*rs), "bimodule_hom")
    assert report.passed, str(report)


def test_bijection_bimodule_111_families():
    report = strata_term_bijection(bidisc(1, 1), "bimodule_hom")
    families = sorted({lab.family for lab, _ in report.pairs})
    assert families == ["middle", "output1", "output2"]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bijection_hochschild(d):
    report = strata_term_bijection(punctured_disc(d), "hochschild")
    assert report.passed, str(report)


def test_bijection_hochschild_d1_strips():
    # at one input the only terms are differential-type, matched by strips
    report = strata_term_bijection(punctured_disc(1), "hochschild")
    assert report.passed
    assert report.pairs == []
    assert len(report.strip_terms) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bijection_homotopy(d):
    report = strata_term_bijection(annulus(d), "homotopy")
    assert report.passed, str(report)


def test_bijection_unsupported():
    with pytest.raises(ValueError):
        strata_term_bijection(disc(3), "homotopy")


# -- sign formulas -------------------------------------------------------------


def test_dagger_empty():
    assert sign_formula("dagger", degrees=[0, 0, 0]) == 1


def test_dagger_two_odds():
    # parity 1*1 + 2*1 = 3
    assert sign_formula("dagger", degrees=[1, 1]) == -1


def test_cardy_global():
    assert sign_formula("cardy_global", n=3) == 1
    assert sign_formula("cardy_global", n=1) == -1
    assert sign_formula("cardy_global", n=2) == -1
    assert sign_formula("cardy_global", n=4) == 1


def test_ddagger_matches_definition():
    left = [1, 2]
    right = [3, 1]
    module = 2
    s = 2
    parity = (s - 1 + 1) * 3 + (s - 2 + 1) * 1 + s * 2 + (1 + s) * 1 + (2 + s) * 2
    expected = -1 if parity % 2 else 1
    assert sign_formula("ddagger", left=left, module=module, right=right) == expected


def test_delta_chain_checks():
    assert sign_formula("delta_chain_1", module=1) == -1
    assert sign_formula("delta_chain_2", module=1, n=0) == 1
    assert sign_formula("oc_check", x1=0) == -1


def test_circ_zero_degrees():
    assert sign_formula("circ", p=0, q=0, letters=[0, 0]) == 1
