"""Dimension formulas, facet counts, bijections, and sign evaluators."""

from __future__ import annotations

from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest
from dense_verifiers import all_mixed_tuples, slot_after
from helpers import disc_facet_count_closed_form, shipped_morphism, signed_blocks

from ainfcat import bimodules, cli
from ainfcat.bimodules import PairGen, TensorWord, _tensor_terms, middle_paths, slot_index, table_keys
from ainfcat.core import Gen, path_table, substitutions
from ainfcat.fixtures import SHIPPED_MORPHISMS
from ainfcat.hochschild import _cc_phi_terms, _terms
from ainfcat.strata import (
    CODISC,
    EQUATIONS,
    annulus,
    bidisc,
    dimension,
    disc,
    enumerate_codim1,
    equation_terms,
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["strata", "R_4", "--equation", "homotopy"], "space R_4 supports only --equation ainf"),
        (["strata", "C_2^-", "--equation", "ainf"], "space C_2^- supports only --equation homotopy"),
        (["strata", "P_3", "--equation", "ainf"], "space P_3 supports no --equation"),
        (["strata", "R_4", "--equation", "foo"], "space R_4 supports only --equation ainf"),
    ],
)
def test_cli_strata_unsupported_pairing_exits_2(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}\n" in captured.err


def test_bijection_reports_each_kind_of_mismatch(monkeypatch):
    import ainfcat.strata as strata

    space = disc(4)
    labels = enumerate_codim1(space)
    terms = equation_terms(space)
    stable = [t for t in terms if t[1] is not None]
    cases = [
        (labels + labels[:1], terms, "share ('disc', (3, 2, 0))"),
        (labels[1:], terms, "term (3, 2, 0) matched no unmatched stratum"),
        (labels, terms + stable[-1:], "term (2, 3, 1) matched no unmatched stratum"),
        (labels, [t for t in terms if t != stable[-1]], "unmatched strata [StratumLabel(family='disc', outer=R(2), inner=R(3)"),
    ]
    for strata_list, term_list, message in cases:
        monkeypatch.setattr(strata, "enumerate_codim1", lambda _, xs=strata_list: xs)
        monkeypatch.setattr(strata, "equation_terms", lambda _, xs=term_list: xs)
        report = strata.strata_term_bijection(space, "ainf")
        assert not report.passed and report.pairs == []
        assert message in report.mismatch, report.mismatch


def test_every_equation_has_its_space_kind():
    assert sorted(EQUATIONS.values()) == ["ainf", "bimodule_hom", "hochschild", "homotopy"]
    for space in (disc(3), bidisc(1, 1), punctured_disc(3), annulus(3)):
        assert strata_term_bijection(space, EQUATIONS[space.kind]).passed
    with pytest.raises(ValueError):
        equation_terms(interpolation(2))


# -- the engine's block walks visit exactly the listed terms ------------------
#
# Each walk is driven by a stub that records which block it asks for and
# returns a marker; the recorded blocks, as positions 1..d of the input,
# must be the blocks of equation_terms, stable and unstable, each once.


def letters(d: int) -> tuple:
    return tuple(Gen("*", "*", f"a{i}", 0) for i in range(1, d + 1))


def positions(key) -> tuple:
    return tuple(int(g.name[1:]) for g in key)


MARKER = Gen("*", "*", "marker", 0)


@pytest.mark.parametrize("d", range(2, 9))
def test_signed_blocks_visits_the_ainf_terms(d):
    visited = []

    def inner(i, j):
        visited.append((d + 1 - (j - i), j - i, i))
        return {MARKER: 1}

    assert len(list(signed_blocks(letters(d), inner, ()))) == len(visited)
    assert Counter(visited) == Counter(term for term, _ in equation_terms(disc(d)))


@pytest.mark.parametrize("d", range(2, 9))
def test_substitutions_visits_the_ainf_terms(d):
    """Inner and outer operations hold a term at every word of length at
    most d over {a, marker}, the inner one with output the marker: the
    terms that land on a^d are the blocks of disc(d), each once, with
    the signed_blocks sign."""
    a = Gen("*", "*", "a", 0)
    words = [w for n in range(1, d + 1) for w in product((a, MARKER), repeat=n)]
    terms = substitutions([(w, None, {MARKER: 1}) for w in words], [(w, None) for w in words], None, d)
    visited = []
    for (xs, slot), (i, j, k), key2, s2, c, below in terms:
        assert len(xs) <= d
        if xs == (a,) * d:
            assert (slot, k, s2, c, below) == (None, 0, None, 1, i)
            visited.append((len(key2), j - i, i))
    assert Counter(visited) == Counter(term for term, _ in equation_terms(disc(d)))


STUB_A, STUB_m, STUB_M = Gen("*", "*", "a", 0), Gen("*", "*", "m", 0), Gen("*", "*", "M", 0)


def stub_bimodule(slots: tuple, length: int) -> SimpleNamespace:
    """Operation tables with the term {M: 1} on every key of at most `length`
    letters over {a, marker} with one of `slots` in its module slot, and a
    mu with the term {marker: 1} on every word over {a, marker}."""
    words = [w for n in range(length) for w in product((STUB_A, MARKER), repeat=n)]
    ops: dict = {}
    for w in words:
        for t in range(len(w) + 1):
            for x in slots:
                ops.setdefault((len(w) - t, t), {})[w[:t] + (x,) + w[t:]] = {STUB_M: 1}
    keys = table_keys(ops)
    at_slot = slot_index(keys)
    return SimpleNamespace(
        ops=ops,
        op=lambda key, t: ops.get((len(key) - 1 - t, t), {}).get(key, {}),
        op_keys=lambda: keys,
        op_keys_at=lambda x: at_slot.get(x, []),
        cat=SimpleNamespace(mu={n: {w: {MARKER: 1} for w in words if len(w) == n} for n in range(1, length)}),
        elements=lambda: list(slots),
    )


@pytest.mark.parametrize("r,s", [(r, s) for r in range(7) for s in range(7 - r)])
def test_morphism_passes_visit_the_bimodule_hom_terms(monkeypatch, r, s):
    """The module-slot path of substitutions: with stub tables holding a
    term on every key, the terms verify_bimodule_hom's two passes put on
    (b_s, .., b_1, m, a_1, .., a_r), every letter a, are the blocks of
    bidisc(r, s), each once, with the signed_blocks sign.  A block of
    the first pass holds phi (the target's operation outside); one of the
    second holds the source's operation or, off the slot, mu."""
    length = r + s + 1
    source, target = stub_bimodule((STUB_m,), length), stub_bimodule((STUB_M,), length)
    phi_tables = stub_bimodule((STUB_m, STUB_M), length)
    phi = SimpleNamespace(n=0, source=source, target=target, components=phi_tables.ops, apply=phi_tables.op)
    captured = []
    monkeypatch.setattr(bimodules, "term_report", lambda passes, *rest: captured.extend(passes))
    bimodules.verify_bimodule_hom(phi, max_inputs=r + s)
    xs = (STUB_A,) * s + (STUB_m,) + (STUB_A,) * r
    visited = []
    for n, (terms, _, _) in enumerate(captured):
        for (word, slot), (i, j, k), key2, s2, c, below in terms:
            if word != xs:
                continue
            assert (slot, k, c, below) == (s, 0, 1, i - (i > s))
            if n == 0:
                visited.append(("target", j - s - 1, s - i))
            elif i <= s < j:
                visited.append(("source", j - s - 1, s - i))
            elif j <= s:
                visited.append(("right", s - j, s - i))
            else:
                visited.append(("left", i - s - 1, j - s - 1))
    assert Counter(visited) == Counter(term for term, _ in equation_terms(bidisc(r, s)))


def bidisc_term(tag: str, s: int, i: int, j: int) -> tuple:
    """The term of bidisc(r, s) on the block (i, j) of (b_s, .., b_1, m,
    a_1, .., a_r), `tag` naming the operation inside when the block holds
    the module slot."""
    if i <= s < j:
        return (tag, j - s - 1, s - i)
    if j <= s:
        return ("right", s - j, s - i)
    return ("left", i - s - 1, j - s - 1)


def bidisc_block(term: tuple, s: int) -> tuple[int, int]:
    """The block (i, j) a term of bidisc(r, s) acts on (bidisc_term's inverse)."""
    tag, x, y = term
    if tag in ("target", "source"):
        return s - y, s + x + 1
    if tag == "right":
        return s - y, s - x
    return s + 1 + x, s + 1 + y


def assert_walk_visits_the_bidisc_terms(
    monkeypatch, verify, subject, source, slot_tags: tuple, ops: dict, max_inputs: int
):
    """The terms a bimodule verifier's walk visits on each tuple
    (b_s, .., b_1, m, a_1, .., a_r) of real tables are the terms of
    bidisc(r, s) on which both operations have a term: inside, `ops`'
    inner operation on the term's block; outside, its outer one on the
    tuple with the block's output k put back."""
    captured = []
    monkeypatch.setattr(bimodules, "term_report", lambda passes, *rest: captured.extend(passes))
    verify(subject, max_inputs=max_inputs)
    tuples = set(all_mixed_tuples(source, max_inputs))
    visited = Counter()
    for tag, (terms, _, _) in zip(slot_tags, captured):
        for (xs, s), (i, j, k), *_ in terms:
            assert (xs, s) in tuples
            visited[xs, s, bidisc_term(tag, s, i, j), k] += 1
    expected = Counter()
    for xs, s in tuples:
        for term, _ in equation_terms(bidisc(len(xs) - 1 - s, s)):
            if term[0] not in ops:
                continue
            inner, outer = ops[term[0]]
            i, j = bidisc_block(term, s)
            for k, g in enumerate(inner(xs[i:j], s - i)):
                if outer(xs[:i] + (g,) + xs[j:], slot_after(s, i, j)):
                    expected[xs, s, term, k] += 1
    assert visited and visited == expected


@pytest.mark.parametrize("name,n", SHIPPED_MORPHISMS)
def test_bimodule_verifiers_visit_the_bidisc_terms_on_fixture_tables(monkeypatch, name, n):
    phi = shipped_morphism(name, n)
    cat = phi.source.cat

    def mu(key, _):
        return cat.mu_key(key)

    for P in (phi.source, phi.target):
        ops = {"source": (P.op, P.op), "right": (mu, P.op), "left": (mu, P.op)}
        assert_walk_visits_the_bidisc_terms(monkeypatch, bimodules.verify_bimodule, P, P, ("source",), ops, 3)
    ops = {
        "target": (phi.apply, phi.target.op),
        "source": (phi.source.op, phi.apply),
        "right": (mu, phi.apply),
        "left": (mu, phi.apply),
    }
    assert_walk_visits_the_bidisc_terms(
        monkeypatch, bimodules.verify_bimodule_hom, phi, phi.source, ("target", "source"), ops, 3
    )


def hochschild_block(d: int, term: tuple) -> tuple:
    """Positions of the letters a term of hochschild_terms feeds to mu."""
    tag, x, m = term
    if tag == "inplace":
        return tuple(range(x, x + m))
    return tuple(range(d - m + x + 1, d + 1)) + tuple(range(1, x + 1))


def around_the_seam(d: int) -> tuple:
    """The word a_1..a_d with a_i running from object i - 1 to object i mod d:
    its only cyclic words of length <= d are its rotations."""
    return tuple(Gen(str(i - 1), str(i % d), f"a{i}", 0) for i in range(1, d + 1))


@pytest.mark.parametrize("d", range(1, 9))
def test_bar_differential_visits_the_hochschild_terms(d):
    # the term walk that builds truncated_cc's matrices; mu has a term on
    # every cyclic block of the word, whose output generator names the block
    word = around_the_seam(d)
    mu: dict = {}
    for m in range(1, d + 1):
        for a in range(d):
            key = (word + word)[a : a + m]
            mu.setdefault(m, {})[key] = {Gen(key[0].source, key[-1].target, positions(key), 0): 1}
    cat = SimpleNamespace(mu=mu)
    table = path_table(word, {g.source for g in word}, d, closed=True)
    visited = [g.name for w, out, _ in _terms(cat, table, d) if w == word for g in out if g not in word]
    expected = [hochschild_block(d, term) for term, _ in equation_terms(punctured_disc(d))]
    assert Counter(visited) == Counter(expected)


@pytest.mark.parametrize("d", range(1, 9))
def test_cc_phi_term_walk_visits_the_annulus_pair_terms(d):
    """The term walk that builds CC(phi)'s matrices: phi has a component on
    every cyclic block of the word with every module slot, whose output
    names the block and the slot; the terms placed on the word are the
    pair terms of annulus(d), each once."""
    word = around_the_seam(d)
    components: dict = {}
    for m in range(1, d + 1):
        for a in range(d):
            key = (word + word)[a : a + m]
            for s in range(m):
                out = PairGen(Gen(key[s].source, "K", positions(key), 0), Gen("K", key[s].source, str(s), 0))
                components.setdefault((m - 1 - s, s), {})[key] = {out: 1}
    phi = SimpleNamespace(n=0, components=components)
    table = path_table(word, {g.source for g in word}, d - 1)
    visited = [(out.q.name, int(out.p.name)) for w, out, _ in _cc_phi_terms(phi, table, d) if w == word]
    expected = [
        (tuple(range(d - s, d + 1)) + tuple(range(1, r + 1)), s)
        for (tag, *rs), _ in equation_terms(annulus(d))
        if tag == "pair"
        for r, s in [rs]
    ]
    assert Counter(visited) == Counter(expected)


@pytest.mark.parametrize("d", range(0, 8))
def test_tensor_term_walk_visits_the_disc_terms_but_the_full_collapse(d):
    """The term walk that builds the tensor complex's matrices, on the word
    (q, a_1..a_d, p) with a_i from object i - 1 to object i: the left
    action, mu and the right action each have a term on every block they
    can act on, whose output names the block.  The terms placed on the
    word are those of disc(d + 2), each once, except (1, d + 2, 0), the
    full collapse that mu_composition_map takes."""
    q, p = Gen("X", "0", "q", 0), Gen(str(d), "K", "p", 0)
    letters = tuple(Gen(str(i - 1), str(i), f"a{i}", 0) for i in range(1, d + 1))
    seq = (q,) + letters + (p,)

    def output(i, j):
        block = seq[i:j]
        return {Gen(block[0].source, block[-1].target, (i, j), 0): 1}

    def table(blocks):
        out: dict = {}
        for i, j in blocks:
            out.setdefault(j - i, {})[seq[i:j]] = output(i, j)
        return out

    end = d + 2
    objects = {str(i) for i in range(d + 1)}
    cat = SimpleNamespace(
        generators=lambda: iter(letters), mu=table((i, j) for i in range(1, end - 1) for j in range(i + 1, end))
    )
    L = SimpleNamespace(spaces=dict.fromkeys(objects), actions=table((0, j) for j in range(1, end)))
    R = SimpleNamespace(spaces=dict.fromkeys(objects), actions=table((i, end) for i in range(1, end)), cat=cat)
    L.basis = lambda obj: [q] if obj == "0" else []
    R.basis = lambda obj: [p] if obj == str(d) else []
    word = TensorWord(q, letters, p)
    visited = [
        (end + 1 - (j - i), j - i, i)
        for w, out, _ in _tensor_terms(R, L, middle_paths(cat, objects, d), d)
        if w == word
        for g in (out[0], *out[1], out[2])
        if isinstance(g.name, tuple)
        for i, j in [g.name]
    ]
    expected = Counter(term for term, _ in equation_terms(disc(end)))
    expected -= Counter([(1, end, 0)])
    assert Counter(visited) == expected


# -- sign formulas -------------------------------------------------------------


def test_cardy_global():
    assert sign_formula("cardy_global", n=3) == 1
    assert sign_formula("cardy_global", n=1) == -1
    assert sign_formula("cardy_global", n=2) == -1
    assert sign_formula("cardy_global", n=4) == 1
