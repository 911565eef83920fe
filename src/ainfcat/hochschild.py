"""The length-filtered cyclic bar complex and maps out of it.

Cyclic words
------------
A cyclic word is a boundary-ordered tuple (a_1, ..., a_d) of composable
generators closing up (target of a_d = source of a_1).  The last slot is
distinguished: it carries plain degree while the others carry the bar
shift, so the integer grading is deg(a_d) + sum_{i<d} (deg(a_i) - 1).
Words are not identified under rotation.

Both maps out of a cyclic word of length d apply an operation to
cyclically consecutive blocks: the blocks twice[a:end] of the doubled
word twice = word + word, 0 <= a < d and a < end <= a + d, of which
lo = max(0, end - d) letters wrap past the seam.  With B the prefix sums
of the reduced degrees (T = B[d]), the one rotation parity is

    rho(lo) = B[lo] * (T - B[lo]) + B[lo],

the Koszul cost of rotating word[:lo] past the rest plus the degrees it
moves.

* The differential applies mu to every block exactly once and puts the
  output g in word[lo:a] + (g,) + word[end:] (the distinguished slot when
  the block ends there or wraps) with sign (-1)^(rho(lo) + B[a] + 1); in
  particular b on a single letter is minus the differential.
* The induced map of a degree-n bimodule morphism reads only the blocks
  through the distinguished slot, twice[a:d+lo], as its component with
  s = d - 1 - a letters below the seam and r = lo above.  A term p (x) q
  (p the hom(K, -) factor, q the hom(-, K) one) goes to the tensor word
  (p, word[lo:a], q) with parity

      rho(lo) + B[d-1] + n * below + deg(p) * (deg(q) + below),

  below = B[a] - B[lo] summing the letters between the windows.

Up to the global sign the differential's rule is the unique rule (over a
twelve-parameter family of parity formulas) satisfying b^2 = 0 on words
of length <= 4 over all shipped fixtures including the ones with nonzero
differential, together with agreement with the classical cyclic
differential on strictly associative fixtures; the test suite re-asserts
b^2 = 0 at length <= 5.  The global sign is pinned by requiring the
induced map of a bimodule morphism on cyclic chains to commute with the
differentials through (-1)^n, which fails for the opposite choice.

The induced map's rule is the unique parity rule in a twelve-feature
family making the induced map commute with the differentials through
(-1)^n across twenty-one independently solved morphisms over six
fixture/degree combinations; the global constant, invisible to the
commutation rule, is fixed so single-letter words map with sign +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .bimodules import BimoduleHom, DiagonalBimodule, TensorBimodule, TensorWord
from .complexes import BasedComplex, GradedMap, induced_rank_mod_2, verify_chain_map
from .core import RING_F2, AinfCategory, chain_add, chain_normalize, cyclic_tuples, parity_sign, rdeg
from .intlinalg import FinAbGroup, HomologyData, IntMatrix, smith_normal_form

CyclicWord = tuple  # tuple[Gen, ...] in boundary order, distinguished slot last


class ChainMapViolation(ValueError):
    """A map fails to be a chain map; `witness` is the first failing label
    and `culprit` the failing GradedMap."""

    def __init__(self, message, witness=None, culprit=None):
        super().__init__(message)
        self.witness = witness
        self.culprit = culprit


def word_degree(word: CyclicWord) -> int:
    if not word:
        raise ValueError("empty cyclic word")
    return word[-1].degree + sum(g.degree - 1 for g in word[:-1])


def _doubled(word: CyclicWord) -> tuple[CyclicWord, list[int], list[int]]:
    """The doubled word, the prefix sums B of reduced degrees and the
    rotation parity rho(lo) for lo < len(word) (module docstring)."""
    B = [0, *accumulate(rdeg(g) for g in word)]
    T = B[-1]
    return word + word, B, [B[lo] * (T - B[lo]) + B[lo] for lo in range(len(word))]


def bar_differential(cat: AinfCategory, word: CyclicWord) -> dict:
    """Hochschild differential of one cyclic word; never increases length."""
    d = len(word)
    twice, B, rho = _doubled(word)
    out: dict = {}
    for lo in range(d):
        for a in range(lo, d):
            # a block that wraps ends lo letters past the seam
            for end in range(a + 1, d + 1) if lo == 0 else (d + lo,):
                inner = cat.mu_key(twice[a:end])
                if not inner:
                    continue
                sign = parity_sign(rho[lo] + B[a] + 1)
                for g, c in inner.items():
                    chain_add(out, {word[lo:a] + (g,) + word[end:]: sign * c})
    return chain_normalize(out, cat.ring)


def truncated_cc(cat: AinfCategory, max_length: int) -> BasedComplex:
    """The cyclic bar complex truncated to words of length <= max_length."""
    basis: dict[int, list] = {}
    for d in range(1, max_length + 1):
        for word in cyclic_tuples(cat, d):
            basis.setdefault(word_degree(word), []).append(word)
    for k in basis:
        basis[k].sort()
    cx = BasedComplex(basis, lambda w: bar_differential(cat, w), ring=cat.ring)
    cx.validate()
    return cx


@dataclass
class HochschildResult:
    groups: dict[int, FinAbGroup]
    stable: dict[int, bool]
    max_length: int


def _iso_under_inclusion(inclusion: GradedMap, k: int, hb: HomologyData) -> bool:
    """Does the inclusion of the shorter truncation induce an iso at degree k?

    hb is the homology data of the inclusion's target at degree k.
    """
    hs = inclusion.source.homology_data(k)
    if hs.group != hb.group:
        return False
    # surjectivity of the induced map between abstractly isomorphic finitely
    # generated groups implies bijectivity
    return _spans(hb.induced(inclusion.matrix(k), hs), hb)


def _spans(M: IntMatrix, hd: HomologyData) -> bool:
    """Do the columns of M, class coordinates in hd, generate its group?"""
    moduli = [m for m in hd._moduli if m != 1]
    if not moduli:
        return True
    # append the relation m_i * e_i of every torsion coordinate as a column
    rows = [dict(row) for row in M.entries]
    cols = M.cols
    for i, m in enumerate(moduli):
        if m:
            rows[i][cols] = m
            cols += 1
    if not cols:
        return False
    mat = IntMatrix.from_rows(rows, cols)
    return all(x == 1 for x in smith_normal_form(mat, left=False, right=False).diagonal()[: len(moduli)])


def length_filter(cx: BasedComplex, max_length: int) -> BasedComplex:
    """The subcomplex of a truncation spanned by words of length <= max_length.

    The differential never increases length, so the filtered basis is
    closed under it; it reuses the parent's differential cache and is not
    validated again (the parent's validate() already checked d o d on every
    word it keeps).
    """
    basis = {k: [w for w in words if len(w) <= max_length] for k, words in cx.basis.items()}
    return BasedComplex(basis, cx.diff_chain, ring=cx.ring)


def hochschild_homology(cat: AinfCategory, max_length: int, degrees=None) -> HochschildResult:
    """Homology of the truncated cyclic bar complex with stabilization flags.

    The flag at degree k records whether the inclusion of the (N-1)-
    truncation induces an isomorphism there (over F2: the two dimensions
    agree and the induced map has full rank); it is a heuristic for
    stabilization, never a convergence claim.
    """
    big = truncated_cc(cat, max_length)
    small = length_filter(big, max_length - 1) if max_length >= 1 else big
    inclusion = GradedMap(small, big, 0, lambda w: {w: 1}, name="inclusion")
    groups = {}
    stable = {}
    # the filtered truncation keeps every degree of the big one
    for k in big.degrees() if degrees is None else degrees:
        if big.ring == RING_F2:
            groups[k] = big.homology(k)
            dim = len(groups[k].torsion)
            stable[k] = small.homology(k) == groups[k] and induced_rank_mod_2(inclusion, k) == dim
        else:
            hb = big.homology_data(k)
            groups[k] = hb.group
            stable[k] = _iso_under_inclusion(inclusion, k, hb)
    return HochschildResult(groups=groups, stable=stable, max_length=max_length)


# ---------------------------------------------------------------------------
# the induced map of the coproduct-type morphism on cyclic chains


def cc_of_delta_word(phi: BimoduleHom, word: CyclicWord) -> dict:
    """Image of one cyclic word under the morphism-induced map on chains.

    phi must go from the diagonal bimodule to a tensor bimodule
    Y^l (x) Y^r; the output lives in the bar model of Y^r (x)_B Y^l, as
    TensorWord chains.
    """
    d = len(word)
    n = phi.n
    twice, B, rho = _doubled(word)
    out: dict = {}
    for a in range(d - 1, -1, -1):
        for lo in range(a + 1):
            # block: s = d - 1 - a letters below the seam, the top letter,
            # r = lo letters above
            comp = phi.apply(twice[a : d + lo], d - 1 - a)
            if not comp:
                continue
            # rho rotates the left window past the rest and, with B[d - 1],
            # sums the letters below the slot; the morphism passes `below`
            below = B[a] - B[lo]
            diamond = rho[lo] + B[d - 1] + n * below
            for pg, c in comp.items():
                # pg.p is the hom(K, L_r) factor, pg.q the hom(L_{d-s-1}, K)
                # one; the reorder sign moves pg.p past the letters and pg.q
                circ = pg.p.degree * (pg.q.degree + below)
                chain_add(out, {TensorWord(pg.p, word[lo:a], pg.q): parity_sign(diamond + circ) * c})
    return chain_normalize(out, phi.source.cat.ring)


def cc_of_delta(phi: BimoduleHom, cc: BasedComplex, tensor_cx: BasedComplex) -> GradedMap:
    """The chain map induced on cyclic chains, verified before returning.

    Raises ChainMapViolation with a witness word if the degree-n
    commutation rule fails on any word of the truncation.
    """
    if not isinstance(phi.target, TensorBimodule):
        raise TypeError("the induced map needs a tensor-bimodule target")
    if not isinstance(phi.source, DiagonalBimodule):
        raise TypeError("the induced map needs the diagonal bimodule as source")
    f = GradedMap(
        source=cc,
        target=tensor_cx,
        shift=phi.n,
        apply=lambda w: cc_of_delta_word(phi, w),
        name="CC(morphism)",
    )
    report = verify_chain_map(f)
    if not report.passed:
        bad = report.violations[0]
        raise ChainMapViolation(f"induced map fails to be a chain map on {bad.inputs[0]!r}", witness=bad.inputs[0])
    return f
