"""The length-filtered cyclic bar complex and maps out of it.

Cyclic words
------------
A cyclic word is a boundary-ordered tuple (a_1, ..., a_d) of composable
generators closing up (target of a_d = source of a_1).  The last slot is
distinguished: it carries plain degree while the others carry the bar
shift, so the integer grading is deg(a_d) + sum_{i<d} (deg(a_i) - 1).
Words are not identified under rotation.

The differential is built from the mu terms, not word by word.  With
r(x) the sum of the reduced degrees of a tuple x, every term
mu(key) = ... + c * g + ... lands in the cyclic words of the truncation
in two ways:

* in place: the word pre + key + suf, where suf + pre is a composable
  path from the target of key to its source, goes to pre + (g,) + suf
  with sign (-1)^(r(pre) + 1);
* across the seam: for every split key = tail + head into two nonempty
  parts, the word head + mid + tail, where mid is a composable path from
  the target of head to the source of tail, goes to mid + (g,) (the
  output takes the distinguished slot) with sign
  (-1)^(r(head) * (r(mid) + r(tail)) + r(mid) + 1).

Every block of cyclically consecutive letters of a word is met exactly
once this way, so this is the per-word rule below read term first; in
particular b on a single letter is -mu^1.  One table of composable paths
per pair of objects and length, each with its sum r, gives the paths,
and its closed paths are the cyclic words themselves.

Per word, both maps out of a cyclic word of length d apply an operation to
cyclically consecutive blocks: the blocks twice[a:end] of the doubled
word twice = word + word, 0 <= a < d and a < end <= a + d, of which
lo = max(0, end - d) letters wrap past the seam.  With B the prefix sums
of the reduced degrees (T = B[d]), the one rotation parity is

    rho(lo) = B[lo] * (T - B[lo]) + B[lo],

the Koszul cost of rotating word[:lo] past the rest plus the degrees it
moves.

* The differential puts the output g of a block in
  word[lo:a] + (g,) + word[end:] with sign (-1)^(rho(lo) + B[a] + 1).
  For lo = 0 this is the in-place rule with r(pre) = B[a]; for lo > 0,
  head = word[:lo], mid = word[lo:a] and tail = word[a:], and
  rho(lo) + B[a] = B[lo] * (T - B[lo]) + 2 B[lo] + r(mid) gives the
  rule across the seam.
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
from .core import RING_F2, AinfCategory, chain_add, chain_normalize, parity_sign, rdeg
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


def _path_table(cat: AinfCategory, max_length: int) -> list[dict]:
    """table[L][(s, t)]: every composable L-tuple of generators from s to t,
    with the sum of its reduced degrees; table[0] holds the empty path at
    every object a generator touches.  At L = max_length, where only the
    cyclic words are read, it holds the closed paths alone."""
    by_source: dict[str, list] = {}
    for g in cat.generators():
        by_source.setdefault(g.source, []).append((g, rdeg(g)))
    objects = {x for gens in by_source.values() for g, _ in gens for x in (g.source, g.target)}
    table = [{(x, x): [((), 0)] for x in objects}]
    for length in range(1, max_length + 1):
        longer: dict = {}
        for (s, t), paths in table[-1].items():
            for g, r in by_source.get(t, ()):
                if length < max_length or g.target == s:
                    longer.setdefault((s, g.target), []).extend((path + (g,), rp + r) for path, rp in paths)
        table.append(longer)
    return table


def _terms(cat: AinfCategory, table: list[dict], max_length: int):
    """(word, output word, signed coefficient) for every term of mu on every
    block of every cyclic word of length <= max_length (module docstring)."""
    for m, mu in cat.mu.items():
        for key, chain in mu.items():
            outputs = list(chain.items())
            rkey = sum(map(rdeg, key))
            for length in range(max_length - m + 1):
                # in place: suf + pre runs from the key's target to its source
                for path, r in table[length].get((key[-1].target, key[0].source), ()):
                    rsuf = 0
                    for p in range(length + 1):
                        pre, suf = path[p:], path[:p]
                        word = pre + key + suf
                        sign = parity_sign(r - rsuf + 1)
                        for g, c in outputs:
                            yield word, pre + (g,) + suf, sign * c
                        if p < length:
                            rsuf += rdeg(path[p])
            for q in range(1, m):
                # across the seam: key = tail + head, word = head + mid + tail
                tail, head = key[:q], key[q:]
                rhead = sum(map(rdeg, head))
                for length in range(max_length - m + 1):
                    for mid, r in table[length].get((head[-1].target, tail[0].source), ()):
                        word = head + mid + tail
                        sign = parity_sign(rhead * (rkey - rhead + r) + r + 1)
                        for g, c in outputs:
                            yield word, mid + (g,), sign * c


def truncated_cc(cat: AinfCategory, max_length: int) -> BasedComplex:
    """The cyclic bar complex truncated to words of length <= max_length.

    The basis is the closed paths of the path table; the differential's
    matrices are written term by term (module docstring), summed, and
    reduced mod 2 over F2.
    """
    table = _path_table(cat, max_length)
    basis: dict[int, list] = {}
    for d in range(1, max_length + 1):
        for (s, t), paths in table[d].items():
            if s == t:
                for word, r in paths:
                    basis.setdefault(r - 2 * d + 1, []).append(word)
    where = {}
    for k, words in basis.items():
        words.sort()
        where.update((word, (k, j)) for j, word in enumerate(words))
    rows = {k: [{} for _ in basis.get(k + 1, ())] for k in basis}
    for word, out, c in _terms(cat, table, max_length):
        k, j = where[word]
        row = rows[k][where[out][1]]
        row[j] = row.get(j, 0) + c
    matrices = {
        k: IntMatrix.from_rows([chain_normalize(row, cat.ring) for row in rows.pop(k)], len(words))
        for k, words in basis.items()
    }
    cx = BasedComplex.from_matrices(basis, matrices, ring=cat.ring)
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

    The differential never increases length, so the kept words span a
    subcomplex, whose matrices are the parent's restricted to the kept rows
    and columns.  It is not validated again (the parent's validate()
    already checked d o d on every word it keeps).
    """
    keep = {k: [j for j, w in enumerate(words) if len(w) <= max_length] for k, words in cx.basis.items()}
    matrices = {}
    for k, cols in keep.items():
        new = {j: n for n, j in enumerate(cols)}
        entries = cx.matrix(k).entries
        rows = [{new[j]: c for j, c in entries[i].items() if j in new} for i in keep.get(k + 1, ())]
        matrices[k] = IntMatrix.from_rows(rows, len(cols))
    basis = {k: [cx.basis[k][j] for j in cols] for k, cols in keep.items()}
    return BasedComplex.from_matrices(basis, matrices, ring=cx.ring)


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
