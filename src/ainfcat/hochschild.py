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

The induced map CC(phi) of a degree-n bimodule morphism phi is placed
term first too, from phi's component tables.  A component key
(b_s, ..., b_1, x, a_1, ..., a_r), module slot x at index s, lies on
every cyclic word top + mid + bottom with top = (a_1, ..., a_r), bottom =
(b_s, ..., b_1, x) and mid a composable path from the key's target to its
source; a term c * (p (x) q) of it (p the hom(K, -) factor, q the
hom(-, K) one) goes to the tensor word (p, mid, q) with parity

    rho(r(top)) + (T - rdeg(x)) + n * r(mid) + deg(p) * (deg(q) + r(mid)),

T = r(key) + r(mid) and rho(t) = t * (T - t) + t (the rotation parity
below, with t = B[lo]).  Each block through a word's distinguished slot
is met once this way, so this is the per-word rule below read term
first.

Per word, as the tests' word-by-word oracles compute them, both maps out
of a cyclic word of length d apply an operation to cyclically
consecutive blocks: the blocks twice[a:end] of the doubled word
twice = word + word, 0 <= a < d and a < end <= a + d, of which
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

  below = B[a] - B[lo] summing the letters between the windows.  With
  top = word[:lo] and mid = word[lo:a], B[lo] = r(top), B[d-1] =
  T - rdeg(x) and below = r(mid) give the term rule above.

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
from math import inf

from .bimodules import BimoduleHom, DiagonalBimodule, TensorBimodule, TensorWord
from .complexes import BasedComplex, GradedMap, verify_chain_map
from .core import AinfCategory, parity_sign, path_table, rdeg
from .intlinalg import FinAbGroup, IntMatrix

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


def _terms(cat: AinfCategory, table: list[dict], max_length: int, lo=-inf, hi=inf):
    """(word, output word, signed coefficient) for every term of mu on every
    block of every cyclic word of length <= max_length and degree lo..hi
    (module docstring)."""
    for m, mu in cat.mu.items():
        for key, chain in mu.items():
            outputs = list(chain.items())
            rkey = sum(map(rdeg, key))
            for length in range(max_length - m + 1):
                # a word of m + length letters whose path has sum r has degree base + r
                base = rkey - 2 * (m + length) + 1
                # in place: suf + pre runs from the key's target to its source
                for path, r in table[length].get((key[-1].target, key[0].source), ()):
                    if not lo <= base + r <= hi:
                        continue
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
                    base = rkey - 2 * (m + length) + 1
                    for mid, r in table[length].get((head[-1].target, tail[0].source), ()):
                        if not lo <= base + r <= hi:
                            continue
                        word = head + mid + tail
                        sign = parity_sign(rhead * (rkey - rhead + r) + r + 1)
                        for g, c in outputs:
                            yield word, mid + (g,), sign * c


def truncated_cc(cat: AinfCategory, max_length: int, degrees=None) -> BasedComplex:
    """The cyclic bar complex truncated to words of length <= max_length.

    The basis is the closed paths of the path table; the differential's
    matrices are written term by term (module docstring), summed, and
    reduced mod 2 over F2.  validate() checks d o d on every pair of
    matrices built.

    `degrees` (a, ..., b; only hochschild_homology passes one) builds the
    window around them alone: the words of degrees a - 1..b + 1 and the
    differentials leaving a - 1..b, every term on a word outside a - 1..b
    skipped before its tuple is formed.  That is the brutal truncation
    sigma_{<= b+1} sigma_{>= a-1} of the whole complex, a complex in its
    own right; for a <= k <= b both the differential leaving k and the one
    arriving in k are the whole complex's, so H^k is too.
    """
    table = path_table(cat.generators(), cat.objects, max_length, closed=True)
    basis: dict[int, list] = {}
    for d in range(1, max_length + 1):
        for (s, t), paths in table[d].items():
            if s == t:
                for word, r in paths:
                    basis.setdefault(r - 2 * d + 1, []).append(word)
    # the whole complex is the window of all its degrees
    a, b = (min(degrees), max(degrees)) if degrees else (min(basis, default=0), max(basis, default=0))
    basis = {k: sorted(words) for k, words in basis.items() if a - 1 <= k <= b + 1}
    cx = BasedComplex.from_terms(basis, _terms(cat, table, max_length, a - 1, b), ring=cat.ring)
    cx.validate()
    return cx


@dataclass
class HochschildResult:
    groups: dict[int, FinAbGroup]
    stable: dict[int, bool]
    max_length: int


def length_filter(cx: BasedComplex, max_length: int) -> BasedComplex:
    """The subcomplex of a truncation spanned by words of length <= max_length.

    The differential never increases length, so the kept words span a
    subcomplex, whose matrices and products d o d are the parent's
    restricted to the kept rows and columns (where all are kept, the
    parent's own, so a rank over F2 or the divisors over Z are taken
    once); nothing is multiplied again.
    """
    keep = {k: [j for j, w in enumerate(words) if len(w) <= max_length] for k, words in cx.basis.items()}

    def restricted(M: IntMatrix, rows: list[int], cols: list[int]) -> IntMatrix:
        if len(rows) == M.rows and len(cols) == M.cols:
            return M
        new = {j: n for n, j in enumerate(cols)}
        return IntMatrix.from_rows([{new[j]: c for j, c in M.entries[i].items() if j in new} for i in rows], len(cols))

    matrices, composites = {}, {}
    for k, cols in keep.items():
        matrices[k] = restricted(cx.matrix(k), keep.get(k + 1, []), cols)
        composites[k] = restricted(cx.composite(k), keep.get(k + 2, []), cols)
    basis = {k: [cx.basis[k][j] for j in cols] for k, cols in keep.items()}
    return BasedComplex(basis, matrices, ring=cx.ring, composites=composites)


def hochschild_homology(cat: AinfCategory, max_length: int, degrees=None) -> HochschildResult:
    """Homology of the truncated cyclic bar complex with stabilization flags.

    The flag at degree k records whether the inclusion of the (N-1)-
    truncation induces an isomorphism there; it is a heuristic for
    stabilization, never a convergence claim.  With `degrees` (a range or
    list), only those degrees are read, and only the window around them is
    built (truncated_cc).
    """
    big = truncated_cc(cat, max_length, degrees)
    # the filtered truncation keeps every degree of the big one, window and all
    small = length_filter(big, max_length - 1) if max_length >= 1 else big
    words = (w for ws in small.basis.values() for w in ws)
    inclusion = GradedMap.from_terms(small, big, 0, ((w, w, 1) for w in words), name="inclusion")
    groups = {}
    stable = {}
    for k in big.degrees() if degrees is None else degrees:
        hb = big.homology_data(k)
        groups[k] = hb.group
        stable[k] = hb.induces_iso(inclusion.matrix(k), small.homology_data(k))
    return HochschildResult(groups=groups, stable=stable, max_length=max_length)


# ---------------------------------------------------------------------------
# the induced map of the coproduct-type morphism on cyclic chains


def _cc_phi_terms(phi: BimoduleHom, table: list[dict], max_length: int):
    """(cyclic word, tensor word, signed coefficient) for every term of
    every component of phi on every cyclic word of length <= max_length
    (module docstring); table is a path table of length max_length - 1."""
    n = phi.n
    for (_, s), components in phi.components.items():
        for key, chain in components.items():
            top, bottom = key[s + 1 :], key[: s + 1]
            rtop = sum(map(rdeg, top))
            rkey = rtop + sum(map(rdeg, bottom))
            outputs = list(chain.items())
            for length in range(max_length - len(key) + 1):
                for mid, rmid in table[length].get((key[-1].target, key[0].source), ()):
                    T = rkey + rmid
                    parity = rtop * (T - rtop) + rtop + T - rdeg(key[s]) + n * rmid
                    word = top + mid + bottom
                    for pg, c in outputs:
                        sign = parity_sign(parity + pg.p.degree * (pg.q.degree + rmid))
                        yield word, TensorWord(pg.p, mid, pg.q), sign * c


def cc_of_delta(phi: BimoduleHom, cc: BasedComplex, tensor_cx: BasedComplex) -> GradedMap:
    """The chain map induced on cyclic chains, written term by term from
    phi's component tables and verified before returning.

    phi must go from the diagonal bimodule to a tensor bimodule
    Y^l (x) Y^r; the image lives in tensor_cx, the bar model of
    Y^r (x)_B Y^l.  Raises KeyError if an image word is not in tensor_cx,
    and ChainMapViolation with a witness word if the degree-n commutation
    rule fails on any word of the truncation.
    """
    if not isinstance(phi.target, TensorBimodule):
        raise TypeError("the induced map needs a tensor-bimodule target")
    if not isinstance(phi.source, DiagonalBimodule):
        raise TypeError("the induced map needs the diagonal bimodule as source")
    cat = phi.source.cat
    N = max((len(w) for words in cc.basis.values() for w in words), default=0)
    table = path_table(cat.generators(), cat.objects, max(N - 1, 0))
    f = GradedMap.from_terms(cc, tensor_cx, phi.n, _cc_phi_terms(phi, table, N), name="CC(morphism)")
    report = verify_chain_map(f)
    if not report.passed:
        bad = report.violations[0]
        raise ChainMapViolation(f"induced map fails to be a chain map on {bad.inputs[0]!r}", witness=bad.inputs[0])
    return f
