"""Test-only helpers: mutants, small constructions and independent oracles.

Nothing under `src/` calls these.  The mutants negate one stored term so
that the verifiers can be shown to notice; `rational_rank` and
`kernel_basis` check the integral linear algebra from outside; and
`induced_by_generators` is the per-generator oracle for
`HomologyData.induced`: it pushes each class generator through
the chain map as a dense vector and reads its class coordinates one at a
time, the way the homology comparisons did before the induced map became
one sparse product.  `apply_mu` and `koszul_sign` are small conveniences
that only the tests use, and `tensor_op_oracle` is the tensor bimodule's
operation computed on the fly, the oracle for its tabulated `op`.
`bar_differential` is the cyclic differential word by word, the way
`hochschild.truncated_cc` computed it before it walked the operation
terms: every block of the doubled word looked up in turn; the tests build
matrices from it column by column and hold the shipped ones equal to
them.  `bar_differential_oracle` and `cc_of_delta_word_oracle` are the
cyclic walks as they were written before both read the doubled word: the
differential's non-wrapping blocks through `signed_blocks` and its
wrapping blocks in a loop of their own, each with its own rotation sum.
The word-by-word builders that the package replaced by term walks end
the file: `signed_blocks`, the block rule walked over one tuple (also
behind the dense verifiers); `tensor_words` and `tensor_differential`,
the tensor complex's words and each word's differential; and
`cc_of_delta_word` with `_doubled`, CC(phi) of one cyclic word read off
the doubled word.  The tests hold the shipped matrices equal to the ones
these build, over Z and F2.
`shipped` loads a fixture's file as `ainfcat fixture` writes it, once per
fixture; the tests take the shipped morphisms from it, so they come in
through the one loader, `fileformat._morphisms`.  `composable_tuples` and
`cyclic_tuples` enumerate the inputs the dense verifiers and the
word-by-word oracles walk, and `collect_violations` reports their
residuals; the package itself enumerates words from one path table and
reports identities of matrices.  `chain_map_residuals` is `verify_chain_map` as it was before
it became a matrix identity: d o f - (-1)^shift f o d composed label by
label from the chains the maps read, and `homotopy_residuals` is
`cardy.verify_homotopy_equation` the same way, word by word.
`cardy_comparison_oracle` is `cardy.verify_cardy_on_homology` with no
degree skipped: both induced matrices on every spot, the way it compared
them before a difference that induces zero let it factor nothing.  The package
fills every matrix from terms; `callback_terms` turns a word-by-word
builder (label -> chain) into such terms, and `column` reads one label's
image back off a map's or a differential's matrix.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from ainfcat import cli
from ainfcat.bimodules import Bimodule, BimoduleHom, PairGen, TensorWord, YonedaModule
from ainfcat.complexes import BasedComplex, GradedMap, combination
from ainfcat.core import (
    EMPTY,
    AinfCategory,
    Gen,
    VerificationReport,
    Violation,
    chain_add,
    chain_normalize,
    parity_sign,
    rdeg,
)
from ainfcat.fileformat import LoadedFile, load_category
from ainfcat.intlinalg import IntMatrix, _kernel
from ainfcat.strata import sign_formula


@functools.cache
def shipped(fixture: str) -> LoadedFile:
    """The fixture's file as `ainfcat fixture` writes it, loaded.  Every
    caller shares the result: copy `raw` before editing it (`shipped_raw`)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["fixture", fixture]) == 0
    return load_category(out.getvalue().encode())


def shipped_morphism(fixture: str, n: int) -> BimoduleHom:
    """The fixture's shipped degree-n morphism, as its file declares it."""
    return shipped(fixture).morphisms[f"coproduct_n{n}"]


def shipped_raw(fixture: str, n: int | None = None, name: str = "m") -> dict:
    """A fresh copy of the fixture's file; with `n`, its only morphism is
    coproduct_n<n>, renamed `name`."""
    raw = copy.deepcopy(shipped(fixture).raw)
    if n is not None:
        (entry,) = [m for m in raw["morphisms"] if m["name"] == f"coproduct_n{n}"]
        raw["morphisms"] = [dict(entry, name=name)]
    return raw


def with_negated_term(cat: AinfCategory, d: int, key: tuple, out_gen: Gen) -> AinfCategory:
    """Copy of the category with one structure constant negated."""
    table = cat.mu.get(d, {})
    if key not in table or out_gen not in table[key]:
        raise KeyError(f"no term mu^{d}{key} -> {out_gen}")
    mu = {a: {k: dict(v) for k, v in t.items()} for a, t in cat.mu.items()}
    mu[d][key][out_gen] = -mu[d][key][out_gen]
    return AinfCategory(objects=list(cat.objects), hom=dict(cat.hom), mu=mu, ring=cat.ring, units=dict(cat.units))


def iter_terms(cat: AinfCategory) -> Iterator[tuple[int, tuple, Gen, int]]:
    """All stored structure constants as (arity, key, output, coefficient)."""
    for d in sorted(cat.mu):
        for key in sorted(cat.mu[d]):
            for og in sorted(cat.mu[d][key]):
                yield d, key, og, cat.mu[d][key][og]


def with_negated_bimodule_term(P: Bimodule, r: int, s: int, key: tuple, out):
    ops = {rs: {k: dict(v) for k, v in t.items()} for rs, t in P.ops.items()}
    ops[(r, s)][key][out] = -ops[(r, s)][key][out]
    return Bimodule(P.cat, P.spaces, ops)


def identity_hom(P: Bimodule) -> BimoduleHom:
    table = {(g,): {g: 1} for g in P.elements()}
    return BimoduleHom(source=P, target=P, n=0, components={(0, 0): table})


def zero_map(source: BasedComplex, target: BasedComplex, shift: int) -> GradedMap:
    return GradedMap(source=source, target=target, shift=shift, name="0")


def callback_terms(basis: Mapping[int, list], apply: Callable[[object], Mapping]) -> Iterator[tuple]:
    """The terms (label, image, c) of the map sending each label of basis to
    the chain apply(label), in basis order: a word-by-word builder, the way
    the package once took a map label by label, read by from_terms."""
    for labels in basis.values():
        for label in labels:
            for out, c in apply(label).items():
                yield label, out, c


def callback_complex(basis: dict[int, list], d: Callable[[object], Mapping], ring: str = "Z") -> BasedComplex:
    return BasedComplex.from_terms(basis, callback_terms(basis, d), ring=ring)


def callback_map(source: BasedComplex, target: BasedComplex, shift: int, apply, name: str = "map") -> GradedMap:
    return GradedMap.from_terms(source, target, shift, callback_terms(source.basis, apply), name=name)


def column(f: GradedMap | BasedComplex, label) -> dict:
    """The image of a source label, read off its column of f.matrix: under
    the map f, or under the differential when f is a complex."""
    source, target, shift, name = (
        (f, f, 1, "differential") if isinstance(f, BasedComplex) else (f.source, f.target, f.shift, f.name)
    )
    for k, index in source.index.items():
        j = index.get(label)
        if j is not None:
            out = target.basis.get(k + shift, [])
            return {out[i]: c for i, c in f.matrix(k).column_entries(j).items()}
    raise KeyError(f"{name}: {label!r} is not a basis label of its source")


def collect_violations(residuals: Iterable[tuple[tuple, dict]]) -> VerificationReport:
    """Count every (inputs, residual) pair; keep the nonzero residuals."""
    violations = []
    checked = 0
    for inputs, res in residuals:
        checked += 1
        if res:
            violations.append(Violation(inputs, res))
    return VerificationReport(checked=checked, violations=violations)


def chain_map_residuals(f: GradedMap) -> VerificationReport:
    """d o f - (-1)^shift f o d on every source label, composed label by
    label from the columns the maps read and reduced in the target's ring."""
    sign = parity_sign(f.shift)

    def residual(label) -> dict:
        res: dict = {}
        for out, c in column(f, label).items():
            chain_add(res, column(f.target, out), c)
        for out, c in column(f.source, label).items():
            chain_add(res, column(f, out), -sign * c)
        return chain_normalize(res, f.target.ring)

    return collect_violations(
        ((label,), residual(label)) for k in f.source.degrees() for label in f.source.basis[k]
    )


def homotopy_residuals(data, H: GradedMap) -> VerificationReport:
    """The four-term Cardy identity word by word,
    (-1)^n mu^1(H(w)) + H(b(w)) + mu o CC(phi)(w) - CO o OC(w), composed
    from the chains the maps read, mu^1 the bare structure map."""
    cat, cc = data.cat, data.mu_cc.source

    def residual(word) -> dict:
        out: dict = {}
        chain_add(out, cat.mu_boundary([column(H, word)]), parity_sign(data.n))
        for w1, c in column(cc, word).items():
            chain_add(out, column(H, w1), c)
        chain_add(out, column(data.mu_cc, word), 1)
        chain_add(out, column(data.co_oc, word), -1)
        return chain_normalize(out, cat.ring)

    return collect_violations(((word,), residual(word)) for k in cc.degrees() for word in cc.basis[k])


def composable_tuples(cat: AinfCategory, d: int) -> Iterator[tuple]:
    """All boundary-ordered composable generator d-tuples, sorted start."""
    gens = list(cat.generators())
    by_source: dict[str, list[Gen]] = {}
    for g in gens:
        by_source.setdefault(g.source, []).append(g)

    def extend(prefix: tuple) -> Iterator[tuple]:
        if len(prefix) == d:
            yield prefix
            return
        for g in by_source.get(prefix[-1].target, []):
            yield from extend(prefix + (g,))

    for g in gens:
        yield from extend((g,))


def cyclic_tuples(cat: AinfCategory, d: int) -> Iterator[tuple]:
    """Composable d-tuples that close up: last target == first source."""
    for tup in composable_tuples(cat, d):
        if tup[-1].target == tup[0].source:
            yield tup


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(A) as a subgroup of Z^cols.

    Every integer vector in the kernel is an integer combination of these
    columns (the kernel of an integer matrix is a direct summand).
    """
    return _kernel(A)[0]


def rational_rank(A: IntMatrix) -> int:
    """Rank over Q by fraction-free-ish Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in A.data]
    rows, cols = A.rows, A.cols
    rank = 0
    for j in range(cols):
        piv = None
        for i in range(rank, rows):
            if m[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][j]
        for i in range(rank + 1, rows):
            if m[i][j] != 0:
                f = m[i][j] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def disc_facet_count_closed_form(d: int) -> int:
    """Number of facets of the d-input disc space, summed in closed form."""
    return sum(d - d2 + 1 for d2 in range(2, d))


def induced_by_generators(F: IntMatrix, source, target) -> list[tuple[int, ...]]:
    """coords() in `target` of F applied to each class generator of
    `source`, one dense vector at a time (both are HomologyData)."""
    return [target.coords(F.apply(gen)) for gen in source.class_generators()]


def cardy_comparison_oracle(data) -> VerificationReport:
    """[mu o CC(phi)] against (-1)^(n(n+1)/2) [CO o OC] for an
    OpenClosedData: in every degree both induced matrices are built and
    compared column by column, a differing column reported on its class
    generator with both coordinate tuples, every column counted."""
    n, cc, hom_cx = data.n, data.mu_cc.source, data.mu_cc.target
    gsign = sign_formula("cardy_global", n=n)
    violations, checked = [], 0
    for k in cc.degrees():
        hs, ht = cc.homology_data(k), hom_cx.homology_data(k + n)
        lhs = ht.induced(data.mu_cc.matrix(k), hs)
        rhs = ht.induced(combination([(gsign, data.co_oc.matrix(k))], cc.ring), hs)
        checked += lhs.cols
        for j, (col1, col2) in enumerate(zip(coordinate_columns(lhs), coordinate_columns(rhs))):
            if col1 != col2:
                chain = {w: c for w, c in zip(cc.basis[k], hs.class_generator(j)) if c}
                violations.append(Violation((k, chain), {"lhs": col1, "rhs": col2}))
    return VerificationReport(checked=checked, violations=violations)


def zero_class(hd) -> tuple[int, ...]:
    """The class coordinates of 0 in a HomologyData."""
    return tuple(0 for m in hd._presentation.moduli if m != 1)


def coordinate_columns(M: IntMatrix) -> list[tuple[int, ...]]:
    """The columns of M as tuples, in the form induced_by_generators returns."""
    return [tuple(M[i, j] for i in range(M.rows)) for j in range(M.cols)]


def apply_mu(cat: AinfCategory, d: int, inputs: Sequence[Mapping]) -> dict:
    """mu^d applied to chains given in algebraic order (x_d, ..., x_1)."""
    if len(inputs) != d:
        raise ValueError(f"expected {d} inputs, got {len(inputs)}")
    return cat.mu_boundary(list(reversed(inputs)))


def koszul_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Sign accumulated when graded elements are reordered by `perm`.

    `perm[i]` is the new position of the element originally at position i;
    each inverted pair (i, j) contributes (-1)^(deg_i * deg_j).
    """
    if len(degrees) != len(perm):
        raise ValueError("degrees and permutation have different lengths")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("not a permutation")
    parity = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                parity += degrees[i] * degrees[j]
    return parity_sign(parity)


def tensor_op_oracle(left: YonedaModule, right: YonedaModule, key: tuple, s: int) -> dict:
    """The operation of Y^l (x) Y^r on one key, computed from the Yoneda
    actions: the right action on the q factor when r = 0, the left action
    on p, with sign (-1)^deg q, when s = 0, and 0 for r, s > 0."""
    m = key[s]
    if not isinstance(m, PairGen):
        raise TypeError(f"module slot holds {m!r}")
    r = len(key) - 1 - s
    out: dict = {}
    if r == 0:
        # the right module acts on the q factor; p rides along untouched
        for g, c in right.act(key[:s] + (m.q,)).items():
            chain_add(out, {PairGen(m.p, g): c})
    if s == 0:
        # the left module acts on p; the odd operator passes q first
        sign = parity_sign(m.q.degree)
        for g, c in left.act((m.p,) + key[1:]).items():
            chain_add(out, {PairGen(g, m.q): sign * c})
    return chain_normalize(out, left.cat.ring)


def bar_differential(cat: AinfCategory, word: tuple) -> dict:
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


def bar_differential_oracle(cat: AinfCategory, word: tuple) -> dict:
    """Hochschild differential of one cyclic word; never increases length."""
    d = len(word)
    out: dict = {}
    red = [rdeg(g) for g in word]

    def rsum(i, j):  # sum of reduced degrees of a_i..a_j, 1-indexed inclusive
        return sum(red[i - 1 : j])

    # non-wrapping blocks, replaced in place
    for i, j, g, c, below in signed_blocks(word, lambda i, j: cat.mu_key(word[i:j]), ()):
        chain_add(out, {word[:i] + (g,) + word[j:]: parity_sign(below + 1) * c})

    # wrapping blocks (a_hi..a_d, a_1..a_lo); output goes to the last slot
    for lo in range(1, d):
        for hi in range(lo + 1, d + 1):
            block = word[hi - 1 :] + word[:lo]
            inner = cat.mu_key(block)
            if not inner:
                continue
            sign = parity_sign(rsum(1, lo) * rsum(lo + 1, d) + rsum(lo + 1, hi - 1) + 1)
            for g, c in inner.items():
                new = word[lo : hi - 1] + (g,)
                chain_add(out, {new: sign * c})

    return chain_normalize(out, cat.ring)


def cc_of_delta_word_oracle(phi: BimoduleHom, word: tuple) -> dict:
    """Image of one cyclic word under the morphism-induced map on chains.

    phi must go from the diagonal bimodule to a tensor bimodule
    Y^l (x) Y^r; the output lives in the bar model of Y^r (x)_B Y^l, as
    TensorWord chains.
    """
    d = len(word)
    n = phi.n
    red = [rdeg(g) for g in word]

    def rsum(i, j):
        return sum(red[i - 1 : j])

    out: dict = {}
    for s in range(0, d):
        for r in range(0, d - s):
            # block: s letters below the seam, the top letter, r letters above
            key = word[d - 1 - s : d] + word[:r]
            mid = word[r : d - 1 - s]
            comp = phi.apply(key, s)
            if not comp:
                continue
            # rotation cost of the left window past everything above it,
            # the degree-n morphism passing the surviving letters, and the
            # below-the-slot sum over all letters between the windows
            diamond = (
                rsum(1, r) * rsum(r + 1, d)
                + n * rsum(r + 1, d - s - 1)
                + rsum(r + 1, d - 1)
            )
            for pg, c in comp.items():
                # pg.p is the hom(K, L_r) factor, pg.q the hom(L_{d-s-1}, K)
                # one; the reorder sign moves pg.p past the letters and pg.q
                circ = pg.p.degree * (pg.q.degree + rsum(r + 1, d - s - 1))
                chain_add(out, {TensorWord(pg.p, mid, pg.q): parity_sign(diamond + circ) * c})
    return chain_normalize(out, phi.source.cat.ring)


# ---------------------------------------------------------------------------
# the word-by-word builders, as the package computed them before it wrote
# its matrices from term tables


def signed_blocks(
    seq: tuple, inner: Callable[[int, int], Mapping], plain: Container[int]
) -> Iterator[tuple[int, int, object, int, int]]:
    """Every output term of an inner operation on every block of a tuple.

    Walks the consecutive blocks seq[i:j] (by i, then j), applies
    inner(i, j) to each and yields (i, j, g, c, below) for every term
    c * g of the result.  `below` is the sum of the order degrees of
    seq[:i]: the reduced degree deg + 1 of each entry, except that the
    positions listed in `plain` (module elements) count their plain
    degree.  Substituting the block's output g back into the tuple
    contributes (-1)^below.
    """
    below = 0
    for i, x in enumerate(seq):
        for j in range(i + 1, len(seq) + 1):
            for g, c in inner(i, j).items():
                yield i, j, g, c, below
        below += x.degree if i in plain else x.degree + 1


def tensor_words(R: YonedaModule, L: YonedaModule, max_length: int) -> list[TensorWord]:
    """All words (q, letters, p); letters stay between the modules' objects."""
    cat = R.cat
    allowed = set(R.spaces) & set(L.spaces)
    by_source: dict[str, list[Gen]] = {}
    for g in cat.generators():
        if g.source in allowed and g.target in allowed:
            by_source.setdefault(g.source, []).append(g)
    words = []
    for obj in sorted(L.spaces):
        for q in L.basis(obj):
            stack = [(q, ())]
            while stack:
                q0, mid = stack.pop()
                tail = mid[-1].target if mid else q0.target
                for p in R.basis(tail):
                    words.append(TensorWord(q0, mid, p))
                if len(mid) < max_length:
                    for g in by_source.get(tail, []):
                        stack.append((q0, mid + (g,)))
    return sorted(words)


def tensor_differential(R: YonedaModule, L: YonedaModule, word: TensorWord) -> dict:
    """Differential of the tensor-over-the-category complex on one word:
    the left action on blocks holding q, the right action on blocks
    holding p, mu on the rest, with q and p the module slots."""
    seq = (word.q,) + word.mid + (word.p,)
    end = len(seq)

    def inner(i, j):
        if i == 0:
            # the block holding both q and p is the full collapse, not a term
            return L.act(seq[:j]) if j < end else EMPTY
        return R.act(seq[i:]) if j == end else R.cat.mu_key(seq[i:j])

    out: dict = {}
    for i, j, g, c, below in signed_blocks(seq, inner, (0, end - 1)):
        new = seq[:i] + (g,) + seq[j:]
        chain_add(out, {TensorWord(new[0], new[1:-1], new[-1]): parity_sign(below) * c})
    return chain_normalize(out, R.cat.ring)


def _doubled(word: tuple) -> tuple[tuple, list[int], list[int]]:
    """The doubled word, the prefix sums B of reduced degrees and the
    rotation parity rho(lo) = B[lo] * (T - B[lo]) + B[lo] for
    lo < len(word), T = B[-1] (hochschild's module docstring)."""
    B = [0, *accumulate(rdeg(g) for g in word)]
    T = B[-1]
    return word + word, B, [B[lo] * (T - B[lo]) + B[lo] for lo in range(len(word))]


def cc_of_delta_word(phi: BimoduleHom, word: tuple) -> dict:
    """Image of one cyclic word under the morphism-induced map on chains.

    phi must go from the diagonal bimodule to a tensor bimodule
    Y^l (x) Y^r; the output lives in the bar model of Y^r (x)_B Y^l, as
    TensorWord chains.  Every block through the distinguished slot,
    twice[a:d+lo], is read as phi's component with s = d - 1 - a letters
    below the seam and r = lo above.
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
