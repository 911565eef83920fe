"""Modules and bimodules over an A-infinity category.

Element and ordering conventions
--------------------------------
All inputs are kept in boundary order (first-composed first).  A bimodule
operation takes the tuple

    (b_s, ..., b_1, m, a_1, ..., a_r)        module element m at index s,

so the whole tuple is head-to-tail composable, with output endpoints
(first source, last target).  A left-module element of M(L) has target L
(like hom(K, L)); a right-module element of M(L) has source L.  The sign
bookkeeping assigns elements an *order degree*: reduced degree deg+1 for
category generators, plain degree for module elements.

Quadratic equations
-------------------
Every equation here applies one block rule: the output of an operation
on a block of a tuple is put back in its place with sign (-1)^below,
below the sum of the order degrees of the entries before the block
(core.substitutions), with the module slots at plain degree (equivalent
to the usual three-family presentation by the block's position).
verify_bimodule puts the bimodule operation inside a block that contains
the module slot and the category operation inside any other block, with
no further twist.
verify_bimodule_hom does the same for a degree-n morphism, with the
inner-is-morphism terms weighted by (-1)^(n * below) and all other terms
by (-1)^(below + n + 1).

Both verifiers build every nonzero residual from pairs of operation terms
(core.substitutions), like verify_ainf.  There is one bimodule type,
Bimodule, presented by operation tables that core.frozen_table checks
once; it lists the keys on which its operation can be nonzero (op_keys)
and finds them by the element in their module slot (op_keys_at).  The
diagonal bimodule's tables are the signed structure maps, the tensor
bimodule's the Yoneda action tables lifted to pairs p (x) q.

The tensor-over-the-category complex of a right module R and left module
L has words (q, a_1, ..., a_d, p) in boundary order (the reverse of the
usual written order p (x) a_d (x) ... (x) q) and integer grading
deg(q) + sum(deg(a_i) - 1) + deg(p).  Its differential is the same rule
on the word, with q and p the module slots: the left action on blocks
containing q, the right action on blocks containing p, the category
operation on the rest; the block holding both q and p is the full
collapse (mu_composition_map), not a term.  Its exact d^2 = 0 is the
package's strongest sign-consistency check and is asserted for every
shipped fixture.  Built on submodules R' of R and L' of L closed under
their actions (YonedaModule.submodule), it is the subcomplex of words
with q in L' and p in R': the left action keeps q in L', mu moves neither
end letter and the right action keeps p in R'.  Its sorted basis is a
subsequence of the full one, so each of its matrices is the restriction
of the full matrix.

The words are built from one table of composable middle paths
(middle_paths), and the differential's matrices are written term by
term, not word by word.  With r(x) the sum of the reduced degrees of a
tuple x:

* a left-action term (q, a_1, ..., a_j) -> c * g goes on every word
  (q, a_1 .. a_j + suf, p), to (g, suf, p), with sign +1;
* a mu term key -> c * g goes on every word (q, pre + key + suf, p), to
  (q, pre + (g,) + suf, p), with sign (-1)^(deg(q) + r(pre));
* a right-action term (a_i, ..., a_d, p) -> c * g goes on every word
  (q, pre + a_i .. a_d, p), to (q, pre, g), with sign
  (-1)^(deg(q) + r(pre)).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from .complexes import BasedComplex, GradedMap
from .core import (
    EMPTY,
    AinfCategory,
    Gen,
    VerificationReport,
    chain_add,
    frozen_table,
    mu_terms,
    parity_sign,
    path_table,
    rdeg,
    substitutions,
    term_report,
)

LEFT = "left"
RIGHT = "right"


class PairGen(NamedTuple):
    """Basis element p (x) q of the tensor bimodule Y^l (x) Y^r.

    p lies in hom(K, L) and q in hom(L_bar, K); as a bimodule element the
    pair runs from L_bar to L and has the sum degree.
    """

    p: Gen
    q: Gen

    @property
    def source(self) -> str:
        return self.q.source

    @property
    def target(self) -> str:
        return self.p.target

    @property
    def degree(self) -> int:
        return self.p.degree + self.q.degree

    def __repr__(self):
        return f"({self.p.name}(x){self.q.name})[{self.source}->{self.target};{self.degree}]"


# ---------------------------------------------------------------------------
# one-sided modules


def signed_chain(chain: Mapping, parity: int) -> dict:
    """(-1)^parity * chain."""
    sign = parity_sign(parity)
    return {g: sign * c for g, c in chain.items()}


class YonedaModule:
    """hom(K, -) as a left module or hom(-, K) as a right module.

    Elements are the hom generators themselves.  The actions are the
    structure maps of the category *with the signs of the diagonal
    bimodule restricted to one side*: the left action is minus the
    structure map, the right action carries (-1)^(1 + sum of reduced
    degrees of the category inputs).  The unsigned maps do not satisfy
    the module equations (d^2 on the bar complex fails); the signed ones
    do, and in particular the module differential is -mu^1.

    Action keys are boundary tuples with the module element first (left
    modules) or last (right modules); the signed actions are stored as
    tables keyed by tuple length, like mu.
    """

    def __init__(self, cat: AinfCategory, K: str, side: str, objects=None):
        if side not in (LEFT, RIGHT):
            raise ValueError(side)
        if K not in cat.objects:
            raise KeyError(f"unknown object {K}")
        self.cat = cat
        self.K = K
        self.side = side
        self.spaces = {}
        for L in objects if objects is not None else cat.objects:
            self.spaces[L] = list(cat.hom.get((K, L) if side == LEFT else (L, K), []))
        self.actions = {}
        for d, table in cat.mu.items():
            if side == LEFT:
                signed = {key: signed_chain(out, 1) for key, out in table.items() if key[0].source == K}
            else:
                signed = {
                    key: signed_chain(out, 1 + sum(rdeg(x) for x in key[:-1]))
                    for key, out in table.items()
                    if key[-1].target == K
                }
            self.actions[d] = frozen_table(signed, cat.ring, d, 0)

    def act(self, key: tuple) -> Mapping:
        """Action on one boundary tuple (module element included; read-only)."""
        table = self.actions.get(len(key))
        return table.get(key, EMPTY) if table else EMPTY

    def basis(self, obj: str) -> list:
        return self.spaces.get(obj, [])

    def submodule(self, seeds: Iterable[Gen]) -> YonedaModule:
        """The submodule generated by seeds: the span of the smallest set
        of generators that holds them and every output of an action whose
        module slot is in the set, with the action tables cut to the keys
        whose module slot is in it.  Every object keeps its entry in
        `spaces`, so the middle letters of tensor words are unchanged."""
        slot = 0 if self.side == LEFT else -1
        outputs: dict = {}
        for table in self.actions.values():
            for key, chain in table.items():
                outputs.setdefault(key[slot], []).extend(chain)
        kept = set(seeds)
        todo = list(kept)
        while todo:
            for g in outputs.get(todo.pop(), ()):
                if g not in kept:
                    kept.add(g)
                    todo.append(g)
        sub = copy.copy(self)
        sub.spaces = {obj: [g for g in gens if g in kept] for obj, gens in self.spaces.items()}
        sub.actions = {
            d: {key: out for key, out in table.items() if key[slot] in kept} for d, table in self.actions.items()
        }
        return sub


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """A bimodule presented by explicit operation tables.

    `spaces[(source, target)]` lists the elements running between two
    objects; `ops[(r, s)]` maps boundary tuples (module slot at index s)
    to output chains of module elements.  Each table is checked and
    frozen by core.frozen_table, so a lookup is a plain dictionary access.
    """

    def __init__(self, cat: AinfCategory, spaces: dict[tuple[str, str], list], ops: dict[tuple[int, int], dict]):
        self.cat = cat
        self.spaces = {k: list(v) for k, v in spaces.items()}
        self.ops = {(r, s): frozen_table(table, cat.ring, r + s + 1, 0) for (r, s), table in ops.items()}
        self._at_slot = slot_index(table_keys(self.ops))

    def basis(self, source_obj: str, target_obj: str) -> list:
        return self.spaces.get((source_obj, target_obj), [])

    def elements(self) -> Iterator:
        for pair in sorted(self.spaces):
            yield from self.spaces[pair]

    def op(self, key: tuple, s: int) -> Mapping:
        """Operation on a boundary tuple whose module slot sits at index s (read-only)."""
        return self.ops.get((len(key) - 1 - s, s), EMPTY).get(key, EMPTY)

    def op_keys(self) -> list[tuple[tuple, int]]:
        """Every (key, s) on which op can be nonzero."""
        return table_keys(self.ops)

    def op_keys_at(self, m) -> list[tuple[tuple, int]]:
        """Every (key, s) with key[s] == m on which op can be nonzero."""
        return self._at_slot.get(m, [])


class DiagonalBimodule(Bimodule):
    """The category acting on its own hom spaces by signed higher products.

    op^{r|1|s} = (-1)^(1 + sum of reduced degrees of the s right inputs)
    times the (r+s+1)-ary structure map on the same boundary tuple,
    stored as one table per (r, s).
    """

    def __init__(self, cat: AinfCategory):
        ops = {}
        for d, table in cat.mu.items():
            for s in range(d):
                ops[(d - 1 - s, s)] = {
                    key: signed_chain(out, 1 + sum(rdeg(x) for x in key[:s])) for key, out in table.items()
                }
        super().__init__(cat, cat.hom, ops)


class TensorBimodule(Bimodule):
    """Y^l_K (x) Y^r_K, its operations tabulated once from the Yoneda actions.

    The right action on (b_1..b_s, q) lifts to (b_1..b_s, p (x) q) for
    every p, with p riding along untouched; the left action on
    (p, a_1..a_r) lifts to (p (x) q, a_1..a_r) for every q, with sign
    (-1)^deg q (the odd operator passes q first).  On (p (x) q,) the two
    add, right first.  Every operation with r, s > 0 vanishes.
    """

    def __init__(self, left: YonedaModule, right: YonedaModule):
        if left.side != LEFT or right.side != RIGHT:
            raise ValueError("expected a (left, right) pair of modules")
        if left.cat is not right.cat:
            raise ValueError("modules over different categories")
        self.left = left
        self.right = right
        ps = list(itertools.chain(*left.spaces.values()))
        qs = list(itertools.chain(*right.spaces.values()))
        ops: dict = {}
        for d, table in right.actions.items():
            lifted = ops.setdefault((0, d - 1), {})
            for key, out in table.items():
                for p in ps:
                    row = lifted.setdefault(key[:-1] + (PairGen(p, key[-1]),), {})
                    chain_add(row, {PairGen(p, g): c for g, c in out.items()})
        for d, table in left.actions.items():
            lifted = ops.setdefault((d - 1, 0), {})
            for key, out in table.items():
                for q in qs:
                    row = lifted.setdefault((PairGen(key[0], q),) + key[1:], {})
                    chain_add(row, {PairGen(g, q): c for g, c in out.items()}, parity_sign(q.degree))
        objs = left.cat.objects
        spaces = {(a, b): [PairGen(p, q) for p in left.basis(b) for q in right.basis(a)] for a in objs for b in objs}
        super().__init__(left.cat, spaces, ops)


# ---------------------------------------------------------------------------
# the bimodule quadratic equation


def table_keys(tables: Mapping[tuple[int, int], Mapping]) -> list[tuple[tuple, int]]:
    """(key, s) for every key of a family of tables indexed by (r, s)."""
    return [(key, s) for (_, s), table in tables.items() for key in table]


def slot_index(keys: list[tuple[tuple, int]]) -> dict:
    """The keys (key, s) by the element in their module slot."""
    index: dict = {}
    for key, s in keys:
        index.setdefault(key[s], []).append((key, s))
    return index


def slot_terms(keys: list[tuple[tuple, int]], op) -> list[tuple]:
    """The inner terms (key, s, op(key, s)) of an operation with a module slot."""
    return [(key, s, op(key, s)) for key, s in keys]


def verify_bimodule(P: Bimodule, max_inputs: int = 4) -> VerificationReport:
    """Check the quadratic equation on all tuples with r + s <= max_inputs.

    The nonzero residuals come from pairs of terms: P's operation or mu
    inside a block, P's operation outside (core.substitutions).
    """
    keys = P.op_keys()
    terms = substitutions(slot_terms(keys, P.op) + mu_terms(P.cat), keys, P.op_keys_at, max_inputs + 1)
    return term_report([(terms, P.op, parity_sign)], P.cat, max_inputs, list(P.elements()))


# ---------------------------------------------------------------------------
# bimodule homomorphisms


@dataclass
class BimoduleHom:
    """A degree-n morphism of bimodules, given by component tables.

    `components[(r, s)]` maps boundary tuples (module slot at index s) to
    chains of target-bimodule elements; the output of a component on a
    tuple of total plain degree D has degree D + n - (r + s).
    """

    source: Bimodule
    target: Bimodule
    n: int
    components: dict[tuple[int, int], dict] = field(default_factory=dict)

    def __post_init__(self):
        if self.source.cat is not self.target.cat:
            raise ValueError("source and target live over different categories")
        ring = self.source.cat.ring
        self.components = {
            (r, s): frozen_table(table, ring, r + s + 1, self.n - 1) for (r, s), table in self.components.items()
        }

    def apply(self, key: tuple, s: int) -> Mapping:
        return self.components.get((len(key) - 1 - s, s), EMPTY).get(key, EMPTY)


def verify_bimodule_hom(phi: BimoduleHom, max_inputs: int = 4) -> VerificationReport:
    """Check the morphism equation on all tuples with r + s <= max_inputs.

    Its terms come in two passes, as pairs of table terms: a component of
    phi inside a block and the target's operation outside, then the
    source's operation or mu inside and a component of phi outside.
    """
    n, source, length = phi.n, phi.source, max_inputs + 1
    keys = table_keys(phi.components)
    at_slot = slot_index(keys)
    inside = substitutions(slot_terms(keys, phi.apply), [], phi.target.op_keys_at, length)
    outside = substitutions(
        slot_terms(source.op_keys(), source.op) + mu_terms(source.cat), keys, lambda m: at_slot.get(m, []), length
    )
    passes = [
        (inside, phi.target.op, lambda below: parity_sign(n * below)),
        (outside, phi.apply, lambda below: parity_sign(below + n + 1)),
    ]
    return term_report(passes, source.cat, max_inputs, list(source.elements()))


# ---------------------------------------------------------------------------
# tensor product over the category


class TensorWord(NamedTuple):
    """Basis word of R (x)_B L, stored in boundary order (q, a_1..a_d, p)."""

    q: Gen
    mid: tuple[Gen, ...]
    p: Gen

    @property
    def length(self) -> int:
        return len(self.mid)

    @property
    def degree(self) -> int:
        return self.q.degree + sum(a.degree - 1 for a in self.mid) + self.p.degree

    def __repr__(self):
        letters = ",".join(g.name for g in self.mid)
        return f"<{self.q.name}|{letters}|{self.p.name}>"


def middle_paths(cat: AinfCategory, objects, max_length: int) -> list[dict]:
    """The path table (core.path_table) of the generators between
    `objects`: the middle letters of every tensor word over them."""
    objects = set(objects)
    gens = [g for g in cat.generators() if g.source in objects and g.target in objects]
    return path_table(gens, objects, max_length)


def _tensor_terms(R: YonedaModule, L: YonedaModule, paths: list[dict], max_length: int):
    """(word, output word, signed coefficient) for every term of the left
    action, mu and the right action on every block of every tensor word
    with at most max_length middle letters (module docstring).  Words are
    plain (q, mid, p) tuples, equal to the TensorWords of the basis and
    cheaper to build."""
    objects = set(R.spaces) & set(L.spaces)

    def around(source: str, target: str, room: int, q=None, p=None):
        """(q, pre, r(pre), suf, p) for every word (q, pre + block + suf, p)
        around a block of letters from `source` to `target`, with at most
        `room` letters in pre and suf together.  A given q (or p) stands
        next to the block, with no letters between them."""
        for lpre in range(room + 1 if q is None else 1):
            for s in objects if q is None else (source,):
                qs = L.basis(s) if q is None else (q,)
                for pre, r in paths[lpre].get((s, source), ()):
                    for lsuf in range(room - lpre + 1 if p is None else 1):
                        for t in objects if p is None else (target,):
                            ps = R.basis(t) if p is None else (p,)
                            for suf, _ in paths[lsuf].get((target, t), ()):
                                for x in qs:
                                    for y in ps:
                                        yield x, pre, r, suf, y

    for table in L.actions.values():
        for key, chain in table.items():
            if all(x.target in objects for x in key):
                letters = key[1:]
                for q, _, _, suf, p in around(key[0].target, key[-1].target, max_length - len(letters), q=key[0]):
                    word = (q, letters + suf, p)
                    for g, c in chain.items():
                        yield word, (g, suf, p), c
    for table in R.cat.mu.values():
        for key, chain in table.items():
            if key[0].source in objects and all(x.target in objects for x in key):
                for q, pre, r, suf, p in around(key[0].source, key[-1].target, max_length - len(key)):
                    word, sign = (q, pre + key + suf, p), parity_sign(q.degree + r)
                    for g, c in chain.items():
                        yield word, (q, pre + (g,) + suf, p), sign * c
    for table in R.actions.values():
        for key, chain in table.items():
            if all(x.source in objects for x in key):
                letters = key[:-1]
                for q, pre, r, _, p in around(key[0].source, key[-1].source, max_length - len(letters), p=key[-1]):
                    word, sign = (q, pre + letters, p), parity_sign(q.degree + r)
                    for g, c in chain.items():
                        yield word, (q, pre, g), sign * c


def tensor_over_category(
    R: YonedaModule, L: YonedaModule, max_length: int, paths: list[dict] | None = None
) -> BasedComplex:
    """The length-filtered bar-type complex computing R (x)_B L.

    The basis is every word (q, mid, p) with mid in the middle-path table
    over the objects both modules have, sorted in each degree; `paths`,
    that table (middle_paths) to max_length, is built here unless given.
    The matrices are written term by term (module docstring).  Raises on
    d^2 != 0, which would signal inconsistent module data.
    """
    if R.side != RIGHT or L.side != LEFT:
        raise ValueError("expected (right, left) module pair")
    if R.cat is not L.cat:
        raise ValueError("modules over different categories")
    if paths is None:
        paths = middle_paths(R.cat, set(R.spaces) & set(L.spaces), max_length)
    basis: dict[int, list] = {}
    for length, table in enumerate(paths[: max_length + 1]):
        for (s, t), mids in table.items():
            for mid, r in mids:
                for q in L.basis(s):
                    for p in R.basis(t):
                        basis.setdefault(q.degree + r - 2 * length + p.degree, []).append(TensorWord(q, mid, p))
    for words in basis.values():
        words.sort()
    cx = BasedComplex.from_terms(basis, _tensor_terms(R, L, paths, max_length), ring=R.cat.ring)
    cx.validate()
    return cx


def hom_complex(cat: AinfCategory, source_obj: str, target_obj: str) -> BasedComplex:
    """hom(source, target) as a complex with the module-convention
    differential -mu^1 (the diagonal bimodule acting on itself).

    With this convention the full-collapse composition map out of the
    tensor complex is an honest degree-0 chain map; with +mu^1 it would
    anticommute.  Homology is unaffected by the global sign.
    """
    basis: dict[int, list] = {}
    for g in cat.hom.get((source_obj, target_obj), []):
        basis.setdefault(g.degree, []).append(g)
    for k in basis:
        basis[k].sort()
    terms = ((g, h, -c) for gens in basis.values() for g in gens for h, c in cat.mu_key((g,)).items())
    return BasedComplex.from_terms(basis, terms, ring=cat.ring)


def mu_composition_map(right: YonedaModule, X: str, tensor_cx: BasedComplex) -> GradedMap:
    """Full collapse from tensor_cx, a complex R (x)_B L for the Yoneda
    modules R = hom(-, K) and L = hom(X, -), into hom(X, K): the action of
    right, the module hom(-, K), on the whole word (q, a_1, .., a_d, p)."""
    if right.side != RIGHT:
        raise ValueError("expected a right module")
    terms = (
        (w, g, c) for words in tensor_cx.basis.values() for w in words
        for g, c in right.act((w.q,) + w.mid + (w.p,)).items()
    )
    return GradedMap.from_terms(tensor_cx, hom_complex(right.cat, X, right.K), 0, terms, name="mu")
