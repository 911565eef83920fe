"""Finite A-infinity categories over Z or Z/2, and the structure verifier.

Conventions
-----------
Operation tables are stored in *boundary order*: the key of a term of
mu^d is the tuple (x_1, ..., x_d) where x_1 composes first, i.e.
x_k in hom(L_{k-1}, L_k) and consecutive entries match head to tail.
Written algebraically the same operation reads mu^d(x_d, ..., x_1).

The structure relation verified by verify_ainf is, in boundary order:
for every composable (x_1, ..., x_d),

    sum over blocks x_{k+1..k+m}:
        (-1)^(sum of reduced degrees of x_1..x_k)
          * mu(x_1, .., x_k, mu(x_{k+1}, .., x_{k+m}), x_{k+m+1}, .., x_d)
    = 0,

where the reduced degree of x is deg(x) + 1.  Failures are collected as
data (input tuple plus nonzero residual), not raised.

The relation is checked on every composable tuple up to the bound, but
computed from pairs of terms.  A summand is nonzero only where mu has a
term on the block and another on the tuple with the block's output put
back, so substitutions() walks the pairs of mu terms, and each tuple such
a pair builds gets its full residual, summed in the order of the block
walk; every other tuple has residual 0.  The bimodule and morphism
equations are checked the same way.  The report's `checked` counts every
tuple up to the bound (tuple_count, a path count in the quiver of
generators), not just the tuples that were evaluated.

Over Z/2 all coefficients are reduced mod 2, which makes every sign
trivial.  Operation tables are normalized once, when the category is
built (zero terms dropped, coefficients reduced mod 2 over Z/2), and
stored read-only, so a lookup is a plain dictionary access.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

RING_Z = "Z"
RING_F2 = "F2"


class NonComposable(ValueError):
    pass


class Gen(NamedTuple):
    """A named basis generator of the hom space hom(source, target)."""

    source: str
    target: str
    name: str
    degree: int

    def __repr__(self):
        return f"{self.name}[{self.source}->{self.target};{self.degree}]"


def rdeg(g) -> int:
    """Reduced degree: deg + 1.  Only its parity enters sign formulas."""
    return g.degree + 1


def parity_sign(parity: int) -> int:
    """(-1)^parity."""
    return -1 if parity % 2 else 1


# ---------------------------------------------------------------------------
# chains: finitely supported integer combinations of generators, as dicts


def chain_add(target: dict, other: Mapping, scale: int = 1) -> dict:
    """In-place target += scale * other, dropping zeros."""
    for g, c in other.items():
        new = target.get(g, 0) + scale * c
        if new:
            target[g] = new
        else:
            target.pop(g, None)
    return target


def chain_normalize(ch: dict, ring: str) -> dict:
    if ring == RING_F2:
        out = {}
        for g, c in ch.items():
            if c % 2:
                out[g] = 1
        return out
    return {g: c for g, c in ch.items() if c}


EMPTY = MappingProxyType({})  # the read-only result of a lookup that finds no term


def frozen_table(table: Mapping, ring: str, length: int, shift: int) -> dict:
    """A checked term table, every output normalized once and made read-only.

    Every key must be a composable tuple of `length` entries, and every
    output must run from key[0].source to key[-1].target in degree
    shift + 2 - length + (sum of the key's degrees).  The shift is 0 for
    mu, module actions and bimodule operations, and n - 1 for the
    components of a degree-n morphism.  Zero terms are dropped.
    """
    out = {}
    for key, chain in table.items():
        if len(key) != length:
            raise ValueError(f"key of length {len(key)}, expected {length}: {key}")
        if not is_composable(key):
            raise NonComposable(f"key not composable: {key}")
        want = shift + 2 - length + sum(x.degree for x in key)
        for g in chain:
            if g.source != key[0].source or g.target != key[-1].target:
                raise NonComposable(f"output {g} has wrong endpoints for {key}")
            if g.degree != want:
                raise ValueError(f"output degree {g.degree}, expected {want} for {key}")
        chain = chain_normalize(dict(chain), ring)
        if chain:
            out[key] = MappingProxyType(chain)
    return out


def is_composable(seq: Sequence) -> bool:
    return all(a.target == b.source for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------


TermTable = dict  # dict[tuple[Gen, ...], dict[Gen, int]]


@dataclass
class AinfCategory:
    """Objects, finite hom spaces and sparse operation tables mu^d.

    `hom[(X, Y)]` lists the generators of hom(X, Y); `mu[d]` maps a
    boundary-ordered composable d-tuple of generators to an output chain.
    `units` optionally records a degree-0 cycle in hom(K, K) per object;
    unitality is never assumed, only verified on demand.
    """

    objects: list[str]
    hom: dict[tuple[str, str], list[Gen]]
    mu: dict[int, TermTable] = field(default_factory=dict)
    ring: str = RING_Z
    units: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        self.validate_tables()
        self.mu = {d: frozen_table(table, self.ring, d, 0) for d, table in self.mu.items()}

    def generators(self) -> Iterator[Gen]:
        for pair in sorted(self.hom):
            yield from self.hom[pair]

    def validate_tables(self) -> None:
        """The category's own checks; frozen_table checks the shape of each term."""
        declared = set()
        for (src, tgt), gens in self.hom.items():
            names = set()
            for g in gens:
                if g.source != src or g.target != tgt:
                    raise ValueError(f"generator {g} filed under hom({src},{tgt})")
                if g.name in names:
                    raise ValueError(f"duplicate generator name {g.name} in hom({src},{tgt})")
                names.add(g.name)
                declared.add(g)
        for d, table in self.mu.items():
            for key, out in table.items():
                for g in key:
                    if g not in declared:
                        raise ValueError(f"unknown generator {g} in mu^{d} key")
                for og, c in out.items():
                    if og not in declared:
                        raise ValueError(f"unknown output generator {og}")
                    if c == 0:
                        raise ValueError("zero coefficient stored in term table")

    # -- application ---------------------------------------------------

    def mu_key(self, key: tuple) -> Mapping:
        """mu^d on one boundary-ordered generator tuple (read-only)."""
        table = self.mu.get(len(key))
        return table.get(key, EMPTY) if table else EMPTY

    def mu_boundary(self, chains: Sequence[Mapping]) -> dict:
        """Multilinear extension of mu^d; inputs in boundary order."""
        d = len(chains)
        if d == 0 or not self.mu.get(d):
            return {}
        out: dict = {}
        for combo in itertools.product(*(ch.items() for ch in chains)):
            key = tuple(g for g, _ in combo)
            coeff = 1
            for _, c in combo:
                coeff *= c
            if not is_composable(key):
                raise NonComposable(f"non-composable tuple {key}")
            chain_add(out, self.mu_key(key), coeff)
        return chain_normalize(out, self.ring)


# ---------------------------------------------------------------------------
# the structure relation


@dataclass
class Violation:
    inputs: tuple
    residual: dict

    def __str__(self):
        return f"inputs={self.inputs} residual={self.residual}"


@dataclass
class VerificationReport:
    checked: int
    violations: list[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.passed:
            return f"pass ({self.checked} tuples checked)"
        lines = [f"FAIL ({len(self.violations)} of {self.checked} tuples)"]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def tuple_count(cat: AinfCategory, up_to: int, elements: Iterable | None = None) -> int:
    """How many tuples a verifier checks, counted without listing them.

    Without `elements`: the composable generator tuples of length 1..up_to.
    With the elements of a bimodule: the mixed tuples
    (b_s, .., b_1, m, a_1, .., a_r) with r + s <= up_to.  Both are path
    counts in the quiver of generators, one transfer-matrix step per length.
    """
    gens = list(cat.generators())
    # ending[l][obj] / starting[l][obj]: composable l-tuples that end / start
    # at obj; None stands for the empty tuple, which fits everywhere
    ending: list[dict | None] = [None]
    starting: list[dict | None] = [None]

    def fits(counts: dict | None, obj: str) -> int:
        return 1 if counts is None else counts.get(obj, 0)

    for _ in range(up_to):
        end: dict = {}
        start: dict = {}
        for g in gens:
            end[g.target] = end.get(g.target, 0) + fits(ending[-1], g.source)
            start[g.source] = start.get(g.source, 0) + fits(starting[-1], g.target)
        ending.append(end)
        starting.append(start)
    if elements is None:
        return sum(n for end in ending[1:] for n in end.values())
    elements = list(elements)
    return sum(
        fits(ending[s], m.source) * fits(starting[total - s], m.target)
        for total in range(up_to + 1)
        for s in range(total + 1)
        for m in elements
    )


def path_table(gens: Iterable[Gen], objects: Iterable[str], max_length: int, closed: bool = False) -> list[dict]:
    """table[L][(s, t)]: every composable L-tuple of `gens` from s to t,
    with the sum of its reduced degrees; table[0] holds the empty path at
    each of `objects`.  With `closed`, the last length, where only cyclic
    words are read, holds the closed paths alone."""
    by_source: dict[str, list] = {}
    for g in gens:
        by_source.setdefault(g.source, []).append((g, rdeg(g)))
    table = [{(x, x): [((), 0)] for x in objects}]
    for length in range(1, max_length + 1):
        longer: dict = {}
        for (s, t), paths in table[-1].items():
            for g, r in by_source.get(t, ()):
                if not closed or length < max_length or g.target == s:
                    longer.setdefault((s, g.target), []).extend((path + (g,), rp + r) for path, rp in paths)
        table.append(longer)
    return table


def substitutions(inner: Iterable, outer_keys: Iterable, outer_at: Callable, max_length: int) -> Iterator[tuple]:
    """Every term of a quadratic equation that can be nonzero.

    A term puts the output g (coefficient c, the k-th item of its chain) of
    an inner operation on key1 into position p of an outer key key2 with
    key2[p] = g.  It lives on the tuple xs = key2[:p] + key1 + key2[p+1:],
    as its block xs[i:j] with (i, j) = (p, p + len(key1)); no other block
    of any tuple has a nonzero term.

    `inner` gives (key1, t, chain), t the module slot of key1 or None.  The
    output of an operation with a slot is a module element and goes into
    the slot of an outer key: the pairs (key2, s2) of outer_at(g).  Any
    other output goes into a position p != s2 of one of `outer_keys`,
    pairs (key2, s2) with s2 None where there is no module slot.

    Yields ((xs, slot), (i, j, k), key2, s2, c, below) for every xs of at
    most max_length entries.  `below` is the sum of the order degrees of
    xs[:i]: the reduced degree deg + 1 of each entry, the plain degree of
    a module element.  This is the sign rule of every quadratic equation
    in the package: putting the block's output back into the tuple
    contributes (-1)^below, and callers add only a constant twist for the
    operations involved, except that a degree-n morphism inside the block
    counts n * below in place of below.
    """
    elsewhere: dict = {}
    for key2, s2 in outer_keys:
        for p, x in enumerate(key2):
            if p != s2:
                elsewhere.setdefault(x, []).append((key2, s2, p))
    for key1, t, chain in inner:
        for k, (g, c) in enumerate(chain.items()):
            places = elsewhere.get(g, []) if t is None else [(key2, s2, s2) for key2, s2 in outer_at(g)]
            for key2, s2, p in places:
                if len(key2) + len(key1) - 1 > max_length:
                    continue
                if t is not None:
                    slot = p + t
                elif s2 is None or s2 < p:
                    slot = s2
                else:
                    slot = s2 + len(key1) - 1
                below = sum(x.degree if n == s2 else x.degree + 1 for n, x in enumerate(key2[:p]))
                yield (key2[:p] + key1 + key2[p + 1 :], slot), (p, p + len(key1), k), key2, s2, c, below


def term_report(
    passes: list[tuple], cat: AinfCategory, up_to: int, elements: list | None = None
) -> VerificationReport:
    """The report of a quadratic equation, from its possibly nonzero terms.

    `passes` lists (terms, op, sign): each term of substitutions adds
    sign(below) * c * op(key2, s2) to the residual of its tuple (xs, slot).
    The terms of one tuple are added by (pass, i, j, k), the order in which
    a walk over its blocks (by i, then j) meets them, so every residual
    comes out exactly as that walk over the tuple builds it, insertion
    order included.

    The checked tuples are those counted by tuple_count(cat, up_to,
    elements), and the violations come in the order that lists them: by
    length, module slot, then the indices of the entries (generators in
    cat.generators() order, the slot's element in `elements` order).
    """
    gens = {g: n for n, g in enumerate(cat.generators())}
    elems = {m: n for n, m in enumerate(elements or ())}
    ops = [op for _, op, _ in passes]
    by_tuple: dict = {}
    for n, (terms, _, sign) in enumerate(passes):
        for where, (i, j, k), key, s, c, below in terms:
            by_tuple.setdefault(where, []).append((n, i, j, k, key, s, sign(below) * c))
    found = []
    for (xs, slot), group in by_tuple.items():
        try:
            rank = (len(xs), slot, tuple(elems[x] if i == slot else gens[x] for i, x in enumerate(xs)))
        except KeyError:
            continue  # an entry outside the lists: not a checked tuple
        out: dict = {}
        for n, _, _, _, key, s, scale in sorted(group):  # (n, i, j, k) is unique
            chain_add(out, ops[n](key, s), scale)
        residual = chain_normalize(out, cat.ring)
        if residual:
            found.append((rank, Violation(xs, residual)))
    found.sort(key=lambda item: item[0])
    return VerificationReport(checked=tuple_count(cat, up_to, elements), violations=[v for _, v in found])


def mu_terms(cat: AinfCategory) -> list[tuple]:
    """Every mu table term as an inner operation (key, None, chain)."""
    return [(key, None, chain) for table in cat.mu.values() for key, chain in table.items()]


def _largest_arity(cat: AinfCategory) -> int:
    return max((d for d, table in cat.mu.items() if table), default=1)


def relation_depth(cat: AinfCategory) -> int:
    """The tuple length up to which verify_ainf checks every relation.

    With m the largest arity of a term, a nonzero residual needs a pair of
    terms, so it sits on a tuple of length at most 2m - 1.
    """
    return 2 * _largest_arity(cat) - 1


def morphism_depth(cat: AinfCategory, components: Mapping) -> int:
    """The bound on r + s up to which verify_bimodule_hom checks every
    equation of a morphism with these component tables.

    A nonzero residual needs a pair of terms, a component on at most a
    inputs and an operation on at most m (the largest arity of mu), so it
    sits at r + s <= a + m - 2.
    """
    longest = max((len(key) for table in components.values() for key in table), default=1)
    return longest + _largest_arity(cat) - 2


def verify_ainf(cat: AinfCategory, up_to: int) -> VerificationReport:
    """Check the structure relation on every composable tuple of length <= up_to.

    Only the tuples built from a pair of mu terms can have a nonzero
    residual; those are found by substitutions and evaluated in full.
    """
    outer = [(key, None) for table in cat.mu.values() for key in table]
    terms = substitutions(mu_terms(cat), outer, None, up_to)
    return term_report([(terms, lambda key, _: cat.mu_key(key), parity_sign)], cat, up_to)


# ---------------------------------------------------------------------------
# mutation utility (used by the detection suites and the CLI witnesses)


def with_ring(cat: AinfCategory, ring: str) -> AinfCategory:
    """The same category with coefficients in the requested ring.

    Integral data reduces mod 2 (frozen_table reduces every term and drops
    the zeros); the reverse direction has no canonical lift and is rejected.
    """
    if ring == cat.ring:
        return cat
    if ring == RING_Z:
        raise ValueError("cannot lift mod-2 data to integral coefficients")
    units = {obj: chain_normalize(ch, RING_F2) for obj, ch in cat.units.items()}
    return AinfCategory(objects=list(cat.objects), hom=dict(cat.hom), mu=dict(cat.mu), ring=RING_F2, units=units)

